"""Dense two-phase simplex for the slot-duration linear program.

Solves  min c.x  s.t.  sum(x) <= budget,  a_ge x >= b_ge,  x >= 0,  the
one program time sharing poses: x holds the slot durations, the first row
is the horizon and each further row a load's average-power requirement.
Bland's rule is used for both the entering and leaving choices, which
guarantees termination on degenerate instances (Bland 1977, Math. Oper.
Res. 2:103-107). Sized for a handful of rows and at most a few dozen
columns.

The tableau is a list of rows of plain Python floats: at this size, array
overhead would cost more than the arithmetic. A pivot divides the pivot
row by its pivot and forms every other row with a nonzero entry in the
pivot column as ``u - f * v``, the two roundings of an array's ``-=`` of a
product, so the pivots and their bits are those of the numpy tableau the
solver used before (kept in ``tests/lp_reference.py``). The artificial
columns are dropped after phase one, where they end zeroed; phase two
never reads them. The objective c.x is added left to right, so its bits do
not depend on the BLAS kernel of the machine.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from ._sums import left_dot
from .errors import ValidationError

_PIVOT_TOL = 1e-11
_FEAS_TOL = 1e-9


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" or "infeasible"
    x: tuple[float, ...] | None
    objective: float | None


def _pivot(rows, basis, r, col):
    p = rows[r][col]
    pivot_row = rows[r] = [u / p for u in rows[r]]
    for i, row in enumerate(rows):
        f = row[col]
        if i != r and abs(f) > 0.0:
            rows[i] = [u - f * v for u, v in zip(row, pivot_row)]
    basis[r] = col


def _simplex(rows, basis, n_cols):
    """Run simplex on a tableau whose last row is the (negated) objective."""
    m = len(rows) - 1
    below = -_PIVOT_TOL
    while True:
        cost = rows[-1]
        for entering in range(n_cols):
            if cost[entering] < below:
                break
        else:
            return
        leaving = -1
        best = math.inf
        for i in range(m):
            a = rows[i][entering]
            if a > _PIVOT_TOL:
                ratio = rows[i][-1] / a
                if ratio < best - 1e-15 or (
                    abs(ratio - best) <= 1e-15
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best = ratio
                    leaving = i
        if leaving < 0:
            raise ArithmeticError("linear program is unbounded")
        _pivot(rows, basis, leaving, entering)


def _floats(values, message, item=float) -> list:
    """``item`` of each of ``values``, floats by default, as a list;
    ValidationError(message) where they are not a sequence of numbers."""
    try:
        return [item(v) for v in values]
    except (TypeError, ValueError):
        raise ValidationError(message) from None


def solve_lp(c, budget, a_ge, b_ge) -> LpSolution:
    """Minimize ``c @ x`` over ``x >= 0`` with ``sum(x) <= budget`` and
    ``a_ge @ x >= b_ge``; every input must be finite, ``budget`` and
    ``b_ge`` nonnegative, and ``a_ge`` one row of ``len(c)`` per entry of
    ``b_ge``.

    The tableau's rows are the horizon, then the requirement rows; its
    columns are x, one slack per row (+1 on the horizon, -1 on each
    requirement), then one artificial per requirement row.
    """
    budget = float(budget)
    b_ge = _floats(b_ge, "budget and requirements must be finite and >= 0")
    if not (0.0 <= budget < math.inf and all(0.0 <= v < math.inf for v in b_ge)):
        raise ValidationError("budget and requirements must be finite and >= 0")
    cost_x = _floats(c, "objective coefficients must be a finite vector")
    if not all(map(math.isfinite, cost_x)):
        raise ValidationError("objective coefficients must be a finite vector")
    n = len(cost_x)
    k = len(b_ge)
    shape = f"requirement matrix must be {k} x {n}"
    a_ge = _floats(a_ge, shape, lambda row: _floats(row, shape))
    if len(a_ge) != k or any(len(row) != n for row in a_ge):
        raise ValidationError(shape)
    if not all(map(math.isfinite, itertools.chain.from_iterable(a_ge))):
        raise ValidationError("requirement matrix must be finite")
    m = k + 1
    total = n + m + k
    rows = [[1.0] * (n + 1) + [0.0] * (total - n - 1) + [budget]]
    for j, (coef, req) in enumerate(zip(a_ge, b_ge)):
        row = coef + [0.0] * (total - n) + [req]
        row[n + 1 + j] = -1.0
        row[n + m + j] = 1.0
        rows.append(row)
    # the horizon's slack starts basic, each requirement's artificial too
    basis = [n] + [n + m + j for j in range(k)]

    if k:
        # phase one: minimize the sum of artificials
        rhs_max = max(1.0, budget, max(b_ge))
        cost = [0.0] * (n + m) + [1.0] * k + [0.0]
        for row in rows[1:]:
            cost = [u - v for u, v in zip(cost, row)]
        rows.append(cost)
        _simplex(rows, basis, total)
        phase1 = -rows[-1][-1]
        if phase1 > _FEAS_TOL * rhs_max:
            return LpSolution(status="infeasible", x=None, objective=None)
        # drive any artificial still basic out of the basis
        for i in range(m):
            if basis[i] >= n + m:
                row = rows[i]
                for j in range(n + m):
                    if abs(row[j]) > _PIVOT_TOL:
                        _pivot(rows, basis, i, j)
                        break
        rows = [row[: n + m] + row[-1:] for row in rows[:m]]

    # phase two: restore the real objective expressed in the current basis
    cost = cost_x + [0.0] * (m + 1)
    for i in range(m):
        if basis[i] < n + m:
            f = cost[basis[i]]
            if abs(f) > 0.0:
                cost = [u - f * v for u, v in zip(cost, rows[i])]
    rows.append(cost)
    _simplex(rows, basis, n + m)

    # every right-hand side stays >= 0 in exact arithmetic; roundoff on
    # degenerate vertices can leave one a few ulps below zero
    x = [0.0] * (n + m)
    for i in range(m):
        if basis[i] < n + m:
            x[basis[i]] = max(rows[i][-1], 0.0)
    x = x[:n]
    return LpSolution(status="optimal", x=tuple(x), objective=left_dot(cost_x, x))
