"""The slot-duration simplex as it was on a numpy tableau, kept as the
reference for ``mrcwpt.lp.solve_lp``.

``solve_lp`` below is the array form the solver used before it moved to
plain floats: the tableau is one 2-D array, a pivot divides the pivot row
in place and subtracts ``f * pivot_row`` from every other row whose
entry in the pivot column is nonzero, and the artificial columns stay in
the tableau, zeroed, through phase two. The pivots, tolerances and
roundings are those of the plain-float solver, but the two share no code,
so the tests can require the same status, ``x`` and objective bits. The
objective adds the products c_j x_j left to right, the solver's order (a
BLAS ``@`` would round by the CPU's kernel).
"""

import numpy as np

from mrcwpt.errors import ValidationError
from mrcwpt.lp import LpSolution

_PIVOT_TOL = 1e-11
_FEAS_TOL = 1e-9


def _pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    for i in range(tableau.shape[0]):
        if i != row and abs(tableau[i, col]) > 0.0:
            tableau[i] -= tableau[i, col] * tableau[row]
    basis[row] = col


def _simplex(tableau, basis, n_cols):
    """Run simplex on a tableau whose last row is the (negated) objective."""
    m = tableau.shape[0] - 1
    while True:
        cost = tableau[-1, :n_cols]
        entering = -1
        for j in range(n_cols):
            if cost[j] < -_PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return
        leaving = -1
        best = np.inf
        for i in range(m):
            a = tableau[i, entering]
            if a > _PIVOT_TOL:
                ratio = tableau[i, -1] / a
                if ratio < best - 1e-15 or (
                    abs(ratio - best) <= 1e-15
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best = ratio
                    leaving = i
        if leaving < 0:
            raise ArithmeticError("linear program is unbounded")
        _pivot(tableau, basis, leaving, entering)


def solve_lp(c, budget, a_ge, b_ge) -> LpSolution:
    """Minimize ``c @ x`` over ``x >= 0`` with ``sum(x) <= budget`` and
    ``a_ge @ x >= b_ge``; ``budget`` and ``b_ge`` must be nonnegative.

    The tableau's rows are the horizon, then the requirement rows; its
    columns are x, one slack per row (+1 on the horizon, -1 on each
    requirement), then one artificial per requirement row.
    """
    c = np.asarray(c, dtype=float)
    budget = float(budget)
    b_ge = np.asarray(b_ge, dtype=float).reshape(-1)
    if not budget >= 0.0 or not np.all(b_ge >= 0.0):
        raise ValidationError("budget and requirements must be >= 0")
    n = len(c)
    k = len(b_ge)
    m = k + 1
    total = n + m + k
    tableau = np.zeros((m + 1, total + 1))
    tableau[0, : n + 1] = 1.0
    tableau[0, -1] = budget
    tableau[1:m, :n] = np.asarray(a_ge, dtype=float).reshape(k, n)
    tableau[1:m, -1] = b_ge
    # the horizon's slack starts basic, each requirement's artificial too
    basis = [n] + [n + m + j for j in range(k)]
    for j in range(k):
        tableau[1 + j, n + 1 + j] = -1.0
        tableau[1 + j, n + m + j] = 1.0

    if k:
        # phase one: minimize the sum of artificials
        rhs_max = max(1.0, budget, float(b_ge.max()))
        tableau[-1, n + m : total] = 1.0
        for i in range(1, m):
            tableau[-1] -= tableau[i]
        _simplex(tableau, basis, total)
        phase1 = -tableau[-1, -1]
        if phase1 > _FEAS_TOL * rhs_max:
            return LpSolution(status="infeasible", x=None, objective=None)
        # drive any artificial still basic out of the basis
        for i in range(m):
            if basis[i] >= n + m:
                pivot_col = -1
                for j in range(n + m):
                    if abs(tableau[i, j]) > _PIVOT_TOL:
                        pivot_col = j
                        break
                if pivot_col >= 0:
                    _pivot(tableau, basis, i, pivot_col)
        tableau[:, n + m : total] = 0.0

    # phase two: restore the real objective expressed in the current basis
    tableau[-1, :] = 0.0
    tableau[-1, :n] = c
    for i in range(m):
        if basis[i] < n + m and abs(tableau[-1, basis[i]]) > 0.0:
            tableau[-1] -= tableau[-1, basis[i]] * tableau[i]
    _simplex(tableau, basis, n + m)

    # every right-hand side stays >= 0 in exact arithmetic; roundoff on
    # degenerate vertices can leave one a few ulps below zero
    x = np.zeros(n + m)
    for i in range(m):
        if basis[i] < n + m:
            x[basis[i]] = max(tableau[i, -1], 0.0)
    solution = x[:n]
    objective = 0.0
    for term in (c * solution).tolist():
        objective += term
    return LpSolution(
        status="optimal",
        x=tuple(float(v) for v in solution),
        objective=objective,
    )
