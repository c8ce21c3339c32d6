"""Dense two-phase simplex for small linear programs.

Solves  min c.x  s.t.  a_le x <= b_le,  a_ge x >= b_ge,  x >= 0.
Bland's rule is used for both the entering and leaving choices, which
guarantees termination on degenerate instances. Sized for problems with a
handful of rows and at most a few dozen columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PIVOT_TOL = 1e-11
_FEAS_TOL = 1e-9


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" or "infeasible"
    x: tuple[float, ...] | None
    objective: float | None


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


def solve_lp(c, a_le=None, b_le=None, a_ge=None, b_ge=None) -> LpSolution:
    """Minimize ``c @ x`` over ``x >= 0`` under the given row constraints."""
    c = np.asarray(c, dtype=float)
    n = len(c)
    rows = []
    rhs = []
    senses = []
    for a, b, sense in ((a_le, b_le, "le"), (a_ge, b_ge, "ge")):
        if a is None:
            continue
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        for i in range(a.shape[0]):
            rows.append(a[i])
            rhs.append(float(b[i]))
            senses.append(sense)
    m = len(rows)
    if m == 0:
        # with x >= 0 the minimum of c.x is at the origin unless c has a
        # negative entry, in which case the problem is unbounded
        if np.any(c < -_PIVOT_TOL):
            raise ArithmeticError("linear program is unbounded")
        return LpSolution(status="optimal", x=(0.0,) * n, objective=0.0)

    # equality form: one slack (+1 for <=, -1 for >=) per row, then flip
    # rows to make every right-hand side nonnegative
    a_eq = np.zeros((m, n + m))
    b_eq = np.array(rhs)
    for i in range(m):
        a_eq[i, :n] = rows[i]
        a_eq[i, n + i] = 1.0 if senses[i] == "le" else -1.0
        if b_eq[i] < 0.0:
            a_eq[i] = -a_eq[i]
            b_eq[i] = -b_eq[i]

    # rows whose slack survived the flip with +1 start basic; the rest get
    # an artificial variable
    basis = [-1] * m
    artificial = []
    for i in range(m):
        if a_eq[i, n + i] == 1.0:
            basis[i] = n + i
        else:
            artificial.append(i)
    n_art = len(artificial)
    total = n + m + n_art
    tableau = np.zeros((m + 1, total + 1))
    tableau[:m, : n + m] = a_eq
    tableau[:m, -1] = b_eq
    for j, i in enumerate(artificial):
        tableau[i, n + m + j] = 1.0
        basis[i] = n + m + j

    if n_art:
        # phase one: minimize the sum of artificials
        for j in range(n_art):
            tableau[-1, n + m + j] = 1.0
        for i in artificial:
            tableau[-1] -= tableau[i]
        _simplex(tableau, basis, total)
        phase1 = -tableau[-1, -1]
        if phase1 > _FEAS_TOL * max(1.0, float(np.abs(b_eq).max())):
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
    return LpSolution(
        status="optimal",
        x=tuple(float(v) for v in solution),
        objective=float(c @ solution),
    )
