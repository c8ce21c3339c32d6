"""Simplex solver checked against brute-force vertex enumeration."""

import itertools

import numpy as np
import pytest

from mrcwpt.lp import solve_lp


def vertex_oracle(c, a_le, b_le, a_ge, b_ge):
    """Minimum of c.x over the polytope by enumerating basic solutions."""
    c = np.asarray(c, float)
    n = len(c)
    rows = []
    if a_le is not None:
        for a, b in zip(np.atleast_2d(a_le), np.atleast_1d(b_le)):
            rows.append((np.asarray(a, float), float(b), "le"))
    if a_ge is not None:
        for a, b in zip(np.atleast_2d(a_ge), np.atleast_1d(b_ge)):
            rows.append((np.asarray(a, float), float(b), "ge"))
    for k in range(n):
        unit = np.zeros(n)
        unit[k] = 1.0
        rows.append((unit, 0.0, "ge"))
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        a_sq = np.array([rows[i][0] for i in combo])
        b_sq = np.array([rows[i][1] for i in combo])
        try:
            x = np.linalg.solve(a_sq, b_sq)
        except np.linalg.LinAlgError:
            continue
        ok = all(
            (a @ x <= b + 1e-7) if sense == "le" else (a @ x >= b - 1e-7)
            for a, b, sense in rows
        )
        if ok:
            value = float(c @ x)
            if best is None or value < best:
                best = value
    return best


def test_random_instances_match_vertex_enumeration():
    rng = np.random.default_rng(11)
    infeasible_seen = 0
    for _ in range(300):
        n = int(rng.integers(2, 7))
        m_le = int(rng.integers(1, 3))
        m_ge = int(rng.integers(0, 3))
        c = rng.uniform(0.1, 2, n)
        a_le = rng.uniform(0, 2, (m_le, n))
        b_le = rng.uniform(0.5, 3, m_le)
        a_ge = rng.uniform(0, 2, (m_ge, n)) if m_ge else None
        b_ge = rng.uniform(0.1, 1.5, m_ge) if m_ge else None
        sol = solve_lp(c, a_le, b_le, a_ge, b_ge)
        ref = vertex_oracle(c, a_le, b_le, a_ge, b_ge)
        if ref is None:
            assert sol.status == "infeasible"
            infeasible_seen += 1
        else:
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(ref, rel=1e-9, abs=1e-9)
    assert infeasible_seen > 0


def test_degenerate_time_allocation_shapes_stay_nonnegative():
    # the slot LP of time sharing: a unit budget row plus one ">=" row per
    # load, with requirements met exactly by a full-budget mix of two
    # columns, and sometimes a duplicated or scaled column; such degenerate
    # vertices leave roundoff in the tableau's right-hand sides
    rng = np.random.default_rng(0)
    for _ in range(2000):
        n = int(rng.integers(2, 16))
        m_ge = int(rng.integers(1, 5))
        cost = rng.uniform(0.1, 2.0, n)
        powers = rng.uniform(0.0, 2.0, (m_ge, n)) * (rng.uniform(size=(m_ge, n)) < 0.7)
        if rng.uniform() < 0.5:
            src, dst = rng.choice(n, 2, replace=False)
            scale = 1.0 if rng.uniform() < 0.5 else rng.uniform(0.5, 2.0)
            cost[dst] = scale * cost[src]
            powers[:, dst] = scale * powers[:, src]
        mix = np.zeros(n)
        mix[rng.choice(n, 2, replace=False)] = rng.dirichlet([1.0, 1.0])
        req = powers @ mix
        sol = solve_lp(cost, a_le=np.ones((1, n)), b_le=[1.0], a_ge=powers, b_ge=req)
        assert sol.status == "optimal"
        x = np.asarray(sol.x)
        assert min(x) >= 0.0
        assert x.sum() <= 1.0 + 1e-9
        assert np.all(powers @ x >= req - 1e-9)
        assert sol.objective <= cost @ mix + 1e-9


def test_single_variable_budget():
    # one slot must cover the requirement; no reason to use more time
    sol = solve_lp([2.0], a_le=[[1.0]], b_le=[10.0], a_ge=[[4.0]], b_ge=[6.0])
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.5, rel=1e-12)


def test_duplicate_columns_degeneracy():
    sol = solve_lp(
        [1.0, 1.0], a_le=[[1.0, 1.0]], b_le=[2.0], a_ge=[[1.0, 1.0]], b_ge=[1.0]
    )
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, rel=1e-12)


def test_infeasible_budget():
    sol = solve_lp([1.0], a_le=[[1.0]], b_le=[1.0], a_ge=[[1.0]], b_ge=[2.0])
    assert sol.status == "infeasible"
    assert sol.x is None


def test_unbounded_detected():
    with pytest.raises(ArithmeticError, match="unbounded"):
        solve_lp([-1.0], a_ge=[[1.0]], b_ge=[1.0])


def test_no_constraints():
    sol = solve_lp([1.0, 2.0])
    assert sol.x == (0.0, 0.0)
