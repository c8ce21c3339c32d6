"""Simplex solver checked against brute-force vertex enumeration."""

import itertools
import struct

import numpy as np
import pytest

from mrcwpt.errors import ValidationError
from mrcwpt.lp import solve_lp

import lp_reference


def vertex_oracle(c, budget, a_ge, b_ge):
    """Minimum of c.x over the polytope by enumerating basic solutions, or
    None when it is empty."""
    c = np.asarray(c, float)
    n = len(c)
    # every constraint as a row of a.x <= b
    rows = [(np.ones(n), float(budget))]
    rows += [(-np.asarray(a, float), -float(b)) for a, b in zip(a_ge, b_ge)]
    rows += [(-np.eye(n)[k], 0.0) for k in range(n)]
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        a_sq = np.array([rows[i][0] for i in combo])
        b_sq = np.array([rows[i][1] for i in combo])
        try:
            x = np.linalg.solve(a_sq, b_sq)
        except np.linalg.LinAlgError:
            continue
        if all(a @ x <= b + 1e-7 for a, b in rows):
            value = float(c @ x)
            if best is None or value < best:
                best = value
    return best


def test_random_instances_match_vertex_enumeration():
    rng = np.random.default_rng(11)
    infeasible_seen = 0
    for _ in range(300):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(0, 4))
        c = rng.uniform(0.1, 2, n)
        budget = rng.uniform(0.5, 3)
        a_ge = rng.uniform(0, 2, (k, n))
        b_ge = rng.uniform(0.1, 1.5, k) * budget
        sol = solve_lp(c, budget, a_ge, b_ge)
        ref = vertex_oracle(c, budget, a_ge, b_ge)
        if ref is None:
            assert sol.status == "infeasible"
            assert sol.x is None
            infeasible_seen += 1
        else:
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(ref, rel=1e-9, abs=1e-9)
            x = np.asarray(sol.x)
            assert min(x) >= 0.0
            assert x.sum() <= budget * (1.0 + 1e-9)
            assert np.all(a_ge @ x >= b_ge - 1e-9)
    assert infeasible_seen > 0


def test_degenerate_time_allocation_shapes_stay_nonnegative():
    # the slot LP of time sharing: a unit horizon plus one requirement row
    # per load, with requirements met exactly by a full-horizon mix of two
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
        sol = solve_lp(cost, 1.0, powers, req)
        assert sol.status == "optimal"
        x = np.asarray(sol.x)
        assert min(x) >= 0.0
        assert x.sum() <= 1.0 + 1e-9
        assert np.all(powers @ x >= req - 1e-9)
        assert sol.objective <= cost @ mix + 1e-9


def test_single_variable_budget():
    # one slot must cover the requirement; no reason to use more time
    sol = solve_lp([2.0], 10.0, [[4.0]], [6.0])
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.5, rel=1e-12)


def test_no_requirement_leaves_every_slot_empty():
    sol = solve_lp([1.0, 2.0], 1.0, np.zeros((0, 2)), [])
    assert sol.status == "optimal"
    assert sol.x == (0.0, 0.0)


def test_duplicate_columns_degeneracy():
    sol = solve_lp([1.0, 1.0], 2.0, [[1.0, 1.0]], [1.0])
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, rel=1e-12)


def test_infeasible_budget():
    sol = solve_lp([1.0], 1.0, [[1.0]], [2.0])
    assert sol.status == "infeasible"
    assert sol.x is None


@pytest.mark.parametrize(
    "budget, b_ge", [(-1.0, [1.0]), (1.0, [-1e-300]), (float("nan"), [1.0]), (1.0, [float("nan")])]
)
def test_negative_budget_or_requirement_rejected(budget, b_ge):
    with pytest.raises(ValidationError, match=">= 0"):
        solve_lp([1.0], budget, [[1.0]], b_ge)


@pytest.mark.parametrize(
    "c, budget, a_ge, b_ge",
    [
        ([float("nan"), 1.0], 1.0, [[1.0, 1.0]], [0.5]),
        ([float("inf"), 1.0], 1.0, [[1.0, 1.0]], [0.5]),
        ([1.0, 1.0], 1.0, [[float("nan"), 1.0]], [0.5]),
        ([1.0, 1.0], 1.0, [[1.0, -float("inf")]], [0.5]),
        ([1.0, 1.0], 1.0, [[1.0, 1.0]], [float("inf")]),
        ([1.0, 1.0], float("inf"), [[1.0, 1.0]], [0.5]),
    ],
    ids=["nan-cost", "inf-cost", "nan-matrix", "inf-matrix", "inf-requirement", "inf-budget"],
)
def test_non_finite_input_rejected(c, budget, a_ge, b_ge):
    with pytest.raises(ValidationError, match="finite"):
        solve_lp(c, budget, a_ge, b_ge)


@pytest.mark.parametrize(
    "a_ge",
    [[[1.0, 1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0], [[1.0, 1.0], [1.0]], np.zeros((0, 2)),
     1.0],
    ids=["extra-column", "extra-row", "flat", "ragged", "no-rows", "scalar"],
)
def test_requirement_matrix_of_the_wrong_shape_rejected(a_ge):
    with pytest.raises(ValidationError, match="1 x 2"):
        solve_lp([1.0, 1.0], 1.0, a_ge, [0.5])


def _bits(sol):
    """status, x and objective as little-endian doubles."""
    x = None if sol.x is None else struct.pack(f"<{len(sol.x)}d", *sol.x)
    objective = None if sol.objective is None else struct.pack("<d", sol.objective)
    return sol.status, x, objective


def test_same_bits_as_the_numpy_tableau():
    # the random and the degenerate draws above, through the plain-float
    # solver and the numpy tableau it replaced (tests/lp_reference.py)
    rng = np.random.default_rng(25)
    statuses = set()
    for _ in range(1500):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(0, 4))
        c = rng.uniform(0.1, 2, n)
        budget = rng.uniform(0.5, 3)
        a_ge = rng.uniform(0, 2, (k, n))
        b_ge = rng.uniform(0.1, 1.5, k) * budget
        sol = solve_lp(c, budget, a_ge, b_ge)
        assert _bits(sol) == _bits(lp_reference.solve_lp(c, budget, a_ge, b_ge))
        statuses.add(sol.status)
    for _ in range(1500):
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
        assert _bits(solve_lp(cost, 1.0, powers, req)) == _bits(
            lp_reference.solve_lp(cost, 1.0, powers, req))
    assert statuses == {"optimal", "infeasible"}
