"""Centralized charging control: transforms, solver optimality, feasibility."""

import copy
import math
import pickle
import struct
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrcwpt import (
    ChargingProblem,
    SolveStatus,
    SwitchState,
    SystemConfig,
    ValidationError,
    brute_force_oracle,
    optimize_loads,
    parse_scenario,
    solve_closed_form,
    solve_linear_oracle,
)

from mrcwpt import central
from mrcwpt._sums import left_dot
from mrcwpt.errors import NumericalError

import central_eager_reference
import central_reference
import grid_reference
from conftest import (
    _feasible_random_system, bench_system, random_loads, random_switch, random_system,
)
from nnls_reference import reference_residual

EPS = float(np.finfo(float).eps)


def feasible_n2_problem(rng):
    """Random two-receiver problem that is comfortably feasible."""
    while True:
        config = random_system(rng, n=2, spread=1.5)
        x_mid = [float(np.sqrt(config.x_lo[k] * config.x_hi[k])) for k in range(2)]
        state = solve_closed_form(config, None, x_mid)
        reqs = tuple(0.5 * p for p in state.p)
        if all(r > 0 for r in reqs):
            return ChargingProblem(sys=config, p_req_eff=reqs)


class TestSolveConvex:
    def test_tiny_requirement_pushes_loads_to_lower_bound(self):
        # drawn power rises with every load, so slack requirements leave
        # the optimum at x_lo; confirmed against a fine 1-D scan
        config = bench_system(p_req=(1e-3,), n=1)
        sol = optimize_loads(ChargingProblem(sys=config))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(config.x_lo[0], abs=1e-5)

        grid = np.arange(1.0, 100.0 + 1e-9, 1e-3)
        denom = config.transmitter.resistance + (config.w * config.h[0]) ** 2 / (
            config.receivers[0].resistance + grid
        )
        p_tx = 0.5 * abs(config.v_tx) ** 2 / denom
        p_1 = (
            0.5 * abs(config.v_tx) ** 2 * (config.w * config.h[0]) ** 2 * grid
            / ((config.receivers[0].resistance + grid) ** 2 * denom**2)
        )
        feasible = p_1 >= 1e-3
        assert sol.p_tx <= p_tx[feasible].min() + 1e-6

    def test_inactive_requirements_dropped(self, bench3):
        sol = optimize_loads(ChargingProblem(sys=bench3, p_req_eff=(0.0, -5.0, 0.0)))
        assert sol.status is SolveStatus.OPTIMAL
        for k in range(3):
            assert sol.x[k] == pytest.approx(bench3.x_lo[k], abs=1e-5)

    def test_feasibility_boundary_bracket(self, bench3):
        # rounded reference coil values put the boundary near 37.6 W; the
        # unrounded couplings behind the reference sweep end at 37.95 W
        def status_at(p3):
            sol = optimize_loads(
                ChargingProblem(sys=bench3, p_req_eff=(17.5, 17.5, p3))
            )
            return sol.status

        assert status_at(37.4) is SolveStatus.OPTIMAL
        assert status_at(38.5) is SolveStatus.INFEASIBLE

    def test_benchmark_solution_kkt_structure(self, bench3):
        # the far receiver's constraint is active at its lower bound; the
        # near receivers sit strictly interior with slack, which satisfies
        # stationarity because the active constraint's cross-gradient is
        # parallel to the objective in their coordinates
        sol = optimize_loads(ChargingProblem(sys=bench3))  # p_req3 = 30
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.kkt_residual <= 1e-6
        assert sol.p[2] == pytest.approx(30.0, rel=1e-6)
        assert sol.x[2] == pytest.approx(bench3.x_lo[2], abs=1e-6)
        # no feasible local move improves the objective
        rng = np.random.default_rng(8)
        for _ in range(60):
            trial = [
                min(max(v * (1 + 1e-3 * rng.uniform(-1, 1)), bench3.x_lo[k]),
                    bench3.x_hi[k])
                for k, v in enumerate(sol.x)
            ]
            state = solve_closed_form(bench3, None, trial)
            if all(state.p[k] >= bench3.p_req[k] for k in range(3)):
                assert state.p_tx >= sol.p_tx * (1.0 - 1e-9)

    def test_grid_optimality_three_receivers(self, bench3):
        prob = ChargingProblem(sys=bench3)
        sol = optimize_loads(prob)
        oracle = brute_force_oracle(prob, 50)
        assert oracle.feasible
        assert sol.p_tx <= oracle.p_tx + 1e-6

    def test_objective_matches_conductance_form(self, bench3):
        sol = optimize_loads(ChargingProblem(sys=bench3))
        coupling = sum(
            (bench3.w * bench3.h[k]) ** 2
            / (bench3.receivers[k].resistance + sol.x[k])
            for k in range(3)
        )
        direct = 0.5 * abs(bench3.v_tx) ** 2 / (
            bench3.transmitter.resistance + coupling
        )
        assert sol.p_tx == pytest.approx(direct, rel=1e-9)

    def test_solution_feasible_through_circuit(self, bench3):
        sol = optimize_loads(ChargingProblem(sys=bench3))
        state = solve_closed_form(bench3, None, sol.x)
        for k in range(3):
            assert state.p[k] >= bench3.p_req[k] * (1.0 - 1e-6)

    def test_near_far_mitigation_direction(self, bench3):
        xs = []
        for p3 in (5.0, 15.0, 25.0, 35.0):
            sol = optimize_loads(
                ChargingProblem(sys=bench3, p_req_eff=(17.5, 17.5, p3))
            )
            assert sol.status is SolveStatus.OPTIMAL
            xs.append(sol.x)
        for a, b in zip(xs, xs[1:]):
            assert b[0] >= a[0] - 1e-6  # nearer receivers raise resistance
            assert b[1] >= a[1] - 1e-6

    def test_determinism(self, bench3):
        prob = ChargingProblem(sys=bench3)
        a = optimize_loads(prob)
        b = optimize_loads(prob)
        assert a.x == b.x and a.p_tx == b.p_tx and a.kkt_residual == b.kkt_residual

    def test_requirement_on_uncoupled_receiver_is_infeasible(self, bench3):
        from mrcwpt import SystemConfig

        config = SystemConfig(
            v_tx=bench3.v_tx, w=bench3.w, transmitter=bench3.transmitter,
            receivers=bench3.receivers, h=(bench3.h[0], 0.0, bench3.h[2]),
            x_lo=bench3.x_lo, x_hi=bench3.x_hi, p_req=(1.0, 1.0, 1.0),
        )
        sol = optimize_loads(ChargingProblem(sys=config))
        assert sol.status is SolveStatus.INFEASIBLE

    def test_subset_switch_configuration(self, bench3):
        sw = SwitchState(s=(1, 0, 1))
        sol = optimize_loads(
            ChargingProblem(sys=bench3, sw=sw, p_req_eff=(17.5, 0.0, 5.0))
        )
        assert sol.status is SolveStatus.OPTIMAL
        state = solve_closed_form(bench3, sw, sol.x)
        assert state.p[0] >= 17.5 * (1 - 1e-6)
        assert state.p[2] >= 5.0 * (1 - 1e-6)
        assert state.p[1] == 0.0


class TestDegenerateProblems:
    def test_kkt_holds_near_the_feasibility_boundary(self):
        # requirements scaled up to and past the achievable limit; optimal
        # returns must certify optimality even with degenerate duals, and
        # no floating-point warnings may escape the root finding
        rng = np.random.default_rng(31337)
        n_optimal = n_infeasible = 0
        with np.errstate(all="raise"):
            for _ in range(60):
                n = int(rng.integers(1, 4))
                config = random_system(rng, n=n, spread=2.0)
                x_mid = [
                    float(np.sqrt(config.x_lo[k] * config.x_hi[k]))
                    for k in range(n)
                ]
                p_mid = solve_closed_form(config, None, x_mid).p
                factor = 10 ** rng.uniform(-0.3, 1.0)
                reqs = tuple(factor * p for p in p_mid)
                if any(r <= 0 for r in reqs):
                    continue
                sol = optimize_loads(ChargingProblem(sys=config, p_req_eff=reqs))
                if sol.status is SolveStatus.OPTIMAL:
                    n_optimal += 1
                    assert sol.kkt_residual <= 1e-6
                else:
                    n_infeasible += 1
        assert n_optimal > 10 and n_infeasible > 5  # both regimes exercised


def permuted(config, perm):
    """The same system with its receivers listed in the order ``perm``."""
    def pick(values):
        return tuple(values[k] for k in perm)

    return replace(
        config, receivers=pick(config.receivers), h=pick(config.h),
        x_lo=pick(config.x_lo), x_hi=pick(config.x_hi), p_req=pick(config.p_req),
    )


def feasible_random_system(rng, n):
    """Random system whose requirements are 0.8 p(x0) at a random box point x0."""
    config = random_system(rng, n=n, spread=2.0)
    x0 = random_loads(rng, config)
    state = solve_closed_form(config, None, x0)
    return replace(config, p_req=tuple(0.8 * p for p in state.p)), state.p_tx


def largest_feasible_scale(config):
    """Largest factor on every requirement that stays feasible (bisection)."""
    def feasible(f):
        prob = ChargingProblem(sys=config, p_req_eff=tuple(f * p for p in config.p_req))
        return optimize_loads(prob).status is SolveStatus.OPTIMAL

    lo, hi = 0.0, 1e3
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if feasible(mid) else (lo, mid)
    return lo


class TestScalarReduction:
    def test_benchmark_optimum_matches_closed_form(self, bench3):
        # receiver 3 sits at x_lo with p_3 = 30 W, which fixes
        # D* = sqrt(|v|^2/2 B_3 x_lo / ((r_3 + x_lo)^2 p_3)) and p_tx = |v|^2 / (2 D*)
        half_v2 = 0.5 * abs(bench3.v_tx) ** 2
        b_3 = (bench3.w * bench3.h[2]) ** 2
        r_3 = bench3.receivers[2].resistance
        x_lo = bench3.x_lo[2]
        d_star = math.sqrt(half_v2 * b_3 * x_lo / ((r_3 + x_lo) ** 2 * 30.0))
        sol = optimize_loads(ChargingProblem(sys=bench3))
        assert sol.p_tx == pytest.approx(half_v2 / d_star, rel=1e-12)

    def test_permuting_receivers_permutes_loads(self, bench3):
        rng = np.random.default_rng(5)
        cases = [bench_system(p_req=(17.5, 17.5, p3)) for p3 in (5.0, 30.0, 37.0)]
        cases += [feasible_random_system(rng, int(rng.integers(2, 7)))[0]
                  for _ in range(12)]
        for config in cases:
            n = config.n_receivers
            base = optimize_loads(ChargingProblem(sys=config))
            assert base.status is SolveStatus.OPTIMAL
            for _ in range(3):
                perm = [int(k) for k in rng.permutation(n)]
                sol = optimize_loads(ChargingProblem(sys=permuted(config, perm)))
                assert sol.status is SolveStatus.OPTIMAL
                expected = [base.x[k] for k in perm]
                assert sol.x == pytest.approx(expected, rel=1e-12)
                assert sol.p_tx == pytest.approx(base.p_tx, rel=1e-12)

    def test_source_scaling_leaves_loads_unchanged(self, bench3):
        rng = np.random.default_rng(6)
        cases = [bench3] + [feasible_random_system(rng, int(rng.integers(1, 7)))[0]
                            for _ in range(10)]
        for config in cases:
            base = optimize_loads(ChargingProblem(sys=config))
            for alpha in (0.25, 3.7):
                scaled = replace(config, v_tx=alpha * config.v_tx,
                                 p_req=tuple(alpha**2 * p for p in config.p_req))
                sol = optimize_loads(ChargingProblem(sys=scaled))
                assert sol.status is SolveStatus.OPTIMAL
                assert sol.x == pytest.approx(base.x, rel=1e-12)
                assert sol.p_tx == pytest.approx(alpha**2 * base.p_tx, rel=1e-12)

    def test_certificate_finite_at_the_feasibility_boundary(self, bench3):
        # at the last feasible scale the feasible set shrinks to a point
        # where the active gradients are linearly dependent, so no finite
        # multipliers exist and only finiteness is required there; from
        # 1e-12 inside the boundary on, the optimum must be certified
        rng = np.random.default_rng(7)
        cases = [bench3] + [feasible_random_system(rng, int(rng.integers(1, 5)))[0]
                            for _ in range(6)]
        for config in cases:
            scale = largest_feasible_scale(config)
            for f in (scale, scale * (1.0 - 1e-12), scale * (1.0 - 1e-9), 0.5 * scale):
                reqs = tuple(f * p for p in config.p_req)
                sol = optimize_loads(ChargingProblem(sys=config, p_req_eff=reqs))
                assert sol.status is SolveStatus.OPTIMAL
                assert math.isfinite(sol.kkt_residual)
                if f < scale:
                    assert sol.kkt_residual <= 1e-6

    @pytest.mark.parametrize("n", [30, 60])
    def test_large_systems_verified_by_mesh_solve(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            config, p_tx_x0 = feasible_random_system(rng, n)
            start = time.perf_counter()
            sol = optimize_loads(ChargingProblem(sys=config))
            elapsed = time.perf_counter() - start
            assert sol.status is SolveStatus.OPTIMAL
            assert sol.kkt_residual <= 1e-6
            assert sol.p_tx <= p_tx_x0 * (1.0 + 1e-12)
            mesh = solve_linear_oracle(config, None, sol.x)
            assert mesh.p_tx == pytest.approx(sol.p_tx, rel=1e-9)
            for k in range(n):
                assert mesh.p[k] >= config.p_req[k] * (1.0 - 1e-9)
            # loose on purpose: the reduction takes milliseconds here
            assert elapsed < 0.5


@st.composite
def charging_problems(draw):
    """A random system whose requirements are a drawn multiple (0.2 to 3)
    of the powers at a random load point: feasible and infeasible alike."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    config, _ = feasible_random_system(rng, draw(st.integers(1, 5)))
    scale = draw(st.floats(0.25, 3.75))
    return replace(config, p_req=tuple(scale * p for p in config.p_req))


def _same_solution(a, b, rel):
    assert a.status is b.status
    if a.status is SolveStatus.OPTIMAL:
        assert a.x == pytest.approx(b.x, rel=rel)
        assert a.p == pytest.approx(b.p, rel=rel)
        assert a.p_tx == pytest.approx(b.p_tx, rel=rel)


class TestSolverProperties:
    """Invariances and monotonicity of the centralized solver on drawn
    problems (derandomized, so every run draws the same examples)."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(charging_problems(), st.data())
    def test_flipping_a_coupling_sign_changes_nothing(self, config, data):
        k = data.draw(st.integers(0, config.n_receivers - 1))
        h = list(config.h)
        h[k] = -h[k]
        base = optimize_loads(ChargingProblem(sys=config))
        flipped = optimize_loads(ChargingProblem(sys=replace(config, h=tuple(h))))
        # repr spells every float exactly (and nan as nan)
        assert repr(flipped) == repr(base)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(charging_problems(), st.data())
    def test_uncoupled_receiver_without_requirement_changes_nothing(self, config, data):
        at = data.draw(st.integers(0, config.n_receivers))
        coil = config.receivers[data.draw(st.integers(0, config.n_receivers - 1))]

        def insert(values, value):
            return tuple(values[:at]) + (value,) + tuple(values[at:])

        grown = replace(
            config, receivers=insert(config.receivers, coil), h=insert(config.h, 0.0),
            x_lo=insert(config.x_lo, 1.0), x_hi=insert(config.x_hi, 10.0),
            p_req=insert(config.p_req, 1.0),
        )
        base = optimize_loads(ChargingProblem(sys=config))
        sol = optimize_loads(ChargingProblem(sys=grown, p_req_eff=insert(config.p_req, 0.0)))
        assert sol.status is base.status
        if sol.status is SolveStatus.OPTIMAL:
            assert sol.p[at] == 0.0
            drop = [k for k in range(grown.n_receivers) if k != at]
            reduced = replace(sol, x=tuple(sol.x[k] for k in drop),
                              p=tuple(sol.p[k] for k in drop))
            _same_solution(reduced, base, rel=1e-12)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(charging_problems(), st.data())
    def test_raising_a_requirement_never_lowers_p_tx(self, config, data):
        k = data.draw(st.integers(0, config.n_receivers - 1))
        factor = data.draw(st.floats(1.0, 4.0))
        reqs = list(config.p_req)
        reqs[k] *= factor
        base = optimize_loads(ChargingProblem(sys=config))
        raised = optimize_loads(ChargingProblem(sys=replace(config, p_req=tuple(reqs))))
        if base.status is SolveStatus.INFEASIBLE:
            assert raised.status is SolveStatus.INFEASIBLE
        elif raised.status is SolveStatus.OPTIMAL:
            # the roots are found to a few ulps: allow that much below
            assert raised.p_tx >= base.p_tx * (1.0 - 1e-12)


@st.composite
def feasible_problems(draw):
    """A random system, requirements 0.2 to 1.25 times the feasible 0.8 p(x0)
    (up to the powers at x0 itself), and a random switch state."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    config, _ = feasible_random_system(rng, draw(st.integers(1, 5)))
    scale = draw(st.floats(0.2, 1.25))
    n = config.n_receivers
    s = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(any))
    config = replace(config, p_req=tuple(scale * p for p in config.p_req))
    return ChargingProblem(sys=config, sw=SwitchState(s=tuple(s)))


class TestCertificate:
    """The closed-form KKT certificate against the fitted reference, and its
    shadow prices against the slope of p_tx."""

    def test_agrees_with_the_nnls_reference(self):
        # requirements are the powers at a load point x0 (some loads on a
        # bound) times 1 or a random factor, so optima often sit on a bound
        # with the requirement active there too
        rng = np.random.default_rng(2024)
        n_checked = n_partial = 0
        for _ in range(300):
            n = int(rng.integers(1, 8))
            config = random_system(rng, n=n, spread=2.0)
            sw = random_switch(rng, n) if rng.uniform() < 0.5 else None
            x0 = [float(rng.choice([x, config.x_lo[k], config.x_hi[k]]))
                  for k, x in enumerate(random_loads(rng, config))]
            p0 = solve_closed_form(config, sw, x0).p
            factor = float(rng.choice([1.0, 10 ** rng.uniform(-0.5, 0.3)]))
            reqs = tuple(factor * p if rng.uniform() < 0.8 else float(rng.choice([0.0, -1.0]))
                         for p in p0)
            prob = ChargingProblem(sys=config, sw=sw, p_req_eff=reqs)
            sol = optimize_loads(prob)
            if sol.status is SolveStatus.OPTIMAL and reference_residual(prob, sol.x) <= 1e-6:
                n_checked += 1
                n_partial += sw is not None and not all(sw.s)
                assert sol.kkt_residual <= 1e-6
        assert n_checked > 200 and n_partial > 50

    @pytest.mark.parametrize("p3, expected", [
        (5.0, (0.0, 1.48967, 0.0)),  # receiver 2 on its requirement and at x_lo
        (10.0, (0.0, 0.0, 3.23348)),
        (30.0, (0.0, 0.0, 1.86685)),
        (36.0, (6.22589, 6.32353, 6.97143)),
    ])
    def test_shadow_prices_are_the_slope_of_p_tx(self, p3, expected):
        config, _ = parse_scenario("three_receivers")
        reqs = (17.5, 17.5, p3)

        def p_tx(k, delta):
            moved = tuple(v + delta * (j == k) for j, v in enumerate(reqs))
            return optimize_loads(ChargingProblem(sys=config, p_req_eff=moved)).p_tx

        sol = optimize_loads(ChargingProblem(sys=config, p_req_eff=reqs))
        assert sol.shadow_prices == pytest.approx(expected, rel=1e-5)
        for k in range(3):
            slope = (p_tx(k, 1e-4) - p_tx(k, -1e-4)) / 2e-4
            assert sol.shadow_prices[k] == pytest.approx(slope, rel=1e-6, abs=1e-9)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(feasible_problems(), st.data())
    def test_shadow_price_properties(self, prob, data):
        config, s = prob.sys, prob.switch.s
        sol = optimize_loads(prob)
        assert sol.status is SolveStatus.OPTIMAL
        prices = sol.shadow_prices
        assert all(v >= 0.0 for v in prices)
        for k in range(config.n_receivers):
            if not s[k] or sol.p[k] > config.p_req[k] * (1.0 + 1e-6):
                assert prices[k] == 0.0
        perm = data.draw(st.permutations(range(config.n_receivers)))
        moved = optimize_loads(ChargingProblem(sys=permuted(config, perm),
                                               sw=SwitchState(s=tuple(s[k] for k in perm))))
        assert moved.shadow_prices == pytest.approx([prices[k] for k in perm], rel=1e-9)
        alpha = data.draw(st.floats(0.25, 4.0))
        scaled = replace(config, v_tx=alpha * config.v_tx,
                         p_req=tuple(alpha**2 * p for p in config.p_req))
        sol = optimize_loads(ChargingProblem(sys=scaled, sw=prob.switch))
        assert sol.shadow_prices == pytest.approx(prices, rel=1e-9)

    def test_prices_infinite_at_the_feasibility_boundary(self, bench3):
        # the feasible set shrinks to a point and 1 + 2 D T vanishes: no
        # constraint qualification, so the Fritz John multipliers certify it
        scale = largest_feasible_scale(bench3)
        assert scale == pytest.approx(1.1212645345775987, rel=1e-12)
        reqs = tuple(scale * p for p in bench3.p_req)
        sol = optimize_loads(ChargingProblem(sys=bench3, p_req_eff=reqs))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.p == pytest.approx(reqs, rel=1e-9)
        assert sol.shadow_prices == (math.inf,) * 3
        assert math.isfinite(sol.kkt_residual)


    def test_prices_infinite_at_every_tangency(self):
        # the boundary in other requirement directions: where every
        # requirement is held there, the feasible set vanishes at a tangency
        # of phi, which Brent's root leaves about sqrt(eps) away
        rng = np.random.default_rng(3)
        tangencies = 0
        for _ in range(12):
            config = bench_system(p_req=tuple(rng.uniform(1.0, 30.0, 3)))
            scale = largest_feasible_scale(config)
            reqs = tuple(scale * p for p in config.p_req)
            sol = optimize_loads(ChargingProblem(sys=config, p_req_eff=reqs))
            if sol.p == pytest.approx(reqs, rel=1e-9):
                tangencies += 1
                assert sol.shadow_prices == (math.inf,) * 3
        assert tangencies >= 10


@st.composite
def switched_problems(draw):
    """A charging_problems draw with 1 to 4 receivers (feasible and
    infeasible alike) and a random switch state."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    config, _ = feasible_random_system(rng, draw(st.integers(1, 4)))
    scale = draw(st.floats(0.25, 3.75))
    config = replace(config, p_req=tuple(scale * p for p in config.p_req))
    n = config.n_receivers
    s = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(any))
    return ChargingProblem(sys=config, sw=SwitchState(s=tuple(s)))


def _bits(values):
    return struct.pack(f"<{len(values)}d", *values)


def _same_as_eager(late, eager):
    """``late``, whose certificate is first read here, against the solve of
    ``tests/central_eager_reference.py``, which computed it in the solve."""
    assert _bits(late.shadow_prices) == _bits(eager.shadow_prices)
    assert _bits([late.kkt_residual]) == _bits([eager.kkt_residual])
    # repr spells every float exactly (and nan as nan)
    assert repr(late) == repr(eager)
    if late.status is SolveStatus.OPTIMAL:  # an infeasible one holds nan, unequal to itself
        assert late == eager and eager == late
        assert hash(late) == hash(eager)


class TestDeferredCertificate:
    """optimize_loads computes the certificate on its first read: read after
    other solves, it has the bits of the one computed inside the solve."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.lists(switched_problems(), min_size=1, max_size=6))
    def test_read_later_is_the_certificate_of_the_solve(self, probs):
        late = [optimize_loads(prob) for prob in probs]
        eager = [central_eager_reference.optimize_loads(prob) for prob in probs]
        for a, b in zip(late, eager):
            _same_as_eager(a, b)

    def test_read_later_at_every_tangency(self):
        # the draws of TestCertificate.test_prices_infinite_at_every_tangency
        rng = np.random.default_rng(3)
        probs = []
        for _ in range(12):
            config = bench_system(p_req=tuple(rng.uniform(1.0, 30.0, 3)))
            scale = largest_feasible_scale(config)
            probs.append(ChargingProblem(
                sys=config, p_req_eff=tuple(scale * p for p in config.p_req)))
        late = [optimize_loads(prob) for prob in probs]
        eager = [central_eager_reference.optimize_loads(prob) for prob in probs]
        for a, b in zip(late, eager):
            _same_as_eager(a, b)
        assert sum(sol.shadow_prices == (math.inf,) * 3 for sol in late) >= 10

    def test_copies_of_an_unread_solution_carry_its_certificate(self, bench3):
        prob = ChargingProblem(sys=bench3)
        eager = central_eager_reference.optimize_loads(prob)
        _same_as_eager(pickle.loads(pickle.dumps(optimize_loads(prob))), eager)
        _same_as_eager(copy.copy(optimize_loads(prob)), eager)
        _same_as_eager(copy.deepcopy(optimize_loads(prob)), eager)
        moved = replace(optimize_loads(prob), p_tx=1.0)
        assert (moved.kkt_residual, moved.shadow_prices) == (eager.kkt_residual, eager.shadow_prices)

    def test_a_failing_certificate_raises_where_it_is_read(self, bench3, monkeypatch):
        def overflow(*args):
            raise OverflowError("(34, 'Numerical result out of range')")

        with monkeypatch.context() as patch:
            patch.setattr(central, "_certificate", overflow)
            sol = optimize_loads(ChargingProblem(sys=bench3))
            assert sol.status is SolveStatus.OPTIMAL
            with pytest.raises(OverflowError):
                sol.kkt_residual
            with pytest.raises(OverflowError):
                repr(sol)
        # a failed read keeps nothing: the next read computes it again
        _same_as_eager(sol, central_eager_reference.optimize_loads(ChargingProblem(sys=bench3)))


def _built(config, **changes):
    """A new SystemConfig from ``config``'s field values and ``changes``,
    built by the constructor without touching ``config`` again."""
    values = dict(v_tx=config.v_tx, w=config.w, transmitter=config.transmitter,
                  receivers=config.receivers, h=config.h, x_lo=config.x_lo,
                  x_hi=config.x_hi, p_req=config.p_req)
    return SystemConfig(**{**values, **changes})


class TestSolvedConfigCopies:
    """A copy of a solved config, whatever field it changes, solves as a
    freshly built equal config: a solve leaves nothing on a config that a
    copy could carry stale."""

    @staticmethod
    def _solutions(config, sw):
        return (repr(optimize_loads(ChargingProblem(sys=config))),
                repr(optimize_loads(ChargingProblem(sys=config, sw=sw))))

    def test_copies_of_solved_configs_solve_as_fresh_ones(self):
        rng = np.random.default_rng(28)
        for n in (1, 2, 3, 4, 2, 3):
            config, _ = feasible_random_system(rng, n)
            config = replace(config, p_req=tuple(0.5 * p for p in config.p_req)).tuned()
            sw = random_switch(rng, n)
            before = self._solutions(config, sw)
            # a box whose lower ends cut off the loads solved so far
            x_lo = tuple(1.2 * v for v in optimize_loads(ChargingProblem(sys=config)).x)
            x_hi = tuple(max(hi, 2.0 * lo) for lo, hi in zip(x_lo, config.x_hi))
            w = 1.1 * config.w
            cases = [
                (replace(config, h=tuple(0.95 * v for v in config.h)),
                 _built(config, h=tuple(0.95 * v for v in config.h))),
                (replace(config, x_lo=x_lo, x_hi=x_hi), _built(config, x_lo=x_lo, x_hi=x_hi)),
                (replace(config, receivers=tuple(
                    replace(c, resistance=1.5 * c.resistance) for c in config.receivers)),
                 _built(config, receivers=tuple(
                     replace(c, resistance=1.5 * c.resistance) for c in config.receivers))),
                (config.with_frequency(w),
                 _built(config, w=w, transmitter=config.transmitter.tuned(w),
                        receivers=tuple(c.tuned(w) for c in config.receivers))),
            ]
            for changed, fresh in cases:
                assert self._solutions(changed, sw) == self._solutions(fresh, sw)
                assert self._solutions(changed, sw)[0] != before[0]
            copied = pickle.loads(pickle.dumps(config))
            assert self._solutions(copied, sw) == self._solutions(_built(config), sw) == before

    def test_equal_configs_compare_and_hash_equal_solved_or_not(self, bench3):
        fresh = bench_system()
        assert fresh == bench3 and hash(fresh) == hash(bench3)
        optimize_loads(ChargingProblem(sys=bench3))
        assert fresh == bench3 and bench3 == fresh and hash(fresh) == hash(bench3)
        optimize_loads(ChargingProblem(sys=fresh))
        assert fresh == bench3 and hash(fresh) == hash(bench3)
        assert pickle.loads(pickle.dumps(bench3)) == bench_system()


def peak_in_box_problem(rng):
    """A drawn problem, N = 1..3, whose load boxes reach below the receiver
    resistance (x_lo = 0.05 r_n, x_hi = 20 r_n), so g - r g^2 peaks inside
    the box, with requirements 0.7 times the powers at random loads."""
    n = int(rng.integers(1, 4))
    config = random_system(rng, n=n)
    r = np.array([c.resistance for c in config.receivers])
    config = replace(config, x_lo=tuple(0.05 * r), x_hi=tuple(20.0 * r))
    x = np.exp(rng.uniform(np.log(0.05 * r), np.log(20.0 * r)))
    p = solve_closed_form(config, SwitchState.all_closed(n), tuple(x)).p
    return ChargingProblem(sys=replace(config, p_req=tuple(0.7 * np.array(p))))


class TestBruteForceOracle:
    def test_sandwiches_solver_on_random_problems(self):
        rng = np.random.default_rng(42)
        for _ in range(8):
            prob = feasible_n2_problem(rng)
            sol = optimize_loads(prob)
            if sol.status is not SolveStatus.OPTIMAL:
                continue
            oracle = brute_force_oracle(prob, 300)
            assert oracle.feasible
            assert sol.p_tx <= oracle.p_tx * (1.0 + 1e-9)
            assert oracle.p_tx <= sol.p_tx * 1.02  # grid-resolution gap

    def test_agrees_on_infeasibility(self, bench3):
        prob = ChargingProblem(sys=bench3, p_req_eff=(17.5, 17.5, 60.0))
        assert optimize_loads(prob).status is SolveStatus.INFEASIBLE
        assert not brute_force_oracle(prob, 40).feasible

    def test_tightening_requirements_never_helps(self, bench3):
        previous = 0.0
        for p3 in (5.0, 15.0, 25.0, 35.0):
            oracle = brute_force_oracle(
                ChargingProblem(sys=bench3, p_req_eff=(17.5, 17.5, p3)), 40
            )
            assert oracle.feasible
            assert oracle.p_tx >= previous - 1e-12
            previous = oracle.p_tx

    def test_upper_conductance_capped_by_a_requirement(self, monkeypatch):
        # load boxes reaching below the receiver resistance (x_lo = 0.05 r_n)
        # let g - r g^2 peak inside the box, so a requirement can close the
        # upper end of a receiver's interval before g_hi: the solver then
        # roots psi, the largest D whose upper ends still fit
        rooted = []
        brentq = central._brentq

        def spy(f, *args, **kwargs):
            rooted.append(f.__name__)
            return brentq(f, *args, **kwargs)

        monkeypatch.setattr(central, "_brentq", spy)
        rng = np.random.default_rng(0)
        psi_roots = 0
        for _ in range(200):
            prob = peak_in_box_problem(rng)
            rooted.clear()
            sol = optimize_loads(prob)
            assert sol.status is SolveStatus.OPTIMAL
            oracle = brute_force_oracle(prob, 300 if prob.sys.n_receivers <= 2 else 60)
            assert oracle.feasible
            assert sol.p_tx <= oracle.p_tx * (1.0 + 1e-9)
            assert sol.kkt_residual <= 1e-6
            if "psi" in rooted:
                psi_roots += 1
                assert sol.kkt_residual <= 1e-10
        assert psi_roots >= 50

    def test_cap_branch_certified_to_1e_12(self, monkeypatch):
        # where D ends on the least cap, the receiver whose interval closes
        # there sits at its peak g exactly; from the two interval ends, which
        # meet there only to sqrt(eps), its certificate read 1e-9 to 3.4e-8
        on_cap = []
        solve = central._max_coupling

        def spy(b_coef, r, g_lo, g_hi, c, r_tx):
            g = solve(b_coef, r, g_lo, g_hi, c, r_tx)
            d_cap = math.sqrt(central._least_cap(zip(c, r, g_lo, g_hi))[0])
            on_cap.append(abs(r_tx + left_dot(b_coef, g) - d_cap) <= 4 * EPS * d_cap)
            return g

        monkeypatch.setattr(central, "_max_coupling", spy)
        rng = np.random.default_rng(0)
        for _ in range(400):
            sol = optimize_loads(peak_in_box_problem(rng))
            assert sol.status is SolveStatus.OPTIMAL
            assert sol.kkt_residual <= 1e-12
        assert sum(on_cap) >= 50

    def test_slab_argmin_is_the_whole_grid_argmin(self, bench3):
        # the cases above, and a tie: receiver 1 is uncoupled, so p_tx does
        # not change along its axis, the first axis of the slabs, and every
        # slab holds the same minimum; the first in grid order must win
        rng = np.random.default_rng(42)
        cases = [(feasible_n2_problem(rng), 300) for _ in range(8)]
        cases += [(ChargingProblem(sys=bench3, p_req_eff=(17.5, 17.5, p3)), 40)
                  for p3 in (5.0, 15.0, 25.0, 35.0, 60.0)]
        rng = np.random.default_rng(0)
        for _ in range(30):
            prob = peak_in_box_problem(rng)
            cases.append((prob, 300 if prob.sys.n_receivers <= 2 else 60))
        tie = replace(bench_system(p_req=(5.0, 5.0), n=2), h=(0.0, bench3.h[1]))
        cases.append((ChargingProblem(sys=tie, p_req_eff=(0.0, 5.0)), 300))
        for prob, g in cases:
            oracle = brute_force_oracle(prob, g)
            expected = grid_reference.brute_force_oracle(prob, g)
            if expected is None:
                assert not oracle.feasible
            else:
                assert (oracle.x, oracle.p_tx) == expected
        assert oracle.x[0] == tie.x_lo[0]

    def test_dimension_guard(self):
        rng = np.random.default_rng(1)
        config = random_system(rng, n=4)
        with pytest.raises(ValidationError, match="at most 3"):
            brute_force_oracle(ChargingProblem(sys=config), 10)


def drawn_problems(rng, count):
    """``count`` drawn problems: N = 1..6, random switches, every third
    with the box 0.05 r..20 r (so the psi and phi roots run), requirements
    0.3..2 times the powers at random loads (every drawn receiver is
    coupled, so none is infeasible up front)."""
    for i in range(count):
        n = int(rng.integers(1, 7))
        config = random_system(rng, n=n)
        if i % 3 == 0:
            r = np.array([c.resistance for c in config.receivers])
            config = replace(config, x_lo=tuple(0.05 * r), x_hi=tuple(20.0 * r))
        sw = random_switch(rng, n)
        p = solve_closed_form(config, sw, random_loads(rng, config)).p
        scale = rng.uniform(0.3, 2.0)
        reqs = tuple(scale * v if sw.s[k] else 0.0 for k, v in enumerate(p))
        yield ChargingProblem(sys=config, sw=sw, p_req_eff=reqs)


def drawn_reductions(rng, count):
    """The array inputs of ``central_reference.max_coupling`` for
    ``count`` drawn problems."""
    for prob in drawn_problems(rng, count):
        yield central_reference.problem_arrays(prob)


class TestPlainFloatSolver:
    """The plain-float reduction returns the bits of the array reference."""

    def test_conductances_match_the_array_reference(self, monkeypatch):
        # every verdict is the reference's, and off two branches every bit.
        # On phi's branch the largest root is bracketed from the maximizer
        # of s_max, not from phi's minimizer, so D and the conductances
        # agree to 1e-12. Where D ends on the least cap, the receivers whose
        # interval closes there sit at their peak, where the reference takes
        # two interval ends sqrt(eps) apart: D agrees to a few eps, and the
        # other conductances, whose share of the spread that moves, to 1e-7.
        rooted = []
        root = central._brentq
        monkeypatch.setattr(central, "_brentq",
                            lambda f, lo, hi: rooted.append(f) or root(f, lo, hi))
        infeasible = phi_roots = capped = 0
        for arrays in drawn_reductions(np.random.default_rng(18), 2000):
            rooted.clear()
            expected = central_reference.max_coupling(*arrays)
            b_coef, r, g_lo, g_hi, c = (v.tolist() for v in arrays[:5])
            r_tx = arrays[5]
            got = central._max_coupling(b_coef, r, g_lo, g_hi, c, r_tx)
            if expected is None:
                assert got is None
                infeasible += 1
                continue
            expected = expected.tolist()
            d = r_tx + left_dot(b_coef, got)
            cap, peaks = central._least_cap(zip(c, r, g_lo, g_hi))
            if any(f.__name__ == "phi" for f in rooted):
                phi_roots += 1
                assert d == pytest.approx(r_tx + left_dot(b_coef, expected), rel=1e-12, abs=0)
                assert got == pytest.approx(expected, rel=1e-12, abs=0)
            elif not rooted and math.sqrt(cap) <= r_tx + left_dot(b_coef, g_hi):
                capped += 1
                assert d == pytest.approx(math.sqrt(cap), rel=4 * EPS, abs=0)
                assert d == pytest.approx(r_tx + left_dot(b_coef, expected), rel=4 * EPS, abs=0)
                for gk, ek, pk in zip(got, expected, peaks):
                    assert gk == pk if pk is not None else gk == pytest.approx(ek, rel=1e-7, abs=0)
            else:
                assert got == expected
        # every outcome is drawn often
        assert 50 <= infeasible <= 1950
        assert phi_roots >= 50 and capped >= 50

    def test_brentq_matches_scipy(self, monkeypatch):
        from scipy.optimize import brentq

        brackets = []
        root = central._brentq

        def spy(f, lo, hi):
            brackets.append((f, lo, hi))
            return root(f, lo, hi)

        monkeypatch.setattr(central, "_brentq", spy)
        for arrays in drawn_reductions(np.random.default_rng(19), 600):
            central._max_coupling(*(v.tolist() for v in arrays[:5]), arrays[5])
        names = [f.__name__ for f, _, _ in brackets]
        for name in ("psi", "phi", "stationarity"):
            assert names.count(name) >= 20
        for f, lo, hi in brackets:
            expected = brentq(f, lo, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)
            assert root(f, lo, hi) == expected

    def test_powers_match_the_closed_form(self):
        # the solver reads its powers from resonant_powers, without the
        # currents; they are the closed form's bits at the returned loads
        solved = 0
        for prob in drawn_problems(np.random.default_rng(18), 2000):
            sol = optimize_loads(prob)
            if sol.status is SolveStatus.INFEASIBLE:
                continue
            state = solve_closed_form(prob.sys, prob.switch, list(sol.x))
            assert sol.p_tx == state.p_tx
            assert sol.p == state.p
            solved += 1
        assert solved >= 50

    def test_interval_ends_are_roots_to_two_eps(self):
        # each end g of g - r g^2 = k, clipped to the box [0, inf), leaves an
        # exact residual within 2 eps of the largest term
        rng = np.random.default_rng(33)
        eps = Fraction(np.finfo(float).eps)
        for rk, t in zip((10 ** rng.uniform(-3, 2, 20_000)).tolist(),
                         rng.uniform(0, 1, 20_000).tolist()):
            k = t / (4.0 * rk)
            a, s = central._lower_end(k, rk, 0.0)
            b = central._upper_end(s, rk, math.inf)
            for g in (a, b):
                fg, fr, fk = Fraction(g), Fraction(rk), Fraction(k)
                residual = abs(fg - fr * fg * fg - fk)
                assert residual <= 2 * eps * max(fk, fg, fr * fg * fg), (rk, k, g)

    def test_brentq_failures_are_numerical_errors(self):
        with pytest.raises(NumericalError, match="NaN"):
            central._brentq(lambda d: math.nan, 0.0, 1.0)
        with pytest.raises(NumericalError, match="one sign"):
            central._brentq(lambda d: 1e-200, 0.0, 1.0)
        # a step at 1e-250 in [-1e300, 1e300] takes more than 100 bisections
        with pytest.raises(NumericalError, match="converge"):
            central._brentq(lambda d: 1.0 if d > 1e-250 else -1.0, -1e300, 1e300)


def feasible_scale(prob):
    """s_max, the largest s at which some load vector meets s times
    ``prob``'s requirements: the largest u / Phi(u)^2 up to the least cap,
    from the kinked search the solver's verdict and the scaled slot share."""
    _, r, b_coef, g_lo, g_hi, _, c = central._constants(
        prob.sys, prob.switch.connected, prob.requirements)
    r_tx = prob.sys.transmitter.resistance
    cap, _ = central._least_cap(zip(c, r, g_lo, g_hi))
    u = central._kinked_max(b_coef, r, g_lo, c, r_tx, cap, 2)
    phi = r_tx + left_dot(b_coef, [central._lower_end(ck * u, rk, lo)[0]
                                   for ck, rk, lo in zip(c, r, g_lo)])
    return u / (phi * phi)


def scaled_feasible(prob, s):
    """``optimize_loads``' verdict on s times ``prob``'s requirements."""
    reqs = tuple(s * p for p in prob.requirements)
    return optimize_loads(replace(prob, p_req_eff=reqs)).status is SolveStatus.OPTIMAL


class TestFeasibleScale:
    """s_max against the solver's verdict, on the bench system at 55 W and
    at (17.5, 17.5, 60) W, both infeasible, and 40 seeded feasible systems."""

    PROBLEMS = [
        lambda: ChargingProblem(sys=bench_system(p_req=(17.5, 17.5, 55.0))),
        lambda: ChargingProblem(sys=bench_system(p_req=(17.5, 17.5, 60.0))),
        *(lambda i=i: ChargingProblem(sys=_feasible_random_system(5000 + i, 1 + i % 4))
          for i in range(40)),
    ]

    def test_bench_scales(self):
        assert feasible_scale(self.PROBLEMS[0]()) == pytest.approx(0.800003415155076, rel=1e-15)
        assert feasible_scale(self.PROBLEMS[1]()) == pytest.approx(0.7564179561088494, rel=1e-15)

    def test_matches_a_bisection_of_the_verdict(self):
        for make in self.PROBLEMS:
            prob = make()
            lo, hi = 0.0, 1.0
            while scaled_feasible(prob, hi):
                lo, hi = hi, 2.0 * hi
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                lo, hi = (mid, hi) if scaled_feasible(prob, mid) else (lo, mid)
            assert feasible_scale(prob) == pytest.approx(lo, rel=1e-12, abs=0)

    def test_verdict_flips_only_next_to_s_max(self):
        # the verdict is not exactly monotone in the last bits of the
        # scale, but it changes only within 4 steps of 2^-52 of s_max
        for make in self.PROBLEMS:
            prob = make()
            s_max = feasible_scale(prob)
            verdicts = [scaled_feasible(prob, s_max * (1.0 + i * 2.0**-52)) for i in range(-64, 65)]
            assert verdicts[0] and not verdicts[-1]
            for i, (before, after) in enumerate(zip(verdicts, verdicts[1:]), start=-64):
                assert before == after or -4 <= i and i + 1 <= 4, i


def test_degenerate_bounds_rejected():
    config = bench_system()
    from dataclasses import replace

    pinned = replace(config, x_lo=(2.5, 1.0, 1.0), x_hi=(2.5, 100.0, 100.0))
    with pytest.raises(ValidationError, match="x_lo < x_hi"):
        ChargingProblem(sys=pinned)
