"""Centralized charging control: transforms, solver optimality, feasibility."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from mrcwpt import (
    ChargingProblem,
    SolveStatus,
    SwitchState,
    ValidationError,
    brute_force_oracle,
    optimize_loads,
    solve_closed_form,
    solve_convex,
    solve_linear_oracle,
)

from conftest import bench_system, random_loads, random_system


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
        sol = solve_convex(ChargingProblem(sys=config))
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
        import scipy.optimize  # noqa: F401  (keep the lazy import out of the timing)

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

    def test_dimension_guard(self):
        rng = np.random.default_rng(1)
        config = random_system(rng, n=4)
        with pytest.raises(ValidationError, match="at most 3"):
            brute_force_oracle(ChargingProblem(sys=config), 10)


def test_degenerate_bounds_rejected():
    config = bench_system()
    from dataclasses import replace

    pinned = replace(config, x_lo=(2.5, 1.0, 1.0), x_hi=(2.5, 100.0, 100.0))
    with pytest.raises(ValidationError, match="x_lo < x_hi"):
        ChargingProblem(sys=pinned)
