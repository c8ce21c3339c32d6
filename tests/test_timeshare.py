"""Time-sharing: configurations, averages, the duration LP, alternating loop."""

import numpy as np
import pytest

from mrcwpt import (
    ChargingProblem,
    InfeasibleProblemError,
    SolveStatus,
    TimeSharingSchedule,
    ValidationError,
    average_powers,
    enumerate_configs,
    optimize_loads,
    optimize_schedule,
    schedule_to_csv,
    solve_closed_form,
    solve_config_subproblem,
    solve_time_allocation,
)

from conftest import bench_system


class TestEnumerateConfigs:
    def test_two_receivers(self):
        configs = enumerate_configs(2)
        assert [sw.s for sw in configs] == [(1, 1), (1, 0), (0, 1)]

    def test_three_receivers_count_and_head(self):
        configs = enumerate_configs(3)
        assert len(configs) == 7
        assert configs[0].s == (1, 1, 1)
        # then pair configurations by descending binary value, then singles
        assert [sw.s for sw in configs][1:4] == [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
        assert [sw.s for sw in configs][4:] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_single_receiver(self):
        configs = enumerate_configs(1)
        assert len(configs) == 1 and configs[0].s == (1,)

    def test_range_guard(self):
        with pytest.raises(ValidationError):
            enumerate_configs(0)
        with pytest.raises(ValidationError):
            enumerate_configs(17)


def uniform_schedule(config, tau_total=1.0):
    configs = enumerate_configs(config.n_receivers)
    x = tuple(tuple(2.5 for _ in range(config.n_receivers)) for _ in configs)
    tau = [0.0] * len(configs)
    tau[0] = tau_total
    return TimeSharingSchedule(
        configs=configs, tau=tuple(tau), x=x, tau_total=tau_total
    )


class TestAveragePowers:
    def test_single_slot_equals_concurrent_state(self, bench3):
        sched = uniform_schedule(bench3)
        avg = average_powers(bench3, sched)
        state = solve_closed_form(bench3, None, [2.5] * 3)
        assert avg.p_tx == state.p_tx
        assert avg.p == state.p

    def test_empty_schedule_draws_nothing(self, bench3):
        configs = enumerate_configs(3)
        sched = TimeSharingSchedule(
            configs=configs,
            tau=(0.0,) * 7,
            x=tuple(tuple([2.5] * 3) for _ in configs),
            tau_total=1.0,
        )
        avg = average_powers(bench3, sched)
        assert avg.p_tx == 0.0 and avg.p == (0.0, 0.0, 0.0)

    def test_linearity_in_slot_durations(self, bench3):
        configs = enumerate_configs(3)
        x = tuple(tuple([2.5] * 3) for _ in configs)
        tau = (0.2, 0.1, 0.0, 0.1, 0.0, 0.05, 0.0)
        full = average_powers(
            bench3, TimeSharingSchedule(configs=configs, tau=tau, x=x, tau_total=1.0)
        )
        halved = average_powers(
            bench3,
            TimeSharingSchedule(
                configs=configs, tau=tuple(t / 2 for t in tau), x=x, tau_total=1.0
            ),
        )
        assert halved.p_tx == pytest.approx(full.p_tx / 2, rel=1e-12)
        for a, b in zip(halved.p, full.p):
            assert a == pytest.approx(b / 2, rel=1e-12)

    def test_energy_accounting(self, bench3):
        configs = enumerate_configs(3)
        x = tuple(tuple([2.5] * 3) for _ in configs)
        tau = (0.2, 0.1, 0.0, 0.1, 0.0, 0.05, 0.0)
        avg = average_powers(
            bench3, TimeSharingSchedule(configs=configs, tau=tau, x=x, tau_total=1.0)
        )
        assert sum(avg.p) <= avg.p_tx

    def test_over_allocATED_horizon_rejected(self, bench3):
        configs = enumerate_configs(3)
        with pytest.raises(ValidationError, match="horizon"):
            TimeSharingSchedule(
                configs=configs,
                tau=(0.9, 0.2) + (0.0,) * 5,
                x=tuple(tuple([2.5] * 3) for _ in configs),
                tau_total=1.0,
            )


class TestTimeAllocationLp:
    def test_single_config_minimal_time(self):
        config = bench_system(p_req=(5.0,), n=1)
        configs = enumerate_configs(1)
        x = [[2.5]]
        tau = solve_time_allocation(config, configs, x, 1.0, config.p_req)
        state = solve_closed_form(config, configs[0], [2.5])
        # exactly enough time to deliver the required average power
        assert tau[0] == pytest.approx(5.0 / state.p[0], rel=1e-9)

    def test_embedding_beats_or_matches_concurrent(self, bench3):
        sol = optimize_loads(ChargingProblem(sys=bench3))
        configs = enumerate_configs(3)
        x = [list(sol.x) for _ in configs]
        tau = solve_time_allocation(bench3, configs, x, 1.0, bench3.p_req)
        assert tau is not None
        a = [solve_closed_form(bench3, sw, x[q]).p_tx for q, sw in enumerate(configs)]
        assert float(np.dot(a, tau)) <= sol.p_tx * (1.0 + 1e-9)

    def test_unreachable_requirement_infeasible(self, bench3):
        configs = enumerate_configs(3)
        x = [[2.5] * 3 for _ in configs]
        tau = solve_time_allocation(
            bench3, configs, x, 1.0, (200.0, 17.5, 30.0)
        )
        assert tau is None


class TestConfigSubproblem:
    def test_single_config_reduces_to_concurrent_solver(self):
        config = bench_system(p_req=(5.0,), n=1)
        configs = enumerate_configs(1)
        sched = TimeSharingSchedule(
            configs=configs, tau=(1.0,), x=((2.5,),), tau_total=1.0
        )
        sol = solve_config_subproblem(config, sched, 0, config.p_req)
        direct = optimize_loads(ChargingProblem(sys=config))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(direct.x[0], rel=1e-6)

    def test_requirements_covered_elsewhere_drop(self, bench3):
        configs = enumerate_configs(3)
        # slot 0 delivers at least 2 W each over 90% of the horizon, which
        # covers the 1 W averages on its own; slot 1 is then unconstrained
        base = optimize_loads(ChargingProblem(sys=bench3, p_req_eff=(2.0, 2.0, 2.0)))
        x = [list(base.x)] + [[2.5] * 3 for _ in range(6)]
        sched = TimeSharingSchedule(
            configs=configs,
            tau=(0.9, 0.1) + (0.0,) * 5,
            x=tuple(tuple(row) for row in x),
            tau_total=1.0,
        )
        sol = solve_config_subproblem(bench3, sched, 1, (1.0, 1.0, 1.0))
        assert sol.status is SolveStatus.OPTIMAL
        # slack requirements leave the slot free to sit at its cheapest point
        for k in configs[1].connected:
            assert sol.x[k] == pytest.approx(bench3.x_lo[k], abs=1e-5)

    def test_disconnected_receiver_with_unmet_need_is_infeasible(self, bench3):
        configs = enumerate_configs(3)
        sched = TimeSharingSchedule(
            configs=configs,
            tau=(0.0, 1.0) + (0.0,) * 5,
            x=tuple(tuple([2.5] * 3) for _ in configs),
            tau_total=1.0,
        )
        # config (1,1,0) cannot serve receiver 3 and nothing else does
        sol = solve_config_subproblem(bench3, sched, 1, bench3.p_req)
        assert sol.status is SolveStatus.INFEASIBLE

    def test_average_requirements_met_after_solve(self):
        config = bench_system(p_req=(10.0, 4.0), n=2)
        configs = enumerate_configs(2)
        sched = TimeSharingSchedule(
            configs=configs,
            tau=(0.6, 0.4, 0.0),
            x=((2.5, 2.5), (2.5, 2.5), (2.5, 2.5)),
            tau_total=1.0,
        )
        sol = solve_config_subproblem(config, sched, 0, config.p_req)
        assert sol.status is SolveStatus.OPTIMAL
        new_x = (tuple(sol.x), sched.x[1], sched.x[2])
        avg = average_powers(
            config,
            TimeSharingSchedule(
                configs=configs, tau=sched.tau, x=new_x, tau_total=1.0
            ),
        )
        for k in range(2):
            assert avg.p[k] >= config.p_req[k] * (1 - 1e-6)

    def test_zero_time_slot_rejected(self, bench3):
        sched = uniform_schedule(bench3)
        with pytest.raises(ValidationError, match="allocated"):
            solve_config_subproblem(bench3, sched, 3, bench3.p_req)


class TestOptimizeSchedule:
    def test_dominates_concurrent_solution(self, bench3):
        result = optimize_schedule(bench3, tau_total=1.0, dp_stop=1e-3)
        concurrent = optimize_loads(ChargingProblem(sys=bench3))
        assert result.p_tx <= concurrent.p_tx + 1e-9
        trace = result.p_tx_trace
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
        avg = average_powers(bench3, result.schedule)
        for k in range(3):
            assert avg.p[k] >= bench3.p_req[k] * (1 - 1e-6)

    def test_single_receiver_matches_concurrent(self):
        config = bench_system(p_req=(20.0,), n=1)
        result = optimize_schedule(config, tau_total=1.0, dp_stop=1e-6)
        concurrent = optimize_loads(ChargingProblem(sys=config))
        # one configuration, binding requirement: no time-sharing freedom
        # beyond idling, and idling cannot reduce the required average
        assert result.p_tx <= concurrent.p_tx * (1.0 + 1e-6)

    def test_infeasible_base_problem_raises(self, bench3):
        from dataclasses import replace

        config = replace(bench3, p_req=(17.5, 17.5, 60.0))
        with pytest.raises(InfeasibleProblemError):
            optimize_schedule(config)

    def test_deterministic(self, bench3):
        a = optimize_schedule(bench3, tau_total=1.0, dp_stop=1e-3)
        b = optimize_schedule(bench3, tau_total=1.0, dp_stop=1e-3)
        assert a.schedule.tau == b.schedule.tau
        assert a.schedule.x == b.schedule.x

    def test_no_floating_point_escapes_on_random_problems(self):
        # random systems under np.errstate(all="raise"): no floating-point
        # warning may escape the solver or the schedule loop
        from dataclasses import replace

        from conftest import random_system

        rng = np.random.default_rng(777)
        tested = 0
        with np.errstate(all="raise"):
            while tested < 10:
                n = int(rng.integers(1, 4))
                config = random_system(rng, n=n, spread=2.0)
                x_mid = [
                    float(np.sqrt(config.x_lo[k] * config.x_hi[k])) for k in range(n)
                ]
                reqs = tuple(
                    0.7 * p for p in solve_closed_form(config, None, x_mid).p
                )
                if any(r <= 0 for r in reqs):
                    continue
                config = replace(config, p_req=reqs)
                base = optimize_loads(ChargingProblem(sys=config))
                if base.status is not SolveStatus.OPTIMAL:
                    continue
                tested += 1
                result = optimize_schedule(config, tau_total=1.0, dp_stop=1e-4)
                assert result.p_tx <= base.p_tx * (1 + 1e-9) + 1e-12

    def test_near_boundary_slot_lp_stays_nonnegative(self):
        # at 37 W the concurrent optimum meets every requirement exactly, so
        # the first duration LP starts on a degenerate vertex
        config = bench_system(p_req=(17.5, 17.5, 37.0))
        result = optimize_schedule(config, tau_total=1.0, dp_stop=1e-3)
        assert min(result.schedule.tau) >= 0.0
        concurrent = optimize_loads(ChargingProblem(sys=config))
        assert result.p_tx <= concurrent.p_tx + 1e-9
        avg = average_powers(config, result.schedule)
        for k in range(3):
            assert avg.p[k] >= config.p_req[k] * (1 - 1e-6)

    def test_every_iterate_is_feasible(self, bench3):
        # truncating the outer loop at any depth leaves a valid schedule
        for outer in (1, 2, 3):
            result = optimize_schedule(
                bench3, tau_total=1.0, dp_stop=1e-15, max_outer=outer
            )
            avg = average_powers(bench3, result.schedule)
            for k in range(3):
                assert avg.p[k] >= bench3.p_req[k] * (1 - 1e-6)
            assert sum(result.schedule.tau) <= 1.0 + 1e-12

    def test_csv_export(self, bench3, tmp_path):
        result = optimize_schedule(bench3, tau_total=1.0, dp_stop=1e-3)
        out = tmp_path / "schedule.csv"
        schedule_to_csv(bench3, result.schedule, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "q,mask,tau,x_1,x_2,x_3,p_tx,p_1,p_2,p_3"
        assert len(lines) == 8
        assert lines[1].split(",")[1] == "111"
