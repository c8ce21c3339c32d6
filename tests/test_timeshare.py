"""Time-sharing: configurations, averages, the duration LP, alternating loop."""

import hashlib
import math
import runpy
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mrcwpt import (
    ChargingProblem,
    InfeasibleProblemError,
    SolveStatus,
    SwitchState,
    TimeSharingSchedule,
    ValidationError,
    average_powers,
    enumerate_configs,
    optimize_loads,
    optimize_schedule,
    parse_scenario,
    schedule_to_csv,
    serialize_scenario,
    solve_closed_form,
    solve_config_subproblem,
)
from mrcwpt import central, timeshare

import lp_reference
import timeshare_reference
from conftest import _feasible_random_system, bench_system, random_system


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


    @staticmethod
    def single_slot(loads):
        """A schedule all in the all-closed slot, slot 0 at ``loads``."""
        configs = enumerate_configs(3)
        x = (tuple(loads),) + tuple(tuple([2.5] * 3) for _ in configs[1:])
        return TimeSharingSchedule(
            configs=configs, tau=(1.0,) + (0.0,) * 6, x=x, tau_total=1.0
        )

    @pytest.mark.parametrize("loads", [[2.5, float("nan"), 2.5], [0.0, 2.5, 2.5]],
                             ids=["nan", "zero-connected"])
    def test_bad_load_rejected(self, bench3, loads):
        with pytest.raises(ValidationError, match="loads must be finite, and > 0 where connected"):
            average_powers(bench3, self.single_slot(loads))

    def test_zero_load_on_an_open_receiver_accepted(self, bench3):
        configs = enumerate_configs(3)
        # slot 4 connects receiver 1 only; receiver 2's zero load is unused
        x = tuple((2.5, 0.0, 2.5) if q == 4 else (2.5,) * 3 for q in range(7))
        tau = (0.5, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0)
        avg = average_powers(
            bench3, TimeSharingSchedule(configs=configs, tau=tau, x=x, tau_total=1.0)
        )
        assert np.isfinite(avg.p_tx) and avg.p[1] > 0.0

    def test_short_load_vectors_rejected(self, bench3):
        configs = enumerate_configs(3)
        sched = TimeSharingSchedule(
            configs=configs, tau=(1.0,) + (0.0,) * 6,
            x=tuple((2.5, 2.5) for _ in configs), tau_total=1.0,
        )
        with pytest.raises(ValidationError, match="load vector must have one entry per receiver"):
            average_powers(bench3, sched)

    def test_ragged_load_vectors_rejected(self):
        configs = enumerate_configs(3)
        x = ((2.5, 2.5),) + tuple((2.5,) * 3 for _ in configs[1:])
        with pytest.raises(ValidationError, match="load vector must have the same length"):
            TimeSharingSchedule(configs=configs, tau=(1.0,) + (0.0,) * 6, x=x, tau_total=1.0)

    def test_ragged_configurations_rejected(self):
        configs = (SwitchState((1, 1, 1)), SwitchState((1, 1)))
        with pytest.raises(ValidationError, match="cover the same receivers"):
            TimeSharingSchedule(configs=configs, tau=(1.0, 0.0), x=((2.5,) * 3,) * 2,
                                tau_total=1.0)


def _slot_durations(config, configs, x, tau_total, p_req):
    """The slot LP's durations for fixed per-slot loads, or None."""
    return timeshare._slot_lp(*timeshare._config_coefficients(config, configs, x),
                              tau_total, p_req)


class TestTimeAllocationLp:
    def test_single_config_minimal_time(self):
        config = bench_system(p_req=(5.0,), n=1)
        configs = enumerate_configs(1)
        x = [[2.5]]
        tau = _slot_durations(config, configs, x, 1.0, config.p_req)
        state = solve_closed_form(config, configs[0], [2.5])
        # exactly enough time to deliver the required average power
        assert tau[0] == pytest.approx(5.0 / state.p[0], rel=1e-9)

    def test_embedding_beats_or_matches_concurrent(self, bench3):
        sol = optimize_loads(ChargingProblem(sys=bench3))
        configs = enumerate_configs(3)
        x = [list(sol.x) for _ in configs]
        tau = _slot_durations(bench3, configs, x, 1.0, bench3.p_req)
        assert tau is not None
        a = [solve_closed_form(bench3, sw, x[q]).p_tx for q, sw in enumerate(configs)]
        assert float(np.dot(a, tau)) <= sol.p_tx * (1.0 + 1e-9)

    def test_unreachable_requirement_infeasible(self, bench3):
        configs = enumerate_configs(3)
        x = [[2.5] * 3 for _ in configs]
        tau = _slot_durations(bench3, configs, x, 1.0, (200.0, 17.5, 30.0))
        assert tau is None


def _others(config, sched, q):
    """Average power each load collects from every slot of ``sched`` but q."""
    tau = list(sched.tau)
    tau[q] = 0.0
    rest = TimeSharingSchedule(
        configs=sched.configs, tau=tuple(tau), x=sched.x, tau_total=sched.tau_total
    )
    return average_powers(config, rest).p


class TestConfigSubproblem:
    def test_single_config_reduces_to_concurrent_solver(self):
        config = bench_system(p_req=(5.0,), n=1)
        configs = enumerate_configs(1)
        sol = solve_config_subproblem(config, configs[0], 1.0, 1.0, (0.0,), config.p_req)
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
        sol = solve_config_subproblem(
            bench3, configs[1], 0.1, 1.0, _others(bench3, sched, 1), (1.0, 1.0, 1.0)
        )
        assert sol.status is SolveStatus.OPTIMAL
        # slack requirements leave the slot free to sit at its cheapest point
        for k in configs[1].connected:
            assert sol.x[k] == pytest.approx(bench3.x_lo[k], abs=1e-5)

    def test_disconnected_receiver_with_unmet_need_is_infeasible(self, bench3):
        configs = enumerate_configs(3)
        # config (1,1,0) cannot serve receiver 3 and nothing else does
        sol = solve_config_subproblem(
            bench3, configs[1], 1.0, 1.0, (0.0, 0.0, 0.0), bench3.p_req
        )
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
        sol = solve_config_subproblem(
            config, configs[0], 0.6, 1.0, _others(config, sched, 0), config.p_req
        )
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
            solve_config_subproblem(
                bench3, sched.configs[3], sched.tau[3], 1.0, _others(bench3, sched, 3),
                bench3.p_req,
            )


class TestOptimizeSchedule:
    @pytest.mark.parametrize("kwargs, message", [
        ({"tau_total": 0.0}, "tau_total must be > 0"),
        ({"tau_total": float("nan")}, "tau_total must be > 0"),
        ({"dp_stop": 0.0}, "dp_stop must be > 0"),
    ], ids=["zero-horizon", "nan-horizon", "zero-dp_stop"])
    def test_rejects_bad_arguments(self, bench3, kwargs, message):
        with pytest.raises(ValidationError, match=message):
            optimize_schedule(bench3, **kwargs)

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

    def test_every_iterate_is_feasible(self, bench3, monkeypatch):
        # truncating the outer loop at any depth leaves a valid schedule
        for outer in (1, 2, 3):
            monkeypatch.setattr(timeshare, "_MAX_OUTER", outer)
            result = optimize_schedule(bench3, tau_total=1.0, dp_stop=1e-15)
            avg = average_powers(bench3, result.schedule)
            for k in range(3):
                assert avg.p[k] >= bench3.p_req[k] * (1 - 1e-6)
            assert sum(result.schedule.tau) <= 1.0 + 1e-12

    def test_slot_matrix_evaluated_once(self, bench3, monkeypatch):
        # one slot-matrix evaluation and one schedule per call; the loop
        # still solves every slot with time through solve_config_subproblem
        calls = {"coefficients": 0, "schedules": 0, "subproblems": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(timeshare, "_config_coefficients",
                            counted("coefficients", timeshare._config_coefficients))
        monkeypatch.setattr(timeshare, "TimeSharingSchedule",
                            counted("schedules", timeshare.TimeSharingSchedule))
        monkeypatch.setattr(timeshare, "solve_config_subproblem",
                            counted("subproblems", timeshare.solve_config_subproblem))
        result = timeshare.optimize_schedule(bench3, tau_total=1.0, dp_stop=1e-3)
        assert calls == {"coefficients": 1, "schedules": 1, "subproblems": 2}
        assert (result.iterations, result.subproblem_failures) == (2, 0)

    def test_csv_export(self, bench3, tmp_path):
        result = optimize_schedule(bench3, tau_total=1.0, dp_stop=1e-3)
        out = tmp_path / "schedule.csv"
        schedule_to_csv(bench3, result.schedule, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "q,mask,tau,x_1,x_2,x_3,p_tx,p_1,p_2,p_3"
        assert len(lines) == 8
        assert lines[1].split(",")[1] == "111"


def test_schedule_csv_write_failure_carries_path(bench3, tmp_path):
    result = optimize_schedule(bench3, tau_total=1.0, dp_stop=1e-3)
    missing = tmp_path / "no" / "such" / "dir" / "schedule.csv"
    with pytest.raises(OSError, match="cannot write schedule CSV to .*schedule.csv"):
        schedule_to_csv(bench3, result.schedule, missing)


class TestPinnedSchedules:
    """Whole alternating runs pinned bit for bit: a sha256 digest of the
    little-endian doubles of tau, x (slot by slot) and p_tx_trace, plus the
    iteration and subproblem-failure counts. A rewrite of the loop must
    leave every one of these bits alone."""

    @pytest.mark.parametrize(
        "system, iterations, failures, sha",
        [
            (lambda: parse_scenario("two_receivers")[0], 2, 0,
             "8e93645aa6624f6eb7b9f333566d5b1cc92983ee5ced5d6caa43f8f40b635783"),
            (lambda: bench_system(p_req=(17.5, 17.5, 5.0)), 2, 0,
             "a90d15f7d53026f635bcb75660ead3d01a7acdc5f59d85d9f65febfd484c5406"),
            (lambda: bench_system(p_req=(17.5, 17.5, 20.0)), 2, 0,
             "53d41012ce9540da42bca31838444c4fd0170a4805a679e0764da790fb892a4f"),
            (lambda: bench_system(p_req=(17.5, 17.5, 37.0)), 2, 0,
             "46535868aad74edeef35404e3d21f7f1fb0074aca3bc40923095ee02229a8780"),
            (lambda: _feasible_random_system(1, 1), 2, 0,
             "d5e186e7f750951404d3c2273d9c2897e30ccb47fd6dcbfadc60463bcffd1f06"),
            (lambda: _feasible_random_system(2, 2), 2, 2,
             "0be6c17c019e1ab06f0cb5ebd83d2c4e2ee447c80677bac1db86ef14b5650fcf"),
            (lambda: _feasible_random_system(3, 3), 2, 0,
             "4d0283b3296570e14eb88b8852c61112e252911cf5d5cc4f30210cd61b3cfd94"),
            # three slot problems fail: their s_max is 1 - 1.5 to 2.5 times
            # 2^-52, just short of their requirements
            (lambda: _feasible_random_system(4, 4), 2, 3,
             "ac9e23155f219d1ee66ae7835e6f0a39e816f0e2318b050d6c1a03da970544f8"),
            (lambda: _feasible_random_system(6, 3), 2, 4,
             "c7c1588c4d7cc7adee3808fb2898ab2942f08c708cc03f0ab5b42ea8d79f1b2a"),
        ],
        ids=["two_receivers", "bundled-5W", "bundled-20W", "bundled-37W",
             "random-n1", "random-n2", "random-n3", "random-n4", "random-n3-b"],
    )
    def test_digests_unchanged(self, system, iterations, failures, sha):
        result = optimize_schedule(system(), tau_total=1.0, dp_stop=1e-3)
        sched = result.schedule
        values = [*sched.tau, *(v for row in sched.x for v in row), *result.p_tx_trace]
        assert result.iterations == iterations
        assert result.subproblem_failures == failures
        assert result.p_tx == result.p_tx_trace[-1]
        assert hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest() == sha


def _schedule_bits(result):
    """tau, x and p_tx_trace as little-endian doubles, with the counts."""
    sched = result.schedule
    values = [*sched.tau, *(v for row in sched.x for v in row), *result.p_tx_trace]
    return (struct.pack(f"<{len(values)}d", *values), result.iterations,
            result.subproblem_failures)


def _benchmark_schedule_system(name, folder):
    """One of the six systems the benchmark's ``schedule`` workload solves,
    read back from its scenario file as the benchmark reads it."""
    if name == "two":
        config, options = parse_scenario("two_receivers")
    elif name.startswith("three_p"):
        config, options = parse_scenario("three_receivers")
        config = replace(config, p_req=config.p_req[:2] + (float(name[7:]),))
    else:
        workloads = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "workloads.py"))
        gen = workloads["generated_system"](workloads["SYSTEMS_SEED"], 4, int(name[-1]))
        config, options = gen.config, gen.options
    path = folder / f"{name}.scn"
    path.write_text(serialize_scenario(config, options), encoding="utf-8")
    return parse_scenario(str(path))[0]


class TestScheduleMatchesReference:
    """The alternation bit for bit against the numpy loop it replaced
    (``tests/timeshare_reference.py``), and against itself with its slot LP
    swapped for the numpy tableau (``tests/lp_reference.py``)."""

    @staticmethod
    def _check(config, monkeypatch):
        result = optimize_schedule(config, tau_total=1.0, dp_stop=1e-3)
        with monkeypatch.context() as patch:
            patch.setattr(timeshare, "solve_lp", lp_reference.solve_lp)
            on_reference_lp = optimize_schedule(config, tau_total=1.0, dp_stop=1e-3)
        reference = timeshare_reference.optimize_schedule(config, tau_total=1.0, dp_stop=1e-3)
        assert _schedule_bits(result) == _schedule_bits(on_reference_lp)
        assert _schedule_bits(result) == _schedule_bits(reference)
        return result

    @pytest.mark.parametrize(
        "name", ["two", "three_p5", "three_p20", "three_p37", "gen_n4_0", "gen_n4_1"])
    def test_benchmark_systems(self, name, tmp_path, monkeypatch):
        result = self._check(_benchmark_schedule_system(name, tmp_path), monkeypatch)
        if name == "three_p37":
            # slots too short to re-solve, which still count in the others' sums
            assert sum(0.0 < t <= 1e-12 for t in result.schedule.tau) == 2

    def test_random_systems(self, monkeypatch):
        failures = 0
        for seed in range(40):
            result = self._check(_feasible_random_system(1000 + seed, 1 + seed % 4), monkeypatch)
            failures += result.subproblem_failures
        # the draw holds infeasible slot subproblems, which leave their slots alone
        assert failures > 0


def _counting_certificates(monkeypatch):
    """Replace ``central._certificate`` with a counting copy; returns the count."""
    calls = []
    real = central._certificate

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(central, "_certificate", counted)
    return calls


@pytest.mark.parametrize(
    "name", ["two", "three_p5", "three_p20", "three_p37", "gen_n4_0", "gen_n4_1"])
def test_schedules_compute_no_certificate(name, tmp_path, monkeypatch):
    # no slot solve's certificate is read, so none is computed, yet every
    # slot solve still goes through solve_config_subproblem and optimize_loads
    config = _benchmark_schedule_system(name, tmp_path)
    calls = _counting_certificates(monkeypatch)
    solves = []
    real = timeshare.optimize_loads

    def counted_solve(prob):
        solves.append(prob)
        return real(prob)

    monkeypatch.setattr(timeshare, "optimize_loads", counted_solve)
    result = optimize_schedule(config, tau_total=1.0, dp_stop=1e-3)
    assert calls == []
    assert len(solves) > result.iterations


class TestAgainstGridColumnOracle:
    """The schedule against an independent upper bound on the optimum: the
    HiGHS LP over every configuration's load-grid columns
    (``timeshare_reference.grid_column_lp``)."""

    @pytest.mark.parametrize("name, grid_points", [("two_receivers", 200),
                                                   ("three_receivers", 40)])
    def test_no_worse_than_the_grid_columns(self, name, grid_points):
        config = parse_scenario(name)[0]
        oracle = timeshare_reference.grid_column_lp(config, grid_points)
        result = optimize_schedule(config, tau_total=1.0, dp_stop=1e-3)
        assert result.p_tx <= oracle + 1e-3


def _scaled_systems():
    """Systems of one to three receivers: the bundled ones, criterion 8's
    requirements and seeded random draws."""
    systems = [parse_scenario("two_receivers")[0], parse_scenario("three_receivers")[0]]
    systems += [bench_system(p_req=(5.0, 5.0, p3)) for p3 in (5.0, 20.0, 40.0, 55.0)]
    systems += [bench_system(p_req=(17.5, 17.5, 37.0))]
    systems += [_feasible_random_system(2000 + seed, 1 + seed % 3) for seed in range(6)]
    return systems


def _scaled_draw(config, s):
    """p_tx(s p_req) / s, or inf where s p_req cannot be met."""
    sol = optimize_loads(ChargingProblem(sys=config, p_req_eff=tuple(s * r for r in config.p_req)))
    return sol.p_tx / s if sol.status is SolveStatus.OPTIMAL else math.inf


class TestScaledSlot:
    """The slot the alternation starts from: all closed, meeting s* p_req,
    for about tau_total / s*, where s* >= 1 minimizes p_tx(s p_req) / s."""

    def test_scale_beats_a_dense_scan(self):
        for config in _scaled_systems():
            s, _ = central._tangent_scale(ChargingProblem(sys=config))
            best = _scaled_draw(config, s)
            assert s >= 1.0 and best < math.inf
            scan = min(_scaled_draw(config, v) for v in np.geomspace(1.0, 4.0 * s, 800))
            assert best <= scan * (1.0 + 1e-9)

    def test_scale_is_one_where_the_concurrent_optimum_is_best(self, monkeypatch):
        config = bench_system(p_req=(17.5, 17.5, 37.0))
        assert central._tangent_scale(ChargingProblem(sys=config)) == (1.0, None)
        base = optimize_loads(ChargingProblem(sys=config))
        solves = []
        monkeypatch.setattr(timeshare, "optimize_loads",
                            lambda prob: solves.append(prob) or optimize_loads(prob))
        assert timeshare._scaled_slot(config, base, 2.0) == (base.x, 2.0)
        assert solves == []

    def test_no_requirement_leaves_the_scale_at_one(self, bench3):
        prob = ChargingProblem(sys=bench3, p_req_eff=(0.0, -1.0, 0.0))
        assert central._tangent_scale(prob) == (1.0, None)

    def test_slot_meets_every_requirement(self):
        for config in _scaled_systems():
            base = optimize_loads(ChargingProblem(sys=config))
            x0, tau0 = timeshare._scaled_slot(config, base, 1.0)
            sched = TimeSharingSchedule(configs=enumerate_configs(config.n_receivers)[:1],
                                        tau=(tau0,), x=(x0,), tau_total=1.0)
            avg = average_powers(config, sched)
            assert 0.0 < tau0 <= 1.0
            assert all(p >= r * (1.0 - 1e-12) for p, r in zip(avg.p, config.p_req))

    def test_slot_takes_no_solve_where_a_solve_at_the_scale_fails(self, monkeypatch):
        # s* lies on the feasibility boundary, and on some of these systems
        # (51 of the 200) a solve at s* p_req rounds to infeasible; the
        # tangency's own loads need no solve there
        solves = []
        monkeypatch.setattr(timeshare, "optimize_loads",
                            lambda prob: solves.append(prob) or optimize_loads(prob))
        infeasible = 0
        for i in range(200):
            config = _feasible_random_system(5000 + i, 1 + i % 4)
            base = optimize_loads(ChargingProblem(sys=config))
            x0, tau0 = timeshare._scaled_slot(config, base, 1.0)
            assert solves == []
            slot = solve_closed_form(config, None, x0)
            assert all(p * tau0 >= r * (1.0 - 1e-12) for p, r in zip(slot.p, config.p_req))
            s, _ = central._tangent_scale(ChargingProblem(sys=config))
            draw = _scaled_draw(config, s)
            if draw < math.inf:
                assert slot.p_tx * tau0 == pytest.approx(draw, rel=1e-12, abs=0.0)
            else:
                infeasible += 1
        assert infeasible > 0

    @pytest.mark.parametrize("p3, p_tx", [(5.0, 22.49774), (20.0, 59.48102),
                                          (40.0, 108.94346), (55.0, 146.05616)])
    def test_criterion_8_schedules(self, p3, p_tx):
        result = optimize_schedule(bench_system(p_req=(5.0, 5.0, p3)), tau_total=1.0, dp_stop=1e-3)
        assert result.p_tx == pytest.approx(p_tx, abs=1e-5)
        assert result.iterations == 2
