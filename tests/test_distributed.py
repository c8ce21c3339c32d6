"""Distributed one-bit-feedback control: cases, traces, dynamics."""

import csv
import io
from dataclasses import replace

import numpy as np
import pytest

from mrcwpt import (
    ChargingProblem,
    Direction,
    SolveStatus,
    ValidationError,
    init_distributed,
    optimize_loads,
    probe_direction,
    run_distributed,
    solve_closed_form,
    step,
    thresholds,
    trace_to_csv,
)
from mrcwpt.distributed import DistributedState, _Loads, _Params

from conftest import bench_system, random_system


class TestInit:
    def test_benchmark_receiver_one(self, bench3):
        state = init_distributed(bench3)
        r_tx = bench3.transmitter.resistance
        expected = (
            bench3.receivers[0].resistance * r_tx + (bench3.w * bench3.h[0]) ** 2
        ) / r_tx
        assert state.x[0] == pytest.approx(expected, rel=1e-12)
        assert state.x[0] == pytest.approx(11.52, abs=0.01)

    def test_zero_coupling_reduces_to_own_resistance(self):
        from dataclasses import replace

        config = replace(bench_system(), h=(0.0, 0.0, 0.0))
        state = init_distributed(config)
        # own resistance (0.0672) clamps to the lower bound
        assert state.x == [1.0, 1.0, 1.0]

    def test_initializer_is_solo_peak(self, bench3):
        from mrcwpt import SwitchState

        state = init_distributed(bench3)
        for n in range(3):
            solo = SwitchState(s=tuple(1 if k == n else 0 for k in range(3)))
            peak = thresholds(bench3, solo, state.x, n).x_own_peak
            unclamped = (
                bench3.receivers[n].resistance * bench3.transmitter.resistance
                + (bench3.w * bench3.h[n]) ** 2
            ) / bench3.transmitter.resistance
            assert peak == pytest.approx(unclamped, rel=1e-12)

    def test_feedback_matches_initial_powers(self, bench3):
        state = init_distributed(bench3)
        powers = solve_closed_form(bench3, None, state.x).p
        for k in range(3):
            assert state.fb[k] == (powers[k] >= bench3.p_req[k] * (1 - 1e-9))


class TestProbeDirection:
    def test_below_at_and_above_peak(self, bench3):
        x = [2.5, 2.5, 2.5]
        peak = thresholds(bench3, None, x, 0).x_own_peak
        assert probe_direction(bench3, None, [peak / 2, 2.5, 2.5], 0, 1e-3) is Direction.BELOW
        assert probe_direction(bench3, None, [2 * peak, 2.5, 2.5], 0, 1e-3) is Direction.ABOVE
        assert probe_direction(bench3, None, [peak, 2.5, 2.5], 0, 1e-3) is Direction.AT_PEAK

    def test_peak_band_is_one_step_wide(self, bench3):
        x = [2.5, 2.5, 2.5]
        peak = thresholds(bench3, None, x, 0).x_own_peak
        dx = 1e-2
        assert probe_direction(bench3, None, [peak - 2 * dx, 2.5, 2.5], 0, dx) is Direction.BELOW
        assert probe_direction(bench3, None, [peak + 2 * dx, 2.5, 2.5], 0, dx) is Direction.ABOVE

    def test_requires_positive_step(self, bench3):
        with pytest.raises(ValidationError):
            probe_direction(bench3, None, [2.5] * 3, 0, 0.0)


def _fresh_state(config, x):
    state = init_distributed(config)
    state.x = list(x)
    return state


class TestStepCases:
    def test_case_1_unmet_below_peak_raises(self, bench3):
        # p_1 at x=2.5 is ~29.4 W; requirement 40 W is unmet, left of peak
        from dataclasses import replace

        config = replace(bench3, p_req=(40.0, 1.0, 1.0))
        state = _fresh_state(config, [2.5, 2.5, 2.5])
        case = step(config, state, 0, 1e-3)
        assert case == 1
        assert state.x[0] == pytest.approx(2.501, rel=1e-12)

    def test_case_2_unmet_above_peak_lowers(self, bench3):
        from dataclasses import replace

        config = replace(bench3, p_req=(40.0, 1.0, 1.0))
        state = _fresh_state(config, [20.0, 2.5, 2.5])
        case = step(config, state, 0, 1e-3)
        assert case == 2
        assert state.x[0] == pytest.approx(19.999, rel=1e-12)

    def test_case_3_met_with_needy_peer_raises(self, bench3):
        from dataclasses import replace

        # receiver 3 cannot reach 50 W, receiver 1 is satisfied
        config = replace(bench3, p_req=(1.0, 1.0, 50.0))
        state = _fresh_state(config, [2.5, 2.5, 2.5])
        case = step(config, state, 0, 1e-3)
        assert case == 3
        assert state.x[0] == pytest.approx(2.501, rel=1e-12)

    def test_case_5_met_within_one_step_with_needy_peer_holds(self, bench3):
        from dataclasses import replace

        # receiver 1 is satisfied by half the power change of one own
        # +dx step while receiver 3 is unmet: helping would push it back
        # across its own requirement, so it holds
        x = [2.5, 2.5, 2.5]
        dx = 1e-3
        p1 = solve_closed_form(bench3, None, x).p[0]
        p1_up = solve_closed_form(bench3, None, [2.5 + dx, 2.5, 2.5]).p[0]
        margin = 0.5 * abs(p1_up - p1)
        config = replace(bench3, p_req=(p1 - margin, 1.0, 50.0))
        assert margin > 1e-6 * p1  # well outside the requirement's equality band
        state = _fresh_state(config, x)
        case = step(config, state, 0, dx)
        assert case == 5
        assert state.x == x

    def test_case_4_all_met_lowers(self, bench3):
        from dataclasses import replace

        config = replace(bench3, p_req=(1.0, 1.0, 1.0))
        state = _fresh_state(config, [2.5, 2.5, 2.5])
        case = step(config, state, 0, 1e-3)
        assert case == 4
        assert state.x[0] == pytest.approx(2.499, rel=1e-12)

    def test_case_5_exactly_at_requirement_holds(self, bench3):
        from dataclasses import replace

        x = [2.5, 2.5, 2.5]
        p1 = solve_closed_form(bench3, None, x).p[0]
        config = replace(bench3, p_req=(p1, 1.0, 1.0))
        state = _fresh_state(config, x)
        case = step(config, state, 0, 1e-3)
        assert case == 5
        assert state.x[0] == 2.5

    def test_case_5_met_at_peak_holds(self, bench3):
        from dataclasses import replace

        config = replace(bench3, p_req=(1.0, 1.0, 1.0))
        peak = thresholds(bench3, None, [2.5] * 3, 0).x_own_peak
        state = _fresh_state(config, [peak, 2.5, 2.5])
        case = step(config, state, 0, 1e-3)
        assert case == 5
        assert state.x[0] == peak

    def test_clamping_at_bounds(self, bench3):
        from dataclasses import replace

        config = replace(bench3, p_req=(0.2, 0.2, 0.2))
        state = _fresh_state(config, [1.0, 2.5, 2.5])
        case = step(config, state, 0, 1e-3)  # case 4 pushes against x_lo
        assert case == 4
        assert state.x[0] == 1.0


class TestRun:
    def test_trace_invariants(self, bench3):
        run = run_distributed(bench3, dx=1e-3, itr_max=3000)
        n = bench3.n_receivers
        assert run.trace.shape == (3000, 3 + 2 * n + 1 + n)
        # bound safety on every traced load
        for k in range(n):
            col = run.trace[:, 3 + k]
            assert np.all(col >= bench3.x_lo[k] - 1e-12)
            assert np.all(col <= bench3.x_hi[k] + 1e-12)
        # round-robin receiver order and exactly one case per row
        assert np.array_equal(
            run.trace[:, 1].astype(int), np.arange(3000) % n + 1
        )
        assert np.all((run.trace[:, 2] >= 1) & (run.trace[:, 2] <= 5))

    def test_feedback_truthfulness(self, bench3):
        run = run_distributed(bench3, dx=1e-3, itr_max=900)
        n = bench3.n_receivers
        # fb bits in each row match powers recomputed from the traced loads
        # of the previous row (the measurement state)
        prev_x = init_distributed(bench3).x
        for row in run.trace:
            powers = solve_closed_form(bench3, None, prev_x).p
            for k in range(n):
                expected = powers[k] >= bench3.p_req[k] * (1 - 1e-9)
                assert bool(row[4 + 2 * n + k]) == expected
            prev_x = list(row[3 : 3 + n])

    def test_determinism_and_replay(self, bench3):
        a = run_distributed(bench3, dx=1e-3, itr_max=2000)
        b = run_distributed(bench3, dx=1e-3, itr_max=2000)
        assert np.array_equal(a.trace, b.trace)
        # replaying the recorded updates through step() reproduces the states
        state = init_distributed(bench3)
        for i in range(60):
            case = step(bench3, state, i % 3, 1e-3)
            assert case == int(a.trace[i, 2])
            assert state.x == pytest.approx(list(a.trace[i, 3:6]), rel=1e-15)

    def test_quiescent_descent_reduces_drawn_power(self):
        # all requirements slack: every update is case 4 or 5 and the
        # drawn power never increases
        config = bench_system(p_req=(0.1, 0.1, 0.1))
        run = run_distributed(config, dx=1e-3, itr_max=1500)
        cases = run.trace[:, 2].astype(int)
        assert set(cases) <= {4, 5}
        ptx = run.trace[:, 9]
        assert np.all(np.diff(ptx) <= 1e-12)

    def test_benchmark_run_converges_near_optimum(self, bench3):
        run = run_distributed(bench3, dx=1e-3, itr_max=100_000)
        assert run.feasible
        sol = optimize_loads(ChargingProblem(sys=bench3))
        assert run.p_tx <= sol.p_tx * 1.02
        # the near receivers raised their loads to feed the far one, and
        # the trajectory settles well before the iteration budget
        start = init_distributed(bench3)
        assert run.x[0] > start.x[0] and run.x[1] > start.x[1]
        drift = np.abs(run.trace[:, 3:6] - np.array(run.x)).max(axis=1)
        settled_from = int(np.nonzero(drift > 5e-3)[0][-1]) + 1
        assert settled_from < 60_000

    @pytest.mark.parametrize("p3", [7.0, 9.0])
    def test_mutual_help_band_reaches_optimum(self, bench3, p3):
        # requirements where receivers 1 and 3 both sit within one step of
        # their requirements; helping each other across them used to lock
        # the run into a limit cycle 9-15% above the optimum
        from dataclasses import replace

        config = replace(bench3, p_req=(17.5, 17.5, p3))
        run = run_distributed(config, dx=1e-3, itr_max=300_000, record_trace=False)
        sol = optimize_loads(ChargingProblem(sys=config))
        assert sol.status is SolveStatus.OPTIMAL
        assert run.feasible
        assert run.p_tx <= sol.p_tx * 1.02

    def test_infeasible_outcome_reported_not_raised(self, bench3):
        from dataclasses import replace

        config = replace(bench3, p_req=(17.5, 17.5, 45.0))
        run = run_distributed(config, dx=1e-3, itr_max=50_000)
        assert not run.feasible
        assert run.p[2] < 45.0

    def test_csv_export(self, bench3, tmp_path):
        run = run_distributed(bench3, dx=1e-3, itr_max=50)
        out = tmp_path / "trace.csv"
        trace_to_csv(run, 3, out)
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "itr,receiver,case,x_1,x_2,x_3,p_1,p_2,p_3,p_tx,fb_1,fb_2,fb_3"
        )
        assert len(lines) == 51
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "1"
        assert "e" in first[3]  # scientific notation

    def test_validation(self, bench3):
        with pytest.raises(ValidationError):
            run_distributed(bench3, dx=0.0)
        with pytest.raises(ValidationError):
            run_distributed(bench3, itr_max=0)


def test_state_dataclass_roundtrip(bench3):
    state = DistributedState(x=[1.0, 2.0, 3.0], fb=[True, False, True], itr=5)
    assert state.trace == []


def _step_loop(config, itr_max, dx=1e-3):
    """Trace rows of a plain loop of the public step(), one row past the
    budget: that row's powers are the ones measured at the final loads."""
    state = init_distributed(config)
    n = config.n_receivers
    rows = np.empty((itr_max + 1, 3 + 3 * n + 1))
    for i in range(itr_max + 1):
        step(config, state, i % n, dx)
        itr, rx, case, x, p, p_tx, fb = state.trace.pop()
        rows[i] = (itr, rx, case, *x, *p, p_tx, *fb)
    return rows


def _assert_matches_step_loop(run, rows, itr_max, n):
    assert np.array_equal(run.trace, rows[:itr_max])
    assert run.x == tuple(rows[itr_max - 1, 3 : 3 + n])
    assert run.p == tuple(rows[itr_max, 3 + n : 3 + 2 * n])
    assert run.p_tx == rows[itr_max, 3 + 2 * n]


def _cycle_fields(run):
    return run.cycle_period, run.cycle_start, run.cycle_p_tx


def _late_cycle_single_receiver():
    # starts clamped at x_hi below its peak, walks down by dx with its
    # requirement met, then alternates across a requirement that sits
    # between two grid points: period 2 from iteration 500
    config = replace(bench_system(n=1), x_hi=(8.0,))
    p_req = solve_closed_form(config, None, [7.5005]).p[0]
    return replace(config, p_req=(p_req,))


def _csv_writer_reference(run, n):
    """The trace CSV as written row by row through csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["itr", "receiver", "case"]
        + [f"x_{k + 1}" for k in range(n)]
        + [f"p_{k + 1}" for k in range(n)]
        + ["p_tx"]
        + [f"fb_{k + 1}" for k in range(n)]
    )
    for row in run.trace:
        out = [int(row[0]), int(row[1]), int(row[2])]
        out += [f"{v:.11e}" for v in row[3 : 4 + 2 * n]]
        out += [int(v) for v in row[4 + 2 * n :]]
        writer.writerow(out)
    return buf.getvalue().encode()


class TestCycleDetection:
    # detection completes at the end of the first round whose loads were
    # seen before; each case straddles that iteration
    @pytest.mark.parametrize(
        "p3, detected_at, period, start",
        [(10.0, 7_395, 6, 7_388), (30.0, 37_275, 6, 37_269), (36.0, 58_617, 3, 58_613)],
    )
    def test_bundled_runs_match_step_loop(self, bench3, p3, detected_at, period, start):
        config = replace(bench3, p_req=(17.5, 17.5, p3))
        budgets = (detected_at - 1, detected_at, detected_at + 2 * period + 1)
        rows = _step_loop(config, budgets[-1])
        for itr_max in budgets:
            run = run_distributed(config, dx=1e-3, itr_max=itr_max)
            _assert_matches_step_loop(run, rows, itr_max, 3)
            if itr_max < detected_at:
                assert _cycle_fields(run) == (None, None, None)
            else:
                assert (run.cycle_period, run.cycle_start) == (period, start)

    def test_random_systems_match_step_loop(self):
        rng = np.random.default_rng(2024)
        cycled = 0
        for _ in range(12):
            config = random_system(rng, n=int(rng.integers(1, 5)))
            rows = _step_loop(config, 1_500)
            for itr_max in (1, 2, 1_499, 1_500):
                run = run_distributed(config, dx=1e-3, itr_max=itr_max)
                _assert_matches_step_loop(run, rows, itr_max, config.n_receivers)
            cycled += run.cycle_period is not None
        # the draw covers both runs that repeat and runs that do not
        assert 0 < cycled < 12

    def test_cycle_rows_repeat_one_period_on(self, bench3):
        configs = [replace(bench3, p_req=(17.5, 17.5, p3)) for p3 in (10.0, 36.0)]
        configs.append(_late_cycle_single_receiver())
        for config in configs:
            run = run_distributed(config, dx=1e-3, itr_max=120_000)
            first, period = run.cycle_start - 1, run.cycle_period
            assert first > 0 and period % config.n_receivers == 0
            later = run.trace[first + period :]
            assert np.array_equal(later[:, 1:], run.trace[first : len(run.trace) - period, 1:])
            assert np.array_equal(later[:, 0], np.arange(first + period + 1, 120_001))
            # the row before the cycle does not recur one period later
            assert not np.array_equal(run.trace[first - 1, 1:], run.trace[first - 1 + period, 1:])
            on_cycle = run.trace[first : first + period, 3 + 2 * config.n_receivers]
            assert run.cycle_p_tx == (on_cycle.min(), on_cycle.max())

    def test_no_trace_gives_the_same_outcome(self, bench3):
        # the budget ends before the 36 W detection completes, after the others
        cases = [(replace(bench3, p_req=(17.5, 17.5, p3)), 50_000) for p3 in (10.0, 30.0, 36.0)]
        cases.append((_late_cycle_single_receiver(), 3_001))
        rng = np.random.default_rng(5)
        cases += [(random_system(rng, n=3), 5_000) for _ in range(3)]
        for config, itr_max in cases:
            full = run_distributed(config, dx=1e-3, itr_max=itr_max)
            bare = run_distributed(config, dx=1e-3, itr_max=itr_max, record_trace=False)
            assert bare.trace.shape == (0, 3 * config.n_receivers + 4)
            for name in ("x", "p", "p_tx", "feasible", "iterations"):
                assert getattr(bare, name) == getattr(full, name)
            assert _cycle_fields(bare) == _cycle_fields(full)

    def test_rows_end_at_the_first_repeat(self, bench3):
        run = run_distributed(replace(bench3, p_req=(17.5, 17.5, 30.0)), dx=1e-3)
        assert (run.cycle_period, run.cycle_start) == (6, 37_269)
        assert run.rows.shape == (37_275, 13)

    def test_trace_is_built_on_first_read(self, tmp_path):
        config = _late_cycle_single_receiver()
        run = run_distributed(config, dx=1e-3, itr_max=3_001)
        rows = _step_loop(config, 3_001)
        assert len(run.rows) < 3_001
        assert np.array_equal(run.rows, rows[: len(run.rows)])
        trace_to_csv(run, 1, tmp_path / "trace.csv")
        assert "trace" not in vars(run)
        assert np.array_equal(run.trace, rows[:3_001])
        assert run.trace is vars(run)["trace"]

    def test_lean_turns_take_the_measured_cases(self):
        rng = np.random.default_rng(7)
        seen_cases = set()
        for _ in range(8):
            config = random_system(rng, n=int(rng.integers(1, 5)))
            n = config.n_receivers
            full = run_distributed(config, dx=1e-3, itr_max=2_000)
            bare = run_distributed(config, dx=1e-3, itr_max=2_000, record_trace=False)
            loads = _Loads(_Params(config), init_distributed(config).x)
            cases = [loads.turn(i % n, 1e-3) for i in range(2_000)]
            assert cases == full.trace[:, 2].astype(int).tolist()
            assert tuple(loads.x) == full.x == bare.x
            for name in ("p", "p_tx", "feasible"):
                assert getattr(bare, name) == getattr(full, name)
            assert _cycle_fields(bare) == _cycle_fields(full)
            seen_cases.update(cases)
        assert seen_cases == {1, 2, 3, 4, 5}

    def test_csv_matches_csv_writer(self, bench3, tmp_path):
        rng = np.random.default_rng(2024)
        non_cycling = random_system(rng, n=4)
        cases = [
            (replace(bench3, p_req=(17.5, 17.5, 10.0)), 20_000),
            (non_cycling, 2_000),
            (_late_cycle_single_receiver(), 3_001),
        ]
        cycled = []
        for config, itr_max in cases:
            run = run_distributed(config, dx=1e-3, itr_max=itr_max)
            cycled.append(run.cycle_period is not None)
            out = tmp_path / "trace.csv"
            trace_to_csv(run, config.n_receivers, out)
            assert out.read_bytes() == _csv_writer_reference(run, config.n_receivers)
        assert cycled == [True, False, True]
