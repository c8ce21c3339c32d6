"""Distributed one-bit-feedback control: cases, traces, dynamics."""

import csv
import hashlib
import io
import struct
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from mrcwpt import (
    ChargingProblem,
    SolveStatus,
    ValidationError,
    optimize_loads,
    run_distributed,
    solve_closed_form,
    solve_linear_oracle,
    thresholds,
    trace_to_csv,
)
from mrcwpt import _csvfmt
from mrcwpt.circuit import solo_peak_loads
from mrcwpt.distributed import (
    _Loads,
    _power_resolution,
    _rebuild_rows,
    _write_blocks,
    _write_cycle_rows,
)

from conftest import bench_system, random_loads, random_system
from distributed_reference import ReferenceLoads, feedback, measured


class TestInit:
    def test_benchmark_receiver_one(self, bench3):
        x = solo_peak_loads(bench3)
        r_tx = bench3.transmitter.resistance
        expected = (
            bench3.receivers[0].resistance * r_tx + (bench3.w * bench3.h[0]) ** 2
        ) / r_tx
        assert x[0] == pytest.approx(expected, rel=1e-12)
        assert x[0] == pytest.approx(11.52, abs=0.01)

    def test_zero_coupling_reduces_to_own_resistance(self):
        config = replace(bench_system(), h=(0.0, 0.0, 0.0))
        # own resistance (0.0672) clamps to the lower bound
        assert solo_peak_loads(config) == [1.0, 1.0, 1.0]

    def test_initializer_is_solo_peak(self, bench3):
        from mrcwpt import SwitchState

        x = solo_peak_loads(bench3)
        for n in range(3):
            solo = SwitchState(s=tuple(1 if k == n else 0 for k in range(3)))
            peak = thresholds(bench3, solo, x, n).x_own_peak
            unclamped = (
                bench3.receivers[n].resistance * bench3.transmitter.resistance
                + (bench3.w * bench3.h[n]) ** 2
            ) / bench3.transmitter.resistance
            assert peak == pytest.approx(unclamped, rel=1e-12)

    def test_feedback_matches_initial_powers(self, bench3):
        loads = _Loads(bench3, solo_peak_loads(bench3))
        fb = feedback(loads, loads.powers(loads.denominator()))
        powers = solve_closed_form(bench3, None, loads.x).p
        for k in range(3):
            assert fb[k] == (powers[k] >= bench3.p_req[k] * (1 - 1e-9))


def _direction_case(config, x, dx):
    """The case of receiver 1's turn at loads x against a requirement it
    cannot reach: it moves toward its own-power peak, so the case reads
    its direction (1 below the peak, 2 above, 5 at it)."""
    unreachable = replace(config, p_req=(1e9,) + config.p_req[1:])
    return _Loads(unreachable, list(x)).turn(0, dx)


class TestProbeDirection:
    def test_below_at_and_above_peak(self, bench3):
        x = [2.5, 2.5, 2.5]
        peak = thresholds(bench3, None, x, 0).x_own_peak
        assert _direction_case(bench3, [peak / 2, 2.5, 2.5], 1e-3) == 1
        assert _direction_case(bench3, [2 * peak, 2.5, 2.5], 1e-3) == 2
        assert _direction_case(bench3, [peak, 2.5, 2.5], 1e-3) == 5

    def test_peak_band_is_one_step_wide(self, bench3):
        x = [2.5, 2.5, 2.5]
        peak = thresholds(bench3, None, x, 0).x_own_peak
        dx = 1e-2
        assert _direction_case(bench3, [peak - 2 * dx, 2.5, 2.5], dx) == 1
        assert _direction_case(bench3, [peak + 2 * dx, 2.5, 2.5], dx) == 2

    def test_requires_positive_step(self, bench3):
        for dx in (0.0, -1e-3, float("nan")):
            with pytest.raises(ValidationError, match="dx must be > 0"):
                run_distributed(bench3, dx=dx, itr_max=10)

    def test_requires_finite_step(self, bench3):
        # inf passes a bare dx > 0 check: its probes sit at an infinite
        # load, and the final-state slack divides inf by inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="finite"):
                run_distributed(bench3, dx=float("inf"), itr_max=10)

    @pytest.mark.parametrize("x", [
        [float("inf"), 5.0, 5.0], [5.0, float("nan"), 5.0], [5.0, 5.0],
    ], ids=["inf", "nan", "short"])
    def test_rejects_bad_loads(self, bench3, x):
        with pytest.raises(ValidationError, match="load"):
            _Loads(bench3, x)


def _turn(config, x, dx=1e-3):
    """Receiver 1's turn at loads x: (case, loads after the update)."""
    loads = _Loads(config, list(x))
    return loads.turn(0, dx), loads.x


class TestStepCases:
    def test_case_1_unmet_below_peak_raises(self, bench3):
        # p_1 at x=2.5 is ~29.4 W; requirement 40 W is unmet, left of peak
        config = replace(bench3, p_req=(40.0, 1.0, 1.0))
        case, x = _turn(config, [2.5, 2.5, 2.5])
        assert case == 1
        assert x[0] == pytest.approx(2.501, rel=1e-12)

    def test_case_2_unmet_above_peak_lowers(self, bench3):
        config = replace(bench3, p_req=(40.0, 1.0, 1.0))
        case, x = _turn(config, [20.0, 2.5, 2.5])
        assert case == 2
        assert x[0] == pytest.approx(19.999, rel=1e-12)

    def test_case_2_lower_probe_at_half_the_load(self):
        # a step larger than the load: the lower probe lands at x / 2, not
        # at x - dx <= 0, finds the power rising there and lowers the load
        # to its bound
        config = replace(
            bench_system(n=1), h=(1e-9,), x_lo=(0.01,), p_req=(100.0,)
        )
        p = [solve_closed_form(config, None, [v]).p[0] for v in (0.5, 1.5, 0.25)]
        assert p[1] < p[0] < p[2]
        case, x = _turn(config, [0.5], dx=1.0)
        assert case == 2
        assert x == [0.01]

    def test_case_3_met_with_needy_peer_raises(self, bench3):
        # receiver 3 cannot reach 50 W, receiver 1 is satisfied
        config = replace(bench3, p_req=(1.0, 1.0, 50.0))
        case, x = _turn(config, [2.5, 2.5, 2.5])
        assert case == 3
        assert x[0] == pytest.approx(2.501, rel=1e-12)

    def test_case_5_met_within_one_step_with_needy_peer_holds(self, bench3):
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
        case, after = _turn(config, x, dx)
        assert case == 5
        assert after == x

    def test_case_4_all_met_lowers(self, bench3):
        config = replace(bench3, p_req=(1.0, 1.0, 1.0))
        case, x = _turn(config, [2.5, 2.5, 2.5])
        assert case == 4
        assert x[0] == pytest.approx(2.499, rel=1e-12)

    def test_case_5_exactly_at_requirement_holds(self, bench3):
        x = [2.5, 2.5, 2.5]
        p1 = solve_closed_form(bench3, None, x).p[0]
        config = replace(bench3, p_req=(p1, 1.0, 1.0))
        case, after = _turn(config, x)
        assert case == 5
        assert after[0] == 2.5

    def test_case_5_met_at_peak_holds(self, bench3):
        config = replace(bench3, p_req=(1.0, 1.0, 1.0))
        peak = thresholds(bench3, None, [2.5] * 3, 0).x_own_peak
        case, x = _turn(config, [peak, 2.5, 2.5])
        assert case == 5
        assert x[0] == peak

    def test_clamping_at_bounds(self, bench3):
        config = replace(bench3, p_req=(0.2, 0.2, 0.2))
        case, x = _turn(config, [1.0, 2.5, 2.5])  # case 4 pushes against x_lo
        assert case == 4
        assert x[0] == 1.0


class TestStepRejectsBadInput:
    """A rejected load vector is left as it was."""

    def test_nan_load(self, bench3):
        loads = _Loads(bench3, solo_peak_loads(bench3))
        loads.turn(0, 1e-3)
        x = list(loads.x)
        x[1] = float("nan")
        before = list(x)
        with pytest.raises(ValidationError, match="receiver 2: load"):
            _Loads(bench3, x)
        # the same float objects, so a NaN compares equal to itself here
        assert x == before


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
        prev_x = solo_peak_loads(bench3)
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
        # replaying the recorded updates turn by turn reproduces the states
        loads = _Loads(bench3, solo_peak_loads(bench3))
        for i in range(60):
            case = loads.turn(i % 3, 1e-3)
            assert case == int(a.trace[i, 2])
            assert loads.x == pytest.approx(list(a.trace[i, 3:6]), rel=1e-15)

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
        start = solo_peak_loads(bench3)
        assert run.x[0] > start[0] and run.x[1] > start[1]
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
        trace_to_csv(run, out)
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


def _step_loop(config, itr_max, dx=1e-3):
    """Trace rows of a plain loop of the reference turn, each measured
    before its turn, with no cycle detection, one row past the budget: that
    row's powers are the ones measured at the final loads."""
    loads = ReferenceLoads(config, solo_peak_loads(config))
    n = config.n_receivers
    rows = np.empty((itr_max + 1, 3 + 3 * n + 1))
    for i in range(itr_max + 1):
        p_tx, p, fb = measured(loads)
        case = loads.turn(i % n, dx)
        rows[i] = (i + 1, i % n + 1, case, *loads.x, *p, p_tx, *fb)
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


def _csv_rows_reference(rows, n):
    """Trace rows as written one by one through csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in rows:
        out = [int(row[0]), int(row[1]), int(row[2])]
        out += [f"{v:.11e}" for v in row[3 : 4 + 2 * n]]
        out += [int(v) for v in row[4 + 2 * n :]]
        writer.writerow(out)
    return buf.getvalue().encode()


def _csv_writer_reference(run, n):
    """The trace CSV as written row by row through csv.writer."""
    header = (
        ["itr", "receiver", "case"]
        + [f"x_{k + 1}" for k in range(n)]
        + [f"p_{k + 1}" for k in range(n)]
        + ["p_tx"]
        + [f"fb_{k + 1}" for k in range(n)]
    )
    return ",".join(header).encode() + b"\r\n" + _csv_rows_reference(run.trace, n)


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

    @pytest.mark.parametrize("n, seed", [(1, 13), (2, 52), (3, 364), (4, 122), (5, 338), (6, 99)])
    def test_rebuilt_rows_match_step_loop(self, n, seed):
        # rows formed after the loop equal rows measured turn by turn, for
        # budgets ending mid-round, a row short of the detecting round and
        # on it
        config = random_system(np.random.default_rng([seed, n]), n=n)
        detected_at = len(run_distributed(config, dx=1e-3, itr_max=3_000).rows)
        rows = _step_loop(config, detected_at)
        for itr_max in (detected_at - n - n // 2, detected_at - 1, detected_at):
            run = run_distributed(config, dx=1e-3, itr_max=itr_max)
            assert run.rows.shape == (itr_max, 4 + 3 * n)
            assert np.array_equal(run.rows, rows[:itr_max])
            _assert_matches_step_loop(run, rows, itr_max, n)
            assert (run.cycle_period is None) == (itr_max < detected_at)

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

    def test_rows_do_not_scale_with_the_budget(self, bench3):
        # a budget no array could hold: only the simulated rows are kept
        config = replace(bench3, p_req=(17.5, 17.5, 30.0))
        huge = run_distributed(config, dx=1e-3, itr_max=10**12)
        run = run_distributed(config, dx=1e-3, itr_max=300_000)
        assert huge.iterations == 10**12
        assert np.array_equal(huge.rows, run.rows)
        assert _cycle_fields(huge) == _cycle_fields(run)

    def test_trace_is_built_on_first_read(self, tmp_path):
        config = _late_cycle_single_receiver()
        run = run_distributed(config, dx=1e-3, itr_max=3_001)
        rows = _step_loop(config, 3_001)
        assert len(run.rows) < 3_001
        assert np.array_equal(run.rows, rows[: len(run.rows)])
        trace_to_csv(run, tmp_path / "trace.csv")
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
            loads = _Loads(config, solo_peak_loads(config))
            cases = [loads.turn(i % n, 1e-3) for i in range(2_000)]
            assert cases == full.trace[:, 2].astype(int).tolist()
            assert tuple(loads.x) == full.x == bare.x
            for name in ("p", "p_tx", "feasible"):
                assert getattr(bare, name) == getattr(full, name)
            assert _cycle_fields(bare) == _cycle_fields(full)
            seen_cases.update(cases)
        assert seen_cases == {1, 2, 3, 4, 5}

    def test_csv_matches_csv_writer(self, bench3, monkeypatch, tmp_path):
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
            expected = _csv_writer_reference(run, config.n_receivers)
            # the default blocks, then blocks of 7 values: one row a block,
            # one round formed at a time and one period a cycle block
            for budget in (_csvfmt._BLOCK_VALUES, 7):
                monkeypatch.setattr(_csvfmt, "_BLOCK_VALUES", budget)
                out = tmp_path / "trace.csv"
                trace_to_csv(run, out)
                assert out.read_bytes() == expected, budget
        assert cycled == [True, False, True]


def _reference_cycle(config, rows):
    """(cycle_period, cycle_start, cycle_p_tx) of a plain run's ``rows``:
    the first end-of-round loads that recur, the first row from which every
    row equals the one a period later (up to itr), and the least and
    greatest p_tx on one period."""
    n = config.n_receivers
    x_ends = [tuple(solo_peak_loads(config))] + [tuple(row[3 : 3 + n]) for row in rows[n - 1 :: n]]
    seen = {}
    for rnd, loads in enumerate(x_ends):
        mu = seen.setdefault(loads, rnd)
        if mu < rnd:
            period = (rnd - mu) * n
            first = mu * n
            while first > 0 and np.array_equal(rows[first - 1, 1:], rows[first - 1 + period, 1:]):
                first -= 1
            on_cycle = rows[first : first + period, 3 + 2 * n]
            return period, first + 1, (on_cycle.min(), on_cycle.max())
    return None, None, None


class TestReferenceTurn:
    """Runs against a plain loop of ``ReferenceLoads.turn``, which re-sums
    every denominator and shares no code with the loop of turns that
    carries it."""

    def test_runs_match_the_reference_turn(self):
        rng = np.random.default_rng(2024)
        seen = dict.fromkeys(["x_lo", "x_hi", "half", "cycled", "open"], 0)
        for n in range(1, 7):
            for dx in (1e-3, 0.05, 5.0):
                for tight in (False, True):
                    config = random_system(rng, n=n)
                    if tight:
                        # boxes a fraction of a decade wide around the
                        # solo peaks: turns clamp at both bounds
                        wide = replace(config, x_lo=(1e-9,) * n, x_hi=(1e12,) * n)
                        peak = np.array(solo_peak_loads(wide))
                        config = replace(
                            config,
                            x_lo=tuple(peak / 10 ** rng.uniform(0.02, 0.3, n)),
                            x_hi=tuple(peak * 10 ** rng.uniform(0.02, 0.3, n)),
                        )
                    rows = _step_loop(config, 2_003, dx)
                    for itr_max in (1, 7, 2_003):
                        self.check(config, dx, itr_max, rows)
                    self.count(seen, config, dx, rows[:2_003])
        # clamps at both bounds, lower probes at half the load, and runs
        # that repeat and that do not
        assert min(seen.values()) > 0, seen

    @staticmethod
    def check(config, dx, itr_max, rows):
        n = config.n_receivers
        x = tuple(rows[itr_max - 1, 3 : 3 + n])
        p = list(rows[itr_max, 3 + n : 3 + 2 * n])
        slack = _power_resolution(config, list(x), p, dx)
        feasible = all(p[k] >= config.p_req[k] - slack[k] for k in range(n))
        cycle = _reference_cycle(config, rows[:itr_max])
        for record_trace in (True, False):
            run = run_distributed(config, dx=dx, itr_max=itr_max, record_trace=record_trace)
            expected = rows[:itr_max] if record_trace else rows[:0]
            assert np.array_equal(run.trace, expected)
            assert run.x == x and run.p == tuple(p)
            assert run.p_tx == rows[itr_max, 3 + 2 * n]
            assert run.feasible is feasible
            assert _cycle_fields(run) == cycle

    @staticmethod
    def count(seen, config, dx, rows):
        n = config.n_receivers
        before = np.vstack([solo_peak_loads(config), rows[:-1, 3 : 3 + n]])
        for i, row in enumerate(rows):
            k, case = i % n, int(row[2])
            xk = before[i, k]
            seen["x_lo"] += int(case in (2, 4) and xk - dx < config.x_lo[k] < xk)
            seen["x_hi"] += int(case in (1, 3) and xk < config.x_hi[k] < xk + dx)
            seen["half"] += int(case == 2 and xk - dx <= 0.0)
        cycled = _reference_cycle(config, rows)[0] is not None
        seen["cycled" if cycled else "open"] += 1


def _oracle_slack(config, x, dx):
    """The final-state slack of every receiver from the mesh equations: its
    larger own +-dx change (the lower load at least half the load) plus
    each other load's +dx change."""
    n = config.n_receivers

    def powers(k, value):
        moved = list(x)
        moved[k] = value
        return np.array(solve_linear_oracle(config, None, moved).p)

    base = np.array(solve_linear_oracle(config, None, x).p)
    up = [np.abs(powers(k, x[k] + dx) - base) for k in range(n)]
    down = [np.abs(powers(k, max(x[k] - dx, 0.5 * x[k])) - base) for k in range(n)]
    return [
        max(up[k][k], down[k][k]) + sum(up[m][k] for m in range(n) if m != k) + 1e-12
        for k in range(n)
    ]


def test_final_slack_matches_mesh_oracle(bench3):
    rng = np.random.default_rng(41)
    states = [(replace(bench3, p_req=(17.5, 17.5, 30.0)), None)]
    for _ in range(10):
        config = random_system(rng, n=int(rng.integers(1, 6)))
        states.append((config, random_loads(rng, config)))
    # a load below dx, whose lower move halves it
    states.append((bench3, [5e-4, 2.5, 40.0]))
    for config, x in states:
        if x is None:
            x = list(run_distributed(config, dx=1e-3, itr_max=50_000, record_trace=False).x)
        p = list(solve_closed_form(config, None, x).p)
        slack = _power_resolution(config, x, p, 1e-3)
        assert slack == pytest.approx(_oracle_slack(config, x, 1e-3), rel=1e-8)


def _pinned_30w():
    return replace(bench_system(), p_req=(17.5, 17.5, 30.0)), 300_000


def _pinned_36w():
    return replace(bench_system(), p_req=(17.5, 17.5, 36.0)), 300_000


def _pinned_random_n5():
    # non-repeating within the budget; takes cases 1, 2, 3 and 5
    return random_system(np.random.default_rng(25), n=5), 20_000


class TestPinnedRuns:
    """Whole runs pinned by sha256 digests recorded from an earlier
    implementation of the turn. The step-loop references above take the
    turn from ``distributed_reference``, which keeps an earlier copy of
    it; these digests also catch a change that moves both: every float
    must stay bit-identical."""

    @pytest.mark.parametrize(
        "system, record_trace, shape, rows_sha, state_sha, feasible, cycle",
        [
            (
                _pinned_30w, True, (37_275, 13),
                "7468425aa2a40f1ae5a1b7242ae8885fdfacbe62e27f2132a57bf0e5351d52ba",
                "b8e9d14dc6fe0bb6a67bd98a8d6936770e4f4357a48e9a55c4f20e114b717d8f",
                True, (6, 37_269, (112.00814021164204, 112.01239532352689)),
            ),
            (
                _pinned_36w, False, (0, 13),
                # the digest of no bytes: an untraced run keeps no rows
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                "57aa3f361b423d4f4bed7c728efd697da23190f12a8b88e61429fa1c5d29a47b",
                False, (3, 58_613, (119.10060896501801, 119.10060896501801)),
            ),
            (
                _pinned_random_n5, True, (20_000, 19),
                "199fc80405887bf19f3f5f83041afef7870b79906d3f7d2ccb7ce802a601365f",
                "9b350eb745a085c7a1a010ce25a0f40c3fc5672ad343bdb612838c7e1130feed",
                False, (None, None, None),
            ),
        ],
        ids=["bundled-30W-traced", "bundled-36W-untraced", "random-n5-traced"],
    )
    def test_digests_unchanged(
        self, system, record_trace, shape, rows_sha, state_sha, feasible, cycle
    ):
        config, itr_max = system()
        run = run_distributed(config, dx=1e-3, itr_max=itr_max, record_trace=record_trace)
        n = config.n_receivers
        state = struct.pack(f"<{2 * n + 1}d", *run.x, *run.p, run.p_tx)
        assert run.rows.shape == shape
        assert hashlib.sha256(run.rows.astype("<f8").tobytes()).hexdigest() == rows_sha
        assert hashlib.sha256(state).hexdigest() == state_sha
        assert run.feasible is feasible
        assert _cycle_fields(run) == cycle


class TestTraceCsv:
    def test_bundled_30w_digest(self, tmp_path):
        # the 43 MB trace of the benchmark's 30 W request, pinned by its
        # digest from the row-template writer that preceded the block encoder
        config, itr_max = _pinned_30w()
        out = tmp_path / "trace.csv"
        trace_to_csv(run_distributed(config, dx=1e-3, itr_max=itr_max), out)
        data = out.read_bytes()
        assert len(data) == 43_088_958
        assert hashlib.sha256(data).hexdigest() == (
            "0ce36512103f7232204897d02782789d4a10e45aa45f9d7a5675a5f38f24b3da"
        )

    def test_eleven_receivers_match_csv_writer(self, tmp_path):
        # two-digit receiver numbers, and iteration numbers that reach four
        # digits inside one block
        config = random_system(np.random.default_rng(31), n=11)
        run = run_distributed(config, dx=1e-3, itr_max=1_500)
        out = tmp_path / "trace.csv"
        trace_to_csv(run, out)
        assert out.read_bytes() == _csv_writer_reference(run, 11)

    def test_written_run_never_holds_its_rows(self, tmp_path):
        # the CLI path: the writer forms the rows from the turn log a block
        # at a time, so the 3.04 MB of this run's rows never exist at once
        config, itr_max = _pinned_random_n5()
        tracemalloc.start()
        try:
            run = run_distributed(config, dx=1e-3, itr_max=itr_max, record_trace=True)
            trace_to_csv(run, tmp_path / "trace.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows_nbytes = itr_max * (3 * config.n_receivers + 4) * 8
        assert run.cycle_period is None
        assert peak < rows_nbytes / 2, f"peak {peak} B against {rows_nbytes} B of rows"
        assert "rows" not in vars(run) and "trace" not in vars(run)
        # read afterwards, the rows are those pinned in TestPinnedRuns
        assert hashlib.sha256(run.rows.astype("<f8").tobytes()).hexdigest() == (
            "199fc80405887bf19f3f5f83041afef7870b79906d3f7d2ccb7ce802a601365f"
        )

    @pytest.mark.parametrize("n, seed", [(1, 16), (4, 123), (6, 100)])
    def test_blocks_match_the_rows_formed_at_once(self, n, seed):
        # a block starts from the loads its round's predecessor left in the
        # log, so its rows do not depend on where it starts or ends; none of
        # these runs repeats within its budget
        config = random_system(np.random.default_rng([seed, n]), n=n)
        chunk = 1024
        count = 3 * chunk
        run = run_distributed(config, dx=1e-3, itr_max=count)
        assert len(run.rows) == count
        for a, b in [(0, 1), (n, 2 * n + 1), (n + 1, count), (count - 1, count),
                     (chunk - 1, 2 * chunk + n // 2), (count, count)]:
            assert np.array_equal(_rebuild_rows(run._log, a, b), run.rows[a:b])

    def test_write_failure_carries_path(self, bench3, tmp_path):
        run = run_distributed(bench3, dx=1e-3, itr_max=30)
        missing = tmp_path / "no" / "such" / "dir" / "trace.csv"
        with pytest.raises(OSError, match="cannot write trace CSV to .*trace.csv"):
            trace_to_csv(run, missing)


def _synthetic_cycle_run(n, period, first, total, seed=0):
    """A run of ``total`` iterations whose rows from 0-based row ``first``
    on repeat a period of ``period`` rows; its values are drawn. ``trace``
    is every row, tiled here with no code from the module."""
    rng = np.random.default_rng(seed)
    count = first + period
    rows = np.empty((count, 4 + 3 * n))
    rows[:, 0] = np.arange(1, count + 1)
    rows[:, 1] = np.arange(count) % n + 1
    rows[:, 2] = rng.integers(1, 6, count)
    rows[:, 3 : 4 + 2 * n] = 10 ** rng.uniform(-14, 14, (count, 2 * n + 1))
    rows[:, 4 + 2 * n :] = rng.integers(0, 2, (count, n))
    trace = np.array([rows[i if i < first else first + (i - first) % period] for i in range(total)])
    trace[:, 0] = np.arange(1, total + 1)
    return SimpleNamespace(rows=rows, trace=trace, cycle_period=period, first=first, total=total)


class TestCycleTiler:
    """The cycle rows tiled as bytes, against csv.writer on synthetic runs,
    whose rows before the cycle go to the block writer as one block."""

    @staticmethod
    def check(run, n):
        handle = io.StringIO()
        cycle = run.rows[run.first : run.first + run.cycle_period]
        _write_blocks(handle, n, [run.rows[: run.first]], cycle, run.total)
        assert handle.getvalue().encode() == _csv_writer_reference(run, n)

    def test_itr_gains_digits_inside_blocks(self):
        # itr gains a digit at 10, 100, 1,000 and 10,000, each inside what
        # would be one block of rows
        self.check(_synthetic_cycle_run(3, 6, 5, 12_000), 3)

    @pytest.mark.parametrize("phase", range(6))
    def test_every_starting_phase(self, phase):
        # the block that starts at itr 1,000 starts at this phase
        first = 399 - phase
        run = _synthetic_cycle_run(3, 6, first, 2_000, seed=phase)
        assert (999 - first) % 6 == phase
        self.check(run, 3)

    def test_partial_last_period(self):
        self.check(_synthetic_cycle_run(2, 4, 7, 7 + 4 * 300 + 3), 2)

    def test_period_two_with_one_receiver(self):
        self.check(_synthetic_cycle_run(1, 2, 3, 5_000), 1)

    def test_rows_of_different_lengths(self):
        # receivers 10 and 11 take two digits, so the phases differ in length
        self.check(_synthetic_cycle_run(11, 22, 30, 3_000), 11)

    def test_long_period(self):
        # a period longer than a block: one period per block
        self.check(_synthetic_cycle_run(3, 1_500, 20, 4_000), 3)

    @pytest.mark.parametrize("power", [8, 9, 12])
    def test_itr_wider_than_eight_digits(self, power):
        # rows around itr 10**power, past the 8 digits of a row template's
        # fast path; only these rows are written
        run = _synthetic_cycle_run(2, 4, 5, 5)
        cycle = run.rows[5:9]
        first, total = 10**power - 1_500 - 3, 10**power + 700
        i = np.arange(first, total)
        expected = cycle[(i - first) % 4]
        expected[:, 0] = i + 1
        handle = io.StringIO()
        _write_cycle_rows(handle, cycle, first, total)
        assert handle.getvalue().encode() == _csv_rows_reference(expected, 2)
