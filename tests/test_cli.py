"""Command-line interface: subcommands, sweeps, exit codes, formatting."""

import math
import os
import re
import runpy
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from mrcwpt import _csvfmt, central, cli
from mrcwpt.cli import EXIT_INFEASIBLE, EXIT_INVALID, EXIT_NUMERICAL, EXIT_OK, main

import cli_reference


def run_cli(*argv):
    return main(list(argv))


class TestAnalyze:
    def test_point_analysis(self, capsys):
        assert run_cli("analyze", "three_receivers") == EXIT_OK
        out = capsys.readouterr().out
        assert "p_tx = 4.49088147203e+01" in out
        assert "w_peak = 1.79582486925e+07" in out

    def test_load_sweep_peak_location(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "analyze", "three_receivers",
            "--sweep", "x_1=0.1:20:0.01", "--out", str(out),
        )
        assert code == EXIT_OK
        rows = out.read_text().splitlines()
        assert rows[0] == "x_1,p_tx,p_1,p_2,p_3,p_sum,rho"
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        peak_x = data[np.argmax(data[:, 2]), 0]
        assert peak_x == pytest.approx(5.35, abs=0.05)

    def test_frequency_sweep_peak_location(self, tmp_path):
        out = tmp_path / "wsweep.csv"
        code = run_cli(
            "analyze", "three_receivers",
            "--sweep", "w=1e7:3e7:1e5", "--out", str(out),
        )
        assert code == EXIT_OK
        rows = out.read_text().splitlines()
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        peak_w = data[np.argmax(data[:, 2]), 0]
        assert peak_w == pytest.approx(17.97e6, rel=5e-3)

    def test_sweep_endpoints_inclusive(self, tmp_path):
        out = tmp_path / "ends.csv"
        run_cli("analyze", "three_receivers", "--sweep", "x_1=1:2:0.25",
                "--out", str(out))
        rows = out.read_text().splitlines()[1:]
        values = [float(r.split(",")[0]) for r in rows]
        assert values[0] == 1.0 and values[-1] == 2.0 and len(values) == 5

    def test_determinism(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli("analyze", "three_receivers", "--sweep", "x_1=1:10:0.5",
                "--out", str(a))
        run_cli("analyze", "three_receivers", "--sweep", "x_1=1:10:0.5",
                "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_twelve_significant_digits(self, tmp_path):
        out = tmp_path / "fmt.csv"
        run_cli("analyze", "three_receivers", "--sweep", "x_1=2:3:1",
                "--out", str(out))
        first_value = out.read_text().splitlines()[1].split(",")[1]
        mantissa = first_value.split("e")[0]
        assert len(mantissa.replace("-", "").replace(".", "")) == 12

    def test_bad_sweep_variable(self, capsys):
        assert run_cli("analyze", "three_receivers", "--sweep", "q_1=1:2:1") \
            == EXIT_INVALID
        assert "unknown sweep" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("analyze", "three_receivers", "--sweep", "x_²=1:2:0.5"),
        ("optimize", "three_receivers", "--sweep", "p_req_³=5:6:1"),
    ], ids=["analyze", "optimize"])
    def test_superscript_receiver_index(self, argv, capsys):
        # str.isdigit accepts superscript digits that int() rejects
        assert run_cli(*argv) == EXIT_INVALID
        name = argv[-1].split("=")[0]
        assert capsys.readouterr().err.splitlines() == [
            f"error: unknown sweep variable '{name}'"
        ]

    @pytest.mark.parametrize("spec, message", [
        ("x_1", "sweep must look like name=a:b:step"),
        ("x_1=1:2", "sweep range must be a:b:step"),
        ("x_1=a:b:c", "sweep bounds must be numbers"),
        ("x_1=2:1:1", "sweep needs a <= b and step > 0"),
        ("x_1=1:2:0", "sweep needs a <= b and step > 0"),
    ], ids=["no-range", "two-parts", "not-numbers", "reversed", "zero-step"])
    def test_malformed_sweep(self, capsys, spec, message):
        assert run_cli("analyze", "three_receivers", "--sweep", spec) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {message}"]
        assert captured.out == ""

    @pytest.mark.parametrize("spec", ["x_1=0.1:nan:1", "x_1=1:2:inf"])
    def test_non_finite_sweep_bounds(self, capsys, spec):
        assert run_cli("analyze", "three_receivers", "--sweep", spec) == EXIT_INVALID
        assert "sweep bounds must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["x_1=1:2:1e-300", "x_1=1:2:5e-324", "x_1=0:10:1e-6"])
    def test_sweep_with_too_many_points(self, capsys, spec):
        # 1e300 points, an infinite count and 10,000,001 points: each is
        # refused before any array is allocated
        assert run_cli("analyze", "three_receivers", "--sweep", spec) == EXIT_INVALID
        assert "sweep would have more than 10000000 points" in capsys.readouterr().err


def _sweep_reference(scenario, spec):
    """The sweep CSV from one solve_closed_form and fmt call per point."""
    from mrcwpt import parse_scenario, solve_closed_form
    from mrcwpt.cli import _parse_sweep, fmt

    config, options = parse_scenario(scenario)
    name, values = _parse_sweep(spec)
    n = config.n_receivers
    lines = [",".join([name, "p_tx"] + [f"p_{k + 1}" for k in range(n)] + ["p_sum", "rho"])]
    for value in values.tolist():
        if name == "w":
            state = solve_closed_form(config.with_frequency(value), None, options.x_nominal)
        else:
            loads = list(options.x_nominal)
            loads[int(name[2:]) - 1] = value
            state = solve_closed_form(config, None, loads)
        lines.append(",".join(fmt(v) for v in
                              [value, state.p_tx, *state.p, state.p_sum, state.rho]))
    return "\n".join(lines) + "\n"


class TestSweepOutput:
    """Sweep CSVs are the bytes of a point-by-point evaluation."""

    @pytest.mark.parametrize("spec, digest", [
        ("x_1=0.1:20:0.01", "2641a0a998b877ebf3dc2c536c1e5650bdb291abaf34d2977e3f218792affbc8"),
        ("w=1e7:3e7:1e5", "7fe032d52e5b3c11dc81a31afc5186f30b90cca59db25afe34b7d52ea9b3258b"),
    ], ids=["x_1", "w"])
    def test_readme_sweeps_pinned(self, spec, digest, tmp_path):
        # digests recorded from the point-by-point sweep
        import hashlib

        out = tmp_path / "sweep.csv"
        assert run_cli("analyze", "three_receivers", "--sweep", spec, "--out", str(out)) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("scenario", ["two_receivers", "three_receivers"])
    def test_seeded_sweeps_match_point_by_point(self, scenario, monkeypatch, tmp_path):
        rng = np.random.default_rng(190 + len(scenario))
        n = 2 if scenario == "two_receivers" else 3
        specs = []
        for k in range(1, n + 1):
            start = float(10 ** rng.uniform(-3, 3))
            step = float(10 ** rng.uniform(-3, 1)) * start
            stop = start + step * int(rng.integers(1, 3000))
            specs.append(f"x_{k}={start!r}:{stop!r}:{step!r}")
        for _ in range(2):
            start = float(10 ** rng.uniform(5, 8))
            step = float(rng.uniform(0.001, 0.1)) * start
            stop = start + step * int(rng.integers(1, 300))
            specs.append(f"w={start!r}:{stop!r}:{step!r}")
        for spec in specs:
            expected = _sweep_reference(scenario, spec)
            # the default blocks, then blocks of 7 values: one row a block
            for budget in (_csvfmt._BLOCK_VALUES, 7):
                monkeypatch.setattr(_csvfmt, "_BLOCK_VALUES", budget)
                out = tmp_path / "sweep.csv"
                assert run_cli("analyze", scenario, "--sweep", spec, "--out", str(out)) == EXIT_OK
                assert out.read_text() == expected, (spec, budget)

    @pytest.mark.parametrize("spec", ["w=5e99:3e100:5e99", "w=1e-101:1e-99:1e-100"])
    def test_frequency_sweeps_past_the_plain_range(self, spec, tmp_path):
        # the points past 1e100 or below 1e-100 are re-tuned one by one
        out = tmp_path / "sweep.csv"
        assert run_cli("analyze", "three_receivers", "--sweep", spec, "--out", str(out)) == EXIT_OK
        assert out.read_text() == _sweep_reference("three_receivers", spec)

    def test_frequency_sweep_raises_where_b_overflows(self):
        # without capacitors nothing bounds w, and (w h)**2 overflows first
        from mrcwpt import CoilElectrical, parse_scenario
        from mrcwpt.cli import _frequency_sweep

        config, options = parse_scenario("three_receivers")
        untuned = replace(config, transmitter=CoilElectrical(1.0, 1e-5),
                          receivers=(CoilElectrical(1.0, 1e-5),) * 3)
        with pytest.raises(OverflowError):
            _frequency_sweep(untuned, options.x_nominal, np.array([1e7, 1e300, -1.0]))

    def test_frequency_sweep_point_is_the_retuned_solve_at_any_w(self):
        # coils from subnormal to huge inductances, most tuned; at every w
        # a one-point sweep gives the row of solve_closed_form on
        # with_frequency(w), or raises what that raises
        from mrcwpt import CoilElectrical, SystemConfig, ValidationError, solve_closed_form
        from mrcwpt.cli import _frequency_sweep

        rng = np.random.default_rng(2020)
        rows = 0
        for _ in range(150):
            w0 = 10 ** rng.uniform(-5, 20)
            coils = []
            for _ in range(3):
                coil = CoilElectrical(1.0, 10 ** rng.uniform(-323, 100))
                try:
                    coils.append(coil.tuned(w0) if rng.random() < 0.8 else coil)
                except ValidationError:
                    coils.append(coil)
            l_tx = coils[0].self_inductance
            h = tuple(0.5 * math.sqrt(c.self_inductance) * math.sqrt(l_tx) for c in coils[1:])
            config = SystemConfig(
                v_tx=1.0, w=w0, transmitter=coils[0], receivers=tuple(coils[1:]),
                h=h, x_lo=(1.0, 1.0), x_hi=(2.0, 2.0), p_req=(1.0, 1.0),
            )
            x = [1.5, 1.5]
            w = np.concatenate([10 ** rng.uniform(-320, 308, 20), -w0 * rng.random(2),
                                [0.0, w0, 1e-100, 1e100]])
            for wi in w.tolist():
                try:
                    state = solve_closed_form(config.with_frequency(wi), None, x)
                except Exception as exc:
                    with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                        _frequency_sweep(config, x, np.array([wi]))
                else:
                    row = _frequency_sweep(config, x, np.array([wi]))[0].tolist()
                    assert row == [wi, state.p_tx, *state.p, state.p_sum, state.rho]
                    rows += 1
        assert rows > 1000

    def test_load_sweep_rows_are_the_closed_form_bits(self):
        # the CSV shows 12 digits; the table under it must be exact
        from conftest import random_loads, random_system
        from mrcwpt import solve_closed_form
        from mrcwpt.cli import _load_sweep

        rng = np.random.default_rng(1919)
        for _ in range(40):
            config = random_system(rng)
            x = random_loads(rng, config)
            k = int(rng.integers(config.n_receivers))
            values = np.sort(10 ** rng.uniform(-2, 3, 50))
            table = _load_sweep(config, x, k, values)
            for row, value in zip(table.tolist(), values.tolist()):
                loads = list(x)
                loads[k] = value
                state = solve_closed_form(config, None, loads)
                assert row == [value, state.p_tx, *state.p, state.p_sum, state.rho]

    def test_stdout_matches_out_file(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("analyze", "three_receivers", "--sweep", "x_2=1:3:0.5") == EXIT_OK
        printed = capsys.readouterr().out
        run_cli("analyze", "three_receivers", "--sweep", "x_2=1:3:0.5", "--out", str(out))
        assert printed == out.read_text()

    @pytest.fixture
    def uncoupled_second(self, tmp_path):
        # receiver 2 draws no power, so its load reaches the float limit
        # without an overflow and a sweep past it ends on an infinite load
        from mrcwpt import parse_scenario, serialize_scenario

        config, options = parse_scenario("three_receivers")
        path = tmp_path / "uncoupled.scn"
        path.write_text(serialize_scenario(replace(config, h=(config.h[0], 0.0, config.h[2])),
                                           options))
        return str(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scenario, spec, code, message", [
        ("three_receivers", "x_1=-1:1:0.5", EXIT_INVALID,
         "error: receiver 1: load resistance must be > 0"),
        # the first point makes r + x zero
        ("three_receivers", "x_3=-0.0672:1:0.5", EXIT_INVALID,
         "error: receiver 3: load resistance must be > 0"),
        ("three_receivers", "x_2=0.5:4:0.5", EXIT_OK, None),
        (None, "x_2=1:1.7e308:1e308", EXIT_INVALID,
         "error: receiver 2: load resistance must be finite"),
        ("three_receivers", "x_1=1e307:1e307:1", EXIT_NUMERICAL,
         "numerical failure: the steady-state powers overflow at these loads"),
        # the last point is past the float range, the second already overflows
        ("three_receivers", "x_1=1:1.7e308:1e308", EXIT_NUMERICAL,
         "numerical failure: the steady-state powers overflow at these loads"),
        # a frequency sweep stops where a capacitor cannot be re-tuned
        ("three_receivers", "w=-1e7:1e7:5e6", EXIT_INVALID,
         "error: angular frequency must be > 0"),
        ("three_receivers", "w=1e150:1e160:1e159", EXIT_INVALID,
         "error: self_inductance * w**2 is outside the float range"),
    ], ids=["negative", "zero-series", "valid", "infinite", "overflow", "overflow-then-inf",
            "w-negative", "w-past-tuning"])
    def test_bad_points_stop_the_sweep(self, scenario, spec, code, message,
                                       uncoupled_second, tmp_path, capsys):
        # one error line and no file; no numpy warning is raised (it would
        # print as a "warning:" line)
        out = tmp_path / "sweep.csv"
        scenario = scenario or uncoupled_second
        assert run_cli("analyze", scenario, "--sweep", spec, "--out", str(out)) == code
        err = capsys.readouterr().err
        if message is None:
            assert err == "" and out.exists()
        else:
            assert err == message + "\n"
            assert not out.exists()


class TestOptimize:
    def test_single_solve(self, capsys):
        assert run_cli("optimize", "three_receivers") == EXIT_OK
        out = capsys.readouterr().out
        assert "status = optimal" in out
        assert "p_tx = 1.12011021054e+02" in out

    def test_requirement_sweep_is_monotone(self, tmp_path):
        out = tmp_path / "opt.csv"
        code = run_cli(
            "optimize", "three_receivers",
            "--sweep", "p_req_3=1:37:4", "--out", str(out),
        )
        assert code == EXIT_OK
        rows = out.read_text().splitlines()
        assert rows[0].startswith("p_req_3,status,p_tx")
        ptx = [float(r.split(",")[2]) for r in rows[1:]]
        assert all(b >= a - 1e-9 for a, b in zip(ptx, ptx[1:]))

    def test_sweep_past_the_boundary_writes_infeasible_rows(self, tmp_path):
        # 36 W is still reachable for receiver 3; 38 and 40 W are not
        out = tmp_path / "opt.csv"
        code = run_cli(
            "optimize", "three_receivers",
            "--sweep", "p_req_3=36:40:2", "--out", str(out),
        )
        assert code == EXIT_OK
        rows = [r.split(",") for r in out.read_text().splitlines()]
        assert rows[0] == ["p_req_3", "status", "p_tx", "x_1", "x_2", "x_3"]
        assert [r[:2] for r in rows[1:]] == [
            ["3.60000000000e+01", "optimal"],
            ["3.80000000000e+01", "infeasible"],
            ["4.00000000000e+01", "infeasible"],
        ]
        assert all(v != "nan" for v in rows[1][2:])
        assert rows[2][2:] == rows[3][2:] == ["nan"] * 4

    def test_scenario_name_too_long_exits_1(self, capsys):
        name = "a" * 300
        assert run_cli("optimize", name) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {name}: scenario file not found"]
        assert captured.out == ""

    def test_sweep_over_loads_rejected(self, capsys):
        assert run_cli("optimize", "three_receivers", "--sweep", "x_1=1:2:1") \
            == EXIT_INVALID
        assert capsys.readouterr().err.splitlines() == [
            "error: optimize sweeps run over p_req_<k>"
        ]

    def test_infeasible_exit_code(self, tmp_path):
        # push receiver 3's requirement beyond the achievable boundary
        config_text = (
            __import__("mrcwpt.scenario", fromlist=["serialize_scenario"])
        )
        from mrcwpt import parse_scenario, serialize_scenario
        from dataclasses import replace

        config, options = parse_scenario("three_receivers")
        bad = replace(config, p_req=(17.5, 17.5, 60.0))
        path = tmp_path / "hard.scn"
        path.write_text(serialize_scenario(bad, options))
        assert run_cli("optimize", str(path)) == EXIT_INFEASIBLE
        del config_text

    def test_infeasible_report_replaces_the_out_file(self, tmp_path, capsys):
        # 38, 39 and 40 W are past receiver 3's reach; an earlier optimal
        # report at the --out path must not survive beside exit 2
        from mrcwpt import parse_scenario, serialize_scenario

        config, options = parse_scenario("three_receivers")
        out = tmp_path / "report.txt"
        for p3 in (38.0, 39.0, 40.0):
            path = tmp_path / "hard.scn"
            path.write_text(serialize_scenario(replace(config, p_req=(17.5, 17.5, p3)), options))
            assert run_cli("optimize", "three_receivers", "--out", str(out)) == EXIT_OK
            assert out.read_text().startswith("status = optimal\n")
            capsys.readouterr()
            assert run_cli("optimize", str(path), "--out", str(out)) == EXIT_INFEASIBLE
            assert out.read_text() == "status = infeasible\n"
            assert capsys.readouterr() == ("", "")
            # without --out the report goes to stdout, as before
            assert run_cli("optimize", str(path)) == EXIT_INFEASIBLE
            assert capsys.readouterr() == ("status = infeasible\n", "")

    @pytest.mark.parametrize("argv, certificates", [
        (["optimize", "three_receivers"], 1),
        (["optimize", "three_receivers", "--sweep", "p_req_3=1:40:1"], 0),
        (["timeshare", "three_receivers"], 0),
    ], ids=["optimize", "optimize-sweep", "timeshare"])
    def test_certificates_computed_only_where_printed(
            self, argv, certificates, monkeypatch, capsys):
        # the single solve prints kkt_residual; sweep rows and schedules print
        # no certificate, so their solves never compute one
        calls = []
        real = central._certificate

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(central, "_certificate", counted)
        assert run_cli(*argv) == EXIT_OK
        assert len(calls) == certificates
        assert ("kkt_residual = " in capsys.readouterr().out) == bool(certificates)


class TestDistributed:
    def test_short_run_writes_trace(self, tmp_path):
        from mrcwpt import parse_scenario, serialize_scenario
        from mrcwpt.scenario import ScenarioOptions

        config, options = parse_scenario("three_receivers")
        fast = ScenarioOptions(
            x_nominal=options.x_nominal, dx=1e-2, itr_max=2000,
            dp_stop=options.dp_stop, tau_total=options.tau_total,
        )
        path = tmp_path / "fast.scn"
        path.write_text(serialize_scenario(config, fast))
        trace = tmp_path / "trace.csv"
        code = run_cli("distributed", str(path), "--out", str(trace))
        assert code in (EXIT_OK, EXIT_INFEASIBLE)
        assert len(trace.read_text().splitlines()) == 2001

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dx, code, out, err", [
        # the turn's (r + x + dx)**2 raised a bare OverflowError: exit 3 with an errno tuple
        (2e154, EXIT_INVALID, "",
         "error: dx is too large: (r_n + x_hi + dx)**2 * r_tx**2 is not finite\n"),
        # every probe's power divided by inf, and the final-state slack warned
        # "overflow encountered in multiply" before exiting 0
        (1e154, EXIT_INVALID, "",
         "error: dx is too large: (r_n + x_hi + dx)**2 * r_tx**2 is not finite\n"),
        # the probes at D = 5 overflowed, read a power of 0, and the
        # final-state slack warned "overflow encountered in multiply" before
        # exiting 0 with the report of 1e153
        (8e153, EXIT_NUMERICAL, "", "numerical failure: the powers overflow at a probe: "
         "(r_n + x_n + dx)**2 * D**2 is not finite\n"),
        # the largest step that ran before keeps its bytes
        (1e153, EXIT_OK, "iterations = 300000\nfeasible = yes\np_tx = 8.06589514030e+01\n"
         "x_1 = 1.15207255741e+01  p_1 = 2.14808789661e+01\n"
         "x_2 = 2.24928686786e+00  p_2 = 1.99940889144e+01\n"
         "x_3 = 1.00000000000e+00  p_3 = 1.55562489949e+01\n", ""),
    ], ids=["2e154", "1e154", "8e153", "1e153"])
    def test_step_near_the_float_range(self, tmp_path, capsys, dx, code, out, err):
        from mrcwpt import parse_scenario, serialize_scenario

        config, options = parse_scenario("three_receivers")
        path = tmp_path / "step.scn"
        path.write_text(serialize_scenario(config, replace(options, dx=dx)))
        assert run_cli("distributed", str(path)) == code
        assert capsys.readouterr() == (out, err)


class TestTimeshare:
    def test_schedule_output(self, capsys, tmp_path):
        out = tmp_path / "sched.csv"
        assert run_cli("timeshare", "three_receivers", "--out", str(out)) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "p_tx_trace" in stdout
        lines = out.read_text().splitlines()
        assert len(lines) == 8  # header + 7 configurations

    def test_infeasible_concurrent_problem_exits_2(self, tmp_path, capsys):
        # receiver 3 cannot reach 45 W with all receivers connected, and
        # time sharing still asks for a feasible concurrent problem first
        from mrcwpt import parse_scenario, serialize_scenario

        config, options = parse_scenario("three_receivers")
        path = tmp_path / "hard.scn"
        path.write_text(serialize_scenario(replace(config, p_req=(17.5, 17.5, 45.0)), options))
        out = tmp_path / "sched.csv"
        assert run_cli("timeshare", str(path), "--out", str(out)) == EXIT_INFEASIBLE
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "infeasible: the concurrent (no time sharing) problem is infeasible"
        ]
        assert captured.out == ""
        assert not out.exists()


class TestRegion:
    def test_masked_region_with_containment(self, tmp_path):
        from mrcwpt import read_region_csv, points_in_hull_2d
        from mrcwpt import parse_scenario, serialize_scenario
        from mrcwpt.scenario import ScenarioOptions

        config, options = parse_scenario("two_receivers")
        small = ScenarioOptions(x_nominal=options.x_nominal, grid_points=40)
        path = tmp_path / "small.scn"
        path.write_text(serialize_scenario(config, small))

        plain = tmp_path / "plain.csv"
        shared = tmp_path / "shared.csv"
        assert run_cli("region", str(path), "--out", str(plain)) == EXIT_OK
        assert run_cli("region", str(path), "--with-ts", "--out", str(shared)) == EXIT_OK
        points, _ = read_region_csv(plain)
        _, hull = read_region_csv(shared)
        assert points_in_hull_2d(points, hull, 1e-6).all()

    def test_mask_restricts_receivers(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run_cli("region", "three_receivers", "--mask", "110",
                       "--out", str(out)) == EXIT_OK
        from mrcwpt import read_region_csv

        points, _ = read_region_csv(out)
        assert points.shape[1] == 2
        header = out.read_text().splitlines()[0]
        assert header == "p_1,p_2,section"

    def test_masked_time_shared_region_contains_concurrent(self, tmp_path):
        from mrcwpt import parse_scenario, serialize_scenario
        from mrcwpt.scenario import ScenarioOptions
        from mrcwpt import read_region_csv, points_in_hull_2d

        config, options = parse_scenario("three_receivers")
        small = ScenarioOptions(x_nominal=options.x_nominal, grid_points=30)
        path = tmp_path / "small3.scn"
        path.write_text(serialize_scenario(config, small))
        plain = tmp_path / "plain.csv"
        shared = tmp_path / "shared.csv"
        assert run_cli("region", str(path), "--mask", "110",
                       "--out", str(plain)) == EXIT_OK
        assert run_cli("region", str(path), "--mask", "110", "--with-ts",
                       "--out", str(shared)) == EXIT_OK
        points, _ = read_region_csv(plain)
        _, hull = read_region_csv(shared)
        assert points_in_hull_2d(points, hull, 1e-6).all()

    @pytest.mark.parametrize("flags", [(), ("--with-ts",)], ids=["without-ts", "with-ts"])
    def test_frequency_override_samples_the_retuned_system(self, flags, tmp_path):
        from mrcwpt import parse_scenario, region_to_csv
        from mrcwpt import sample_region_with_ts, sample_region_without_ts

        out = tmp_path / "w.csv"
        assert run_cli("region", "two_receivers", *flags, "--w", "14.2e6",
                       "--out", str(out)) == EXIT_OK
        config, options = parse_scenario("two_receivers")
        retuned = config.with_frequency(14.2e6)
        if flags:
            sample = sample_region_with_ts(retuned, options.grid_points)
        else:
            sample = sample_region_without_ts(retuned, options.grid_points)
        expected = tmp_path / "expected.csv"
        region_to_csv(sample, expected)
        assert out.read_bytes() == expected.read_bytes()
        # the scenario's own frequency gives another region
        default = tmp_path / "default.csv"
        assert run_cli("region", "two_receivers", *flags, "--out", str(default)) == EXIT_OK
        assert default.read_bytes() != out.read_bytes()

    def test_time_shared_region_with_an_uncoupled_receiver(self, tmp_path, capsys):
        from mrcwpt import parse_scenario, read_region_csv, serialize_scenario
        from mrcwpt.scenario import ScenarioOptions

        config, options = parse_scenario("three_receivers")
        config = replace(config, h=(*config.h[:2], 0.0))
        small = ScenarioOptions(x_nominal=options.x_nominal, grid_points=12)
        path = tmp_path / "uncoupled.scn"
        path.write_text(serialize_scenario(config, small))
        out = tmp_path / "ts.csv"
        assert run_cli("region", str(path), "--with-ts", "--out", str(out)) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == f"points = {13**3}"
        points, boundary = read_region_csv(out)
        assert len(boundary) > 3
        samples = {tuple(row) for row in points.tolist()}
        assert all(tuple(row) in samples for row in boundary.tolist())
        assert np.all(boundary[:, 2] == 0.0)

    def test_stdout_matches_out_file(self, capsys, tmp_path):
        out = tmp_path / "region.csv"
        assert run_cli("region", "two_receivers", "--out", str(out)) == EXIT_OK
        capsys.readouterr()
        assert run_cli("region", "two_receivers") == EXIT_OK
        assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_bad_mask_length(self, capsys):
        assert run_cli("region", "two_receivers", "--mask", "101") == EXIT_INVALID

    @pytest.mark.parametrize("flags, count", [
        ((), 100_000**3), (("--with-ts",), 100_001**3),
    ], ids=["without-ts", "with-ts"])
    def test_oversized_grid_exits_1_naming_the_count(self, flags, count, tmp_path, capsys):
        from mrcwpt import parse_scenario, serialize_scenario
        from mrcwpt.scenario import ScenarioOptions

        config, options = parse_scenario("three_receivers")
        huge = ScenarioOptions(x_nominal=options.x_nominal, grid_points=100_000)
        path = tmp_path / "huge.scn"
        path.write_text(serialize_scenario(config, huge))
        out = tmp_path / "x.csv"
        assert run_cli("region", str(path), *flags, "--out", str(out)) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{count} power tuples" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestEstimateH:
    def test_round_trip_against_scenario(self, capsys):
        from mrcwpt import parse_scenario, solve_closed_form, SwitchState

        config, options = parse_scenario("three_receivers")
        solo = SwitchState(s=(1, 0, 0))
        p_tx = solve_closed_form(config, solo, options.x_nominal).p_tx
        code = run_cli(
            "estimate-h", "three_receivers",
            "--receiver", "1", "--ptx", repr(p_tx), "--direction", "0",
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        value = float(out.split("=")[1])
        assert value == pytest.approx(config.h[0], rel=1e-9)

    @pytest.mark.parametrize("receiver", ["0", "4"])
    def test_receiver_out_of_range(self, capsys, receiver):
        assert run_cli(
            "estimate-h", "three_receivers",
            "--receiver", receiver, "--ptx", "100", "--direction", "1",
        ) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: receiver index must be 1..3"]
        assert captured.out == ""

    def test_inconsistent_measurement(self, capsys):
        assert run_cli(
            "estimate-h", "three_receivers",
            "--receiver", "1", "--ptx", "1e6", "--direction", "1",
        ) == EXIT_INVALID


_COMMANDS = ("analyze", "optimize", "distributed", "timeshare", "region", "estimate-h")


def _printed(argvs, capsys):
    """(argv, exit code, stdout, stderr) of one CLI call per argv."""
    printed = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        printed.append((argv, code, captured.out, captured.err))
    return printed


class TestHelpText:
    """The parser probes the terminal once and hands that width to every
    help formatter; its text must be what argparse's own formatter, which
    probes for itself, prints."""

    @staticmethod
    def _printed(capsys):
        return _printed([["--help"], ["--bogus"]] + [[c, "--help"] for c in _COMMANDS]
                        + [[c, "--bogus"] for c in _COMMANDS], capsys)

    def test_same_text_as_the_default_formatter(self, monkeypatch, capsys):
        class DefaultFormatterParser(cli._Parser):
            def __init__(self, *args, formatter_class=None, **kwargs):
                super().__init__(*args, **kwargs)

        by_width = []
        for columns in ("50", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            printed = self._printed(capsys)
            with monkeypatch.context() as patch:
                patch.setattr(cli, "_Parser", DefaultFormatterParser)
                assert self._printed(capsys) == printed
            by_width.append(printed)
        assert by_width[0] != by_width[1]

    def test_one_terminal_probe_per_call(self, monkeypatch, capsys):
        probes = []
        probe = shutil.get_terminal_size

        def counted(*args, **kwargs):
            probes.append(args)
            return probe(*args, **kwargs)

        monkeypatch.setattr(shutil, "get_terminal_size", counted)
        assert run_cli("optimize", "three_receivers") == EXIT_OK
        assert len(probes) == 1


class TestDeferredSubparsers:
    """Each subcommand's parser is built when a call names it, and only
    then. What a call prints, its exit code and the namespace it parses are
    those of the eager parser in ``cli_reference``."""

    _ARGVS = ([["--help"], ["--bogus"], []]
              + [[c, "--help"] for c in _COMMANDS]
              + [[c, "--bogus"] for c in _COMMANDS]
              + [[c] for c in _COMMANDS]  # no scenario
              + [["estimate-h", "three_receivers", "--ptx", "1", "--direction", "1"],
                 ["estimate-h", "three_receivers", "--receiver", "1", "--ptx", "1",
                  "--direction", "2"],
                 ["region", "three_receivers", "--w", "fast"],
                 ["analyze", "three_receivers", "--sweep"]])

    _VALID = (
        ["analyze", "three_receivers", "--sweep", "x_1=1:2:0.5", "--out", "a.csv"],
        ["optimize", "three_receivers", "--sweep", "p_req_3=1:40:1"],
        ["distributed", "three_receivers", "--out", "trace.csv"],
        ["timeshare", "two_receivers", "--out", "schedule.csv"],
        ["region", "two_receivers", "--with-ts", "--mask", "11", "--w", "2e7"],
        ["estimate-h", "three_receivers", "--receiver", "1", "--ptx", "100",
         "--direction", "1"],
    )

    @pytest.mark.parametrize("columns", ["50", "200"])
    def test_same_text_and_codes_as_the_eager_parser(self, monkeypatch, capsys, columns):
        monkeypatch.setenv("COLUMNS", columns)
        deferred = _printed(self._ARGVS, capsys)
        monkeypatch.setattr(cli, "_build_parser", cli_reference._build_parser)
        eager = _printed(self._ARGVS, capsys)
        for got, want in zip(deferred, eager):
            assert got == want
        assert {code for _, code, _, _ in eager} == {0, EXIT_INVALID}

    @pytest.mark.parametrize("argv", _VALID, ids=_COMMANDS)
    def test_same_namespace_as_the_eager_parser(self, argv):
        got = cli._build_parser().parse_args(argv)
        assert got == cli_reference._build_parser().parse_args(argv)
        assert got.command == argv[0]

    @pytest.mark.parametrize("argv, built", [
        (["optimize", "three_receivers"], ["mrcwpt", "mrcwpt optimize"]),
        (["region", "--help"], ["mrcwpt", "mrcwpt region"]),
        (["--help"], ["mrcwpt"]),
        (["frobnicate"], ["mrcwpt"]),
    ], ids=["optimize", "region-help", "help", "unknown-command"])
    def test_builds_only_the_named_subparser(self, monkeypatch, capsys, argv, built):
        progs = []

        class CountedParser(cli._Parser):
            def __init__(self, *args, **kwargs):
                progs.append(kwargs["prog"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "_Parser", CountedParser)
        try:
            main(argv)
        except SystemExit:
            pass
        assert progs == built


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert run_cli("analyze", "three_receivers", "--bogus") == EXIT_INVALID
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert run_cli("frobnicate") == EXIT_INVALID

    def test_malformed_scenario(self, tmp_path, capsys):
        path = tmp_path / "broken.scn"
        path.write_text("[source]\nv_tx = banana\n")
        assert run_cli("analyze", str(path)) == EXIT_INVALID

    def test_missing_scenario(self):
        assert run_cli("analyze", "/no/such/file.scn") == EXIT_INVALID

    def test_scenario_that_is_not_utf8(self, tmp_path, capsys):
        # a Latin-1 byte in a comment ended in a UnicodeDecodeError traceback
        from mrcwpt.scenario import bundled_scenario_path

        data = bundled_scenario_path("three_receivers").read_bytes() + b"# caf\xe9\n"
        path = tmp_path / "latin1.scn"
        path.write_bytes(data)
        assert run_cli("optimize", str(path)) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: not UTF-8 text: byte 0xe9 at offset {len(data) - 2}\n"
        )

    def test_byte_order_mark(self, tmp_path, capsys):
        from mrcwpt.scenario import bundled_scenario_path

        path = tmp_path / "bom.scn"
        path.write_bytes(b"\xef\xbb\xbf" + bundled_scenario_path("three_receivers").read_bytes())
        assert run_cli("optimize", "three_receivers") == EXIT_OK
        plain = capsys.readouterr()
        assert run_cli("optimize", str(path)) == EXIT_OK
        assert capsys.readouterr() == plain

    def test_source_whose_power_overflows(self, tmp_path, capsys):
        # |v_tx|**2 overflowed in the power formulas: exit 3 with an errno tuple
        from mrcwpt import parse_scenario, serialize_scenario

        config, options = parse_scenario("three_receivers")
        path = tmp_path / "loud.scn"
        path.write_text(serialize_scenario(replace(config, v_tx=1e154 + 0j), options)
                        .replace("v_tx = 1e+154", "v_tx = 1e200"))
        assert run_cli("optimize", str(path)) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: v_tx is too large: |v_tx|**2 is not finite\n"

    def test_module_entry_point(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.argv", ["mrcwpt", "--help"])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("mrcwpt", run_name="__main__")
        assert exc.value.code == 0
        assert "usage: mrcwpt" in capsys.readouterr().out

    @pytest.mark.parametrize("command, line, old, new", [
        ("analyze", 9, "phase = 0.0", "phase = inf"),
        ("analyze", 8, "v_tx = 28.284271247461902", "v_tx = inf"),
        ("optimize", 19, "h = -9.21e-08", "h = nan"),
    ], ids=["phase-inf", "v_tx-inf", "h-nan"])
    def test_non_finite_number_reports_position(self, tmp_path, capsys,
                                                command, line, old, new):
        from mrcwpt.scenario import bundled_scenario_path

        text = bundled_scenario_path("three_receivers").read_text()
        assert old in text
        path = tmp_path / "nonfinite.scn"
        path.write_text(text.replace(old, new, 1))
        assert run_cli(command, str(path)) == EXIT_INVALID
        err = capsys.readouterr().err
        key = new.split()[0]
        assert f"{path}:{line}:1: '{key}' must be a finite number" in err


class TestNumericalFailure:
    """Loads near the float limit overflow the closed form (1/2 |v|^2 B x
    and (r + x)^2 both reach inf): exit 3 with one line, no NaN output."""

    @staticmethod
    def check_failure(code, capsys):
        assert code == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("numerical failure: ")

    @pytest.mark.parametrize("spec", ["x_1=1e307:2e307:1e307", "x_1=1e307:1e307:1"])
    def test_sweep_past_the_float_range(self, spec, capsys):
        self.check_failure(run_cli("analyze", "three_receivers", "--sweep", spec), capsys)

    @pytest.mark.filterwarnings("error")
    def test_region_past_the_float_range(self, tmp_path, capsys):
        from mrcwpt import parse_scenario, serialize_scenario
        from mrcwpt.scenario import ScenarioOptions

        config, options = parse_scenario("two_receivers")
        config = replace(config, x_hi=(1e307, 1e307))
        path = tmp_path / "huge_loads.scn"
        path.write_text(serialize_scenario(
            config, ScenarioOptions(x_nominal=options.x_nominal, grid_points=5)))
        self.check_failure(run_cli("region", str(path)), capsys)

    @pytest.mark.parametrize("sweep", [[], ["--sweep", "x_1=1:2:1"],
                                       ["--sweep", "w=1e7:2e7:1e7"]],
                             ids=["point", "load-sweep", "frequency-sweep"])
    def test_source_power_underflow(self, sweep, tmp_path, capsys):
        # at v_tx = 1e-300 every power underflows to 0, so rho = p_sum / p_tx
        # has no value: the point and both sweeps stop, and no nan is printed
        from mrcwpt import parse_scenario, serialize_scenario

        config, options = parse_scenario("three_receivers")
        path = tmp_path / "faint.scn"
        path.write_text(serialize_scenario(replace(config, v_tx=1e-300 + 0j), options))
        self.check_failure(run_cli("analyze", str(path), *sweep), capsys)

    def test_derivatives_past_the_float_range(self, tmp_path, capsys):
        from mrcwpt import parse_scenario, serialize_scenario

        config, options = parse_scenario("three_receivers")
        cases = [
            # (r_1 + x_1)**4 at x_1 = 1e80 raised a bare OverflowError, printed
            # as "numerical failure: (34, 'Numerical result out of range')"
            (replace(config, x_hi=(1e80, *config.x_hi[1:])),
             replace(options, x_nominal=(1e80, *options.x_nominal[1:])),
             "the power derivatives overflow at these loads"),
            # so did (r_n * delivered)**2 at w = 1e150, finding the turnover points
            (config.with_frequency(1e150), options, "the turnover points overflow at these loads"),
        ]
        for config, options, message in cases:
            path = tmp_path / "far.scn"
            path.write_text(serialize_scenario(config, options))
            assert run_cli("analyze", str(path)) == EXIT_NUMERICAL
            assert capsys.readouterr() == ("", f"numerical failure: {message}\n")

    @pytest.mark.filterwarnings("error")
    def test_distributed_source_power_overflow(self, tmp_path, capsys):
        from mrcwpt import parse_scenario, serialize_scenario

        config, options = parse_scenario("three_receivers")
        cases = [
            # |v_tx|**2 is finite, but |v_tx|**2 B_1 / 2 is not: the run went
            # on with p_1 = inf, warned and exited 2
            (replace(config, v_tx=1.3e154 + 0j), "the steady-state powers overflow at these loads"),
            # B_n is finite at w = 1e150, but D**2 is not: every power read 0,
            # the final-state slack warned twice and the run exited 2
            (config.with_frequency(1e150),
             "the powers overflow: (r_n + x_hi)**2 * D**2 is not finite"),
        ]
        for config, message in cases:
            path = tmp_path / "loud.scn"
            path.write_text(serialize_scenario(config, options))
            assert run_cli("distributed", str(path)) == EXIT_NUMERICAL
            assert capsys.readouterr() == ("", f"numerical failure: {message}\n")


def test_derived_coupling_at_close_range_exits_1(tmp_path, capsys):
    from test_scenario import CLOSE_RANGE_DERIVE

    path = tmp_path / "close.scn"
    path.write_text(CLOSE_RANGE_DERIVE)
    with pytest.warns(UserWarning, match="separation"):
        assert run_cli("analyze", str(path)) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:16:1: receiver 1: derived coupling")
    assert "Traceback" not in err


def source_env():
    """The environment for a new Python process that imports this checkout's mrcwpt."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def test_library_warning_prints_one_line(tmp_path):
    # a derived coupling in the near field warns but is admitted; run as a
    # new process so the warning reaches stderr through the default filters
    from test_scenario import CLOSE_RANGE_DERIVE

    path = tmp_path / "near.scn"
    path.write_text(CLOSE_RANGE_DERIVE.replace("center = 0 0 0.001", "center = 0 0 0.3"))
    done = subprocess.run([sys.executable, "-m", "mrcwpt", "analyze", str(path)],
                          capture_output=True, text=True, env=source_env(), timeout=60)
    assert done.returncode == EXIT_OK
    assert done.stderr == (
        "warning: coil separation is not large against the coil radii; "
        "dipole coupling formula loses accuracy\n"
    )


NO_SCIPY_SCRIPT = """
import sys
from mrcwpt.cli import main
codes = [main(["optimize", "three_receivers"]), main(["timeshare", "two_receivers"])]
print("codes", *codes)
print("scipy", *sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_optimize_and_timeshare_load_no_scipy():
    # the centralized solver and time sharing run without scipy; a fresh
    # process shows any import of it, lazy ones included
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT],
                          capture_output=True, text=True, env=source_env(), timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-2] == f"codes {EXIT_OK} {EXIT_OK}"
    assert lines[-1] == "scipy"


class TestUnwritableOutput:
    """An --out path in a missing directory exits 1 with the path in the
    message, and no traceback."""

    @pytest.fixture
    def short_run(self, tmp_path):
        from mrcwpt import parse_scenario, serialize_scenario
        from mrcwpt.scenario import ScenarioOptions

        config, options = parse_scenario("three_receivers")
        fast = ScenarioOptions(
            x_nominal=options.x_nominal, dx=1e-2, itr_max=200,
            dp_stop=options.dp_stop, tau_total=options.tau_total,
        )
        path = tmp_path / "fast.scn"
        path.write_text(serialize_scenario(config, fast))
        return str(path)

    @pytest.mark.parametrize("argv", [
        ("region", "two_receivers"),
        ("distributed", None),
        ("timeshare", "two_receivers"),
        ("analyze", "three_receivers", "--sweep", "x_1=1:3:1"),
        ("optimize", "three_receivers", "--sweep", "p_req_3=5:6:1"),
    ], ids=["region", "distributed", "timeshare", "analyze-sweep", "optimize-sweep"])
    def test_exits_1_naming_the_path(self, argv, short_run, tmp_path, capsys):
        argv = [short_run if a is None else a for a in argv]
        out = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert run_cli(*argv, "--out", str(out)) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(out) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, what", [
        (("analyze", "three_receivers", "--sweep", "x_1=1:2:0.5"), "sweep CSV"),
        (("analyze", "three_receivers"), "report"),
        (("optimize", "three_receivers"), "report"),
        (("optimize", "three_receivers", "--sweep", "p_req_3=1:3:1"), "sweep CSV"),
    ], ids=["analyze-sweep", "analyze", "optimize", "optimize-sweep"])
    def test_directory_out_names_what_it_writes(self, argv, what, tmp_path, capsys):
        assert run_cli(*argv, "--out", str(tmp_path)) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: cannot write {what} to {tmp_path}: ")
