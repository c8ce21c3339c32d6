"""Command-line interface: subcommands, sweeps, exit codes, formatting."""

import numpy as np
import pytest

from mrcwpt.cli import EXIT_INFEASIBLE, EXIT_INVALID, EXIT_OK, main


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

    @pytest.mark.parametrize("spec", ["x_1=0.1:nan:1", "x_1=1:2:inf"])
    def test_non_finite_sweep_bounds(self, capsys, spec):
        assert run_cli("analyze", "three_receivers", "--sweep", spec) == EXIT_INVALID
        assert "sweep bounds must be finite" in capsys.readouterr().err


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


class TestTimeshare:
    def test_schedule_output(self, capsys, tmp_path):
        out = tmp_path / "sched.csv"
        assert run_cli("timeshare", "three_receivers", "--out", str(out)) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "p_tx_trace" in stdout
        lines = out.read_text().splitlines()
        assert len(lines) == 8  # header + 7 configurations


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

    def test_stdout_matches_out_file(self, capsys, tmp_path):
        out = tmp_path / "region.csv"
        assert run_cli("region", "two_receivers", "--out", str(out)) == EXIT_OK
        capsys.readouterr()
        assert run_cli("region", "two_receivers") == EXIT_OK
        assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_bad_mask_length(self, capsys):
        assert run_cli("region", "two_receivers", "--mask", "101") == EXIT_INVALID


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

    def test_inconsistent_measurement(self, capsys):
        assert run_cli(
            "estimate-h", "three_receivers",
            "--receiver", "1", "--ptx", "1e6", "--direction", "1",
        ) == EXIT_INVALID


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
