"""Command-line interface.

Subcommands cover the whole workflow: steady-state analysis and parameter
sweeps, centralized and distributed charging control, time-shared
scheduling, power-region export, and coupling estimation from a
transmitter-side power reading. All numeric output uses scientific
notation with 12 significant digits; CSV goes to --out or stdout.

Exit codes: 0 success, 1 bad input (usage, parse, validation) or an
output file that cannot be written, 2 infeasible problem, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import shutil
import sys as _sys
import warnings
from dataclasses import replace

import numpy as np

from ._csvfmt import _FLOAT, RowFormat, _columns, csv_file, fmt
from .central import ChargingProblem, SolveStatus, optimize_loads
from .circuit import (
    SwitchState,
    _b,
    analytic_derivatives,
    optimal_frequency,
    resonant_powers,
    solve_closed_form,
    thresholds,
)
from .coils import estimate_mutual_inductance, tune_capacitor
from .distributed import run_distributed, trace_to_csv
from .errors import (
    InconsistentMeasurementError,
    InfeasibleProblemError,
    NoFiniteMaximizerError,
    NumericalError,
    ScenarioError,
    ValidationError,
)
from .region import region_to_csv, sample_region_with_ts, sample_region_without_ts
from .region import write_region_csv
from .scenario import parse_scenario
from .timeshare import optimize_schedule, schedule_to_csv

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3

# most points one sweep may ask for; the largest sweep in the README has 1,991
_SWEEP_MAX_POINTS = 10**7


class _UsageError(Exception):
    pass


def _warning_line(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the CLI contract wants 1
    def error(self, message):
        raise _UsageError(message)


def _parse_sweep(expr: str):
    """Parse 'name=a:b:step' into (name, values); both ends inclusive."""
    if "=" not in expr:
        raise ValidationError("sweep must look like name=a:b:step")
    name, _, rng = expr.partition("=")
    parts = rng.split(":")
    if len(parts) != 3:
        raise ValidationError("sweep range must be a:b:step")
    try:
        a, b, step = (float(p) for p in parts)
    except ValueError:
        raise ValidationError("sweep bounds must be numbers") from None
    if not np.isfinite([a, b, step]).all():
        raise ValidationError("sweep bounds must be finite")
    if step <= 0 or b < a:
        raise ValidationError("sweep needs a <= b and step > 0")
    # a step far below the range gives a huge or infinite count: reject it
    # before numpy is asked for that many points
    count = np.floor((b - a) / step + 0.5) + 1
    if not count <= _SWEEP_MAX_POINTS:
        raise ValidationError(f"sweep would have more than {_SWEEP_MAX_POINTS} points")
    # a point past the float range becomes inf, which the sweep rejects
    with np.errstate(over="ignore"):
        values = a + step * np.arange(int(count))
    values = values[values <= b + 0.5 * step]
    return name.strip(), values


def _receiver_index(name: str, prefix: str, n: int) -> int:
    tail = name[len(prefix):]
    if not tail.isdecimal() or not 1 <= int(tail) <= n:
        raise ValidationError(f"unknown sweep variable '{name}'")
    return int(tail) - 1


def _output(out_path, what):
    """The file ``out_path`` opened for writing ``what``, or stdout when it is None."""
    return csv_file(out_path, what) if out_path else contextlib.nullcontext(_sys.stdout)


def _emit(lines, out_path, what="report"):
    with _output(out_path, what) as handle:
        handle.write("\n".join(lines) + "\n")


def _sweep_table(values, powers, plain, solve) -> np.ndarray:
    """Sweep table rows (value, p_tx, p_1..p_N, p_sum, rho) from ``powers``, one
    ``resonant_powers`` result over all ``values``. A point outside ``plain``, the
    mask where a row is bit for bit the per-point ``solve_closed_form`` one, or
    whose powers or rho are not finite, is re-solved in order by ``solve(value)``,
    which raises the error a point-by-point sweep stops at."""
    p_tx, p, _ = powers
    with np.errstate(all="ignore"):
        p_sum = sum(p)
        rho = p_sum / p_tx
        checked = ~(plain & np.isfinite(p_tx) & np.isfinite(p_sum) & np.isfinite(rho))
    table = np.column_stack([values, p_tx, *p, p_sum, rho])
    for i in np.flatnonzero(checked).tolist():
        state = solve(float(values[i]))
        table[i] = (values[i], state.p_tx, *state.p, state.p_sum, state.rho)
    return table


def _load_sweep(config, x, k, values) -> np.ndarray:
    """``_sweep_table`` over every load of receiver k. The load enters only
    through +, * and /, which numpy rounds as the float operations do, so
    every finite load > 0 is plain."""
    with np.errstate(all="ignore"):
        powers = resonant_powers(config, [*x[:k], values, *x[k + 1:]], (1,) * len(x))
    return _sweep_table(values, powers, (values > 0.0) & np.isfinite(values),
                        lambda v: solve_closed_form(config, None, [*x[:k], v, *x[k + 1:]]))


def _frequency_sweep(config, x, values) -> np.ndarray:
    """``_sweep_table`` over every frequency w, of ``config.with_frequency(w)``.
    w enters only through B_k, formed point by point by ``circuit._b`` (numpy's
    power rounds some squares differently). A point is plain where the re-tuning
    succeeds, that is w is finite and > 0 and ``tune_capacitor`` sizes every coil
    that has a capacitor, and no B_k overflows (the loads are valid)."""

    def plain_at(w):  # with_frequency's checks, without building the system
        try:
            for coil in (config.transmitter, *config.receivers):
                if coil.tuning_capacitance is not None:
                    tune_capacitor(coil.self_inductance, w)
        except ValidationError:
            return False
        return 0.0 < w < np.inf and all(abs(w * h) < 1e150 for h in config.h)  # (w h)**2 finite

    plain = np.array([plain_at(w) for w in values.tolist()], dtype=bool)
    safe = np.where(plain, values, 0.0).tolist()
    b = [np.array([_b(w, h) for w in safe]) for h in config.h]
    with np.errstate(all="ignore"):
        powers = resonant_powers(config, x, (1,) * len(x), b)
    return _sweep_table(values, powers, plain,
                        lambda w: solve_closed_form(config.with_frequency(w), None, x))


def _cmd_analyze(args) -> int:
    config, options = parse_scenario(args.scenario)
    x = list(options.x_nominal)
    n = config.n_receivers

    if args.sweep:
        name, values = _parse_sweep(args.sweep)
        if name == "w":
            table = _frequency_sweep(config, x, values)
        elif name.startswith("x_"):
            table = _load_sweep(config, x, _receiver_index(name, "x_", n), values)
        else:
            raise ValidationError(f"unknown sweep variable '{name}'")
        header = [name, "p_tx"] + _columns("p", n) + ["p_sum", "rho"]
        with _output(args.out, "sweep CSV") as handle:
            handle.write(",".join(header) + "\n")
            RowFormat(",".join([_FLOAT] * (n + 4)) + "\n").write(handle, table)
        return EXIT_OK

    state = solve_closed_form(config, None, x)
    lines = [
        f"p_tx = {fmt(state.p_tx)}",
        f"p_sum = {fmt(state.p_sum)}",
        f"rho = {fmt(state.rho)}",
        f"i_tx = {fmt(state.i_tx.real)} + j{fmt(state.i_tx.imag)}",
        f"w_peak = {fmt(optimal_frequency(config, None, x))}",
    ]
    lines.append(
        "receiver,x,p,x_own_peak,x_sum_peak,x_eff_peak,d_ptx_dx,d_pn_dx,d_rho_dx"
    )
    for k in range(n):
        th = thresholds(config, None, x, k)
        deriv = analytic_derivatives(config, None, x, k)
        lines.append(",".join([
            str(k + 1),
            fmt(x[k]),
            fmt(state.p[k]),
            fmt(th.x_own_peak),
            fmt(th.x_sum_peak) if th.x_sum_peak is not None else "monotone",
            fmt(th.x_eff_peak) if th.x_eff_peak is not None else "monotone",
            fmt(deriv.d_ptx),
            fmt(deriv.d_p[k]),
            fmt(deriv.d_rho),
        ]))
    _emit(lines, args.out)
    return EXIT_OK


def _cmd_optimize(args) -> int:
    config, _ = parse_scenario(args.scenario)
    n = config.n_receivers

    if args.sweep:
        name, values = _parse_sweep(args.sweep)
        if not name.startswith("p_req_"):
            raise ValidationError("optimize sweeps run over p_req_<k>")
        k = _receiver_index(name, "p_req_", n)
        header = [name, "status", "p_tx"] + _columns("x", n)

        def row(req_val):
            reqs = list(config.p_req)
            reqs[k] = float(req_val)
            sol = optimize_loads(ChargingProblem(sys=config, p_req_eff=tuple(reqs)))
            if sol.status is SolveStatus.INFEASIBLE:
                return [fmt(req_val), "infeasible", "nan"] + ["nan"] * n
            return [fmt(req_val), "optimal", fmt(sol.p_tx)] + [fmt(v) for v in sol.x]

        rows = [row(v) for v in values]
        _emit([",".join(header)] + [",".join(r) for r in rows], args.out, "sweep CSV")
        return EXIT_OK

    sol = optimize_loads(ChargingProblem(sys=config))
    if sol.status is SolveStatus.INFEASIBLE:
        _emit(["status = infeasible"], args.out)
        return EXIT_INFEASIBLE
    lines = ["status = optimal", f"p_tx = {fmt(sol.p_tx)}",
             f"kkt_residual = {fmt(sol.kkt_residual)}"]
    for k in range(n):
        lines.append(f"x_{k + 1} = {fmt(sol.x[k])}  p_{k + 1} = {fmt(sol.p[k])}")
    _emit(lines, args.out)
    return EXIT_OK


def _cmd_distributed(args) -> int:
    config, options = parse_scenario(args.scenario)
    run = run_distributed(
        config, dx=options.dx, itr_max=options.itr_max, record_trace=bool(args.out)
    )
    if args.out:
        trace_to_csv(run, args.out)
    print(f"iterations = {run.iterations}")
    print(f"feasible = {'yes' if run.feasible else 'no'}")
    print(f"p_tx = {fmt(run.p_tx)}")
    for k in range(config.n_receivers):
        print(f"x_{k + 1} = {fmt(run.x[k])}  p_{k + 1} = {fmt(run.p[k])}")
    return EXIT_OK if run.feasible else EXIT_INFEASIBLE


def _cmd_timeshare(args) -> int:
    config, options = parse_scenario(args.scenario)
    result = optimize_schedule(
        config, tau_total=options.tau_total, dp_stop=options.dp_stop
    )
    if args.out:
        schedule_to_csv(config, result.schedule, args.out)
    print(f"iterations = {result.iterations}")
    print(f"p_tx = {fmt(result.p_tx)}")
    print("p_tx_trace = " + ",".join(fmt(v) for v in result.p_tx_trace))
    for q, sw in enumerate(result.schedule.configs):
        print(f"tau[{sw.mask()}] = {fmt(result.schedule.tau[q])}")
    return EXIT_OK


def _restrict_receivers(config, mask: str):
    """System containing only the masked-in receivers (others removed)."""
    sw = SwitchState.from_mask(mask)
    if len(sw.s) != config.n_receivers:
        raise ValidationError("mask length does not match the receiver count")
    keep = sw.connected
    return replace(
        config,
        receivers=tuple(config.receivers[k] for k in keep),
        h=tuple(config.h[k] for k in keep),
        x_lo=tuple(config.x_lo[k] for k in keep),
        x_hi=tuple(config.x_hi[k] for k in keep),
        p_req=tuple(config.p_req[k] for k in keep),
    )


def _cmd_region(args) -> int:
    config, options = parse_scenario(args.scenario)
    if args.w is not None:
        config = config.with_frequency(args.w)
    if args.mask:
        config = _restrict_receivers(config, args.mask)
    if args.with_ts:
        sample = sample_region_with_ts(config, grid_points=options.grid_points)
    else:
        sample = sample_region_without_ts(config, grid_points=options.grid_points)
    if args.out:
        region_to_csv(sample, args.out)
        print(f"points = {len(sample.points)}")
        print(f"boundary = {len(sample.boundary)}")
    else:
        write_region_csv(sample, _sys.stdout)
    return EXIT_OK


def _cmd_estimate_h(args) -> int:
    config, options = parse_scenario(args.scenario)
    k = args.receiver - 1
    if not 0 <= k < config.n_receivers:
        raise ValidationError(f"receiver index must be 1..{config.n_receivers}")
    h = estimate_mutual_inductance(
        p_tx_measured=args.ptx,
        v_tx_mag=abs(config.v_tx),
        r_tx=config.transmitter.resistance,
        r_n=config.receivers[k].resistance,
        x_n=options.x_nominal[k],
        w=config.w,
        direction_match=bool(args.direction),
    )
    print(f"h_{args.receiver} = {fmt(h)}")
    return EXIT_OK


def _analyze_arguments(p) -> None:
    p.add_argument("scenario")
    p.add_argument("--sweep", help="x_<k>=a:b:step or w=a:b:step")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_analyze)


def _optimize_arguments(p) -> None:
    p.add_argument("scenario")
    p.add_argument("--sweep", help="p_req_<k>=a:b:step")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_optimize)


def _distributed_arguments(p) -> None:
    p.add_argument("scenario")
    p.add_argument("--out", help="write the iteration trace CSV here")
    p.set_defaults(func=_cmd_distributed)


def _timeshare_arguments(p) -> None:
    p.add_argument("scenario")
    p.add_argument("--out", help="write the schedule CSV here")
    p.set_defaults(func=_cmd_timeshare)


def _region_arguments(p) -> None:
    p.add_argument("scenario")
    p.add_argument("--with-ts", action="store_true", help="time-shared region")
    p.add_argument("--mask", help="keep only these receivers, e.g. 110")
    p.add_argument("--w", type=float, help="override the operating frequency")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_region)


def _estimate_h_arguments(p) -> None:
    p.add_argument("scenario")
    p.add_argument("--receiver", type=int, required=True)
    p.add_argument("--ptx", type=float, required=True,
                   help="measured transmitter power (W), others disconnected")
    p.add_argument("--direction", type=int, choices=(0, 1), required=True,
                   help="1 when the observed current direction matches")
    p.set_defaults(func=_cmd_estimate_h)


# name, help line and argument filler of each subcommand, in help order
_SUBCOMMANDS = (
    ("analyze", "steady state, thresholds, sweeps", _analyze_arguments),
    ("optimize", "centralized minimum-power control", _optimize_arguments),
    ("distributed", "one-bit-feedback control simulation", _distributed_arguments),
    ("timeshare", "alternating time-slot optimization", _timeshare_arguments),
    ("region", "achievable power region sampling", _region_arguments),
    ("estimate-h", "coupling from a power measurement", _estimate_h_arguments),
)


class _DeferredParser:
    """A subcommand's parser, built and filled on its first attribute read.

    argparse reads a subparser only when it dispatches to it, so a call
    builds the parser of the subcommand it names and no other. Every read
    goes to the real parser, whatever attribute it is. ``_Parser`` is looked
    up when the parser is built, not when this module is imported.
    """

    __slots__ = ("_fill", "_kwargs", "_parser")

    def __init__(self, fill, **kwargs):
        self._fill = fill
        self._kwargs = kwargs
        self._parser = None

    def __getattr__(self, name):
        if self._parser is None:
            self._parser = _Parser(**self._kwargs)
            self._fill(self._parser)
        return getattr(self._parser, name)


def _build_parser() -> _Parser:
    """The top-level parser, naming every subcommand with its help line.

    Only the top level is built here. Each subcommand's parser is a
    ``_DeferredParser``, built with its arguments when argparse first
    reads it, so a call builds two parsers (one for ``--help`` or an
    unknown command), not seven. The usage, help and "invalid choice"
    text of the top level read only the names and help lines.
    """
    # argparse makes a HelpFormatter per argument, each probing the terminal
    # for its width; probe once, for the width HelpFormatter takes itself
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
    )
    parser = _Parser(prog="mrcwpt", description=__doc__, formatter_class=formatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_DeferredParser)
    for name, help_line, fill in _SUBCOMMANDS:
        sub.add_parser(name, help=help_line, formatter_class=formatter, fill=fill)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        parser.print_usage(_sys.stderr)
        return EXIT_INVALID

    # library warnings print as one line, without a source location
    formatwarning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        return args.func(args)
    except (ScenarioError, ValidationError, InconsistentMeasurementError,
            NoFiniteMaximizerError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INVALID
    except InfeasibleProblemError as exc:
        print(f"infeasible: {exc}", file=_sys.stderr)
        return EXIT_INFEASIBLE
    except (NumericalError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return EXIT_NUMERICAL
    finally:
        warnings.formatwarning = formatwarning


def entry() -> None:
    _sys.exit(main())


if __name__ == "__main__":
    _sys.exit(main())
