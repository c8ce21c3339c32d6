"""Command-line interface.

Subcommands cover the whole workflow: steady-state analysis and parameter
sweeps, centralized and distributed charging control, time-shared
scheduling, power-region export, and coupling estimation from a
transmitter-side power reading. All numeric output uses scientific
notation with 12 significant digits; CSV goes to --out or stdout.

Exit codes: 0 success, 1 bad input (usage, parse, validation),
2 infeasible problem, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys as _sys

import numpy as np

from .central import ChargingProblem, SolveStatus, optimize_loads
from .circuit import (
    SwitchState,
    analytic_derivatives,
    optimal_frequency,
    solve_closed_form,
    thresholds,
)
from .coils import estimate_mutual_inductance
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


def fmt(value: float) -> str:
    """Fixed scientific notation, 12 significant digits."""
    return f"{value:.11e}"


class _UsageError(Exception):
    pass


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
    count = int(np.floor((b - a) / step + 0.5)) + 1
    values = a + step * np.arange(count)
    values = values[values <= b + 0.5 * step]
    return name.strip(), values


def _receiver_index(name: str, prefix: str, n: int) -> int:
    tail = name[len(prefix):]
    if not tail.isdigit() or not 1 <= int(tail) <= n:
        raise ValidationError(f"unknown sweep variable '{name}'")
    return int(tail) - 1


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        _sys.stdout.write(text)


def _cmd_analyze(args) -> int:
    config, options = parse_scenario(args.scenario)
    x = list(options.x_nominal)
    n = config.n_receivers

    if args.sweep:
        name, values = _parse_sweep(args.sweep)
        header = [name, "p_tx"] + [f"p_{k + 1}" for k in range(n)] + ["p_sum", "rho"]

        if name == "w":
            def state_at(w_val):
                return solve_closed_form(config.with_frequency(float(w_val)), None, x)
        elif name.startswith("x_"):
            k = _receiver_index(name, "x_", n)

            def state_at(x_val):
                loads = list(x)
                loads[k] = float(x_val)
                return solve_closed_form(config, None, loads)
        else:
            raise ValidationError(f"unknown sweep variable '{name}'")

        lines = [",".join(header)]
        for value in values:
            state = state_at(value)
            lines.append(",".join([fmt(value), fmt(state.p_tx)] + [fmt(p) for p in state.p]
                                  + [fmt(state.p_sum), fmt(state.rho)]))
        _emit(lines, args.out)
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
        header = [name, "status", "p_tx"] + [f"x_{j + 1}" for j in range(n)]

        def row(req_val):
            reqs = list(config.p_req)
            reqs[k] = float(req_val)
            sol = optimize_loads(ChargingProblem(sys=config, p_req_eff=tuple(reqs)))
            if sol.status is SolveStatus.INFEASIBLE:
                return [fmt(req_val), "infeasible", "nan"] + ["nan"] * n
            return [fmt(req_val), "optimal", fmt(sol.p_tx)] + [fmt(v) for v in sol.x]

        rows = [row(v) for v in values]
        _emit([",".join(header)] + [",".join(r) for r in rows], args.out)
        return EXIT_OK

    sol = optimize_loads(ChargingProblem(sys=config))
    if sol.status is SolveStatus.INFEASIBLE:
        print("status = infeasible")
        return EXIT_INFEASIBLE
    lines = ["status = optimal", f"p_tx = {fmt(sol.p_tx)}",
             f"kkt_residual = {fmt(sol.kkt_residual)}"]
    for k in range(n):
        lines.append(f"x_{k + 1} = {fmt(sol.x[k])}  p_{k + 1} = {fmt(sol.p[k])}")
    _emit(lines, args.out)
    return EXIT_OK


def _cmd_distributed(args) -> int:
    config, options = parse_scenario(args.scenario)
    run = run_distributed(config, dx=options.dx, itr_max=options.itr_max)
    if args.out:
        trace_to_csv(run, config.n_receivers, args.out)
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
    from dataclasses import replace

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
        sample = sample_region_without_ts(config, None, grid_points=options.grid_points)
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


def _build_parser() -> _Parser:
    parser = _Parser(prog="mrcwpt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="steady state, thresholds, sweeps")
    p.add_argument("scenario")
    p.add_argument("--sweep", help="x_<k>=a:b:step or w=a:b:step")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("optimize", help="centralized minimum-power control")
    p.add_argument("scenario")
    p.add_argument("--sweep", help="p_req_<k>=a:b:step")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("distributed", help="one-bit-feedback control simulation")
    p.add_argument("scenario")
    p.add_argument("--out", help="write the iteration trace CSV here")
    p.set_defaults(func=_cmd_distributed)

    p = sub.add_parser("timeshare", help="alternating time-slot optimization")
    p.add_argument("scenario")
    p.add_argument("--out", help="write the schedule CSV here")
    p.set_defaults(func=_cmd_timeshare)

    p = sub.add_parser("region", help="achievable power region sampling")
    p.add_argument("scenario")
    p.add_argument("--with-ts", action="store_true", help="time-shared region")
    p.add_argument("--mask", help="keep only these receivers, e.g. 110")
    p.add_argument("--w", type=float, help="override the operating frequency")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("estimate-h", help="coupling from a power measurement")
    p.add_argument("scenario")
    p.add_argument("--receiver", type=int, required=True)
    p.add_argument("--ptx", type=float, required=True,
                   help="measured transmitter power (W), others disconnected")
    p.add_argument("--direction", type=int, choices=(0, 1), required=True,
                   help="1 when the observed current direction matches")
    p.set_defaults(func=_cmd_estimate_h)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        parser.print_usage(_sys.stderr)
        return EXIT_INVALID

    try:
        return args.func(args)
    except (ScenarioError, ValidationError, InconsistentMeasurementError,
            NoFiniteMaximizerError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INVALID
    except InfeasibleProblemError as exc:
        print(f"infeasible: {exc}", file=_sys.stderr)
        return EXIT_INFEASIBLE
    except (NumericalError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return EXIT_NUMERICAL


def entry() -> None:
    _sys.exit(main())


if __name__ == "__main__":
    _sys.exit(main())
