"""The eager CLI parser, kept as a byte-for-byte oracle for
``mrcwpt.cli._build_parser``.

This is the parser builder the CLI used before it deferred each
subcommand's parser to the call that names it: every subparser is built
and filled with its arguments up front. The tests require the deferred
parser to print the same help, usage and error text, exit with the same
codes and parse the same namespaces.
"""

import argparse
import functools
import shutil

from mrcwpt import cli
from mrcwpt.cli import (
    _cmd_analyze,
    _cmd_distributed,
    _cmd_estimate_h,
    _cmd_optimize,
    _cmd_region,
    _cmd_timeshare,
)


def _build_parser():
    # argparse makes a HelpFormatter per argument, each probing the terminal
    # for its width; probe once, for the width HelpFormatter takes itself
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
    )
    parser = cli._Parser(prog="mrcwpt", description=cli.__doc__, formatter_class=formatter)
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, formatter_class=formatter)

    p = add_parser("analyze", help="steady state, thresholds, sweeps")
    p.add_argument("scenario")
    p.add_argument("--sweep", help="x_<k>=a:b:step or w=a:b:step")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_analyze)

    p = add_parser("optimize", help="centralized minimum-power control")
    p.add_argument("scenario")
    p.add_argument("--sweep", help="p_req_<k>=a:b:step")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_optimize)

    p = add_parser("distributed", help="one-bit-feedback control simulation")
    p.add_argument("scenario")
    p.add_argument("--out", help="write the iteration trace CSV here")
    p.set_defaults(func=_cmd_distributed)

    p = add_parser("timeshare", help="alternating time-slot optimization")
    p.add_argument("scenario")
    p.add_argument("--out", help="write the schedule CSV here")
    p.set_defaults(func=_cmd_timeshare)

    p = add_parser("region", help="achievable power region sampling")
    p.add_argument("scenario")
    p.add_argument("--with-ts", action="store_true", help="time-shared region")
    p.add_argument("--mask", help="keep only these receivers, e.g. 110")
    p.add_argument("--w", type=float, help="override the operating frequency")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_region)

    p = add_parser("estimate-h", help="coupling from a power measurement")
    p.add_argument("scenario")
    p.add_argument("--receiver", type=int, required=True)
    p.add_argument("--ptx", type=float, required=True,
                   help="measured transmitter power (W), others disconnected")
    p.add_argument("--direction", type=int, choices=(0, 1), required=True,
                   help="1 when the observed current direction matches")
    p.set_defaults(func=_cmd_estimate_h)
    return parser
