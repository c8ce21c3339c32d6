"""Time-shared multiuser power transfer.

The transmission horizon is split into slots, one per switch configuration
(nonzero subset of connected receivers, in the order of
:func:`~mrcwpt.circuit.enumerate_configs`), each with its own
load-resistance vector. Delivered powers are time averages over the slots.
The public entry points are average-power evaluation, the per-slot load
subproblem, the alternating optimization and the schedule CSV writer. The
alternation starts from the scaled slot (``_scaled_slot``): all receivers
connected, at the loads that meet s* p_req, for the shortest time in which
they meet p_req, where s* >= 1 minimizes p_tx(s p_req) / s. The tangency
that gives s* also gives those loads, so the slot takes no solve. Time
sharing lowers the drawn power by just this: a slot that delivers more for
less of the horizon. The alternation evaluates the slot matrix, every slot's
instantaneous p_tx and p_n at its loads, once, and solves the linear
program over slot durations on it (``_slot_lp``) each round; an accepted
slot solve then overwrites that slot's column with the powers it returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._csvfmt import _columns, csv_file, fmt
from ._sums import left_dot, left_sum
from .central import (
    CentralSolution,
    ChargingProblem,
    SolveStatus,
    _infeasible,
    _loads,
    _tangent_scale,
    optimize_loads,
)
from .circuit import SwitchState, SystemConfig, enumerate_configs, resonant_powers, solo_peak_loads
from .errors import InfeasibleProblemError, ValidationError
from .lp import solve_lp

# most alternation rounds (slot LP, then every slot's load subproblem) per schedule
_MAX_OUTER = 50


@dataclass(frozen=True)
class TimeSharingSchedule:
    """Slot durations and per-slot load vectors over a horizon.

    ``x[q][n]`` is receiver n's load resistance during configuration q;
    entries for receivers that are open in that configuration are carried
    along but unused. Total allocated time may fall short of the horizon:
    the source is simply off for the remainder.
    """

    configs: tuple[SwitchState, ...]
    tau: tuple[float, ...]
    x: tuple[tuple[float, ...], ...]
    tau_total: float

    def __post_init__(self):
        q = len(self.configs)
        if len(self.tau) != q or len(self.x) != q:
            raise ValidationError("tau and x must have one entry per configuration")
        if len({len(sw.s) for sw in self.configs}) > 1:
            raise ValidationError("every configuration must cover the same receivers")
        if len({len(v) for v in self.x}) > 1:
            raise ValidationError("every slot's load vector must have the same length")
        if not self.tau_total > 0.0:
            raise ValidationError("tau_total must be > 0")
        if any(t < 0.0 for t in self.tau):
            raise ValidationError("slot durations must be nonnegative")
        if left_sum(self.tau) > self.tau_total * (1.0 + 1e-12):
            raise ValidationError("slot durations exceed the horizon")


@dataclass(frozen=True)
class AveragePowers:
    p_tx: float
    p: tuple[float, ...]


def average_powers(sys: SystemConfig, sched: TimeSharingSchedule) -> AveragePowers:
    """Time-averaged transmitter and per-load powers over the horizon.

    Idle time (horizon minus allocated slots) contributes nothing: the
    source is switched off, drawing no power.
    """
    a, b = _config_coefficients(sys, sched.configs, sched.x)
    weight = [t / sched.tau_total for t in sched.tau]
    return AveragePowers(p_tx=left_dot(weight, a.tolist()),
                         p=tuple(left_dot(weight, row) for row in b.tolist()))


def _config_coefficients(sys: SystemConfig, configs: tuple[SwitchState, ...], x_per_config):
    """Instantaneous p_tx (Q,) and p_n (N, Q) of every configuration at its loads."""
    s = np.array([sw.s for sw in configs]).T
    x = np.array(x_per_config, dtype=float).T
    if x.shape != s.shape:
        raise ValidationError("load vector must have one entry per receiver")
    if not np.isfinite(x).all() or np.any((s == 1) & ~(x > 0.0)):
        raise ValidationError("loads must be finite, and > 0 where connected")
    a, p, _ = resonant_powers(sys, x, s)
    return a, np.array(p)


def _slot_lp(a, b, tau_total: float, p_req) -> list[float] | None:
    """Slot durations minimizing the average p_tx of slot matrix (a, b),
    or None if no durations meet every requirement p_req (each > 0).
    ``a`` is a list of floats and ``b`` a list of rows of them."""
    sol = solve_lp([v / tau_total for v in a], tau_total, b, [r * tau_total for r in p_req])
    if sol.status != "optimal":
        return None
    return list(sol.x)


def solve_config_subproblem(
    sys: SystemConfig, sw: SwitchState, tau_q: float, tau_total: float, p_others, p_req
) -> CentralSolution:
    """Optimize the load vector of a slot in configuration ``sw`` that lasts
    ``tau_q`` of ``tau_total``, with every other slot held fixed.

    ``p_others[n]`` is the average power load n collects from the other
    slots. Each load's average-power requirement, less that, is rescaled by
    the slot's share of the horizon into an instantaneous requirement;
    requirements that other slots already cover drop out. Requires
    tau_q > 0.
    """
    if not tau_q > 0.0:
        raise ValidationError("configuration has no allocated time")
    scale = tau_total / tau_q
    eff = []
    for n in range(sys.n_receivers):
        residual = p_req[n] - p_others[n]
        if not sw.s[n]:
            if residual > 1e-9 * max(1.0, p_req[n]):
                return _infeasible()
            eff.append(0.0)
        else:
            eff.append(residual * scale)
    prob = ChargingProblem(sys=sys, sw=sw, p_req_eff=tuple(eff))
    return optimize_loads(prob)


def _no_worse(new: float, old: float) -> bool:
    """Whether a proposed drawn power may replace the current one."""
    return new <= old * (1.0 + 1e-12) + 1e-15


def _scaled_slot(sys: SystemConfig, base: CentralSolution, tau_total: float):
    """Loads and duration of the all-closed slot that starts the alternation.

    ``central._tangent_scale`` gives s* and the conductances g that meet
    s* p_req; the slot's loads are 1/g - r, clamped to the box, and it
    lasts the shortest time in which its own powers meet every
    requirement, about tau_total / s*. Where s* is 1, or a requirement can
    never be met, the slot is ``base``, the concurrent optimum, over the
    whole horizon.
    """
    _, g = _tangent_scale(ChargingProblem(sys=sys))
    if g is None:
        return base.x, tau_total
    x = tuple(_loads(sys, range(sys.n_receivers), g))
    _, p, _ = resonant_powers(sys, x, [1] * sys.n_receivers)
    share = max(float(r / pk) for r, pk in zip(sys.p_req, p))
    return x, min(share, 1.0) * tau_total


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of the alternating optimization."""

    schedule: TimeSharingSchedule
    p_tx: float
    p_tx_trace: tuple[float, ...]
    iterations: int
    subproblem_failures: int


def optimize_schedule(
    sys: SystemConfig, tau_total: float = 1.0, dp_stop: float = 1e-3
) -> ScheduleResult:
    """Jointly optimize slot durations and per-slot loads.

    Starts from the scaled slot: all receivers connected at the loads that
    meet s* p_req, for the shortest time in which those loads meet p_req
    (about tau_total / s*), where s* >= 1 minimizes p_tx(s p_req) / s; the
    rest of the horizon is idle. Where s* is 1 that is the no-time-sharing
    optimum over the whole horizon. It then alternates the duration LP with
    the per-configuration load subproblems until the drawn-power
    improvement falls to ``dp_stop``, for at most ``_MAX_OUTER`` rounds.
    The objective trace is nonincreasing: an update is only accepted when
    it does not worsen the exact objective, and an infeasible subproblem
    leaves its slot's loads unchanged.

    The slot matrix and the durations are plain floats for the whole run,
    and every sum over slots is taken left to right. Each round forms every
    slot's share of each load's average power, ``b[n][j] * tau_j /
    tau_total``, once; a slot's subproblem sees the sum of its row's other
    shares, and an accepted solve rewrites that slot's shares. A slot of at
    most 1e-12 of the horizon is not re-solved, but its shares still count
    in the other slots' sums.

    Raises InfeasibleProblemError when the no-time-sharing problem has no
    solution. That exit is not a proof that no schedule exists: time
    sharing can meet some requirements that no single load vector meets,
    and no phase one over configurations is tried first.
    """
    if not tau_total > 0.0:
        raise ValidationError("tau_total must be > 0")
    if not dp_stop > 0.0:
        raise ValidationError("dp_stop must be > 0")
    base = optimize_loads(ChargingProblem(sys=sys))
    if base.status is SolveStatus.INFEASIBLE:
        raise InfeasibleProblemError(
            "the concurrent (no time sharing) problem is infeasible"
        )

    configs = enumerate_configs(sys.n_receivers)
    x0, tau0 = _scaled_slot(sys, base, tau_total)
    x = [x0] + [tuple(solo_peak_loads(sys))] * (len(configs) - 1)
    # the slot matrix: a[q] is slot q's p_tx and b[n][q] its p_n, at x[q]
    a, b = (v.tolist() for v in _config_coefficients(sys, configs, x))
    tau = [tau0] + [0.0] * (len(configs) - 1)
    p_req = sys.p_req

    trace = []
    failures = 0
    prev = float("inf")
    for _ in range(_MAX_OUTER):
        lp_tau = _slot_lp(a, b, tau_total, p_req)
        if lp_tau is not None and _no_worse(
            left_dot(a, lp_tau) / tau_total, left_dot(a, tau) / tau_total
        ):
            tau = lp_tau

        # share[n][j]: the average power load n collects in slot j
        share = [[p * t / tau_total for p, t in zip(row, tau)] for row in b]
        for q, sw in enumerate(configs):
            if tau[q] <= 1e-12 * tau_total:
                continue
            # average power each load collects from the other slots
            p_others = [left_sum(row[:q] + row[q + 1:]) for row in share]
            sol = solve_config_subproblem(sys, sw, tau[q], tau_total, p_others, p_req)
            if sol.status is SolveStatus.INFEASIBLE:
                failures += 1
            elif _no_worse(sol.p_tx, a[q]):
                # the solution's powers are slot q's new column, bit for bit
                x[q] = sol.x
                a[q] = float(sol.p_tx)
                for row, b_row, p in zip(share, b, map(float, sol.p)):
                    b_row[q] = p
                    row[q] = p * tau[q] / tau_total

        p_itr = left_dot(a, tau) / tau_total
        trace.append(p_itr)
        if prev - p_itr <= dp_stop:
            break
        prev = p_itr

    return ScheduleResult(
        schedule=TimeSharingSchedule(
            configs=configs,
            tau=tuple(tau),
            x=tuple(x),
            tau_total=tau_total,
        ),
        p_tx=trace[-1],
        p_tx_trace=tuple(trace),
        iterations=len(trace),
        subproblem_failures=failures,
    )


def schedule_to_csv(sys: SystemConfig, sched: TimeSharingSchedule, path) -> None:
    """Write one row per configuration: duration, loads, instantaneous powers."""
    n = sys.n_receivers
    lines = [["q", "mask", "tau"] + _columns("x", n) + ["p_tx"] + _columns("p", n)]
    a, b = _config_coefficients(sys, sched.configs, sched.x)
    # a numpy scalar formats to the same text as a float, twice as slowly
    a, b = a.tolist(), b.T.tolist()
    lines += ([str(q + 1), sw.mask(), *map(fmt, [sched.tau[q], *sched.x[q], a[q], *b[q]])]
              for q, sw in enumerate(sched.configs))
    # the text csv.writer makes of these rows: nothing needs quoting
    with csv_file(path, "schedule CSV") as handle:
        handle.write("".join(",".join(row) + "\r\n" for row in lines))
