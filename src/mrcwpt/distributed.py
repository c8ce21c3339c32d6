"""Distributed charging control simulation.

Each receiver adjusts its own load resistance in round-robin turns using
only local three-point power probes and a one-bit "my requirement is met"
flag broadcast by every other receiver. The simulation is deterministic:
probes are side-effect-free circuit evaluations, feedback bits are
recomputed from the true steady state each iteration, and one of five
update cases fires per turn.

Update cases for the receiver whose turn it is:
  1  requirement unmet, left of its power peak   -> raise resistance
  2  requirement unmet, right of its power peak  -> lower resistance
  3  requirement met with more than one own step of margin, some peer unmet
                                                 -> raise resistance (helps peers)
  4  requirement met, all peers met              -> lower resistance (saves source power)
  5  otherwise (at the peak, exactly at the requirement, or met with no
     more than one own step of margin while some peer is unmet) -> hold

A satisfied receiver helps only when it has room to spare: its margin
p_n - p_req_n must exceed the change one own +dx step makes to its own
power, read from the same probe that classifies its direction. Without
that gate, receivers sitting within one step of their requirement take
turns helping each other across it, and the run locks into a limit cycle
above the optimum. The gate uses only the receiver's own power,
requirement and probe, so the feedback stays one bit per receiver.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .circuit import SwitchState, SystemConfig, solo_peak_loads
from .errors import ValidationError

# equality band for "requirement satisfied" comparisons (relative)
_REQ_TOL = 1e-9
# absolute band for probe power comparisons, suppresses float flicker (W)
_PROBE_TOL = 1e-12


class Direction(Enum):
    """Position of a load value relative to its own-power peak."""

    BELOW = "below"
    AT_PEAK = "at_peak"
    ABOVE = "above"


@dataclass
class DistributedState:
    """Mutable state of one simulation run."""

    x: list[float]
    fb: list[bool]
    itr: int
    trace: list = field(default_factory=list)


@dataclass(frozen=True)
class DistributedRun:
    """Outcome of a full run.

    ``trace`` has one row per iteration:
    (itr, receiver 1-based, case, x_1..x_N after the update,
    p_1..p_N measured before the update, p_tx, fb_1..fb_N).

    ``feasible`` reports whether every requirement holds at the final
    state within one control step of power resolution: at a binding
    constraint the protocol cycles across the requirement with amplitude
    up to dx times the power sensitivity, so the final snapshot is given
    that much slack. True infeasibility shows up as a shortfall orders of
    magnitude larger. ``p`` holds the exact final powers for callers that
    want a stricter check.
    """

    x: tuple[float, ...]
    feasible: bool
    iterations: int
    p_tx: float
    p: tuple[float, ...]
    trace: np.ndarray


class _Params:
    """Plain-float views of the system for the hot simulation loop."""

    # copies circuit.resonant_powers: calling it per probe doubles the iteration time

    def __init__(self, sys: SystemConfig):
        self.n = sys.n_receivers
        self.r_tx = sys.transmitter.resistance
        self.half_v2 = 0.5 * abs(sys.v_tx) ** 2
        self.r = [c.resistance for c in sys.receivers]
        self.wh2 = [(sys.w * h) ** 2 for h in sys.h]
        self.x_lo = list(sys.x_lo)
        self.x_hi = list(sys.x_hi)
        self.p_req = list(sys.p_req)

    def powers(self, x):
        denom = self.r_tx
        for k in range(self.n):
            denom += self.wh2[k] / (self.r[k] + x[k])
        p_tx = self.half_v2 / denom
        d2 = denom * denom
        p = [
            self.half_v2 * self.wh2[k] * x[k] / ((self.r[k] + x[k]) ** 2 * d2)
            for k in range(self.n)
        ]
        return p_tx, p

    def own_power(self, x, n, xn):
        denom = self.r_tx
        for k in range(self.n):
            xk = xn if k == n else x[k]
            denom += self.wh2[k] / (self.r[k] + xk)
        return self.half_v2 * self.wh2[n] * xn / ((self.r[n] + xn) ** 2 * denom * denom)


def _power_resolution(params: _Params, x, n: int, dx: float) -> float:
    """Largest change one dx step anywhere can make to load n's power.

    Estimated from the power's finite differences over single-coordinate
    steps; used as the feasibility slack for the final-state report.
    """
    base = params.own_power(x, n, x[n])
    span = abs(params.own_power(x, n, x[n] + dx) - base)
    span = max(span, abs(params.own_power(x, n, max(x[n] - dx, 0.5 * x[n])) - base))
    denom0 = params.r_tx + sum(
        params.wh2[k] / (params.r[k] + x[k]) for k in range(params.n)
    )
    for m in range(params.n):
        if m == n:
            continue
        # shifting x_m by dx scales every power through the shared denominator
        shift = params.wh2[m] / (params.r[m] + x[m] + dx) - params.wh2[m] / (
            params.r[m] + x[m]
        )
        span += base * abs((denom0 / (denom0 + shift)) ** 2 - 1.0)
    return span + _PROBE_TOL


def init_distributed(sys: SystemConfig) -> DistributedState:
    """Starting state: each load at its clamped solo power peak.

    The initializer is the load value that would maximize the delivered
    power if every other receiver were disconnected, clamped to the bounds;
    feedback bits come from the actual all-connected steady state.
    """
    params = _Params(sys)
    x = solo_peak_loads(sys)
    _, p = params.powers(x)
    fb = [p[k] >= params.p_req[k] * (1.0 - _REQ_TOL) for k in range(params.n)]
    return DistributedState(x=x, fb=fb, itr=0)


def _classify(params: _Params, x, n: int, dx: float) -> tuple[Direction, float]:
    """Direction of x[n] against its own-power peak, and the own-power
    change of one +dx step (the helping gate in ``_step`` reads it)."""
    p0 = params.own_power(x, n, x[n])
    up = params.own_power(x, n, x[n] + dx)
    xm = x[n] - dx
    if xm <= 0.0:
        xm = 0.5 * x[n]
    down = params.own_power(x, n, xm)
    step_change = abs(up - p0)
    inc_up = up > p0 + _PROBE_TOL
    inc_down = down > p0 + _PROBE_TOL
    if inc_up and not inc_down:
        return Direction.BELOW, step_change
    if inc_down and not inc_up:
        return Direction.ABOVE, step_change
    if inc_up and inc_down:
        # cannot happen for a unimodal power curve; treat as left of peak
        return Direction.BELOW, step_change
    return Direction.AT_PEAK, step_change


def probe_direction(sys: SystemConfig, sw: SwitchState | None, x, n: int, dx: float) -> Direction:
    """Classify x[n] against its own-power peak from three power probes.

    Probes are simulated steady states with only x[n] perturbed by +-dx;
    the lower probe never leaves the positive domain.
    """
    if not dx > 0.0:
        raise ValidationError("dx must be > 0")
    if sw is not None and sw.s != (1,) * sys.n_receivers:
        raise ValidationError("the distributed protocol runs with all switches closed")
    params = _Params(sys)
    if len(x) != params.n:
        raise ValidationError("load vector must have one entry per receiver")
    if any(not v > 0.0 for v in x):
        raise ValidationError("load resistance must be > 0")
    return _classify(params, list(x), n, dx)[0]


def _step(params: _Params, x, n: int, dx: float):
    """Apply one update for receiver n. Returns (case, p_tx, p, fb)."""
    p_tx, p = params.powers(x)
    fb = [p[k] >= params.p_req[k] * (1.0 - _REQ_TOL) for k in range(params.n)]
    req = params.p_req[n]
    below_req = p[n] < req * (1.0 - _REQ_TOL)
    above_req = p[n] > req * (1.0 + _REQ_TOL)

    case = 5
    if below_req:
        direction, _ = _classify(params, x, n, dx)
        if direction is Direction.BELOW:
            case = 1
            x[n] = min(params.x_hi[n], x[n] + dx)
        elif direction is Direction.ABOVE:
            case = 2
            x[n] = max(params.x_lo[n], x[n] - dx)
    elif above_req:
        direction, step_change = _classify(params, x, n, dx)
        if direction is not Direction.AT_PEAK:
            if any(not fb[m] for m in range(params.n) if m != n):
                if p[n] - req > step_change:
                    case = 3
                    x[n] = min(params.x_hi[n], x[n] + dx)
            else:
                case = 4
                x[n] = max(params.x_lo[n], x[n] - dx)
    return case, p_tx, p, fb


def step(sys: SystemConfig, state: DistributedState, n: int, dx: float) -> int:
    """Advance one receiver's turn in place; returns the case applied (1-5)."""
    if not dx > 0.0:
        raise ValidationError("dx must be > 0")
    params = _Params(sys)
    case, p_tx, p, fb = _step(params, state.x, n, dx)
    state.fb = fb
    state.itr += 1
    state.trace.append((state.itr, n + 1, case, tuple(state.x), tuple(p), p_tx, tuple(fb)))
    return case


def run_distributed(
    sys: SystemConfig,
    dx: float = 1e-3,
    itr_max: int = 300_000,
    record_trace: bool = True,
) -> DistributedRun:
    """Round-robin simulation until the iteration budget is exhausted.

    The protocol has no convergence guarantee; an infeasible final state is
    a reported outcome, not an error.
    """
    if not dx > 0.0:
        raise ValidationError("dx must be > 0")
    if itr_max < 1:
        raise ValidationError("itr_max must be >= 1")
    params = _Params(sys)
    state = init_distributed(sys)
    x = state.x
    n_rx = params.n

    width = 3 + 2 * n_rx + 1 + n_rx
    trace = np.empty((itr_max if record_trace else 0, width))

    for itr in range(1, itr_max + 1):
        n = (itr - 1) % n_rx
        case, p_tx, p, fb = _step(params, x, n, dx)
        if record_trace:
            row = trace[itr - 1]
            row[0] = itr
            row[1] = n + 1
            row[2] = case
            row[3 : 3 + n_rx] = x
            row[3 + n_rx : 3 + 2 * n_rx] = p
            row[3 + 2 * n_rx] = p_tx
            row[4 + 2 * n_rx :] = fb

    p_tx, p = params.powers(x)
    feasible = all(
        p[k] >= params.p_req[k] - _power_resolution(params, x, k, dx)
        for k in range(n_rx)
    )
    return DistributedRun(
        x=tuple(x),
        feasible=feasible,
        iterations=itr_max,
        p_tx=p_tx,
        p=tuple(p),
        trace=trace,
    )


def trace_to_csv(run: DistributedRun, n_receivers: int, path) -> None:
    """Write the iteration trace as CSV (one row per iteration)."""
    header = (
        ["itr", "receiver", "case"]
        + [f"x_{k + 1}" for k in range(n_receivers)]
        + [f"p_{k + 1}" for k in range(n_receivers)]
        + ["p_tx"]
        + [f"fb_{k + 1}" for k in range(n_receivers)]
    )
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in run.trace:
            out = [int(row[0]), int(row[1]), int(row[2])]
            out += [f"{v:.11e}" for v in row[3 : 4 + 2 * n_receivers]]
            out += [int(v) for v in row[4 + 2 * n_receivers :]]
            writer.writerow(out)
