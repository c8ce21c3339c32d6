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

A round (receivers 1..N taking one turn each) is a pure function of the
loads, so a run that revisits the loads it held at the end of an earlier
round repeats itself from there on, bit for bit. ``run_distributed`` keeps
every end-of-round load vector it has seen, keyed by its bytes (exact
float equality, since loads are finite and positive), and stops simulating
at the first round whose loads it has seen before: the rest of the run is
the period between the two tiled, and the final loads are those at the
matching phase of the cycle. The period, the first iteration of the cycle
and the range of p_tx on it are reported on the result. Only the simulated
trace rows are stored; the full trace is built from them when first read.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .circuit import SwitchState, SystemConfig, solo_peak_loads
from .errors import ValidationError

# equality band for "requirement satisfied" comparisons (relative)
_REQ_TOL = 1e-9
# absolute band for probe power comparisons, suppresses float flicker (W)
_PROBE_TOL = 1e-12
# trace rows formatted per write when exporting CSV
_CSV_CHUNK = 256


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
    ``rows`` holds the rows that were simulated: all of them when no
    cycle is found, else those up to the end of the round that closed
    the first repeat. ``trace`` is built from them on first read (the
    cycle tiled over the rest of the budget) and then kept. Both have no
    rows when the run was made with ``record_trace=False``.

    ``feasible`` reports whether every requirement holds at the final
    state within one control step of power resolution: at a binding
    constraint the protocol cycles across the requirement with amplitude
    up to dx times the power sensitivity, so the final snapshot is given
    that much slack. True infeasibility shows up as a shortfall orders of
    magnitude larger. ``p`` holds the exact final powers for callers that
    want a stricter check.

    When the run is found to repeat itself exactly within the budget,
    ``cycle_period`` is the length of the repeat in iterations (a multiple
    of N), ``cycle_start`` the first iteration from which every trace row
    equals the row one period later (up to ``itr``), and ``cycle_p_tx`` the
    least and greatest p_tx measured on the cycle. All three are None when
    no end-of-round loads repeat within the budget.
    """

    x: tuple[float, ...]
    feasible: bool
    iterations: int
    p_tx: float
    p: tuple[float, ...]
    rows: np.ndarray
    cycle_period: int | None = None
    cycle_start: int | None = None
    cycle_p_tx: tuple[float, float] | None = None

    @functools.cached_property
    def trace(self) -> np.ndarray:
        """Every iteration's row; ``rows`` itself when nothing was skipped."""
        rows = self.rows
        if len(rows) in (0, self.iterations):
            return rows
        trace = np.empty((self.iterations, rows.shape[1]))
        trace[: len(rows)] = rows
        _tile(trace, self.cycle_start - 1, self.cycle_period, len(rows))
        return trace


class _Params:
    """Plain-float views of the system for the hot simulation loop."""

    # _Loads copies circuit.resonant_powers on these with each receiver's
    # terms cached: a shared call per probe doubled the iteration time, and
    # the cache spares a probe every term before the probed receiver

    def __init__(self, sys: SystemConfig):
        self.n = sys.n_receivers
        self.r_tx = sys.transmitter.resistance
        self.half_v2 = 0.5 * abs(sys.v_tx) ** 2
        self.r = [c.resistance for c in sys.receivers]
        self.wh2 = [(sys.w * h) ** 2 for h in sys.h]
        self.x_lo = list(sys.x_lo)
        self.x_hi = list(sys.x_hi)
        self.p_req = list(sys.p_req)
        self.req_lo = [req * (1.0 - _REQ_TOL) for req in self.p_req]
        self.req_hi = [req * (1.0 + _REQ_TOL) for req in self.p_req]


@functools.lru_cache(maxsize=8)
def _step_params(sys: SystemConfig) -> _Params:
    """The params of a frozen config, shared by the turns of a ``step`` loop
    (nothing writes to a ``_Params`` once it is built)."""
    return _Params(sys)


class _Loads:
    """The loads of one run with each receiver's denominator term cached.

    ``term[k] = wh2_k / (r_k + x_k)`` is recomputed only when x_k moves.
    Every denominator is summed from r_tx over the receivers in order, the
    probe of receiver n reusing the prefix r_tx + term[0] + ... +
    term[n - 1] and re-adding only the suffix, so each float equals that
    of a fresh evaluation at the same loads: the state is ``x`` alone.
    """

    def __init__(self, params: _Params, x: list[float]):
        self.params = params
        self.x = x
        self.term = [0.0] * params.n
        self.num = [0.0] * params.n
        self.sq = [0.0] * params.n
        for k in range(params.n):
            self._set(k, x[k])

    def _set(self, k: int, xk: float) -> None:
        prm = self.params
        self.x[k] = xk
        self.term[k] = prm.wh2[k] / (prm.r[k] + xk)
        # numerator and squared factor of load k's power
        self.num[k] = prm.half_v2 * prm.wh2[k] * xk
        self.sq[k] = (prm.r[k] + xk) ** 2

    def powers(self):
        """(p_tx, p) at the current loads. ``sums(n)`` adds the same terms
        in the same order for every n, so these are the floats a turn sees."""
        _, denom = self.sums(0)
        d2 = denom * denom
        return self.params.half_v2 / denom, [num / (sq * d2) for num, sq in zip(self.num, self.sq)]

    def measure(self):
        """(p_tx, p, fb) at the current loads, fb being the feedback bits."""
        p_tx, p = self.powers()
        return p_tx, p, [pk >= lo for pk, lo in zip(p, self.params.req_lo)]

    def sums(self, n: int) -> tuple[float, float]:
        """The prefix r_tx + term[0] + ... + term[n - 1] and the full
        denominator continued from it."""
        prefix = self.params.r_tx
        for t in self.term[:n]:
            prefix += t
        denom = prefix
        for t in self.term[n:]:
            denom += t
        return prefix, denom

    def own_power(self, n: int, xn: float, prefix: float) -> float:
        """Load n's power with x_n replaced by ``xn``, the others unchanged;
        ``prefix`` is the first value of :meth:`sums`."""
        prm = self.params
        denom = prefix + prm.wh2[n] / (prm.r[n] + xn)
        for t in self.term[n + 1 :]:
            denom += t
        return prm.half_v2 * prm.wh2[n] * xn / ((prm.r[n] + xn) ** 2 * denom * denom)

    def classify(self, n: int, dx: float, prefix: float, denom: float) -> tuple[Direction, float]:
        """Direction of x[n] against its own-power peak, and the own-power
        change of one +dx step (the helping gate in ``step`` reads it).

        ``denom`` is the full denominator at the current loads."""
        prm, xn = self.params, self.x[n]
        p0 = prm.half_v2 * prm.wh2[n] * xn / ((prm.r[n] + xn) ** 2 * denom * denom)
        up = self.own_power(n, xn + dx, prefix)
        xm = xn - dx
        if xm <= 0.0:
            xm = 0.5 * xn
        down = self.own_power(n, xm, prefix)
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

    def turn(self, n: int, dx: float) -> int:
        """Apply one update for receiver n; returns the case (1-5).

        Only load n's power is evaluated, and the peers' feedback bits only
        when the case depends on them, each from the expression ``measure``
        uses, so the case is the one a fully measured turn takes."""
        prm, x = self.params, self.x
        prefix, denom = self.sums(n)
        d2 = denom * denom
        num, sq, req_lo = self.num, self.sq, prm.req_lo
        pn = num[n] / (sq[n] * d2)

        case = 5
        xn = x[n]
        if pn < req_lo[n]:
            direction, _ = self.classify(n, dx, prefix, denom)
            if direction is Direction.BELOW:
                case = 1
                xn = min(prm.x_hi[n], xn + dx)
            elif direction is Direction.ABOVE:
                case = 2
                xn = max(prm.x_lo[n], xn - dx)
        elif pn > prm.req_hi[n]:
            direction, step_change = self.classify(n, dx, prefix, denom)
            if direction is not Direction.AT_PEAK:
                peers_met = all(
                    num[k] / (sq[k] * d2) >= req_lo[k] for k in range(prm.n) if k != n
                )
                if not peers_met:
                    if pn - prm.p_req[n] > step_change:
                        case = 3
                        xn = min(prm.x_hi[n], xn + dx)
                else:
                    case = 4
                    xn = max(prm.x_lo[n], xn - dx)
        if case != 5:
            self._set(n, xn)
        return case

    def advance(self, turns: int, dx: float) -> tuple[float, float]:
        """Run ``turns`` turns from the start of a round; returns the least
        and greatest p_tx measured."""
        n_rx, half_v2 = self.params.n, self.params.half_v2
        lo, hi = math.inf, -math.inf
        for i in range(turns):
            p_tx = half_v2 / self.sums(0)[1]
            lo, hi = min(lo, p_tx), max(hi, p_tx)
            self.turn(i % n_rx, dx)
        return lo, hi


def _power_resolution(loads: _Loads, n: int, dx: float) -> float:
    """Largest change one dx step anywhere can make to load n's power.

    Estimated from the power's finite differences over single-coordinate
    steps; used as the feasibility slack for the final-state report.
    """
    params, x = loads.params, loads.x
    prefix, _ = loads.sums(n)
    base = loads.own_power(n, x[n], prefix)
    span = abs(loads.own_power(n, x[n] + dx, prefix) - base)
    span = max(span, abs(loads.own_power(n, max(x[n] - dx, 0.5 * x[n]), prefix) - base))
    denom0 = params.r_tx + sum(loads.term)
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
    x = solo_peak_loads(sys)
    _, _, fb = _Loads(_Params(sys), x).measure()
    return DistributedState(x=x, fb=fb, itr=0)


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
    loads = _Loads(params, list(x))
    return loads.classify(n, dx, *loads.sums(n))[0]


def step(sys: SystemConfig, state: DistributedState, n: int, dx: float) -> int:
    """Advance one receiver's turn in place; returns the case applied (1-5)."""
    if not dx > 0.0:
        raise ValidationError("dx must be > 0")
    loads = _Loads(_step_params(sys), state.x)
    p_tx, p, fb = loads.measure()
    case = loads.turn(n, dx)
    state.fb = fb
    state.itr += 1
    state.trace.append((state.itr, n + 1, case, tuple(state.x), tuple(p), p_tx, tuple(fb)))
    return case


def _cycle_start(seen: dict, mu: int, n_rx: int) -> int:
    """First iteration (1-based) of a run whose end-of-round loads first
    recur after round ``mu`` (round 0 being the start).

    ``seen`` maps the packed loads after rounds 0, 1, ... to their round,
    in round order, up to the round before the repeat closed, lam rounds
    after mu. Turn k of round mu - 1 starts from loads that agree with
    those one period later exactly when the loads of receivers k..N after
    rounds mu - 1 and mu - 1 + lam agree, since turns 1..k-1 have only
    moved receivers 1..k-1 to their round-mu values.
    """
    if mu == 0:
        return 1
    ends = list(seen)
    before, later = ends[mu - 1], ends[-1]
    # 8 bytes per load
    k = next(k for k in range(1, n_rx + 1) if before[8 * k :] == later[8 * k :])
    return (mu - 1) * n_rx + k + 1


def _tile(trace: np.ndarray, first_row: int, period: int, filled: int) -> None:
    """Fill ``trace`` from row ``filled`` on by repeating rows
    ``first_row..filled - 1``, which repeat every ``period`` rows, with
    the ``itr`` column renumbered. Copies in place, doubling each time."""
    end = len(trace)
    while filled < end:
        span = (filled - first_row) // period * period
        count = min(span, end - filled)
        block = trace[filled : filled + count]
        block[:] = trace[filled - span : filled - span + count]
        block[:, 0] += span
        filled += count


def run_distributed(
    sys: SystemConfig,
    dx: float = 1e-3,
    itr_max: int = 300_000,
    record_trace: bool = True,
) -> DistributedRun:
    """Round-robin simulation until the iteration budget is exhausted.

    The protocol has no convergence guarantee; an infeasible final state is
    a reported outcome, not an error. Once the end-of-round loads repeat,
    the rest of the budget is filled from the cycle instead of simulated;
    trace and final state are those of simulating every iteration.
    """
    if not dx > 0.0:
        raise ValidationError("dx must be > 0")
    if itr_max < 1:
        raise ValidationError("itr_max must be >= 1")
    params = _Params(sys)
    loads = _Loads(params, init_distributed(sys).x)
    x = loads.x
    n_rx = params.n

    width = 3 + 2 * n_rx + 1 + n_rx
    rows = np.empty((itr_max if record_trace else 0, width))
    # the loads after each round, mapped to the first round that ended
    # there; packed, they take ~15% less memory than tuples at equal speed,
    # and equal bytes are equal loads because loads are finite and > 0
    pack = struct.Struct(f"{n_rx}d").pack
    seen = {pack(*x): 0}
    cycle_fields = {}
    for itr in range(itr_max):
        n = itr % n_rx
        if record_trace:
            p_tx, p, fb = loads.measure()
            case = loads.turn(n, dx)
            rows[itr] = (itr + 1, n + 1, case, *x, *p, p_tx, *fb)
        else:
            loads.turn(n, dx)
        if n < n_rx - 1:
            continue
        rnd = (itr + 1) // n_rx
        mu = seen.setdefault(pack(*x), rnd)
        if mu < rnd:
            period = (rnd - mu) * n_rx
            cycle_fields = {
                "cycle_period": period,
                "cycle_start": _cycle_start(seen, mu, n_rx),
                # one period on from here, which returns to the same loads
                "cycle_p_tx": loads.advance(period, dx),
            }
            loads.advance((itr_max - itr - 1) % period, dx)
            if record_trace:
                rows = rows[: itr + 1].copy()
            break

    p_tx, p = loads.powers()
    feasible = all(
        p[k] >= params.p_req[k] - _power_resolution(loads, k, dx) for k in range(n_rx)
    )
    return DistributedRun(
        x=tuple(x),
        feasible=feasible,
        iterations=itr_max,
        p_tx=p_tx,
        p=tuple(p),
        rows=rows,
        **cycle_fields,
    )


def trace_to_csv(run: DistributedRun, n_receivers: int, path) -> None:
    """Write the iteration trace as CSV (one row per iteration).

    Reads the simulated ``rows`` only: rows on a detected cycle differ
    only in ``itr``, so each of them is formatted once and reused.
    """
    header = (
        ["itr", "receiver", "case"]
        + [f"x_{k + 1}" for k in range(n_receivers)]
        + [f"p_{k + 1}" for k in range(n_receivers)]
        + ["p_tx"]
        + [f"fb_{k + 1}" for k in range(n_receivers)]
    )
    # the text csv.writer makes of these rows: nothing needs quoting
    tail = ",".join(
        ["%d", "%d"] + ["%.11e"] * (2 * n_receivers + 1) + ["%d"] * n_receivers
    )
    row_fmt = "%d," + tail + "\r\n"
    rows = run.rows
    total = run.iterations if len(rows) else 0
    first = total if run.cycle_start is None else min(run.cycle_start - 1, total)
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        for a in range(0, first, _CSV_CHUNK):
            chunk = rows[a : min(a + _CSV_CHUNK, first)].tolist()
            handle.write("".join([row_fmt % tuple(r) for r in chunk]))
        if first == total:
            return
        period = run.cycle_period
        phases = [tail % tuple(r) for r in rows[first : first + period, 1:].tolist()]
        for a in range(first, total, _CSV_CHUNK):
            b = min(a + _CSV_CHUNK, total)
            handle.write(
                "".join([f"{i + 1},{phases[(i - first) % period]}\r\n" for i in range(a, b)])
            )
