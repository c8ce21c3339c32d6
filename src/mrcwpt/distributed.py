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
and the range of p_tx on it are reported on the result.

One turn sums the circuit's shared denominator once, in a fixed order, and
decides its case on plain floats. A run and the cycle's replay both take
this one turn on a single ``_Loads``, which checks the loads it starts
from. A traced turn records only its case and the load it set, 9 bytes:
the loads are the whole state, so that turn log is all a traced run keeps.
``_rebuild_rows`` forms any stretch of whole rounds of rows from it (loads,
powers, p_tx and feedback bits, with the turn's own float expressions on
the loads before the update), starting from the loads the log holds for
the round before. The trace CSV is written from one block of rows at a
time, and the rows and the full trace are formed only when first read.

``run_distributed`` is the protocol's one entry point: it returns a
``DistributedRun``, and ``trace_to_csv`` writes that run's trace.
"""

from __future__ import annotations

import functools
import math
import struct
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._csvfmt import RowFormat, _put_int
from .circuit import SystemConfig, resonant_powers, solo_peak_loads
from .errors import ValidationError

# equality band for "requirement satisfied" comparisons (relative)
_REQ_TOL = 1e-9
# absolute band for probe power comparisons, suppresses float flicker (W)
_PROBE_TOL = 1e-12
# trace rows formed and encoded per write when exporting CSV (whole rounds,
# about this many): at N = 3 (13 values a row) about as many values, and as
# much scratch memory, as a region block
# 8,192-row blocks peaked above whole-run rows: the encoder scratch grows with the block
_CSV_CHUNK = 1024


class _TurnLog(NamedTuple):
    """What a traced run records, 9 bytes a turn: the case of each turn
    (uint8) and the load it set (float64), after the loads ``x0`` it
    started from, with the run's ``loads`` for the system's constants."""

    loads: _Loads
    x0: list[float]
    cases: np.ndarray
    moved: np.ndarray


@dataclass(frozen=True)
class DistributedRun:
    """Outcome of a full run.

    ``trace`` has one row per iteration:
    (itr, receiver 1-based, case, x_1..x_N after the update,
    p_1..p_N measured before the update, p_tx, fb_1..fb_N).
    ``rows`` holds the rows that were simulated: all of them when no
    cycle is found, else those up to the end of the round that closed
    the first repeat. The run keeps only its turn log, each simulated
    turn's case and the load it set; ``rows`` is formed from the log on
    first read, and ``trace`` from ``rows`` (the cycle tiled over the
    rest of the budget), and both are then kept. ``trace_to_csv`` forms
    the rows from the log a block at a time and reads neither. Both have
    no rows when the run was made with ``record_trace=False``.

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
    _log: _TurnLog = field(repr=False, compare=False)
    cycle_period: int | None = None
    cycle_start: int | None = None
    cycle_p_tx: tuple[float, float] | None = None

    @functools.cached_property
    def rows(self) -> np.ndarray:
        """The simulated rows, formed from the turn log in one block."""
        return _rebuild_rows(self._log, 0, len(self._log.cases))

    @functools.cached_property
    def trace(self) -> np.ndarray:
        """Every iteration's row; ``rows`` itself when nothing was skipped."""
        rows = self.rows
        if len(rows) in (0, self.iterations):
            return rows
        # a row past the simulated ones is the row at the same phase of the cycle
        i = np.arange(self.iterations)
        start = self.cycle_start - 1
        trace = rows[np.where(i < len(rows), i, start + (i - start) % self.cycle_period)]
        trace[:, 0] = i + 1
        return trace


class _Loads:
    """The loads of one run, with the system's constants as plain floats and
    each receiver's denominator term cached.

    ``_Loads(sys, x)`` checks ``x``, one finite load > 0 per receiver, and
    keeps that list as the state. The turns copy circuit.resonant_powers on
    the cached terms: a shared call per probe doubled the iteration time,
    and the cache spares a probe every term before the probed receiver.
    ``term[k] = wh2_k / (r_k + x_k)`` is recomputed only when x_k moves.
    Every denominator is summed from r_tx over the receivers in order, the
    probe of receiver n reusing the prefix r_tx + term[0] + ... +
    term[n - 1] and re-adding only the suffix, so each float equals that
    of a fresh evaluation at the same loads: the state is ``x`` alone.

    Each turn leaves the denominator it summed in ``denom``, from which
    :meth:`advance` reads p_tx.
    """

    def __init__(self, sys: SystemConfig, x: list[float]):
        self.n = sys.n_receivers
        if len(x) != self.n:
            raise ValidationError("load vector must have one entry per receiver")
        for k, xk in enumerate(x):
            if not 0.0 < xk < math.inf:
                raise ValidationError(f"receiver {k + 1}: load resistance must be finite and > 0")
        self.r_tx = sys.transmitter.resistance
        self.half_v2 = 0.5 * abs(sys.v_tx) ** 2
        self.r = [c.resistance for c in sys.receivers]
        self.wh2 = [(sys.w * h) ** 2 for h in sys.h]
        # the numerator factor of each load's power, half_v2 * wh2_k
        self.coef = [self.half_v2 * wh2 for wh2 in self.wh2]
        self.x_lo, self.x_hi, self.p_req = sys.x_lo, sys.x_hi, sys.p_req
        self.req_lo = [req * (1.0 - _REQ_TOL) for req in self.p_req]
        self.req_hi = [req * (1.0 + _REQ_TOL) for req in self.p_req]
        self.x = x
        self.term = [0.0] * self.n
        self.num = [0.0] * self.n
        self.sq = [0.0] * self.n
        for k in range(self.n):
            self._set(k, x[k])
        self.denom = self.pn = math.nan

    def _set(self, k: int, xk: float) -> None:
        self.x[k] = xk
        self.term[k] = self.wh2[k] / (self.r[k] + xk)
        # numerator and squared factor of load k's power
        self.num[k] = self.coef[k] * xk
        self.sq[k] = (self.r[k] + xk) ** 2

    def powers(self, denom: float) -> list[float]:
        """Every load's power at the current loads, ``denom`` being their
        denominator (a turn's ``denom``, or :meth:`denominator`)."""
        d2 = denom * denom
        return [num / (sq * d2) for num, sq in zip(self.num, self.sq)]

    def denominator(self) -> float:
        """The denominator at the current loads, r_tx + term[0] + ... +
        term[N - 1] summed in order, as a turn sums it."""
        denom = self.r_tx
        for t in self.term:
            denom += t
        return denom

    def turn(self, n: int, dx: float) -> int:
        """Apply one update for receiver n; returns the case (1-5).

        The denominator is summed once. Load n's power decides whether its
        requirement is unmet, met or at the equality band; the probes at
        x_n + dx and x_n - dx (half x_n when that is not positive) place
        x_n against its own-power peak, the lower probe only when the upper
        one does not rise, and the peers' feedback bits are read only when
        the case depends on them, each as p_k >= req_lo[k] like a traced
        row's, so the case is the one a fully measured turn takes."""
        term = self.term
        prefix = self.r_tx
        for t in term[:n]:
            prefix += t
        denom = prefix
        for t in term[n:]:
            denom += t
        num, sq = self.num, self.sq
        pn = num[n] / (sq[n] * (denom * denom))
        self.denom = denom
        if pn < self.req_lo[n]:
            unmet = True
        elif pn > self.req_hi[n]:
            unmet = False
        else:
            return 5

        # three-point probe of load n's own power, the other loads fixed
        xn, r_n, wh2_n, coef_n = self.x[n], self.r[n], self.wh2[n], self.coef[n]
        suffix = term[n + 1 :]
        p0 = num[n] / (sq[n] * denom * denom)
        rise = p0 + _PROBE_TOL
        x_up = xn + dx
        d = prefix + wh2_n / (r_n + x_up)
        for t in suffix:
            d += t
        up = coef_n * x_up / ((r_n + x_up) ** 2 * d * d)
        below = up > rise
        if not below:
            x_down = xn - dx
            if x_down <= 0.0:
                x_down = 0.5 * xn
            d = prefix + wh2_n / (r_n + x_down)
            for t in suffix:
                d += t
            if not coef_n * x_down / ((r_n + x_down) ** 2 * d * d) > rise:
                return 5  # at the peak

        if unmet:
            # toward the peak
            if below:
                self._set(n, min(self.x_hi[n], x_up))
                return 1
            self._set(n, max(self.x_lo[n], xn - dx))
            return 2
        d2 = denom * denom
        req_lo = self.req_lo
        for k in range(self.n):
            if k != n and not num[k] / (sq[k] * d2) >= req_lo[k]:
                # a peer is unmet: help it only with more than one own
                # step of margin
                if pn - self.p_req[n] > abs(up - p0):
                    self._set(n, min(self.x_hi[n], x_up))
                    return 3
                return 5
        self._set(n, max(self.x_lo[n], xn - dx))
        return 4

    def advance(self, turns: int, dx: float) -> tuple[float, float]:
        """Run ``turns`` turns from the start of a round; returns the least
        and greatest p_tx measured."""
        n_rx, half_v2 = self.n, self.half_v2
        lo, hi = math.inf, -math.inf
        for i in range(turns):
            self.turn(i % n_rx, dx)
            p_tx = half_v2 / self.denom
            lo, hi = min(lo, p_tx), max(hi, p_tx)
        return lo, hi


def _power_resolution(
    sys: SystemConfig, x: list[float], p: list[float], dx: float
) -> np.ndarray:
    """Per receiver, the largest change one dx step anywhere can make to
    its power ``p`` at loads ``x``: the larger of its own +dx and -dx
    steps (the lower one at least half the load) plus every other load's
    +dx step, from one kernel call over the 2N single-load moves. Used as
    the feasibility slack for the final-state report.
    """
    n, xs = len(x), np.array(x)
    k = np.arange(n)
    # row k moves load k up by dx, row n + k moves it down
    moved = np.tile(xs, (2 * n, 1))
    moved[k, k] = xs + dx
    moved[n + k, k] = np.maximum(xs - dx, 0.5 * xs)
    _, powers, _ = resonant_powers(sys, moved.T, (1,) * n)
    # change[m, j]: how far load j's power moves with move m
    change = np.abs(np.stack(powers, axis=-1) - np.array(p))
    own = np.maximum(change[k, k], change[n + k, k])
    change[k, k] = 0.0
    return own + change[:n].sum(axis=0) + _PROBE_TOL


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


def _rebuild_rows(log: _TurnLog, a: int, b: int) -> np.ndarray:
    """Trace rows ``a`` to ``b - 1`` (0-based) of the run that ``log``
    recorded, formed from the start of the round that holds row ``a``.

    Row i is turn i of receiver k = i mod N, which set load k to
    ``moved[i]``; it measured at the loads before it, where load k holds
    the value of k's previous turn: one round back in ``moved``, or x0.
    Each load's denominator term, numerator and squared factor are formed
    once per value it took, with ``_Loads._set``'s expressions: numpy's
    +, * and / round as the float operations do, but its square does not
    always round as CPython's ``**``, which the turn uses, so the squares
    go through ``**``. Every denominator is summed from r_tx over the
    receivers in order, as a turn sums it. A row's values therefore do
    not depend on the block it is formed in.
    """
    loads = log.loads
    n_rx = loads.n
    start = a - a % n_rx
    x0 = log.x0 if start == 0 else log.moved[start - n_rx : start]
    cases, moved = log.cases[start:b], log.moved[start:b]
    count = len(cases)
    rows = np.empty((count, 3 + 3 * n_rx + 1))
    rows[:, 0] = np.arange(start + 1, start + count + 1)
    rows[:, 1] = np.arange(count) % n_rx + 1
    rows[:, 2] = cases

    def rowwise(v, shift):
        # row i's entry v[(i + shift) // N], from v repeated N times
        return np.repeat(v, n_rx)[shift : shift + count]

    denom = np.full(count, loads.r_tx)
    factors = []
    for k in range(n_rx):
        # every value load k took, the one before the block first: row i
        # sets value (i - k) // N + 1 and measures at value (i - k - 1) // N + 1
        values = np.concatenate(([x0[k]], moved[k::n_rx]))
        series = loads.r[k] + values
        rows[:, 3 + k] = rowwise(values, n_rx - k)
        denom += rowwise(loads.wh2[k] / series, n_rx - k - 1)
        factors.append((loads.coef[k] * values, np.array([v**2 for v in series.tolist()])))
    np.divide(loads.half_v2, denom, out=rows[:, 3 + 2 * n_rx])
    # D * D in place of D, which p_tx was the last to read
    d2 = np.multiply(denom, denom, out=denom)
    for k, (num, sq) in enumerate(factors):
        # p_k = num / (sq * d2), formed in place in its column
        p = rows[:, 3 + n_rx + k]
        np.multiply(rowwise(sq, n_rx - k - 1), d2, out=p)
        np.divide(rowwise(num, n_rx - k - 1), p, out=p)
        rows[:, 4 + 2 * n_rx + k] = p >= loads.req_lo[k]
    return rows[a - start :]


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
    x0 = solo_peak_loads(sys)
    loads = _Loads(sys, list(x0))
    x, turn, n_rx = loads.x, loads.turn, loads.n

    # a traced turn keeps its case and the load it set, packed: the turn log
    cases, moved = bytearray(), array("d")
    # the loads after each round, mapped to the first round that ended
    # there; packed, they take ~15% less memory than tuples at equal speed,
    # and equal bytes are equal loads because loads are finite and > 0
    pack = struct.Struct(f"{n_rx}d").pack
    seen = {pack(*x): 0}
    cycle_fields = {}
    for itr in range(itr_max):
        n = itr % n_rx
        case = turn(n, dx)
        if record_trace:
            cases.append(case)
            moved.append(x[n])
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
            break

    denom = loads.denominator()
    p_tx, p = loads.half_v2 / denom, loads.powers(denom)
    slack = _power_resolution(sys, x, p, dx)
    feasible = all(p[k] >= sys.p_req[k] - slack[k] for k in range(n_rx))
    return DistributedRun(
        x=tuple(x),
        feasible=feasible,
        iterations=itr_max,
        p_tx=p_tx,
        p=tuple(p),
        _log=_TurnLog(loads, x0, np.frombuffer(cases, dtype=np.uint8), np.frombuffer(moved)),
        **cycle_fields,
    )


def trace_to_csv(run: DistributedRun, path) -> None:
    """Write the iteration trace as CSV (one row per iteration), with one
    x, p and fb column per receiver of the run.

    Forms the simulated rows from the run's turn log a block at a time,
    and neither ``rows`` nor ``trace``: rows on a detected cycle differ
    only in ``itr``, so each of them is formed and formatted once and
    reused.
    """
    try:
        with open(path, "w", newline="") as handle:
            _write_trace_csv(run, handle)
    except OSError as exc:
        raise OSError(f"cannot write trace CSV to {path}: {exc}") from exc


def _row_tail(n_receivers: int) -> str:
    """The template of a trace row after its itr: the text csv.writer
    makes of these rows, since nothing needs quoting."""
    return ",".join(
        ["%d", "%d"] + ["%.11e"] * (2 * n_receivers + 1) + ["%d"] * n_receivers
    ) + "\r\n"


def _write_trace_csv(run: DistributedRun, handle) -> None:
    log, n_rx = run._log, len(run.x)
    total = run.iterations if len(log.cases) else 0
    first = total if run.cycle_start is None else min(run.cycle_start - 1, total)
    # whole rounds a block, so that each starts from the loads of the round before
    step = max(1, _CSV_CHUNK // n_rx) * n_rx
    blocks = (_rebuild_rows(log, a, min(a + step, first)) for a in range(0, first, step))
    cycle = _rebuild_rows(log, first, first + run.cycle_period) if first < total else None
    _write_blocks(handle, n_rx, blocks, cycle, total)


def _write_blocks(handle, n_receivers: int, blocks, cycle: np.ndarray | None, total: int) -> None:
    """Write a trace CSV: the header, then the rows of each of ``blocks``
    in turn; when ``cycle`` is given, the rows after the blocks' up to
    row ``total`` repeat it, from its first row on."""
    header = (
        ["itr", "receiver", "case"]
        + [f"x_{k + 1}" for k in range(n_receivers)]
        + [f"p_{k + 1}" for k in range(n_receivers)]
        + ["p_tx"]
        + [f"fb_{k + 1}" for k in range(n_receivers)]
    )
    encode = RowFormat("%d," + _row_tail(n_receivers))
    handle.write(",".join(header) + "\r\n")
    first = 0
    for rows in blocks:
        handle.write(encode(rows))
        first += len(rows)
    if cycle is not None:
        _write_cycle_rows(handle, cycle, first, total)


def _write_cycle_rows(handle, cycle: np.ndarray, first: int, total: int) -> None:
    """Write rows ``first`` to ``total - 1`` (0-based) of a trace whose
    rows from ``first`` on repeat the period ``cycle``: row i is
    ``cycle[(i - first) % len(cycle)]`` with itr i + 1.

    Each phase is formatted once. A block is whole periods of phase bytes,
    each row led by room for its itr, tiled once per itr digit count;
    only the itr digits are written into it, at offsets that are fixed
    because blocks split where itr gains a digit.
    """
    period = len(cycle)
    tail = RowFormat(_row_tail((cycle.shape[1] - 4) // 3))
    phases = tail(cycle[:, 1:]).encode("ascii").splitlines(keepends=True)
    reps = max(1, _CSV_CHUNK // period)
    a = first
    while a < total:
        digits = len(str(a + 1))
        # row 10**digits - 1 is the first whose itr has one more digit
        end = min(total, 10**digits - 1)
        s = (a - first) % period
        order = phases[s:] + phases[:s]
        block = np.tile(np.frombuffer(b"".join(b"0" * digits + b"," + p for p in order),
                                      dtype=np.uint8), reps)
        lengths = np.tile([digits + 1 + len(p) for p in order], reps)
        row_ends = np.cumsum(lengths)
        itr_at = (row_ends - lengths)[:, None] + np.arange(digits)
        for b in range(a, end, len(row_ends)):
            m = min(len(row_ends), end - b)
            itr = np.empty((m, digits), dtype=np.uint8)
            _put_int(itr, 0, digits, np.arange(b + 1, b + m + 1))
            block[itr_at[:m]] = itr
            handle.write(str(block[: row_ends[m - 1]], "ascii"))
        a = end
