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

A turn decides its case on plain floats and does not sum the circuit's
shared denominator: ``_Loads`` sums it once, in a fixed order, and a turn
that moves a load takes the new one from the probe it made at that load,
or sums it afresh where no probe sat there, so each float equals a fresh
sum's. A run, the cycle's replay and a single turn all go through one
loop of turns on a single ``_Loads``, which checks the loads it starts
from; a run's loop also stops at the first repeated round. A traced turn
records only its case and the load it set, 9 bytes: the loads are the
whole state, so that turn log is all a traced run keeps.
``_rebuild_rows`` forms any stretch of whole rounds of rows from it
(loads, powers, p_tx and feedback bits, with the turn's own float
expressions on the loads before the update), starting from the loads the
log holds for the round before. The trace CSV is written in encoder-sized
blocks of whole rounds, and the rows and the full trace are formed only
when first read. A run that repeats replays one period with a turn log,
traced or not, and takes the cycle's p_tx range from the p_tx column of
that period's rows.

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

from . import _csvfmt
from ._csvfmt import RowFormat, _put_int
from .circuit import SystemConfig, resonant_powers, solo_peak_loads
from .errors import ValidationError

# equality band for "requirement satisfied" comparisons (relative)
_REQ_TOL = 1e-9
# absolute band for probe power comparisons, suppresses float flicker (W)
_PROBE_TOL = 1e-12


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
    the rows from the log in encoder-sized blocks and reads neither. Both
    have no rows when the run was made with ``record_trace=False``.

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
    """The loads of one run, with the system's constants as plain floats,
    each receiver's denominator term cached and the denominator of the
    loads kept.

    ``_Loads(sys, x)`` checks ``x``, one finite load > 0 per receiver, and
    keeps that list as the state. The turns copy circuit.resonant_powers on
    the cached terms: a shared call per probe doubled the iteration time,
    and the cache spares a probe every term before the probed receiver.
    ``term[k] = wh2_k / (r_k + x_k)`` is recomputed only when x_k moves.
    Every denominator is summed from r_tx over the receivers in order, so
    each float equals that of a fresh evaluation at the same loads: the
    state is ``x`` alone.

    ``denom`` is the denominator D = r_tx + term[0] + ... + term[N - 1] of
    the current loads. It is summed here and then carried by
    :meth:`turns`, so it is always the float a fresh sum gives: a turn
    measures at it, and a turn that moves its load leaves the D of the new
    loads. A run reads its final p_tx and powers at it.
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
        self.term = [wh2 / (r + xk) for wh2, r, xk in zip(self.wh2, self.r, x)]
        # numerator and squared factor of each load's power
        self.num = [coef * xk for coef, xk in zip(self.coef, x)]
        self.sq = [(r + xk) ** 2 for r, xk in zip(self.r, x)]
        self.denom = self.denominator()
        # the loads as bytes, 8 a load: equal bytes are equal loads, since
        # loads are finite and > 0
        self.pack = struct.Struct(f"{self.n}d").pack

    def powers(self, denom: float) -> list[float]:
        """Every load's power at the current loads, ``denom`` being their
        denominator."""
        d2 = denom * denom
        return [num / (sq * d2) for num, sq in zip(self.num, self.sq)]

    def denominator(self) -> float:
        """The denominator at the current loads, r_tx + term[0] + ... +
        term[N - 1] summed in order."""
        denom = self.r_tx
        for t in self.term:
            denom += t
        return denom

    def turn(self, n: int, dx: float) -> int:
        """Apply one update for receiver n; returns the case (1-5)."""
        cases = bytearray()
        self.turns(n, 1, dx, cases, array("d"))
        return cases[0]

    def turns(
        self, n: int, count: int, dx: float, cases=None, moved=None, seen=None
    ) -> int:
        """Take ``count`` turns round-robin from receiver n's on; returns
        how many were taken. Each turn appends its case to ``cases`` and
        the load it set to ``moved`` when those are given: the turn log of
        a traced run, and of the one period a repeating run replays. With
        ``seen``, which maps the packed loads after rounds 0, 1, ... up to
        the current one to their round, the turns start a round: the loads
        after each round are added to it, and the turns stop after the
        first round whose loads it already holds.

        Load n's power decides whether its requirement is unmet, met or at
        the equality band; the probes at x_n + dx and x_n - dx (half x_n
        when that is not positive) place x_n against its own-power peak,
        the lower probe only when the upper one does not rise, and the
        peers' feedback bits are read only when the case depends on them,
        each as p_k >= req_lo[k] like a traced row's, so the case is the
        one a fully measured turn takes.

        A probe of load n sums the prefix r_tx + term[0] + ... +
        term[n - 1], carried from turn to turn, then the probed term and
        the terms after it. When the load a turn sets is the one a probe
        sat at, that probe's term, squared factor and sum are those of the
        new loads, and the turn adopts them; where the box clamped the load
        or no probe sat there, it sums afresh. All turns run in this one
        loop, with the constants in locals, and a run's repeat check sits
        in it too: a call per turn cost most of what carrying D saves, and
        a call per round still half of it on three receivers.
        """
        x, term, num, sq = self.x, self.term, self.num, self.sq
        r, wh2, coef, p_req = self.r, self.wh2, self.coef, self.p_req
        x_lo, x_hi, req_lo, req_hi = self.x_lo, self.x_hi, self.req_lo, self.req_hi
        r_tx, n_rx, peers, pack = self.r_tx, self.n, range(self.n), self.pack
        denom = self.denom
        prefix = r_tx
        for t in term[:n]:
            prefix += t
        for taken in range(1, count + 1):
            xn = x[n]
            pn = num[n] / (sq[n] * (denom * denom))
            if pn < req_lo[n]:
                unmet = True
            elif pn > req_hi[n]:
                unmet = False
            else:
                unmet = None
            case = 5
            if unmet is not None:
                # three-point probe of load n's own power, the other loads fixed
                r_n, wh2_n, coef_n = r[n], wh2[n], coef[n]
                suffix = term[n + 1 :]
                p0 = num[n] / (sq[n] * denom * denom)
                rise = p0 + _PROBE_TOL
                x_up = xn + dx
                t_up = wh2_n / (r_n + x_up)
                d_up = prefix + t_up
                for t in suffix:
                    d_up += t
                sq_up = (r_n + x_up) ** 2
                up = coef_n * x_up / (sq_up * d_up * d_up)
                below = up > rise
                if not below:
                    x_dn = xn - dx
                    if x_dn <= 0.0:
                        x_dn = 0.5 * xn
                    t_dn = wh2_n / (r_n + x_dn)
                    d_dn = prefix + t_dn
                    for t in suffix:
                        d_dn += t
                    sq_dn = (r_n + x_dn) ** 2
                    if coef_n * x_dn / (sq_dn * d_dn * d_dn) > rise:
                        case = 2 if unmet else 4
                    # else at the peak: hold
                elif unmet:
                    case = 1
                else:
                    case = 4
                if case == 4:
                    d2 = denom * denom
                    for k in peers:
                        if k != n and not num[k] / (sq[k] * d2) >= req_lo[k]:
                            # a peer is unmet: help it only with more than
                            # one own step of margin
                            case = 3 if pn - p_req[n] > abs(up - p0) else 5
                            break
                if case != 5:
                    if case == 1 or case == 3:
                        # toward the peak, or helping a peer: up
                        new = min(x_hi[n], x_up)
                    else:
                        new = max(x_lo[n], xn - dx)
                    if new != xn:
                        # a probe that sat at the new load formed its sums
                        if new == x_up:
                            t_new, sq_new, denom = t_up, sq_up, d_up
                        elif not below and new == x_dn:
                            t_new, sq_new, denom = t_dn, sq_dn, d_dn
                        else:  # clamped by the box, or no probe sat there
                            t_new = wh2_n / (r_n + new)
                            sq_new = (r_n + new) ** 2
                            denom = prefix + t_new
                            for t in suffix:
                                denom += t
                        x[n], term[n], num[n], sq[n] = new, t_new, coef_n * new, sq_new
            if cases is not None:
                cases.append(case)
                moved.append(x[n])
            prefix += term[n]
            n += 1
            if n == n_rx:
                n, prefix = 0, r_tx
                if seen is not None:
                    rnd = len(seen)
                    if seen.setdefault(pack(*x), rnd) < rnd:
                        break
        else:
            taken = count  # also when count is 0
        self.denom = denom
        return taken


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
    once per value it took, with the expressions ``_Loads`` uses: numpy's
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
    if not 0.0 < dx < math.inf:
        raise ValidationError("dx must be > 0 and finite")
    if itr_max < 1:
        raise ValidationError("itr_max must be >= 1")
    x0 = solo_peak_loads(sys)
    loads = _Loads(sys, list(x0))
    x, n_rx = loads.x, loads.n

    # a traced turn keeps its case and the load it set, packed: the turn log
    cases, moved = bytearray(), array("d")
    log = (cases, moved) if record_trace else ()
    # the loads after each round, mapped to the first round that ended
    # there; packed, they take ~15% less memory than tuples at equal speed
    seen = {loads.pack(*x): 0}
    taken = loads.turns(0, itr_max, dx, *log, seen=seen)
    # the turns stop early only at the end of a round whose loads recur
    rnd, mid_round = divmod(taken, n_rx)
    mu = rnd if mid_round else seen[loads.pack(*x)]
    cycle_fields = {}
    if mu < rnd:
        period = (rnd - mu) * n_rx
        # one period on from here, which returns to the same loads, logged
        # as a traced run logs its turns: its rows give the cycle's p_tx
        x_cycle, cases_cycle, moved_cycle = list(x), bytearray(), array("d")
        loads.turns(0, period, dx, cases_cycle, moved_cycle)
        cycle = _TurnLog(loads, x_cycle, np.frombuffer(cases_cycle, dtype=np.uint8),
                         np.frombuffer(moved_cycle))
        p_tx_cycle = _rebuild_rows(cycle, 0, period)[:, 3 + 2 * n_rx]
        cycle_fields = {
            "cycle_period": period,
            "cycle_start": _cycle_start(seen, mu, n_rx),
            "cycle_p_tx": (float(p_tx_cycle.min()), float(p_tx_cycle.max())),
        }
        loads.turns(0, (itr_max - taken) % period, dx)

    p_tx, p = loads.half_v2 / loads.denom, loads.powers(loads.denom)
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
    with _csvfmt.csv_file(path, "trace") as handle:
        _write_trace_csv(run, handle)


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
    step = max(1, _csvfmt._BLOCK_VALUES // ((3 * n_rx + 4) * n_rx)) * n_rx
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
        encode.write(handle, rows)
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
    reps = max(1, _csvfmt._BLOCK_VALUES // (cycle.shape[1] * period))
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
