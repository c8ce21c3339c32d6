"""Steady-state behaviour of one transmitter coil driving N coupled receivers.

Closed-form currents and powers at resonance, a full mesh-equation solver
that also covers off-resonance operation, the operating frequency that
maximizes delivered power, analytic sensitivities of every power quantity
with respect to a single load resistance, and the load values where
delivered power, sum power, and efficiency peak.

Conventions: phasor amplitudes (not RMS), so average power carries a 1/2
factor. Receivers are indexed 0..N-1. Sums run over connected receivers
only; an open switch removes its receiver from the circuit entirely.

Switch states are listed by :func:`enumerate_configs`, in the one order
that the time-sharing slots and the time-shared power region share.

The resonant power formula is evaluated in one function,
:func:`resonant_powers`, which serves the closed-form steady state, the
derivatives, the time-sharing slots, the load grids of :func:`grid_slabs`
(shared by the power regions and the grid oracle), the centralized
solver's final powers, the CLI's load sweeps and the distributed run's
once-per-run final-state slack. Two copies are kept on purpose:
:func:`solve_linear_oracle` solves the full mesh equations as the
independent cross-check, and ``distributed._Loads`` keeps a plain-float
copy with cached per-receiver terms for the per-turn path alone, the
probes of every simulated turn; ``distributed._rebuild_rows`` evaluates
that copy's expressions over arrays to form a traced run's rows from its
turn log, one block of whole rounds at a time, and the p_tx range of a
repeating run's cycle from one period replayed with a turn log.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from ._sums import left_sum
from .coils import CoilElectrical, _resonates, tune_capacitor
from .errors import NoFiniteMaximizerError, NumericalError, ValidationError


@dataclass(frozen=True)
class SystemConfig:
    """One transmitter plus N receivers with their coupling and load limits.

    ``h[n]`` is the signed mutual inductance between the transmitter coil
    and receiver n; receiver-to-receiver coupling is neglected. ``w`` is
    the resonant angular frequency: every tuning capacitor, when present,
    must resonate its coil at ``w``.
    """

    v_tx: complex
    w: float
    transmitter: CoilElectrical
    receivers: tuple[CoilElectrical, ...]
    h: tuple[float, ...]
    x_lo: tuple[float, ...]
    x_hi: tuple[float, ...]
    p_req: tuple[float, ...]

    def __post_init__(self):
        n = len(self.receivers)
        if n < 1:
            raise ValidationError("at least one receiver is required")
        for name, field in (("h", self.h), ("x_lo", self.x_lo),
                            ("x_hi", self.x_hi), ("p_req", self.p_req)):
            if len(field) != n:
                raise ValidationError(f"{name} must have one entry per receiver")
            if not all(math.isfinite(v) for v in field):
                raise ValidationError(f"{name} must be finite")
        if not cmath.isfinite(self.v_tx):
            raise ValidationError("v_tx must be finite")
        if not math.isfinite(self.w):
            raise ValidationError("w must be finite")
        if not self.w > 0.0:
            raise ValidationError("w must be > 0")
        l_tx = self.transmitter.self_inductance
        for k in range(n):
            if abs(self.h[k]) > math.sqrt(self.receivers[k].self_inductance * l_tx):
                raise ValidationError(f"receiver {k + 1}: |h| exceeds sqrt(l_n*l_tx)")
            if not 0.0 < self.x_lo[k] <= self.x_hi[k]:
                raise ValidationError(f"receiver {k + 1}: bounds must satisfy 0 < x_lo <= x_hi")
            if not self.p_req[k] > 0.0:
                raise ValidationError(f"receiver {k + 1}: p_req must be > 0")
        for label, coil in (("transmitter", self.transmitter),
                            *((f"receiver {k + 1}", c) for k, c in enumerate(self.receivers))):
            c = coil.tuning_capacitance
            if c is not None and not _resonates(coil.self_inductance, c, self.w):
                raise ValidationError(f"{label}: capacitor not tuned to w")

    @property
    def n_receivers(self) -> int:
        return len(self.receivers)

    def tuned(self) -> "SystemConfig":
        """Return a copy with every tuning capacitor sized for resonance at w."""
        return replace(
            self,
            transmitter=self.transmitter.tuned(self.w),
            receivers=tuple(c.tuned(self.w) for c in self.receivers),
        )

    def with_frequency(self, w: float) -> "SystemConfig":
        """Return a copy operating (and resonant) at a different frequency.

        Capacitors that were set are re-tuned, mirroring hardware where the
        compensators track the operating frequency.
        """
        tx = self.transmitter
        rx = self.receivers
        if tx.tuning_capacitance is not None:
            tx = tx.tuned(w)
        rx = tuple(c.tuned(w) if c.tuning_capacitance is not None else c for c in rx)
        return replace(self, w=w, transmitter=tx, receivers=rx)

    def retunes_at(self, w: np.ndarray) -> np.ndarray:
        """Mask of the frequencies ``w`` at which :meth:`with_frequency`
        surely succeeds (it may also succeed elsewhere).

        There w and, for every coil with a capacitor, l w^2 lie far inside
        the normal float range (and then so does l w, as l is a float), so
        each re-tuned capacitor is finite and > 0 and resonates its coil at
        w to a few ulps, well inside the 1e-12 that validation allows.
        Nothing else the validation reads depends on w.
        """
        ok = (w > 1e-100) & (w < 1e100)
        with np.errstate(over="ignore", under="ignore"):
            for coil in (self.transmitter, *self.receivers):
                if coil.tuning_capacitance is not None:
                    lw2 = coil.self_inductance * w * w
                    ok &= (lw2 > 1e-250) & (lw2 < 1e250)
        return ok


@dataclass(frozen=True)
class SwitchState:
    """Connection state of every receiver's load switch (1 closed, 0 open).

    The all-open state is excluded: with no load connected there is nothing
    to analyse or optimize.
    """

    s: tuple[int, ...]

    def __post_init__(self):
        if len(self.s) < 1:
            raise ValidationError("switch state must cover at least one receiver")
        if any(v not in (0, 1) for v in self.s):
            raise ValidationError("switch entries must be 0 or 1")
        if not any(self.s):
            raise ValidationError("at least one switch must be closed")

    @classmethod
    def all_closed(cls, n: int) -> "SwitchState":
        return cls(s=(1,) * n)

    @classmethod
    def from_mask(cls, mask: str) -> "SwitchState":
        if not mask or any(ch not in "01" for ch in mask):
            raise ValidationError("switch mask must be a nonempty string of 0s and 1s")
        return cls(s=tuple(int(ch) for ch in mask))

    @property
    def connected(self) -> tuple[int, ...]:
        return tuple(k for k, v in enumerate(self.s) if v)

    def mask(self) -> str:
        return "".join(str(v) for v in self.s)


_MAX_CONFIG_RECEIVERS = 16


def enumerate_configs(n: int) -> tuple[SwitchState, ...]:
    """Every nonzero switch state for n receivers (2**n - 1 of them).

    The all-closed state comes first; the rest follow in order of
    decreasing closed-switch count, ties broken by the binary value of the
    switch vector (first receiver most significant), descending.
    """
    if not 1 <= n <= _MAX_CONFIG_RECEIVERS:
        raise ValidationError(
            f"receiver count must be between 1 and {_MAX_CONFIG_RECEIVERS}"
        )
    states = [tuple((bits >> (n - 1 - k)) & 1 for k in range(n)) for bits in range(1, 2**n)]
    states.sort(key=lambda s: (-sum(s), -int("".join(map(str, s)), 2)))
    return tuple(SwitchState(s=s) for s in states)


@dataclass(frozen=True)
class SteadyState:
    """Currents and powers for one switch configuration and load vector."""

    i_tx: complex
    i: tuple[complex, ...]
    p_tx: float
    p: tuple[float, ...]
    p_sum: float
    rho: float


def _checked_switch(sys: SystemConfig, sw: SwitchState | None, x, n=None) -> SwitchState:
    """The switch state (all closed for None), checked against the loads and n."""
    if sw is None:
        sw = SwitchState.all_closed(sys.n_receivers)
    if len(sw.s) != sys.n_receivers:
        raise ValidationError("switch state length does not match receiver count")
    if len(x) != sys.n_receivers:
        raise ValidationError("load vector must have one entry per receiver")
    for k in range(sys.n_receivers):
        # an open receiver's load still enters the closed form as 0 * B / (r + x)
        if not math.isfinite(x[k]):
            raise ValidationError(f"receiver {k + 1}: load resistance must be finite")
        if sw.s[k] and not x[k] > 0.0:
            raise ValidationError(f"receiver {k + 1}: load resistance must be > 0")
    if n is not None:
        if n not in range(sys.n_receivers):
            raise ValidationError(f"receiver index {n} is not in 0..{sys.n_receivers - 1}")
        if not sw.s[n]:
            raise ValidationError(f"receiver {n + 1} is not connected")
    return sw


def resonant_powers(sys: SystemConfig, x, s, b=None):
    """Returns (p_tx, [p_1, ..., p_N], D) at resonance; inputs are not validated.

    With B_k = (w h_k)^2 and D = r_tx + sum_k s_k B_k / (r_k + x_k):
    p_tx = |v|^2 / (2 D) and p_n = s_n |v|^2 B_n x_n / (2 (r_n + x_n)^2 D^2).
    ``x`` and ``s`` hold one load and one 0/1 switch factor per receiver,
    as floats or as numpy arrays that broadcast (a batch of slots, the
    sparse axes of a load grid). An open receiver adds 0 * B / (r + x) to
    D, so its load must still be finite with r + x nonzero.

    ``b`` gives each B_k in place of the one at ``sys.w``: a frequency sweep
    passes arrays of them, one per frequency, since the resonant closed form
    reads no capacitance and takes w only through B_k.
    """
    half_v2 = 0.5 * abs(sys.v_tx) ** 2
    if b is None:
        b = [(sys.w * h) ** 2 for h in sys.h]
    series = [coil.resistance + xk for coil, xk in zip(sys.receivers, x)]
    denom = sys.transmitter.resistance
    for k in range(sys.n_receivers):
        denom = denom + s[k] * (b[k] / series[k])
    d2 = denom * denom
    p = [
        s[k] * half_v2 * b[k] * x[k] / (series[k] * series[k] * d2)
        for k in range(sys.n_receivers)
    ]
    return half_v2 / denom, p, denom


# most grid points one kernel call evaluates, unless one row along the first
# load axis holds more: it bounds the kernel's temporaries whatever the grid
_GRID_SLAB_POINTS = 2**14


def grid_slabs(sys: SystemConfig, sw: SwitchState, grid_points: int):
    """Returns (axes, slabs) for a log grid of the load box: ``grid_points``
    loads from x_lo to x_hi per connected receiver, every open receiver at
    its x_hi with zero power.

    ``slabs`` yields (span, p_tx, [p_1, ..., p_N]) for consecutive rows of
    the first load axis, in grid order: ``span`` is the slice of flat (C
    order) grid indices the slab covers, and each array has the shape
    ``(rows, grid_points, ...)`` over the k axes, at most
    ``max(_GRID_SLAB_POINTS, grid_points**(k - 1))`` points. Every power is
    bit for bit the one of a single call over the whole grid. A power that
    is not finite raises NumericalError, from the slab it first shows in.
    """
    conn = sw.connected
    axes = [np.geomspace(sys.x_lo[k], sys.x_hi[k], grid_points) for k in conn]
    return axes, _slabs(sys, sw, axes)


def _slabs(sys: SystemConfig, sw: SwitchState, axes):
    conn = sw.connected
    grid_points = len(axes[0])
    row = grid_points ** (len(conn) - 1)  # grid points per row of the first axis
    step = max(_GRID_SLAB_POINTS // row, 1)
    x = list(sys.x_hi)
    sparse = np.meshgrid(*axes, indexing="ij", sparse=True)
    for k, axis in zip(conn[1:], sparse[1:]):
        x[k] = axis
    for start in range(0, grid_points, step):
        stop = min(start + step, grid_points)
        x[conn[0]] = sparse[0][start:stop]
        # an overflow shows as a power that is not finite, reported below
        with np.errstate(over="ignore", invalid="ignore"):
            p_tx, p, _ = resonant_powers(sys, x, sw.s)
        for pk in p:
            if not np.isfinite(pk).all():
                raise NumericalError("the powers on the load grid overflow")
        yield slice(start * row, stop * row), p_tx, p


def solo_peak_loads(sys: SystemConfig) -> list[float]:
    """Each load at its solo power peak (r_n r_tx + B_n) / r_tx, clamped to its
    bounds: the maximizer of p_n with every other receiver disconnected."""
    r_tx = sys.transmitter.resistance
    return [
        min(max((coil.resistance * r_tx + (sys.w * h) ** 2) / r_tx, lo), hi)
        for coil, h, lo, hi in zip(sys.receivers, sys.h, sys.x_lo, sys.x_hi)
    ]


def solve_closed_form(sys: SystemConfig, sw: SwitchState | None, x) -> SteadyState:
    """Exact steady state at resonance.

    With every coil tuned to ``w`` the mesh equations collapse to real
    arithmetic: the transmitter current is the source voltage divided by
    the transmitter resistance plus the total reflected resistance of the
    connected receivers, and each receiver current is a purely reactive
    multiple of it.
    """
    sw = _checked_switch(sys, sw, x)
    p_tx, powers, denom = resonant_powers(sys, x, sw.s)
    i_tx = sys.v_tx / denom
    currents = tuple(
        1j * sys.w * sys.h[k] * i_tx / (sys.receivers[k].resistance + x[k])
        if sw.s[k] else 0j
        for k in range(sys.n_receivers)
    )
    p_sum = left_sum(powers)
    # every power is >= 0, so a finite sum means every power is finite
    if not (math.isfinite(p_tx) and math.isfinite(p_sum)):
        raise NumericalError("the steady-state powers overflow at these loads")
    if p_tx == 0.0:
        raise NumericalError("the transmitter power underflows to 0 at these loads")
    return SteadyState(
        i_tx=i_tx,
        i=currents,
        p_tx=p_tx,
        p=tuple(powers),
        p_sum=p_sum,
        rho=p_sum / p_tx,
    )


def _capacitance(coil: CoilElectrical, w_resonant: float) -> float:
    if coil.tuning_capacitance is not None:
        return coil.tuning_capacitance
    return tune_capacitor(coil.self_inductance, w_resonant)


def _mesh_solve(sys: SystemConfig, connected, x, w_eval: float):
    """Solve the full complex mesh equations at an arbitrary frequency.

    Capacitors are fixed at their resonant values for ``sys.w``; ``w_eval``
    may differ, in which case the series reactances no longer cancel.
    Returns (i_tx, currents dict by receiver index).
    """
    if not w_eval > 0.0:
        raise ValidationError("w_eval must be > 0")
    tx = sys.transmitter
    m = len(connected)
    a = np.zeros((m + 1, m + 1), dtype=complex)
    b = np.zeros(m + 1, dtype=complex)
    c_tx = _capacitance(tx, sys.w)
    a[0, 0] = tx.resistance + 1j * (w_eval * tx.self_inductance - 1.0 / (w_eval * c_tx))
    b[0] = sys.v_tx
    for j, k in enumerate(connected, start=1):
        coil = sys.receivers[k]
        c_k = _capacitance(coil, sys.w)
        a[0, j] = -1j * w_eval * sys.h[k]
        a[j, 0] = -1j * w_eval * sys.h[k]
        a[j, j] = coil.resistance + x[k] + 1j * (
            w_eval * coil.self_inductance - 1.0 / (w_eval * c_k)
        )
    try:
        currents = np.linalg.solve(a, b)
        # one step of iterative refinement sharpens the small components
        currents = currents + np.linalg.solve(a, b - a @ currents)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"mesh system could not be solved: {exc}") from exc
    residual = np.linalg.norm(a @ currents - b)
    if residual > 1e-10 * max(np.linalg.norm(b), 1e-300):
        raise NumericalError(f"mesh solution residual too large: {residual:.3e}")
    return currents[0], {k: currents[j] for j, k in enumerate(connected, start=1)}


def solve_linear_oracle(
    sys: SystemConfig, sw: SwitchState | None, x, w_eval: float | None = None
) -> SteadyState:
    """Steady state from the full Kirchhoff mesh equations.

    Independent of :func:`solve_closed_form`: the complete complex linear
    system is assembled and solved, including the reactance terms, so this
    path also covers operation away from the resonant frequency.
    """
    sw = _checked_switch(sys, sw, x)
    if w_eval is None:
        w_eval = sys.w
    i_tx, by_index = _mesh_solve(sys, sw.connected, x, w_eval)
    currents = []
    powers = []
    for k in range(sys.n_receivers):
        if sw.s[k]:
            i_k = by_index[k]
            currents.append(i_k)
            powers.append(0.5 * x[k] * abs(i_k) ** 2)
        else:
            currents.append(0j)
            powers.append(0.0)
    p_tx = 0.5 * (sys.v_tx * np.conj(i_tx)).real
    p_sum = float(left_sum(powers))
    return SteadyState(
        i_tx=complex(i_tx),
        i=tuple(complex(c) for c in currents),
        p_tx=float(p_tx),
        p=tuple(float(p) for p in powers),
        p_sum=p_sum,
        rho=p_sum / p_tx,
    )


def optimal_frequency(sys: SystemConfig, sw: SwitchState | None, x) -> float:
    """Operating frequency that maximizes every delivered power at once.

    Each receiver-current magnitude is unimodal in the (tracked-resonance)
    operating frequency, and all receivers peak at the same point: the
    frequency where the total reflected resistance equals the transmitter
    resistance.
    """
    sw = _checked_switch(sys, sw, x)
    coupling = 0.0
    for k in sw.connected:
        coupling += sys.h[k] ** 2 / (sys.receivers[k].resistance + x[k])
    if coupling == 0.0:
        raise NoFiniteMaximizerError("all connected receivers have zero coupling")
    return math.sqrt(sys.transmitter.resistance / coupling)


@dataclass(frozen=True)
class PowerDerivatives:
    """Sensitivities of the power quantities to one load resistance.

    ``d_p[m]`` is the derivative of load m's power (including m == n);
    entries for disconnected receivers are zero.
    """

    d_ptx: float
    d_p: tuple[float, ...]
    d_rho: float


def _coupling_sums(sys: SystemConfig, sw: SwitchState, x, n: int):
    """Reflected resistance of the other receivers, total and delivered parts."""
    w2 = sys.w**2
    reflected = 0.0
    delivered = 0.0
    for k in sw.connected:
        if k == n:
            continue
        series = sys.receivers[k].resistance + x[k]
        wh2 = w2 * sys.h[k] ** 2
        reflected += wh2 / series
        delivered += wh2 * x[k] / series**2
    return reflected, delivered


def analytic_derivatives(
    sys: SystemConfig, sw: SwitchState | None, x, n: int
) -> PowerDerivatives:
    """Closed-form derivatives of p_tx, every p_m, and rho w.r.t. x[n]."""
    sw = _checked_switch(sys, sw, x, n)

    w2 = sys.w**2
    half_v2 = 0.5 * abs(sys.v_tx) ** 2
    r_tx = sys.transmitter.resistance
    r_n = sys.receivers[n].resistance
    wh2_n = w2 * sys.h[n] ** 2
    series_n = r_n + x[n]

    _, _, denom = resonant_powers(sys, x, sw.s)
    d_ptx = half_v2 * wh2_n / (series_n**2 * denom**2)

    reflected, delivered = _coupling_sums(sys, sw, x, n)
    d_p = [0.0] * sys.n_receivers
    for m in sw.connected:
        if m == n:
            continue
        r_m = sys.receivers[m].resistance
        wh2_m = w2 * sys.h[m] ** 2
        series_m = r_m + x[m]
        d_p[m] = (
            half_v2 * 2.0 * wh2_m * wh2_n * x[m]
            / (series_m**2 * series_n**2 * denom**3)
        )
    d_p[n] = (
        half_v2 * wh2_n / (series_n**3 * denom**3)
        * (wh2_n + (r_tx + reflected) * (r_n - x[n]))
    )

    # The efficiency is dimensionless: its derivative carries no source
    # voltage factor, in contrast to the power derivatives above.
    bracket = (
        2.0 * r_n * delivered * x[n]
        + r_n * wh2_n
        + x[n] ** 2 * (delivered - reflected - r_tx)
        + r_n**2 * (delivered + reflected + r_tx)
    )
    d_rho = w2 * sys.h[n] ** 2 / (series_n**4 * denom**2) * bracket

    return PowerDerivatives(d_ptx=d_ptx, d_p=tuple(d_p), d_rho=d_rho)


@dataclass(frozen=True)
class Thresholds:
    """Load values of receiver n where each power quantity turns over.

    ``x_own_peak`` maximizes the power delivered to load n itself.
    ``x_sum_peak`` maximizes the sum power, unless the sum power is
    monotone increasing in x[n] (then None, ``sum_monotone`` True).
    ``x_eff_peak`` likewise for the transfer efficiency.
    ``reflected_others``/``delivered_others`` are the reflected-resistance
    sums over the other connected receivers that decide the branches.
    """

    x_own_peak: float
    x_sum_peak: float | None
    x_eff_peak: float | None
    reflected_others: float
    delivered_others: float
    sum_monotone: bool
    eff_monotone: bool


def thresholds(sys: SystemConfig, sw: SwitchState | None, x, n: int) -> Thresholds:
    """Turnover points of p_n, p_sum, and rho as x[n] sweeps upward."""
    sw = _checked_switch(sys, sw, x, n)

    r_tx = sys.transmitter.resistance
    r_n = sys.receivers[n].resistance
    wh2_n = (sys.w * sys.h[n]) ** 2
    reflected, delivered = _coupling_sums(sys, sw, x, n)

    base = r_tx + reflected
    x_own_peak = (r_n * base + wh2_n) / base

    sum_divisor = base - 2.0 * delivered
    sum_monotone = sum_divisor <= 0.0
    if sum_monotone:
        x_sum_peak = None
    else:
        x_sum_peak = (r_n * base + wh2_n + 2.0 * r_n * delivered) / sum_divisor

    eff_leading = delivered - reflected - r_tx
    eff_monotone = eff_leading >= 0.0
    if eff_monotone:
        x_eff_peak = None
    else:
        gamma = eff_leading * (r_n**2 * (r_tx + delivered + reflected) + r_n * wh2_n)
        root = math.sqrt((r_n * delivered) ** 2 - gamma)
        x_eff_peak = (-r_n * delivered - root) / eff_leading

    return Thresholds(
        x_own_peak=x_own_peak,
        x_sum_peak=x_sum_peak,
        x_eff_peak=x_eff_peak,
        reflected_others=reflected,
        delivered_others=delivered,
        sum_monotone=sum_monotone,
        eff_monotone=eff_monotone,
    )
