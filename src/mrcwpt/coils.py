"""Circular electromagnetic coil models.

Physical coil descriptions (winding geometry, wire material) and the
electrical parameters derived from them: series resistance, self-inductance,
the series capacitance that tunes a coil to a target angular frequency, and
the far-field (dipole-regime) mutual inductance between two coils.

All units are SI: meters, ohms, henries, farads, radians per second.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

from .errors import (
    DegeneratePlacementError,
    InconsistentMeasurementError,
    ValidationError,
)

MU0 = 4.0 * math.pi * 1e-7  # magnetic permeability of air (N/A^2)

# wire-to-coil radius ratio above which the thin-wire formulas degrade
THIN_WIRE_RATIO = 0.1

# separations below this multiple of the larger coil radius are too close
# for the dipole coupling formula to be trusted
DIPOLE_RANGE_FACTOR = 5.0

# how far (relative) 1/sqrt(l*c) may miss w for a capacitor to count as tuned
TUNING_RTOL = 1e-12


@dataclass(frozen=True)
class CoilGeometry:
    """A circular coil of closely wound round wire.

    ``center`` and ``normal`` place the coil in space; ``normal`` must be a
    unit vector. The wire radius is half the difference of the outer and
    inner winding radii, and must be small against the mean radius for the
    derived-parameter formulas to be valid.
    """

    inner_radius: float
    outer_radius: float
    turns: int
    wire_resistivity: float
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    normal: tuple[float, float, float] = (0.0, 0.0, 1.0)

    def __post_init__(self):
        if not self.inner_radius > 0.0:
            raise ValidationError("inner_radius must be > 0")
        if not self.outer_radius > self.inner_radius:
            raise ValidationError("outer_radius must exceed inner_radius")
        if int(self.turns) != self.turns or self.turns < 1:
            raise ValidationError("turns must be a positive integer")
        if not self.wire_resistivity > 0.0:
            raise ValidationError("wire_resistivity must be > 0")
        if len(self.center) != 3:
            raise ValidationError("center must be a 3-vector")
        if len(self.normal) != 3:
            raise ValidationError("normal must be a 3-vector")
        norm = math.sqrt(sum(c * c for c in self.normal))
        if abs(norm - 1.0) > 1e-12:
            raise ValidationError("normal must have unit length (within 1e-12)")
        if self.wire_radius / self.mean_radius > THIN_WIRE_RATIO:
            warnings.warn(
                "wire radius is not small against the mean coil radius; "
                "derived resistance/inductance lose accuracy",
                stacklevel=2,
            )

    @property
    def mean_radius(self) -> float:
        return 0.5 * (self.outer_radius + self.inner_radius)

    @property
    def wire_radius(self) -> float:
        return 0.5 * (self.outer_radius - self.inner_radius)


@dataclass(frozen=True)
class CoilElectrical:
    """Electrical parameters of one coil.

    ``tuning_capacitance`` is optional until the coil is tuned to an
    operating frequency (see :func:`tune_capacitor`).
    """

    resistance: float
    self_inductance: float
    tuning_capacitance: float | None = None

    def __post_init__(self):
        for name in ("resistance", "self_inductance", "tuning_capacitance"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValidationError(f"{name} must be finite")
        if not self.resistance > 0.0:
            raise ValidationError("resistance must be > 0")
        if not self.self_inductance > 0.0:
            raise ValidationError("self_inductance must be > 0")
        if self.tuning_capacitance is not None and not self.tuning_capacitance > 0.0:
            raise ValidationError("tuning_capacitance must be > 0 when set")

    def tuned(self, w: float) -> "CoilElectrical":
        """Return a copy with the series capacitor sized for resonance at ``w``."""
        return replace(self, tuning_capacitance=tune_capacitor(self.self_inductance, w))


def derive_coil_electrical(geom: CoilGeometry) -> CoilElectrical:
    """Derive series resistance and self-inductance from coil geometry.

    Thin-wire approximations for a closely wound circular coil:
    resistance grows linearly with the turn count and mean radius and
    inversely with the wire cross-section; self-inductance grows with the
    square of the turn count. The tuning capacitance is left unset.
    """
    e_ave = geom.mean_radius
    e_wire = geom.wire_radius
    resistance = 2.0 * geom.wire_resistivity * geom.turns * e_ave / e_wire**2
    log_term = math.log(8.0 * e_ave / e_wire) - 2.0
    if log_term <= 0.0:
        raise ValidationError(
            "wire too thick relative to coil radius: inductance formula invalid"
        )
    inductance = geom.turns**2 * e_ave * MU0 * log_term
    return CoilElectrical(resistance=resistance, self_inductance=inductance)


def tune_capacitor(self_inductance: float, w: float) -> float:
    """Series capacitance that makes the coil's natural frequency equal ``w``.

    The returned value satisfies 1/sqrt(l*c) == w to within ``TUNING_RTOL``,
    so the series reactance w*l - 1/(w*c) vanishes at the operating
    frequency. Where no float capacitance does that, as when l*w**2 is
    subnormal and keeps too few digits, or 1/(l*w**2) overflows, a
    ``ValidationError`` is raised.
    """
    if not self_inductance > 0.0:
        raise ValidationError("self_inductance must be > 0")
    if not w > 0.0:
        raise ValidationError("angular frequency must be > 0")
    lw2 = self_inductance * w * w
    if not 0.0 < lw2 < math.inf:
        raise ValidationError("self_inductance * w**2 is outside the float range")
    c = 1.0 / lw2
    if not _resonates(self_inductance, c, w):
        raise ValidationError("no capacitance tunes self_inductance to w within float precision")
    return c


def _resonates(self_inductance: float, capacitance: float, w: float) -> bool:
    """Whether 1/sqrt(l*c) is w within ``TUNING_RTOL``; False where l*c underflows to 0."""
    lc = self_inductance * capacitance
    return lc > 0.0 and abs(1.0 / math.sqrt(lc) - w) <= TUNING_RTOL * w


def mutual_inductance(coil1: CoilGeometry, coil2: CoilGeometry) -> float:
    """Signed mutual inductance between two coils in the dipole regime.

    ``coil1`` must sit at the origin with its normal along +z; ``coil2`` may
    be placed and oriented freely. Valid when the separation is much larger
    than both mean radii; a warning is issued below
    ``DIPOLE_RANGE_FACTOR`` times the larger radius, and a ``ValidationError``
    raised when the formula's value exceeds sqrt(l1*l2), which no pair of
    coils can couple.
    """
    if any(abs(c) > 0.0 for c in coil1.center):
        raise ValidationError("coil1 must be centered at the origin")
    if abs(coil1.normal[0]) > 1e-12 or abs(coil1.normal[1]) > 1e-12 or coil1.normal[2] < 0.0:
        raise ValidationError("coil1 normal must point along +z")

    xp, yp, zp = coil2.center
    d = math.sqrt(xp * xp + yp * yp + zp * zp)
    if d == 0.0:
        raise DegeneratePlacementError("coil centers coincide")
    e1 = coil1.mean_radius
    e2 = coil2.mean_radius
    if d < DIPOLE_RANGE_FACTOR * max(e1, e2):
        warnings.warn(
            "coil separation is not large against the coil radii; "
            "dipole coupling formula loses accuracy",
            stacklevel=2,
        )

    theta = math.acos(max(-1.0, min(1.0, zp / d)))
    phi = math.atan2(yp, xp)
    nx, ny, nz = coil2.normal
    sin_t = math.sin(theta)
    cos_t = math.cos(theta)
    orientation = (
        3.0 * cos_t * sin_t * math.cos(phi) * nx
        + 3.0 * cos_t * sin_t * math.sin(phi) * ny
        + (2.0 * cos_t * cos_t - sin_t * sin_t) * nz
    )
    h = -math.pi * MU0 * coil1.turns * coil2.turns * e1**2 * e2**2 / (4.0 * d**3) * orientation

    l1 = derive_coil_electrical(coil1).self_inductance
    l2 = derive_coil_electrical(coil2).self_inductance
    if abs(h) > math.sqrt(l1 * l2):
        # the dipole formula overshoots at close range
        raise ValidationError(
            f"derived coupling |h| = {abs(h):.6g} H exceeds sqrt(l1*l2) = "
            f"{math.sqrt(l1 * l2):.6g} H: the coils are too close for the dipole formula"
        )
    return h


def estimate_mutual_inductance(
    p_tx_measured: float,
    v_tx_mag: float,
    r_tx: float,
    r_n: float,
    x_n: float,
    w: float,
    direction_match: bool,
) -> float:
    """Infer one receiver's mutual inductance from a transmitter-side power reading.

    Assumes every other receiver has its load disconnected, so the measured
    source power reflects a single coupled loop. ``direction_match`` selects
    the sign: True when the observed receiver current direction matches the
    one assumed at the transmitter.
    """
    for name, val in (
        ("p_tx_measured", p_tx_measured),
        ("v_tx_mag", v_tx_mag),
        ("r_tx", r_tx),
        ("r_n", r_n),
        ("x_n", x_n),
        ("w", w),
    ):
        if not val > 0.0:
            raise ValidationError(f"{name} must be > 0")
    excess = v_tx_mag * v_tx_mag / (2.0 * p_tx_measured) - r_tx
    if excess < 0.0:
        raise InconsistentMeasurementError(
            "measured power exceeds what the transmitter resistance alone allows"
        )
    magnitude = math.sqrt(excess * (r_n + x_n)) / w
    return magnitude if direction_match else -magnitude
