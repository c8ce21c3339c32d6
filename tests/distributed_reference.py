"""The distributed protocol's turn as it was before turns carried the
circuit's denominator, kept as the reference for ``mrcwpt.distributed``.

``ReferenceLoads.turn`` re-sums the denominator r_tx + term[0] + ... +
term[N - 1] on every turn and sums each probe afresh, left to right from
r_tx. Its float expressions are those of ``mrcwpt.distributed._Loads.turns``,
but it shares no code with that loop, so a plain loop of this turn checks
a run's cases, loads and powers bit for bit.

A turn measures at the loads it starts from. ``measured`` reads that
measurement before a turn, with the plain-float expressions the protocol
used when it formed each row inside the loop, as the reference for the
trace rows that ``mrcwpt.distributed._rebuild_rows`` forms after a run.
"""

import math

from mrcwpt.circuit import SystemConfig
from mrcwpt.distributed import _PROBE_TOL, _REQ_TOL
from mrcwpt.errors import ValidationError


class ReferenceLoads:
    """The loads of one run, their cached denominator terms and the
    system's constants as plain floats; ``turn`` takes one turn on them
    and leaves the denominator it summed in ``denom``."""

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
        self.denom = math.nan

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


def feedback(loads, p):
    """The feedback bits of powers ``p``."""
    return [pk >= lo for pk, lo in zip(p, loads.req_lo)]


def measured(loads):
    """(p_tx, p, fb) at the current loads, as the next turn measures them."""
    denom = loads.denominator()
    p = loads.powers(denom)
    return loads.half_v2 / denom, p, feedback(loads, p)
