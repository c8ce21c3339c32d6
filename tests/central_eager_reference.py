"""The centralized solve as it was with an eager certificate, kept as the
reference for ``mrcwpt.central.optimize_loads``.

``optimize_loads`` below derives the system's per-receiver constants on
every call and computes the KKT certificate (``central._certificate``)
inside the solve, before it builds the solution, which it constructs from
plain values. The solver defers the certificate to its first read; the
tests require the same ``repr``, ``==`` and certificate bits from both.
"""

import math

from mrcwpt._sums import left_sum
from mrcwpt.central import (
    CentralSolution, SolveStatus, _certificate, _infeasible, _max_coupling,
)
from mrcwpt.circuit import resonant_powers
from mrcwpt.errors import NumericalError


def optimize_loads(prob):
    sys = prob.sys
    sw = prob.switch
    conn = list(sw.connected)
    reqs = prob.requirements

    half_v2 = 0.5 * abs(sys.v_tx) ** 2
    r_tx = sys.transmitter.resistance
    r, b_coef, g_lo, g_hi, preq, c = [], [], [], [], [], []
    for k in conn:
        rk = float(sys.receivers[k].resistance)
        bk = float((sys.w * sys.h[k]) ** 2)
        pk = float(max(reqs[k], 0.0))
        # a requirement on a receiver with zero coupling (or no source) can never be met
        if pk > 0.0 and half_v2 * bk == 0.0:
            return _infeasible()
        r.append(rk)
        b_coef.append(bk)
        g_lo.append(1.0 / (rk + float(sys.x_hi[k])))
        g_hi.append(1.0 / (rk + float(sys.x_lo[k])))
        preq.append(pk)
        c.append(pk / (half_v2 * bk) if pk > 0.0 else 0.0)
    g_opt = _max_coupling(b_coef, r, g_lo, g_hi, c, r_tx)
    if g_opt is None:
        return _infeasible()
    kkt, lam = _certificate(b_coef, r, g_lo, g_hi, preq, half_v2, r_tx, g_opt)

    x_opt = [float(v) for v in sys.x_hi]
    prices = [0.0] * sys.n_receivers
    for j, k in enumerate(conn):
        x_opt[k] = min(max(1.0 / g_opt[j] - r[j], sys.x_lo[k]), sys.x_hi[k])
        prices[k] = half_v2 * lam[j]

    # the loads are finite and in the box: only the powers need checking
    p_tx, p, _ = resonant_powers(sys, x_opt, sw.s)
    if not (math.isfinite(p_tx) and math.isfinite(left_sum(p))):
        raise NumericalError("the steady-state powers overflow at these loads")
    for k in conn:
        if reqs[k] > 0.0 and p[k] < reqs[k] - 1e-6 * max(reqs[k], 1.0):
            raise NumericalError(
                f"receiver {k + 1}: optimizer returned an infeasible point"
            )
    return CentralSolution(
        x=tuple(x_opt),
        p_tx=p_tx,
        p=tuple(p),
        status=SolveStatus.OPTIMAL,
        kkt_residual=kkt,
        shadow_prices=tuple(prices),
    )
