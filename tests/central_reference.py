"""Array form of the centralized solver's reduction, kept as a bit-for-bit
oracle for ``mrcwpt.central._max_coupling``.

This is the numpy/scipy implementation the solver used before it moved to
plain floats and its own Brent root finder: vectorized interval ends and
roots by ``scipy.optimize.brentq``. Its weighted sums add the products of
the arrays left to right, the solver's order of summation (a BLAS ``@``
would round by the CPU's kernel). The tests require the plain-float solver
to return exactly its conductances.
"""

import numpy as np


def _left_dot(u, v):
    """sum u_k v_k over two arrays, products added left to right."""
    total = 0.0
    for term in (u * v).tolist():
        total += term
    return total


def max_coupling(b_coef, r, g_lo, g_hi, c, r_tx):
    """Conductances at the largest attainable D, or None if there is none.

    Takes numpy arrays (one entry per connected receiver) and returns one.
    """
    from scipy.optimize import brentq

    def intervals(d):  # [a, b] per receiver, and the discriminant's root s
        k = c * d * d  # the lower root is written cancellation-free
        s = np.sqrt(np.maximum(1.0 - 4.0 * r * k, 0.0))
        a = np.maximum(g_lo, 2.0 * k / (1.0 + s))
        return a, np.minimum(g_hi, (1.0 + s) / (2.0 * r)), s

    def psi(d):
        return r_tx + _left_dot(b_coef, intervals(d)[1]) - d

    def phi(d):
        return r_tx + _left_dot(b_coef, intervals(d)[0]) - d

    def phi_slope(d):  # da/dD = 2 c D / s where a is the lower root, else 0
        a, _, s = intervals(d)
        slope = np.divide(2.0 * c * d, s, out=np.full_like(s, np.inf), where=s > 0.0)
        return _left_dot(b_coef[a > g_lo], slope[a > g_lo]) - 1.0

    def root(f, lo, hi):
        return brentq(f, lo, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)

    # each interval closes where g - r g^2 peaks over the box
    g_peak = np.clip(1.0 / (2.0 * r), g_lo, g_hi)
    caps = np.divide(g_peak * (1.0 - r * g_peak), c, out=np.full_like(c, np.inf),
                     where=c > 0.0)
    d_lo = r_tx + _left_dot(b_coef, g_lo)
    d_top = min(r_tx + _left_dot(b_coef, g_hi), float(np.sqrt(caps.min())))
    # even the smallest D is past a cap: some interval is already empty
    if d_top < d_lo or psi(d_lo) < 0.0:
        return None
    if psi(d_top) < 0.0:
        d_top = root(psi, d_lo, d_top)
    if phi(d_top) > 0.0:
        # phi is convex: its largest root lies between its minimizer and d_top
        if phi_slope(d_lo) >= 0.0:
            d_min = d_lo
        elif phi_slope(d_top) <= 0.0:
            return None
        else:
            d_min = root(phi_slope, d_lo, d_top)
        if phi(d_min) > 0.0:
            return None
        d_top = root(phi, d_min, d_top)
    a, b, _ = intervals(d_top)
    spread = _left_dot(b_coef, b - a)
    t = (d_top - r_tx - _left_dot(b_coef, a)) / spread if spread > 0.0 else 0.0
    return np.clip(a + min(max(t, 0.0), 1.0) * (b - a), g_lo, g_hi)


def problem_arrays(prob):
    """The reduction's inputs for a ChargingProblem, as the array solver built
    them: (b_coef, r, g_lo, g_hi, c, r_tx), or None where a requirement sits
    on a receiver with zero coupling."""
    sys = prob.sys
    conn = list(prob.switch.connected)
    reqs = prob.requirements
    r = np.array([sys.receivers[k].resistance for k in conn])
    b_coef = np.array([(sys.w * sys.h[k]) ** 2 for k in conn])
    g_lo = 1.0 / (r + np.array([sys.x_hi[k] for k in conn]))
    g_hi = 1.0 / (r + np.array([sys.x_lo[k] for k in conn]))
    preq = np.array([max(reqs[k], 0.0) for k in conn])
    half_v2 = 0.5 * abs(sys.v_tx) ** 2
    if np.any((preq > 0.0) & (b_coef == 0.0)):
        return None
    c = np.divide(preq, half_v2 * b_coef, out=np.zeros_like(preq), where=preq > 0.0)
    return b_coef, r, g_lo, g_hi, c, sys.transmitter.resistance
