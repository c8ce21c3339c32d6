"""Independent reference for the centralized solver's KKT certificate.

The conductance-space program is rebuilt as a normalized QCQP and its
multipliers are fitted by nonnegative least squares (``scipy.optimize.nnls``)
over the near-active constraints, so the closed-form certificate in
``mrcwpt.central`` can be checked against a fit that shares none of its
algebra.
"""

import numpy as np


class Qcqp:
    """Normalized data for: min c.g over a box, s.t. convex quadratics <= 0.

    Raw constraint for an active receiver n (index into the connected set):
        half_v2 * B_n * (r_n g_n^2 - g_n) + preq_n * (r_tx + B.g)^2 <= 0
    with B_k = w^2 h_k^2. Each constraint is divided by its own magnitude
    scale so the certificate's tolerances are dimensionless.
    """

    def __init__(self, b_coef, r, g_lo, g_hi, preq, half_v2, r_tx):
        self.b = b_coef
        self.r = r
        self.g_lo = g_lo
        self.g_hi = g_hi
        self.half_v2 = half_v2
        self.r_tx = r_tx
        self.active = np.nonzero(preq > 0.0)[0]
        self.preq = preq
        d_max = r_tx + float(self.b @ g_hi)
        self.scale = np.array(
            [
                max(half_v2 * self.b[n] * g_hi[n] + preq[n] * d_max**2, 1e-30)
                for n in self.active
            ]
        )
        b_max = float(self.b.max()) if self.b.size else 0.0
        self.c = -self.b / b_max if b_max > 0.0 else np.zeros_like(self.b)

    def quad_values(self, g):
        d = self.r_tx + float(self.b @ g)
        vals = np.empty(len(self.active))
        for i, n in enumerate(self.active):
            raw = (
                self.half_v2 * self.b[n] * (self.r[n] * g[n] ** 2 - g[n])
                + self.preq[n] * d * d
            )
            vals[i] = raw / self.scale[i]
        return vals

    def quad_grad(self, g, i):
        n = self.active[i]
        d = self.r_tx + float(self.b @ g)
        grad = 2.0 * self.preq[n] * d * self.b
        grad[n] += self.half_v2 * self.b[n] * (2.0 * self.r[n] * g[n] - 1.0)
        return grad / self.scale[i]


def kkt_residual(q: Qcqp, g) -> float:
    """Stationarity plus complementarity residual of a primal point.

    Multipliers are fitted by nonnegative least squares over the
    near-active constraints, which measures the point itself, independent
    of how the solver found it. The dual can be
    non-unique near degeneracy, so columns whose complementarity product
    dominates are dropped greedily as long as stationarity survives,
    selecting a minimal-support certificate.
    """
    from scipy.optimize import nnls

    m = len(g)
    width = q.g_hi - q.g_lo
    columns = []
    slacks = []
    for k in range(m):  # box gradients: +e_k at the top, -e_k at the bottom
        hi_slack = (q.g_hi[k] - g[k]) / width[k]
        lo_slack = (g[k] - q.g_lo[k]) / width[k]
        if hi_slack <= 1e-4:
            col = np.zeros(m)
            col[k] = 1.0
            columns.append(col)
            slacks.append(hi_slack)
        if lo_slack <= 1e-4:
            col = np.zeros(m)
            col[k] = -1.0
            columns.append(col)
            slacks.append(lo_slack)
    if len(q.active):
        vals = q.quad_values(g)
        for i in range(len(q.active)):
            if -vals[i] <= 1e-4:
                columns.append(q.quad_grad(g, i))
                slacks.append(-vals[i])
    scale = max(1.0, float(np.linalg.norm(q.c, ord=np.inf)))
    if not columns:
        return float(np.linalg.norm(q.c, ord=np.inf)) / scale

    def fit(indices):
        jac = np.column_stack([columns[j] for j in indices])
        lam, _ = nnls(jac, -q.c)
        stationarity = float(np.linalg.norm(q.c + jac @ lam, ord=np.inf)) / scale
        products = [lam[i] * slacks[j] for i, j in enumerate(indices)]
        return lam, stationarity, max(products, default=0.0), products

    indices = list(range(len(columns)))
    lam, stationarity, complementarity, products = fit(indices)
    floor = max(10.0 * stationarity, 1e-13)
    while len(indices) > 1 and complementarity > floor:
        worst = max(range(len(indices)), key=lambda i: products[i])
        trial = indices[:worst] + indices[worst + 1:]
        lam2, stat2, comp2, prod2 = fit(trial)
        if stat2 > floor or comp2 >= complementarity:
            break
        indices, lam, stationarity, complementarity, products = (
            trial, lam2, stat2, comp2, prod2
        )
    return max(stationarity, complementarity)


def reference_residual(prob, x) -> float:
    """The fitted residual of the loads ``x`` for a ``ChargingProblem``."""
    sys, conn = prob.sys, list(prob.switch.connected)
    r = np.array([sys.receivers[k].resistance for k in conn])
    b_coef = np.array([(sys.w * sys.h[k]) ** 2 for k in conn])
    g_lo = 1.0 / (r + np.array([sys.x_hi[k] for k in conn]))
    g_hi = 1.0 / (r + np.array([sys.x_lo[k] for k in conn]))
    preq = np.array([max(prob.requirements[k], 0.0) for k in conn])
    q = Qcqp(b_coef, r, g_lo, g_hi, preq, 0.5 * abs(sys.v_tx) ** 2, sys.transmitter.resistance)
    return kkt_residual(q, 1.0 / (r + np.array([x[k] for k in conn])))
