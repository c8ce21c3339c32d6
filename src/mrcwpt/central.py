"""Centralized charging control.

Minimizes the transmitter drawn power subject to a minimum delivered power
per load. With branch conductances g = 1/(r + x) and B = w^2 h^2 the drawn
power is |v|^2 / (2 D) with D = r_tx + sum B g, so the optimum maximizes the
scalar D. At a fixed D each requirement holds on one conductance interval
[a_n(D), b_n(D)], which closes at a closed-form cap. The optimal D is the
least cap, or the root of the decreasing psi(D) = r_tx + sum B b(D) - D, or
else the largest root of the convex phi(D) = r_tx + sum B a(D) - D: each a
1-D bracketed root (quasi-convex bisection, Boyd & Vandenberghe, sec. 4.2.5).
Where the optimum is a face, every receiver takes the same fraction t of its
interval, g = a + t (b - a), a choice independent of the receiver order. A
KKT residual fitted at the returned point certifies it; a brute-force grid
oracle bounds the optimality gap in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .circuit import SwitchState, SystemConfig, resonant_powers, solve_closed_form
from .errors import NumericalError, ValidationError


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class ChargingProblem:
    """A minimum-power charging instance.

    ``p_req_eff`` overrides the system's per-load requirements; entries
    that are zero or negative mean "no requirement for this load" and are
    dropped before solving (needed when requirements are residuals left
    over from other time slots). ``sw`` defaults to all switches closed.
    """

    sys: SystemConfig
    sw: SwitchState | None = None
    p_req_eff: tuple[float, ...] | None = None

    def __post_init__(self):
        n = self.sys.n_receivers
        if self.sw is not None and len(self.sw.s) != n:
            raise ValidationError("switch state length does not match receiver count")
        if self.p_req_eff is not None and len(self.p_req_eff) != n:
            raise ValidationError("p_req_eff must have one entry per receiver")
        for k in range(n):
            if not self.sys.x_lo[k] < self.sys.x_hi[k]:
                raise ValidationError(
                    f"receiver {k + 1}: optimization needs x_lo < x_hi"
                )

    @property
    def switch(self) -> SwitchState:
        return self.sw if self.sw is not None else SwitchState.all_closed(self.sys.n_receivers)

    @property
    def requirements(self) -> tuple[float, ...]:
        return self.p_req_eff if self.p_req_eff is not None else self.sys.p_req


@dataclass(frozen=True)
class CentralSolution:
    """Result of a centralized solve.

    For INFEASIBLE results the numeric fields are empty/NaN. For OPTIMAL
    results ``x`` holds one load value per receiver; entries for receivers
    whose switch is open are filled with the upper bound and carry no
    meaning.
    """

    x: tuple[float, ...]
    p_tx: float
    p: tuple[float, ...]
    status: SolveStatus
    kkt_residual: float


class _Qcqp:
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


def _kkt_residual(q: _Qcqp, g) -> float:
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


def _infeasible() -> CentralSolution:
    return CentralSolution(
        x=(), p_tx=float("nan"), p=(), status=SolveStatus.INFEASIBLE,
        kkt_residual=float("nan"),
    )


def _max_coupling(b_coef, r, g_lo, g_hi, c, r_tx):
    """Conductances at the largest attainable D, or None if there is none.

    ``c`` is each requirement over |v|^2 B / 2 (zero where there is none),
    so receiver n needs g_n - r_n g_n^2 >= c_n D^2: the roots of that
    quadratic, clipped to the box, bound its interval [a_n(D), b_n(D)].
    """
    from scipy.optimize import brentq

    def intervals(d):  # [a, b] per receiver, and the discriminant's root s
        k = c * d * d  # the lower root is written cancellation-free
        s = np.sqrt(np.maximum(1.0 - 4.0 * r * k, 0.0))
        a = np.maximum(g_lo, 2.0 * k / (1.0 + s))
        return a, np.minimum(g_hi, (1.0 + s) / (2.0 * r)), s

    def psi(d):
        return r_tx + float(b_coef @ intervals(d)[1]) - d

    def phi(d):
        return r_tx + float(b_coef @ intervals(d)[0]) - d

    def phi_slope(d):  # da/dD = 2 c D / s where a is the lower root, else 0
        a, _, s = intervals(d)
        slope = np.divide(2.0 * c * d, s, out=np.full_like(s, np.inf), where=s > 0.0)
        return float(b_coef[a > g_lo] @ slope[a > g_lo]) - 1.0

    def root(f, lo, hi):
        return brentq(f, lo, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)

    # each interval closes where g - r g^2 peaks over the box
    g_peak = np.clip(1.0 / (2.0 * r), g_lo, g_hi)
    caps = np.divide(g_peak * (1.0 - r * g_peak), c, out=np.full_like(c, np.inf),
                     where=c > 0.0)
    d_lo = r_tx + float(b_coef @ g_lo)
    d_top = min(r_tx + float(b_coef @ g_hi), float(np.sqrt(caps.min())))
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
    spread = float(b_coef @ (b - a))
    t = (d_top - r_tx - float(b_coef @ a)) / spread if spread > 0.0 else 0.0
    return np.clip(a + min(max(t, 0.0), 1.0) * (b - a), g_lo, g_hi)


def solve_convex(prob: ChargingProblem) -> CentralSolution:
    """Solve the conductance-space program for one switch configuration.

    Requirements that are zero or negative are dropped. Returns an
    INFEASIBLE solution (not an exception) when no load vector can meet
    the remaining requirements. See the module docstring for the method.
    """
    sys = prob.sys
    sw = prob.switch
    conn = list(sw.connected)
    reqs = prob.requirements

    r = np.array([sys.receivers[k].resistance for k in conn])
    b_coef = np.array([(sys.w * sys.h[k]) ** 2 for k in conn])
    g_lo = 1.0 / (r + np.array([sys.x_hi[k] for k in conn]))
    g_hi = 1.0 / (r + np.array([sys.x_lo[k] for k in conn]))
    preq = np.array([max(reqs[k], 0.0) for k in conn])
    half_v2 = 0.5 * abs(sys.v_tx) ** 2
    r_tx = sys.transmitter.resistance

    # a requirement on a receiver with zero coupling can never be met
    if np.any((preq > 0.0) & (b_coef == 0.0)):
        return _infeasible()

    c = np.divide(preq, half_v2 * b_coef, out=np.zeros_like(preq), where=preq > 0.0)
    g_opt = _max_coupling(b_coef, r, g_lo, g_hi, c, r_tx)
    if g_opt is None:
        return _infeasible()
    kkt = _kkt_residual(_Qcqp(b_coef, r, g_lo, g_hi, preq, half_v2, r_tx), g_opt)

    x_opt = [float(v) for v in sys.x_hi]
    for j, k in enumerate(conn):
        x_opt[k] = float(1.0 / g_opt[j] - r[j])
        x_opt[k] = min(max(x_opt[k], sys.x_lo[k]), sys.x_hi[k])

    state = solve_closed_form(sys, sw, x_opt)
    for k in conn:
        if reqs[k] > 0.0 and state.p[k] < reqs[k] - 1e-6 * max(reqs[k], 1.0):
            raise NumericalError(
                f"receiver {k + 1}: optimizer returned an infeasible point"
            )
    return CentralSolution(
        x=tuple(x_opt),
        p_tx=state.p_tx,
        p=state.p,
        status=SolveStatus.OPTIMAL,
        kkt_residual=kkt,
    )


def optimize_loads(prob: ChargingProblem) -> CentralSolution:
    """Minimum-transmitter-power load resistances for one configuration."""
    return solve_convex(prob)


@dataclass(frozen=True)
class OracleResult:
    """Best feasible grid point found by exhaustive search."""

    x: tuple[float, ...] | None
    p_tx: float | None
    feasible: bool


def brute_force_oracle(prob: ChargingProblem, grid_resolution: int) -> OracleResult:
    """Exhaustive log-grid search over the load box (test oracle).

    Only supports up to three connected receivers; the cost grows
    geometrically with the dimension.
    """
    sys = prob.sys
    sw = prob.switch
    conn = list(sw.connected)
    if len(conn) > 3:
        raise ValidationError("the exhaustive oracle supports at most 3 connected receivers")
    if grid_resolution < 2:
        raise ValidationError("grid_resolution must be at least 2")
    reqs = prob.requirements

    axes = [
        np.geomspace(sys.x_lo[k], sys.x_hi[k], grid_resolution) for k in conn
    ]
    x = list(sys.x_hi)
    for k, axis in zip(conn, np.meshgrid(*axes, indexing="ij", sparse=True)):
        x[k] = axis
    p_tx, p, _ = resonant_powers(sys, x, sw.s)

    feasible = np.ones(p_tx.shape, dtype=bool)
    for k in conn:
        if reqs[k] <= 0.0:
            continue
        feasible &= p[k] >= reqs[k] * (1.0 - 1e-12)

    if not feasible.any():
        return OracleResult(x=None, p_tx=None, feasible=False)
    masked = np.where(feasible, p_tx, np.inf)
    flat = int(np.argmin(masked))
    idx = np.unravel_index(flat, masked.shape)
    x_best = [float(v) for v in sys.x_hi]
    for j, k in enumerate(conn):
        x_best[k] = float(axes[j][idx[j]])
    return OracleResult(x=tuple(x_best), p_tx=float(masked[idx]), feasible=True)
