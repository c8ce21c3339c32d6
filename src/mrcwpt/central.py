"""Centralized charging control.

Minimizes the transmitter drawn power subject to a minimum delivered power
per load. With branch conductances g = 1/(r + x) and B = w^2 h^2 the drawn
power is |v|^2 / (2 D) with D = r_tx + sum B g, so the optimum maximizes the
scalar D. At a fixed D each requirement holds on one conductance interval
[a_n(D), b_n(D)], which closes at a closed-form cap. The optimal D is the
least cap, or the root of the decreasing psi(D) = r_tx + sum B b(D) - D, or
else the largest root of the convex phi(D) = r_tx + sum B a(D) - D: each a
1-D bracketed root (quasi-convex bisection, Boyd & Vandenberghe, sec. 4.2.5),
found by Brent's method (Brent 1973, Algorithms for Minimization without
Derivatives, ch. 4) in ``_brentq``.
Where the optimum is a face, every receiver takes the same fraction t of its
interval, g = a + t (b - a), a choice independent of the receiver order.
The KKT multipliers of the returned point follow in closed form from the
same reduction (the Jacobian is diagonal plus rank one), which yields its
certificate and shadow prices; a brute-force grid oracle bounds the
optimality gap in tests. The certificate is computed on its first read,
not in the solve: time sharing's slot solves never read theirs. One that
fails, such as a float square that overflows, raises where it is read.

The solve runs on plain Python floats: with one to a few receivers, array
overhead would cost more than the arithmetic. Every sum is added left to
right (``_sums``), so an answer has the same bits on every machine and
Python version. A BLAS dot product would round by the kernel OpenBLAS picks
for the CPU, and its last bits decide, through time sharing, which slot
subproblems succeed. ``tests/central_reference.py`` keeps the array form
with the same order of summation, and the tests require the same bits from
both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._sums import left_dot, left_sum
from .circuit import SwitchState, SystemConfig, grid_slabs, resonant_powers
from .errors import NumericalError, ValidationError

_EPS = float(np.finfo(float).eps)


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


class _Certificate:
    """A certificate field of CentralSolution. It holds the value the
    constructor was given. A callable, which ``optimize_loads`` gives to
    both certificate fields, returns (kkt_residual, shadow_prices): it is
    called on the first read of either field, and both values are kept."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, sol, owner=None):
        if sol is None:
            raise AttributeError(self.name)  # no class-level default: the field stays required
        value = sol.__dict__[self.name]
        if callable(value):
            kkt, prices = value()
            sol.__dict__.update(kkt_residual=kkt, shadow_prices=prices)
            value = sol.__dict__[self.name]
        return value

    def __set__(self, sol, value):
        sol.__dict__[self.name] = value


@dataclass(frozen=True)
class CentralSolution:
    """Result of a centralized solve.

    For INFEASIBLE results the numeric fields are empty/NaN. For OPTIMAL
    results ``x`` holds one load value per receiver; entries for receivers
    whose switch is open are filled with the upper bound and carry no
    meaning. ``kkt_residual`` is the dimensionless residual of the KKT
    conditions at ``x`` (stationarity and complementarity; about 1e-15 at an
    exact optimum). ``shadow_prices`` holds, per receiver, the watts drawn
    per extra watt required, d p_tx / d p_req: 0 for a receiver that is open
    or has slack, and +inf for the active requirements where no constraint
    qualification holds (the feasible set is about to vanish); there
    ``kkt_residual`` is that of the Fritz John multipliers.

    The certificate (``kkt_residual`` and ``shadow_prices``) of a solution
    from ``optimize_loads`` is computed on the first read of either field and
    kept, so a caller that never reads it, such as a time-sharing slot solve,
    never pays for it. ``repr``, ``==``, hashing, ``dataclasses.replace``,
    copies and pickles read it. A certificate that fails, such as a float
    square that overflows, raises where it is first read, not in the solve.
    """

    x: tuple[float, ...]
    p_tx: float
    p: tuple[float, ...]
    status: SolveStatus
    kkt_residual: float = _Certificate()
    shadow_prices: tuple[float, ...] = _Certificate()

    def __getstate__(self):  # a pickle or copy holds the certificate, not its recipe
        return {name: getattr(self, name) for name in self.__dict__}


def _certificate(b, r, g_lo, g_hi, preq, half_v2, r_tx, g):
    """KKT residual of a conductance point and its requirement multipliers.

    The program maximizes D = r_tx + sum B g over the box subject to
    half_v2 B_n (r_n g_n^2 - g_n) + preq_n D^2 <= 0, so stationarity in g_k is
        B_k (2 D S - 1) + lam_k e_k B_k + mu_k = 0,   e_k = half_v2 (2 r_k g_k - 1),
    with S = sum lam_n preq_n and a box multiplier mu_k, >= 0 at the top of the
    box and <= 0 at its bottom (Boyd & Vandenberghe, sec. 5.5). Constraints
    within relative slack 1e-9 are active, and each box takes what its sign
    allows of its row. Of two candidates the multipliers with the smaller
    residual are kept. Either 2 D S = 1 and one receiver on its requirement
    carries all of S, the only choice when a receiver off its box has no lam
    term; or lam_k = (1 - 2 D S) / e_k on every active requirement, which
    gives S = T / w with w = 1 + 2 D T and T = sum preq_k / e_k
    (Sherman-Morrison). Where w = 0 no constraint qualification holds: the
    multipliers are the Fritz John ones (no objective term, 2 D S = 1) and
    lam is +inf. On a lower root, e_k = -half_v2 s_k, so w = -phi'(D): w
    vanishes where phi touches zero at its minimum, the tangency at which
    the feasible set shrinks to a point. Brent's root there is only as close
    as phi's rounding delta allows, which leaves |w| up to
    sqrt(2 phi'' delta), about sqrt(eps) rather than eps. With
    delta = 16 m eps D (the m products and sums, and each a_k's few
    roundings) and phi'' = 2 sum (preq_k / |e_k|) (half_v2 / e_k)^2 over the
    active rows, w counts as 0 within that band plus 16 m eps for its own
    rounding. The residual is the worst stationarity row over max B or
    complementarity product over D. Takes lists of floats, one entry per
    receiver. Returns the residual and lam.
    """
    m = len(g)
    d = r_tx + left_dot(b, g)
    d2 = d**2
    e, slack, gap, side, held = [], [], [], [], []
    for k, (bk, rk, lo, hi, pk, gk) in enumerate(zip(b, r, g_lo, g_hi, preq, g)):
        sk = half_v2 * bk * (gk - rk * gk ** 2) / d2 - pk
        gap_k = min(hi - gk, gk - lo)
        e.append(half_v2 * (2.0 * rk * gk - 1.0))
        slack.append(sk)
        gap.append(gap_k)
        # +1 on the top of the box, -1 on its bottom, 0 off it
        side.append(0 if gap_k > 1e-9 * (hi - lo) else 1 if 2.0 * gk > hi + lo else -1)
        if pk > 0.0 and sk <= 1e-9 * pk:
            held.append(k)
    scale = max(b, default=0.0) or 1.0

    def scored(lam, objective):
        base = 2.0 * d * left_dot(lam, preq) - objective
        worst = 0.0
        for bk, lk, ek, sk, gk, sd in zip(b, lam, e, slack, gap, side):
            q = bk * (base + lk * ek)
            mu = sd * max(-sd * q, 0.0)
            worst = max(worst, abs(q + mu) / scale, lk * d * abs(sk), abs(mu) * gk / d)
        return worst, lam, objective

    rows = [k for k in held if e[k]]
    w = 1.0 + 2.0 * d * left_sum(preq[k] / e[k] for k in rows)
    curvature = 2.0 * left_sum(preq[k] / abs(e[k]) * (half_v2 / e[k]) ** 2 for k in rows)
    tangent = abs(w) <= 16 * m * _EPS + math.sqrt(32 * m * _EPS * d * curvature)
    objective = 0.0 if tangent else 1.0
    lam = [0.0] * m
    for k in rows:
        lam[k] = max((1.0 / w if objective else -1.0) / e[k], 0.0)
    found = [scored(lam, objective)]
    if held:  # S = 1 / (2 D) on a receiver whose box takes the rest of its row, or least e
        c = min(held, key=lambda k: 0.0 if side[k] * e[k] < 0.0 else abs(e[k]))
        found.append(scored([0.5 / (d * preq[k]) if k == c else 0.0 for k in range(m)], 1.0))
    worst, lam, objective = min(found, key=lambda cand: cand[0])
    if not objective:
        lam = [float("inf") if v > 0.0 else 0.0 for v in lam]
    return worst, lam


def _infeasible() -> CentralSolution:
    return CentralSolution(
        x=(), p_tx=float("nan"), p=(), status=SolveStatus.INFEASIBLE,
        kkt_residual=float("nan"), shadow_prices=(),
    )


def _brentq(f, lo: float, hi: float) -> float:
    """Root of ``f`` between ``lo`` and ``hi``, where it changes sign.

    Brent's method (Brent 1973, ch. 4) with xtol 1e-300, rtol 4 eps and at
    most 100 iterations, ported step for step from the widely used C
    implementation ``Zeros/brentq.c``, so it returns the same bits (the tests
    check this). A NaN value, a bracket without a sign change or no
    convergence raises NumericalError.
    """
    xtol, rtol = 1e-300, 4.0 * _EPS
    xpre, xcur = lo, hi
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if math.isnan(fpre) or math.isnan(fcur):
        raise NumericalError("root bracket: the function is NaN at an end")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise NumericalError("root bracket: the function has one sign at both ends")
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # an infinite step bisects
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C divides to an infinite or NaN step
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
        if math.isnan(fcur):
            raise NumericalError(f"root finding: the function is NaN at {xcur!r}")
    raise NumericalError("root finding did not converge in 100 iterations")


def _least_cap(terms) -> float:
    """The least D^2 at which a receiver's interval closes: where c D^2
    reaches the peak of g - r g^2 over the box. ``terms`` holds
    (c, r, g_lo, g_hi) per receiver; inf when no c is positive."""
    caps = []
    for ck, rk, lo, hi in terms:
        g_peak = min(max(1.0 / (2.0 * rk), lo), hi)
        caps.append(g_peak * (1.0 - rk * g_peak) / ck if ck > 0.0 else math.inf)
    return min(caps)


def _max_coupling(b_coef, r, g_lo, g_hi, c, r_tx):
    """Conductances at the largest attainable D, or None if there is none.

    ``c`` is each requirement over |v|^2 B / 2 (zero where there is none),
    so receiver n needs g_n - r_n g_n^2 >= c_n D^2: the roots of that
    quadratic, clipped to the box, bound its interval [a_n(D), b_n(D)].
    Every argument but ``r_tx`` is a list of floats, one per receiver.
    """
    terms = list(zip(c, r, g_lo, g_hi))
    lower = list(zip(b_coef, c, r, g_lo))
    upper = list(zip(b_coef, c, r, g_hi))

    def intervals(d):  # [a, b] per receiver, and the discriminant's root s
        a, b, s = [], [], []
        for ck, rk, lo, hi in terms:
            k = ck * d * d  # the lower root is written cancellation-free
            sk = math.sqrt(max(1.0 - 4.0 * rk * k, 0.0))
            a.append(max(lo, 2.0 * k / (1.0 + sk)))
            b.append(min(hi, (1.0 + sk) / (2.0 * rk)))
            s.append(sk)
        return a, b, s

    # psi and phi each form only the interval end they sum, as intervals() does
    def psi(d):
        total = 0.0
        for bk, ck, rk, hi in upper:
            sk = math.sqrt(max(1.0 - 4.0 * rk * (ck * d * d), 0.0))
            total += bk * min(hi, (1.0 + sk) / (2.0 * rk))
        return r_tx + total - d

    def phi(d):
        total = 0.0
        for bk, ck, rk, lo in lower:
            k = ck * d * d
            total += bk * max(lo, 2.0 * k / (1.0 + math.sqrt(max(1.0 - 4.0 * rk * k, 0.0))))
        return r_tx + total - d

    def phi_slope(d):  # da/dD = 2 c D / s where a is the lower root, else 0
        a, _, s = intervals(d)
        total = 0.0
        for j in range(len(a)):
            if a[j] > g_lo[j]:
                total += b_coef[j] * (2.0 * c[j] * d / s[j] if s[j] > 0.0 else math.inf)
        return total - 1.0

    cap = _least_cap(terms)
    d_lo = r_tx + left_dot(b_coef, g_lo)
    d_top = min(r_tx + left_dot(b_coef, g_hi), math.sqrt(cap) if cap >= 0.0 else math.nan)
    # even the smallest D is past a cap: some interval is already empty
    if d_top < d_lo or psi(d_lo) < 0.0:
        return None
    if psi(d_top) < 0.0:
        d_top = _brentq(psi, d_lo, d_top)
    if phi(d_top) > 0.0:
        # phi is convex: its largest root lies between its minimizer and d_top
        if phi_slope(d_lo) >= 0.0:
            d_min = d_lo
        elif phi_slope(d_top) <= 0.0:
            return None
        else:
            d_min = _brentq(phi_slope, d_lo, d_top)
        if phi(d_min) > 0.0:
            return None
        d_top = _brentq(phi, d_min, d_top)
    a, b, _ = intervals(d_top)
    spread = left_dot(b_coef, [bk - ak for ak, bk in zip(a, b)])
    t = (d_top - r_tx - left_dot(b_coef, a)) / spread if spread > 0.0 else 0.0
    t = min(max(t, 0.0), 1.0)
    return [min(max(ak + t * (bk - ak), lo), hi)
            for ak, bk, lo, hi in zip(a, b, g_lo, g_hi)]


def _constants(sys: SystemConfig, conn, reqs):
    """(half_v2, r, B, g_lo, g_hi, p_req, c) of the receivers ``conn`` under
    the requirements ``reqs``, each but half_v2 a list of floats, or None
    when a requirement sits on a receiver with zero coupling (or no
    source), which can never be met."""
    half_v2 = 0.5 * abs(sys.v_tx) ** 2
    r, b_coef, g_lo, g_hi, preq, c = [], [], [], [], [], []
    for k in conn:
        rk = float(sys.receivers[k].resistance)
        bk = float((sys.w * sys.h[k]) ** 2)
        pk = float(max(reqs[k], 0.0))
        if pk > 0.0 and half_v2 * bk == 0.0:
            return None
        r.append(rk)
        b_coef.append(bk)
        g_lo.append(1.0 / (rk + float(sys.x_hi[k])))
        g_hi.append(1.0 / (rk + float(sys.x_lo[k])))
        preq.append(pk)
        c.append(pk / (half_v2 * bk) if pk > 0.0 else 0.0)
    return half_v2, r, b_coef, g_lo, g_hi, preq, c


def _tangent_scale(prob: ChargingProblem):
    """(s, g): the scale s >= 1 of all of ``prob``'s requirements at which
    p_tx(s p_req) / s is least, and the conductances of the connected
    receivers that meet s p_req there; (1.0, None) when that s is 1, no
    requirement is positive or one can never be met.

    p_tx = |v|^2 / (2 D), so the scale maximizes s D. With u = s D^2 the
    requirements hold at g_n >= a_n(u), the lower end ``_max_coupling``
    forms at k = c_n u, so the best s D is the largest u / Phi(u) with
    Phi(u) = r_tx + sum B max(g_lo, a(u)), over the u up to the least cap,
    where every interval is still open. Phi is convex, so
    h(u) = Phi(u) - u Phi'(u) decreases from Phi(0) > 0: the best u is its
    root, or the cap if h is still positive there, s = u / Phi(u)^2, and
    g_n = max(g_lo, a_n(u)), the point Phi sums, gives D = Phi(u).
    h is smooth between the kinks where an a_n leaves g_lo and jumps down
    at each, where the best u often lies: the kinks are found in closed
    form, and Brent's method runs only on the piece where h falls to zero.
    A best s below 1 leaves s = 1, the concurrent optimum: the pairs
    (u, D) that some s >= 1 admits form a convex set, and u / D is
    monotone along every segment of it.
    """
    consts = _constants(prob.sys, prob.switch.connected, prob.requirements)
    if consts is None:
        return 1.0, None
    _, r, b_coef, g_lo, g_hi, _, c = consts
    r_tx = prob.sys.transmitter.resistance
    u_end = _least_cap(list(zip(c, r, g_lo, g_hi)))
    if u_end == math.inf:
        return 1.0, None
    # a_n leaves g_lo where its lower root reaches it: Phi' jumps up there
    kinks = [lo * (1.0 - rk * lo) / ck if ck > 0.0 and 2.0 * rk * lo < 1.0 else math.inf
             for ck, rk, lo in zip(c, r, g_lo)]

    def lower(u):  # max(g_lo, a_n(u)) per receiver, and the discriminant's root s_n
        g, s = [], []
        for ck, rk, lo in zip(c, r, g_lo):
            k = ck * u  # the lower root as _max_coupling writes it
            s.append(math.sqrt(max(1.0 - 4.0 * rk * k, 0.0)))
            g.append(max(lo, 2.0 * k / (1.0 + s[-1])))
        return g, s

    def h(u, rising):  # Phi(u) - u Phi'(u), a_n' = c_n / s_n where rising[n]
        g, s = lower(u)
        slope = left_sum(bk * ck / sk if sk > 0.0 else math.inf
                         for bk, ck, sk, up in zip(b_coef, c, s, rising) if up)
        return r_tx + left_dot(b_coef, g) - u * slope

    # between kinks h is smooth; the first piece on which it falls to zero
    # holds the best u, at its start if h jumps past zero there
    start = 0.0
    for end in sorted({k for k in kinks if k < u_end} | {u_end}):
        rising = [k <= start for k in kinks]
        if h(end, rising) < 0.0:
            u = start if h(start, rising) <= 0.0 else _brentq(lambda v: h(v, rising), start, end)
            break
        start = end
    else:
        u = u_end
    g, _ = lower(u)
    phi = r_tx + left_dot(b_coef, g)
    s = u / (phi * phi)
    return (s, g) if s > 1.0 else (1.0, None)


def _loads(sys: SystemConfig, conn, g) -> list[float]:
    """Loads 1/g - r, clamped to [x_lo, x_hi], of receivers ``conn``; the rest at x_hi."""
    x = [float(v) for v in sys.x_hi]
    for gk, k in zip(g, conn):
        x[k] = min(max(1.0 / gk - sys.receivers[k].resistance, sys.x_lo[k]), sys.x_hi[k])
    return x


def optimize_loads(prob: ChargingProblem) -> CentralSolution:
    """Minimum-transmitter-power load resistances for one configuration.

    Requirements that are zero or negative are dropped. Returns an
    INFEASIBLE solution (not an exception) when no load vector can meet
    the remaining requirements. See the module docstring for the method.
    """
    sys = prob.sys
    sw = prob.switch
    conn = list(sw.connected)
    reqs = prob.requirements
    consts = _constants(sys, conn, reqs)
    if consts is None:
        return _infeasible()
    half_v2, r, b_coef, g_lo, g_hi, preq, c = consts
    r_tx = sys.transmitter.resistance
    g_opt = _max_coupling(b_coef, r, g_lo, g_hi, c, r_tx)
    if g_opt is None:
        return _infeasible()

    x_opt = _loads(sys, conn, g_opt)

    # the loads are finite and in the box: only the powers need checking
    p_tx, p, _ = resonant_powers(sys, x_opt, sw.s)
    if not (math.isfinite(p_tx) and math.isfinite(left_sum(p))):
        raise NumericalError("the steady-state powers overflow at these loads")
    for k in conn:
        if reqs[k] > 0.0 and p[k] < reqs[k] - 1e-6 * max(reqs[k], 1.0):
            raise NumericalError(
                f"receiver {k + 1}: optimizer returned an infeasible point"
            )

    def certificate():
        kkt, lam = _certificate(b_coef, r, g_lo, g_hi, preq, half_v2, r_tx, g_opt)
        prices = [0.0] * sys.n_receivers
        for j, k in enumerate(conn):
            prices[k] = half_v2 * lam[j]
        return kkt, tuple(prices)

    return CentralSolution(
        x=tuple(x_opt),
        p_tx=p_tx,
        p=tuple(p),
        status=SolveStatus.OPTIMAL,
        kkt_residual=certificate,
        shadow_prices=certificate,
    )


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

    axes, slabs = grid_slabs(sys, sw, grid_resolution)
    best = None
    for span, p_tx, p in slabs:
        feasible = np.ones(p_tx.shape, dtype=bool)
        for k in conn:
            if reqs[k] <= 0.0:
                continue
            feasible &= p[k] >= reqs[k] * (1.0 - 1e-12)
        if not feasible.any():
            continue
        masked = np.where(feasible, p_tx, np.inf).reshape(-1)
        at = int(np.argmin(masked))
        # strict: an equal minimum in a later slab lies later in grid order
        if best is None or masked[at] < best_p_tx:
            best, best_p_tx = span.start + at, float(masked[at])
    if best is None:
        return OracleResult(x=None, p_tx=None, feasible=False)
    idx = np.unravel_index(best, (grid_resolution,) * len(conn))
    x_best = [float(v) for v in sys.x_hi]
    for j, k in enumerate(conn):
        x_best[k] = float(axes[j][idx[j]])
    return OracleResult(x=tuple(x_best), p_tx=best_p_tx, feasible=True)
