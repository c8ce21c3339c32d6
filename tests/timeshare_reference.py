"""The time-sharing alternation as it was with numpy slot shares, kept as
the reference for ``mrcwpt.timeshare.optimize_schedule``.

``optimize_schedule`` below is the loop from before the slot shares moved
to plain floats: every live slot forms ``b * tau / tau_total`` as an
array, zeroes its own column and sums each row with the builtin ``sum``
over numpy scalars, which adds left to right on every Python version.
The drawn power a @ tau is the products of ``a * tau`` added left to
right, the package's order (a BLAS ``@`` would round by the CPU's kernel).
Its slot LP is the numpy tableau of ``lp_reference``. The load subproblem,
the slot matrix, the acceptance test and the scaled slot it starts from
are the package's own, which the change to plain floats left alone.
"""

import numpy as np

from mrcwpt.central import ChargingProblem, SolveStatus, optimize_loads
from mrcwpt.circuit import SystemConfig, enumerate_configs, solo_peak_loads
from mrcwpt.errors import InfeasibleProblemError, ValidationError
from mrcwpt.timeshare import (
    _MAX_OUTER,
    ScheduleResult,
    TimeSharingSchedule,
    _config_coefficients,
    _no_worse,
    _scaled_slot,
    solve_config_subproblem,
)

from lp_reference import solve_lp


def _drawn(a, tau, tau_total):
    """Average drawn power of the slot matrix's p_tx ``a`` over durations ``tau``."""
    total = 0.0
    for term in (a * tau).tolist():
        total += term
    return total / tau_total


def _slot_lp(a, b, tau_total: float, p_req) -> np.ndarray | None:
    """Slot durations minimizing the average p_tx of slot matrix (a, b),
    or None if no durations meet every requirement p_req (each > 0)."""
    sol = solve_lp(a / tau_total, tau_total, b, [r * tau_total for r in p_req])
    if sol.status != "optimal":
        return None
    return np.asarray(sol.x)


def optimize_schedule(
    sys: SystemConfig, tau_total: float = 1.0, dp_stop: float = 1e-3
) -> ScheduleResult:
    """Jointly optimize slot durations and per-slot loads.

    Starts from the package's scaled all-closed slot, then alternates the
    duration LP with the per-configuration load subproblems until the
    drawn-power improvement falls to ``dp_stop``, for at most
    ``_MAX_OUTER`` rounds. The objective trace is nonincreasing: an update
    is only accepted when it does not worsen the exact objective, and an
    infeasible subproblem leaves its slot's loads unchanged.

    Raises InfeasibleProblemError when the no-time-sharing problem has no
    solution, which does not prove that no schedule exists.
    """
    if not tau_total > 0.0:
        raise ValidationError("tau_total must be > 0")
    if not dp_stop > 0.0:
        raise ValidationError("dp_stop must be > 0")
    base = optimize_loads(ChargingProblem(sys=sys))
    if base.status is SolveStatus.INFEASIBLE:
        raise InfeasibleProblemError(
            "the concurrent (no time sharing) problem is infeasible"
        )

    configs = enumerate_configs(sys.n_receivers)
    x0, tau0 = _scaled_slot(sys, base, tau_total)
    x = [x0] + [tuple(solo_peak_loads(sys))] * (len(configs) - 1)
    # the slot matrix: a[q] is slot q's p_tx and b[n, q] its p_n, at x[q]
    a, b = _config_coefficients(sys, configs, x)
    tau = np.zeros(len(configs))
    tau[0] = tau0
    p_req = sys.p_req

    trace = []
    failures = 0
    prev = float("inf")
    for _ in range(_MAX_OUTER):
        lp_tau = _slot_lp(a, b, tau_total, p_req)
        if lp_tau is not None and _no_worse(
            _drawn(a, lp_tau, tau_total), _drawn(a, tau, tau_total)
        ):
            tau = lp_tau

        for q, sw in enumerate(configs):
            if tau[q] <= 1e-12 * tau_total:
                continue
            # average power each load collects from the other slots
            others = b * tau / tau_total
            others[:, q] = 0.0
            p_others = [float(sum(row)) for row in others]
            sol = solve_config_subproblem(sys, sw, float(tau[q]), tau_total, p_others, p_req)
            if sol.status is SolveStatus.INFEASIBLE:
                failures += 1
            elif _no_worse(sol.p_tx, a[q]):
                # the solution's powers are slot q's new column, bit for bit
                x[q] = sol.x
                a[q] = sol.p_tx
                b[:, q] = sol.p

        p_itr = _drawn(a, tau, tau_total)
        trace.append(p_itr)
        if prev - p_itr <= dp_stop:
            break
        prev = p_itr

    return ScheduleResult(
        schedule=TimeSharingSchedule(
            configs=configs,
            tau=tuple(float(t) for t in tau),
            x=tuple(x),
            tau_total=tau_total,
        ),
        p_tx=trace[-1],
        p_tx_trace=tuple(trace),
        iterations=len(trace),
        subproblem_failures=failures,
    )


def grid_column_lp(sys: SystemConfig, grid_points: int) -> float:
    """Least average p_tx of any schedule over sampled operating points: an
    independent upper bound on the time-sharing optimum.

    Every configuration contributes one column per point of a log grid of
    ``grid_points`` loads per connected receiver, with its p_tx and p_n
    from the resonant closed form written out here. HiGHS
    (``scipy.optimize.linprog``) then picks the shares of the horizon that
    meet every requirement at the least average p_tx. Returns inf when no
    mix of the columns meets them.
    """
    from scipy.optimize import linprog

    n = sys.n_receivers
    half_v2 = 0.5 * abs(sys.v_tx) ** 2
    b = (sys.w * np.asarray(sys.h, dtype=float)) ** 2
    r = np.array([coil.resistance for coil in sys.receivers], dtype=float)
    cost, powers = [], []
    for sw in enumerate_configs(n):
        conn = list(sw.connected)
        axes = [np.geomspace(sys.x_lo[k], sys.x_hi[k], grid_points) for k in conn]
        x = np.zeros((n, grid_points ** len(conn)))
        g = np.zeros_like(x)  # 1 / (r + x) where connected, else 0
        for k, grid in zip(conn, np.meshgrid(*axes, indexing="ij")):
            x[k] = grid.ravel()
            g[k] = 1.0 / (r[k] + x[k])
        d = sys.transmitter.resistance + b @ g
        cost.append(half_v2 / d)
        powers.append(half_v2 * b[:, None] * x * g**2 / d**2)
    a, p = np.concatenate(cost), np.concatenate(powers, axis=1)
    # shares w >= 0 of the horizon: sum w <= 1 and p w >= p_req
    sol = linprog(a, A_ub=np.vstack([-p, np.ones_like(a)]),
                  b_ub=[-v for v in sys.p_req] + [1.0], method="highs")
    return float(sol.fun) if sol.status == 0 else float("inf")
