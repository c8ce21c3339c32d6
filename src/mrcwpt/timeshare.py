"""Time-shared multiuser power transfer.

The transmission horizon is split into slots, one per switch configuration
(nonzero subset of connected receivers), each with its own load-resistance
vector. Delivered powers are time averages over the slots. The module
provides configuration enumeration, average-power evaluation, the linear
program over slot durations, the per-configuration load subproblem, and
the alternating optimization that ties them together.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .central import CentralSolution, ChargingProblem, SolveStatus, _infeasible, optimize_loads
from .circuit import SwitchState, SystemConfig, resonant_powers, solo_peak_loads
from .errors import InfeasibleProblemError, ValidationError
from .lp import solve_lp

_MAX_CONFIG_RECEIVERS = 16


@dataclass(frozen=True)
class ConfigSet:
    """All usable switch configurations, deterministically ordered.

    The all-closed configuration comes first; the rest follow in order of
    decreasing closed-switch count, ties broken by the binary value of the
    switch vector (first receiver most significant), descending.
    """

    configs: tuple[SwitchState, ...]

    def __len__(self) -> int:
        return len(self.configs)

    def __getitem__(self, q: int) -> SwitchState:
        return self.configs[q]

    def __iter__(self):
        return iter(self.configs)


def enumerate_configs(n: int) -> ConfigSet:
    """Every nonzero switch state for n receivers (2**n - 1 of them)."""
    if not 1 <= n <= _MAX_CONFIG_RECEIVERS:
        raise ValidationError(
            f"receiver count must be between 1 and {_MAX_CONFIG_RECEIVERS}"
        )
    states = []
    for bits in range(1, 2**n):
        s = tuple((bits >> (n - 1 - k)) & 1 for k in range(n))
        states.append(s)
    states.sort(key=lambda s: (-sum(s), -int("".join(map(str, s)), 2)))
    return ConfigSet(configs=tuple(SwitchState(s=s) for s in states))


@dataclass(frozen=True)
class TimeSharingSchedule:
    """Slot durations and per-slot load vectors over a horizon.

    ``x[q][n]`` is receiver n's load resistance during configuration q;
    entries for receivers that are open in that configuration are carried
    along but unused. Total allocated time may fall short of the horizon:
    the source is simply off for the remainder.
    """

    configs: ConfigSet
    tau: tuple[float, ...]
    x: tuple[tuple[float, ...], ...]
    tau_total: float

    def __post_init__(self):
        q = len(self.configs)
        if len(self.tau) != q or len(self.x) != q:
            raise ValidationError("tau and x must have one entry per configuration")
        if not self.tau_total > 0.0:
            raise ValidationError("tau_total must be > 0")
        if any(t < 0.0 for t in self.tau):
            raise ValidationError("slot durations must be nonnegative")
        if sum(self.tau) > self.tau_total * (1.0 + 1e-12):
            raise ValidationError("slot durations exceed the horizon")


@dataclass(frozen=True)
class AveragePowers:
    p_tx: float
    p: tuple[float, ...]


def average_powers(sys: SystemConfig, sched: TimeSharingSchedule) -> AveragePowers:
    """Time-averaged transmitter and per-load powers over the horizon.

    Idle time (horizon minus allocated slots) contributes nothing: the
    source is switched off, drawing no power.
    """
    a, b = _config_coefficients(sys, sched.configs, sched.x)
    weight = np.asarray(sched.tau) / sched.tau_total
    # the builtin sum adds slot by slot in slot order; numpy's pairwise sum would not
    p = sum((weight * b).T)
    return AveragePowers(p_tx=float(sum(weight * a)), p=tuple(float(v) for v in p))


def _config_coefficients(sys: SystemConfig, configs: ConfigSet, x_per_config):
    """Instantaneous p_tx (Q,) and p_n (N, Q) of every configuration at its loads."""
    s = np.array([sw.s for sw in configs]).T
    x = np.array(x_per_config, dtype=float).T
    if x.shape != s.shape:
        raise ValidationError("load vector must have one entry per receiver")
    if not np.isfinite(x).all() or np.any((s == 1) & ~(x > 0.0)):
        raise ValidationError("loads must be finite, and > 0 where connected")
    a, p, _ = resonant_powers(sys, x, s)
    return a, np.array(p)


def solve_time_allocation(
    sys: SystemConfig,
    configs: ConfigSet,
    x_per_config,
    tau_total: float,
    p_req,
) -> np.ndarray | None:
    """Optimal slot durations for fixed per-slot loads, or None if infeasible.

    Minimizes the time-averaged transmitter power subject to each load's
    average-power requirement and the horizon budget.
    """
    a, b = _config_coefficients(sys, configs, x_per_config)
    active = [n for n in range(sys.n_receivers) if p_req[n] > 0.0]
    sol = solve_lp(
        c=a / tau_total,
        a_le=np.ones((1, len(configs))),
        b_le=[tau_total],
        a_ge=b[active] if active else None,
        b_ge=[p_req[n] * tau_total for n in active] if active else None,
    )
    if sol.status != "optimal":
        return None
    return np.asarray(sol.x)


def solve_config_subproblem(
    sys: SystemConfig, sched: TimeSharingSchedule, q: int, p_req
) -> CentralSolution:
    """Optimize slot q's load vector with every other slot held fixed.

    The average-power requirement of each load, less what the other slots
    already deliver, is rescaled by the slot's share of the horizon into an
    instantaneous requirement; requirements that other slots already cover
    drop out. Requires tau[q] > 0.
    """
    if not sched.tau[q] > 0.0:
        raise ValidationError("configuration has no allocated time")
    sw = sched.configs[q]
    scale = sched.tau_total / sched.tau[q]
    # average power each load collects from the other slots
    _, p = _config_coefficients(sys, sched.configs, sched.x)
    others = p * np.asarray(sched.tau) / sched.tau_total
    others[:, q] = 0.0
    eff = []
    for n in range(sys.n_receivers):
        residual = p_req[n] - float(sum(others[n]))
        if not sw.s[n]:
            if residual > 1e-9 * max(1.0, p_req[n]):
                return _infeasible()
            eff.append(0.0)
        else:
            eff.append(residual * scale)
    prob = ChargingProblem(sys=sys, sw=sw, p_req_eff=tuple(eff))
    return optimize_loads(prob)


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of the alternating optimization."""

    schedule: TimeSharingSchedule
    p_tx: float
    p_tx_trace: tuple[float, ...]
    iterations: int
    subproblem_failures: int


def optimize_schedule(
    sys: SystemConfig,
    tau_total: float = 1.0,
    dp_stop: float = 1e-3,
    max_outer: int = 50,
) -> ScheduleResult:
    """Jointly optimize slot durations and per-slot loads.

    Starts from the no-time-sharing optimum in the all-closed slot, then
    alternates the duration LP with the per-configuration load subproblems
    until the drawn-power improvement falls to ``dp_stop``. The objective
    trace is nonincreasing: an update is only accepted when it does not
    worsen the exact objective, and an infeasible subproblem leaves its
    slot's loads unchanged.

    Raises InfeasibleProblemError when even the no-time-sharing problem has
    no solution (time sharing can only enlarge the feasible set).
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
    q_count = len(configs)
    solo = solo_peak_loads(sys)
    x = [list(base.x)] + [list(solo) for _ in range(q_count - 1)]
    tau = np.zeros(q_count)
    tau[0] = tau_total
    p_req = sys.p_req

    def schedule():
        return TimeSharingSchedule(
            configs=configs,
            tau=tuple(float(t) for t in tau),
            x=tuple(tuple(row) for row in x),
            tau_total=tau_total,
        )

    trace = []
    failures = 0
    prev = float("inf")
    iterations = 0
    a, _ = _config_coefficients(sys, configs, x)
    for _ in range(max_outer):
        iterations += 1
        lp_tau = solve_time_allocation(sys, configs, x, tau_total, p_req)
        if lp_tau is not None:
            current = float(a @ tau) / tau_total
            proposed = float(a @ lp_tau) / tau_total
            if proposed <= current * (1.0 + 1e-12) + 1e-15:
                tau = lp_tau

        for q in range(q_count):
            if tau[q] <= 1e-12 * tau_total:
                continue
            sol = solve_config_subproblem(sys, schedule(), q, p_req)
            if sol.status is SolveStatus.INFEASIBLE:
                failures += 1
                continue
            # a[q] is still current: only slot q's own update changes x[q]
            if sol.p_tx <= a[q] * (1.0 + 1e-12) + 1e-15:
                x[q] = list(sol.x)

        a, _ = _config_coefficients(sys, configs, x)
        p_itr = float(a @ tau) / tau_total
        trace.append(p_itr)
        if prev - p_itr <= dp_stop:
            break
        prev = p_itr

    return ScheduleResult(
        schedule=schedule(),
        p_tx=trace[-1],
        p_tx_trace=tuple(trace),
        iterations=iterations,
        subproblem_failures=failures,
    )


def schedule_to_csv(sys: SystemConfig, sched: TimeSharingSchedule, path) -> None:
    """Write one row per configuration: duration, loads, instantaneous powers."""
    n = sys.n_receivers
    header = (
        ["q", "mask", "tau"]
        + [f"x_{k + 1}" for k in range(n)]
        + ["p_tx"]
        + [f"p_{k + 1}" for k in range(n)]
    )
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        a, b = _config_coefficients(sys, sched.configs, sched.x)
        for q, sw in enumerate(sched.configs):
            row = [q + 1, sw.mask(), f"{sched.tau[q]:.11e}"]
            row += [f"{v:.11e}" for v in sched.x[q]]
            row.append(f"{a[q]:.11e}")
            row += [f"{v:.11e}" for v in b[:, q]]
            writer.writerow(row)
