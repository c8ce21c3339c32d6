"""Shared fixtures: the desk-scale benchmark systems and random generators."""

from dataclasses import replace

import numpy as np
import pytest

from mrcwpt import (
    ChargingProblem,
    CoilElectrical,
    SolveStatus,
    SwitchState,
    SystemConfig,
    optimize_loads,
    solve_closed_form,
)

V_BENCH = 20.0 * np.sqrt(2.0)
W_BENCH = 42.6e6
R_TX = 1.344
L_TX = 0.054063
R_RX = 0.0672
L_RX = 2.94e-5
H_BENCH = (-9.21e-8, 4.02e-8, 2.45e-8)


def bench_system(p_req=(17.5, 17.5, 30.0), n=3, w=W_BENCH):
    """The three-receiver benchmark (or its first-n-receivers truncation)."""
    return SystemConfig(
        v_tx=complex(V_BENCH),
        w=w,
        transmitter=CoilElectrical(R_TX, L_TX),
        receivers=(CoilElectrical(R_RX, L_RX),) * n,
        h=H_BENCH[:n],
        x_lo=(1.0,) * n,
        x_hi=(100.0,) * n,
        p_req=tuple(p_req)[:n],
    )


@pytest.fixture
def bench3():
    return bench_system()


@pytest.fixture
def bench2():
    return bench_system(p_req=(5.0, 5.0), n=2)


def random_system(rng, n=None, spread=3.0):
    """Random resonant system with log-uniform parameters.

    ``spread`` bounds the dynamic range (decades) of the coupling
    coefficients, which controls how disparate the receivers'
    reflected-resistance contributions can be.
    """
    if n is None:
        n = int(rng.integers(1, 7))
    w = 10 ** rng.uniform(6, 7.8)
    l_tx = 10 ** rng.uniform(-3, -1)
    r_tx = 10 ** rng.uniform(-0.5, 0.7)
    receivers, h, x_lo, x_hi, p_req = [], [], [], [], []
    for _ in range(n):
        l_k = 10 ** rng.uniform(-5, -3)
        receivers.append(CoilElectrical(10 ** rng.uniform(-1.5, -0.5), l_k))
        coupling = min(10 ** rng.uniform(-spread / 2 - 1.2, spread / 2 - 1.2), 0.9)
        h.append(float(rng.choice([-1, 1])) * coupling * np.sqrt(l_k * l_tx))
        lo = 10 ** rng.uniform(-0.5, 0.5)
        x_lo.append(lo)
        x_hi.append(lo * 10 ** rng.uniform(0.5, 2))
        p_req.append(10 ** rng.uniform(-3, 1))
    v = 10 ** rng.uniform(0.5, 2) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return SystemConfig(
        v_tx=complex(v),
        w=w,
        transmitter=CoilElectrical(r_tx, l_tx),
        receivers=tuple(receivers),
        h=tuple(h),
        x_lo=tuple(x_lo),
        x_hi=tuple(x_hi),
        p_req=tuple(p_req),
    )


def random_loads(rng, config):
    return [
        float(10 ** rng.uniform(np.log10(config.x_lo[k]), np.log10(config.x_hi[k])))
        for k in range(config.n_receivers)
    ]


def random_switch(rng, n):
    while True:
        s = tuple(int(v) for v in rng.integers(0, 2, n))
        if any(s):
            return SwitchState(s=s)


def _feasible_random_system(seed, n):
    """A seeded random system whose requirements are 70% of what its
    mid-box loads deliver, redrawn until the concurrent problem is feasible."""
    rng = np.random.default_rng(seed)
    while True:
        config = random_system(rng, n=n, spread=2.0)
        x_mid = [float(np.sqrt(config.x_lo[k] * config.x_hi[k])) for k in range(n)]
        reqs = tuple(0.7 * p for p in solve_closed_form(config, None, x_mid).p)
        if any(r <= 0 for r in reqs):
            continue
        config = replace(config, p_req=reqs)
        if optimize_loads(ChargingProblem(sys=config)).status is SolveStatus.OPTIMAL:
            return config
