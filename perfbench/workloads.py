"""The four workloads: seeded inputs and the request list of each.

Every request is one in-process ``mrcwpt.cli.main(argv)`` call. Scenario
files are written at set-up with ``serialize_scenario``. Generated systems
are feasible by construction: loads ``x0`` are drawn log-uniformly in the
box and each requirement is set to 0.8 of the power that receiver draws at
``x0``, so ``x0`` itself meets every requirement with margin.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from mrcwpt import (
    CoilElectrical,
    ScenarioOptions,
    SystemConfig,
    parse_scenario,
    serialize_scenario,
    solve_closed_form,
)

# Generated systems reuse the bundled desk-scale coils and source; only the
# coupling and the requirement pattern are drawn.
_TX = CoilElectrical(1.344, 0.054063)
_RX = CoilElectrical(0.0672, 2.94e-5)
_V_TX = 28.284271247461902
_W = 42.6e6
_H_RANGE = (2e-8, 1e-7)  # |h| in henry, drawn log-uniformly
_X_BOX = (1.0, 100.0)
_MARGIN = 0.8

# requirement at which the bundled three-receiver system stops being
# feasible (acceptance criterion 6: 37.95 W within half a watt)
P3_BOUNDARY = 37.95

# How many generated systems each workload adds per pass.
#
# One centralized solve on a random system costs anywhere from 0.06 s to
# 2.7 s (N = 6 and 10 here), so systems drawn from --seed made the plan and
# schedule passes swing by +-20% between seeds. Their generated systems
# therefore come from this fixed generator seed; --seed orders their
# requests and draws the simulate systems (whose cost per iteration is
# steady) and the explore sweep ranges.
SYSTEMS_SEED = 1504
_PLAN_GENERATED = ((6, 2), (10, 2))
_SCHEDULE_GENERATED = ((4, 2),)
_SIMULATE_GENERATED = ((6, 2),)
# distributed budget for generated systems; at ~13 us per iteration this
# keeps one run near 1.3 s, so the bundled 300k-iteration runs still weigh
# most of the pass
_SIMULATE_ITR_MAX = 100_000


@dataclass(frozen=True)
class Request:
    """One CLI call with what its output checks need to know."""

    label: str
    argv: tuple[str, ...]
    expect_rc: tuple[int, ...]
    kind: str
    scenario: str
    out: str | None = None
    info: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class GeneratedSystem:
    config: SystemConfig
    options: ScenarioOptions
    x0: tuple[float, ...]


def generated_system(seed: int, n: int, index: int, itr_max: int = 300_000) -> GeneratedSystem:
    """A feasible-by-construction system with n receivers."""
    rng = np.random.default_rng([seed, n, index])
    signs = rng.choice([-1.0, 1.0], n)
    h = signs * 10 ** rng.uniform(np.log10(_H_RANGE[0]), np.log10(_H_RANGE[1]), n)
    x0 = tuple(float(v) for v in 10 ** rng.uniform(np.log10(_X_BOX[0]), np.log10(_X_BOX[1]), n))
    base = SystemConfig(
        v_tx=complex(_V_TX),
        w=_W,
        transmitter=_TX,
        receivers=(_RX,) * n,
        h=tuple(float(v) for v in h),
        x_lo=(_X_BOX[0],) * n,
        x_hi=(_X_BOX[1],) * n,
        p_req=(1.0,) * n,
    ).tuned()
    p = solve_closed_form(base, None, list(x0)).p
    config = replace(base, p_req=tuple(_MARGIN * float(v) for v in p))
    return GeneratedSystem(config, ScenarioOptions(x_nominal=x0, itr_max=itr_max), x0)


class InputWriter:
    """Writes scenario files into one work directory and hashes them."""

    def __init__(self, work: Path):
        self.work = work
        self.work.mkdir(parents=True, exist_ok=True)
        self._hash = hashlib.sha256()

    def scenario(self, name: str, config: SystemConfig, options: ScenarioOptions) -> str:
        text = serialize_scenario(config, options)
        self._hash.update(name.encode() + b"\0" + text.encode())
        path = self.work / f"{name}.scn"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def out(self, name: str) -> str:
        return str(self.work / f"{name}.csv")

    def note(self, text: str) -> None:
        """Fold a non-file input (argv, order) into the input hash."""
        self._hash.update(text.encode() + b"\0")

    def digest(self) -> str:
        return self._hash.hexdigest()[:16]


def _bundled_three(p3: float):
    config, options = parse_scenario("three_receivers")
    return replace(config, p_req=config.p_req[:2] + (float(p3),)), options


def _plan(seed: int, io: InputWriter) -> list[Request]:
    reqs = []
    for p3 in range(1, 41):
        config, options = _bundled_three(p3)
        path = io.scenario(f"three_p{p3}", config, options)
        rc = 0 if p3 < P3_BOUNDARY else 2
        reqs.append(Request(f"optimize three p3={p3}", ("optimize", path), (rc,),
                            "plan", path, info={"p3": p3}))
    for n, count in _PLAN_GENERATED:
        for i in range(count):
            gen = generated_system(SYSTEMS_SEED, n, i)
            path = io.scenario(f"gen_n{n}_{i}", gen.config, gen.options)
            reqs.append(Request(f"optimize gen n={n} #{i}", ("optimize", path), (0,),
                                "plan", path, info={"x0": gen.x0}))
    return reqs


def _schedule(seed: int, io: InputWriter) -> list[Request]:
    reqs = []
    cases = [("two", *parse_scenario("two_receivers"))]
    for p3 in (5, 20, 37):
        cases.append((f"three_p{p3}", *_bundled_three(p3)))
    for n, count in _SCHEDULE_GENERATED:
        for i in range(count):
            gen = generated_system(SYSTEMS_SEED, n, i)
            cases.append((f"gen_n{n}_{i}", gen.config, gen.options))
    for name, config, options in cases:
        path = io.scenario(name, config, options)
        out = io.out(f"schedule_{name}")
        reqs.append(Request(f"timeshare {name}", ("timeshare", path, "--out", out), (0,),
                            "schedule", path, out))
    return reqs


def _simulate(seed: int, io: InputWriter) -> list[Request]:
    reqs = []
    # 30 W writes the full trace; 10 W is the criterion-7 limit cycle;
    # 36 W ends infeasible on load 3
    for p3, rc, with_out in ((30, 0, True), (10, 0, False), (36, 2, False)):
        config, options = _bundled_three(p3)
        path = io.scenario(f"three_p{p3}", config, options)
        argv = ("distributed", path)
        out = None
        if with_out:
            out = io.out(f"trace_p{p3}")
            argv += ("--out", out)
        reqs.append(Request(f"distributed three p3={p3}", argv, (rc,), "simulate", path, out,
                            info={"expect_feasible": rc == 0}))
    for n, count in _SIMULATE_GENERATED:
        for i in range(count):
            gen = generated_system(seed, n, i, itr_max=_SIMULATE_ITR_MAX)
            path = io.scenario(f"gen_n{n}_{i}", gen.config, gen.options)
            # the protocol has no feasibility guarantee: either verdict is
            # accepted as long as exit code, report and powers agree
            reqs.append(Request(f"distributed gen n={n} #{i}", ("distributed", path), (0, 2),
                                "simulate", path, info={"expect_feasible": None}))
    return reqs


def _explore(seed: int, io: InputWriter) -> list[Request]:
    rng = np.random.default_rng([seed, 0xE])
    reqs = []
    # the sweep ranges move with the seed; the point counts stay fixed
    x_start = round(float(rng.uniform(0.1, 1.0)), 2)
    w_start = round(float(rng.uniform(1.0e7, 1.5e7)), -3)
    sweeps = (
        ("x_1", x_start, x_start + 19.9, 0.01),
        ("w", w_start, w_start + 2e7, 1e5),
    )
    for name, start, stop, step in sweeps:
        spec = f"{name}={start!r}:{stop!r}:{step!r}"
        out = io.out(f"sweep_{name}")
        io.note(spec)
        reqs.append(Request(f"analyze sweep {name}",
                            ("analyze", "three_receivers", "--sweep", spec, "--out", out), (0,),
                            "sweep", "three_receivers", out,
                            info={"name": name, "start": start, "stop": stop, "step": step}))
    for scenario, mask, with_ts in (
        ("two_receivers", None, False),
        ("two_receivers", None, True),
        ("three_receivers", None, False),
        ("three_receivers", None, True),
        ("three_receivers", "110", True),
    ):
        tag = f"{scenario}{'_m' + mask if mask else ''}{'_ts' if with_ts else ''}"
        out = io.out(f"region_{tag}")
        argv = ("region", scenario)
        if mask:
            argv += ("--mask", mask)
        if with_ts:
            argv += ("--with-ts",)
        reqs.append(Request(f"region {tag}", argv + ("--out", out), (0,), "region", scenario, out,
                            info={"mask": mask, "with_ts": with_ts}))
    return reqs


_BUILDERS = {"plan": _plan, "schedule": _schedule, "simulate": _simulate, "explore": _explore}


def build_requests(workload: str, seed: int, io: InputWriter) -> list[Request]:
    """The request list of one pass, in a seeded order."""
    reqs = _BUILDERS[workload](seed, io)
    order = np.random.default_rng([seed, 0x0]).permutation(len(reqs))
    reqs = [reqs[i] for i in order]
    io.note("|".join(r.label for r in reqs))
    return reqs


def warmup_request(workload: str, io: InputWriter) -> Request:
    """A short request that loads every code path (and lazy import) of a workload."""
    config, options = parse_scenario("three_receivers")
    if workload == "plan":
        return Request("warm-up optimize", ("optimize", "three_receivers"), (0,), "none",
                       "three_receivers")
    if workload == "schedule":
        one = replace(config, receivers=config.receivers[:1], h=config.h[:1],
                      x_lo=config.x_lo[:1], x_hi=config.x_hi[:1], p_req=config.p_req[:1])
        path = io.scenario("warm_one", one, replace(options, x_nominal=options.x_nominal[:1]))
        return Request("warm-up timeshare", ("timeshare", path, "--out", io.out("warm")), (0,),
                       "none", path)
    if workload == "simulate":
        path = io.scenario("warm_short", config, replace(options, itr_max=2000))
        return Request("warm-up distributed", ("distributed", path, "--out", io.out("warm")),
                       (0, 2), "none", path)
    path = io.scenario("warm_coarse", config, replace(options, grid_points=8))
    return Request("warm-up region", ("region", path, "--with-ts", "--out", io.out("warm")),
                   (0,), "none", path)
