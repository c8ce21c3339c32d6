"""Output checks, run after the timed phase.

Each check takes a request and the captured result of its last call and
returns a list of problems; an empty list means the output is correct.
The checks recompute what they can with code paths the request did not
use: the mesh solver ``solve_linear_oracle`` instead of the closed form,
the grid oracle instead of the barrier solver, qhull instead of the
program's own hull.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mrcwpt import (
    ChargingProblem,
    SolveStatus,
    SwitchState,
    brute_force_oracle,
    optimize_loads,
    parse_scenario,
    solve_closed_form,
    solve_linear_oracle,
)
from mrcwpt.region import DEFAULT_GRID_2D, DEFAULT_GRID_3D

# relative tolerances
_REQ_TOL = 1e-6       # a requirement counts as met down to this shortfall
_MATCH_TOL = 1e-8     # reported vs recomputed power (12 printed digits)
_KKT_MAX = 1e-6       # acceptance criterion 5
_ORACLE_GRID = 60     # points per axis of the exhaustive grid search
_ORACLE_GAP = 0.10    # a 60-point grid lands within 5% of the optimum here
_NUDGE = 1e-4         # relative load move of the local optimality probe


@dataclass
class Result:
    """What one call of ``cli.main`` left behind."""

    rc: int | None
    stdout: str
    stderr: str
    error: str | None = None


class Context:
    """Caches parsed scenarios and concurrent optima across checks."""

    def __init__(self):
        self._configs = {}
        self._optima = {}
        self.ptx_vs_central = []  # 100 * (p_tx / concurrent optimum - 1)

    def scenario(self, path):
        if path not in self._configs:
            self._configs[path] = parse_scenario(path)
        return self._configs[path]

    def optimum(self, path) -> float:
        if path not in self._optima:
            config, _ = self.scenario(path)
            sol = optimize_loads(ChargingProblem(sys=config))
            self._optima[path] = sol.p_tx if sol.status is SolveStatus.OPTIMAL else math.nan
        return self._optima[path]


def _close(a: float, b: float, tol: float = _MATCH_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def _key_values(stdout: str) -> dict[str, str]:
    """'key = value' lines; 'x_1 = a  p_1 = b' lines give two entries."""
    values = {}
    for line in stdout.splitlines():
        parts = line.split("  ") if "  " in line else [line]
        for part in parts:
            key, sep, value = part.partition(" = ")
            if sep:
                values[key.strip()] = value.strip()
    return values


def _floats(values: dict[str, str], prefix: str, n: int) -> list[float]:
    return [float(values[f"{prefix}_{k + 1}"]) for k in range(n)]


def check_plan(req, res: Result, ctx: Context) -> list[str]:
    config, _ = ctx.scenario(req.scenario)
    n = config.n_receivers
    prob = ChargingProblem(sys=config)
    if res.rc == 2:
        if res.stdout != "status = infeasible\n":
            return [f"unexpected infeasible output {res.stdout!r}"]
        if n <= 3 and brute_force_oracle(prob, _ORACLE_GRID).feasible:
            return ["reported infeasible, but the grid oracle found a feasible point"]
        return []
    kv = _key_values(res.stdout)
    if kv.get("status") != "optimal":
        return [f"status is {kv.get('status')!r}"]
    p_tx = float(kv["p_tx"])
    kkt = float(kv["kkt_residual"])
    x = _floats(kv, "x", n)
    p = _floats(kv, "p", n)
    problems = []
    if not kkt <= _KKT_MAX:
        problems.append(f"kkt_residual {kkt:.3e} above {_KKT_MAX:g}")
    for k in range(n):
        if not config.x_lo[k] <= x[k] <= config.x_hi[k]:
            problems.append(f"x_{k + 1} = {x[k]} outside the load box")
    if problems:
        return problems
    mesh = solve_linear_oracle(config, None, x)
    if not _close(mesh.p_tx, p_tx):
        problems.append(f"p_tx {p_tx} but the mesh solve gives {mesh.p_tx}")
    for k in range(n):
        if not _close(mesh.p[k], p[k]):
            problems.append(f"p_{k + 1} {p[k]} but the mesh solve gives {mesh.p[k]}")
        if mesh.p[k] < config.p_req[k] * (1.0 - _REQ_TOL):
            problems.append(f"p_{k + 1} = {mesh.p[k]} misses its requirement {config.p_req[k]}")
    # the problem is convex in conductance space, so at the optimum no small
    # move of one load keeps every requirement and draws less
    for k in range(n):
        for factor in (1.0 - _NUDGE, 1.0 + _NUDGE):
            moved = list(x)
            moved[k] = min(max(x[k] * factor, config.x_lo[k]), config.x_hi[k])
            st = solve_linear_oracle(config, None, moved)
            if (st.p_tx < p_tx * (1.0 - 1e-9)
                    and all(st.p[j] >= config.p_req[j] for j in range(n))):
                problems.append(f"moving x_{k + 1} to {moved[k]} keeps every requirement "
                                f"and draws {st.p_tx} < {p_tx}")
    if "x0" in req.info:
        # x0 is feasible by construction, so the optimum cannot draw more
        ref = solve_closed_form(config, None, list(req.info["x0"])).p_tx
        if p_tx > ref * (1.0 + 1e-9):
            problems.append(f"p_tx {p_tx} above the feasible seed point's {ref}")
    if n <= 3:
        oracle = brute_force_oracle(prob, _ORACLE_GRID)
        if oracle.feasible:
            if p_tx > oracle.p_tx * (1.0 + 1e-9):
                problems.append(f"grid oracle beats the solver: {oracle.p_tx} < {p_tx}")
            elif oracle.p_tx > p_tx * (1.0 + _ORACLE_GAP):
                problems.append(f"grid oracle {oracle.p_tx} too far above {p_tx}")
    return problems


def _read_csv(path: str):
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_schedule(req, res: Result, ctx: Context) -> list[str]:
    config, options = ctx.scenario(req.scenario)
    n = config.n_receivers
    kv = _key_values(res.stdout)
    p_tx = float(kv["p_tx"])
    header, rows = _read_csv(req.out)
    want = (["q", "mask", "tau"] + [f"x_{k + 1}" for k in range(n)] + ["p_tx"]
            + [f"p_{k + 1}" for k in range(n)])
    if header != want:
        return [f"schedule header {header}"]
    if len(rows) != 2**n - 1:
        return [f"{len(rows)} schedule rows, expected {2**n - 1}"]
    problems = []
    horizon = options.tau_total
    tau = [float(r[2]) for r in rows]
    if sum(tau) > horizon * (1.0 + 1e-9):
        problems.append(f"slot durations sum to {sum(tau)} over the horizon {horizon}")
    avg_tx = 0.0
    avg = np.zeros(n)
    for row, t in zip(rows, tau):
        if t == 0.0:
            continue
        x = [float(v) for v in row[3:3 + n]]
        mesh = solve_linear_oracle(config, SwitchState.from_mask(row[1]), x)
        avg_tx += t / horizon * mesh.p_tx
        avg += t / horizon * np.asarray(mesh.p)
    for k in range(n):
        if avg[k] < config.p_req[k] * (1.0 - _REQ_TOL):
            problems.append(f"slot-averaged p_{k + 1} = {avg[k]} misses {config.p_req[k]}")
    if not _close(avg_tx, p_tx, 1e-7):
        problems.append(f"p_tx {p_tx} but the slots average to {avg_tx}")
    central = ctx.optimum(req.scenario)
    if not p_tx <= central * (1.0 + 1e-9):
        problems.append(f"time-shared p_tx {p_tx} above the concurrent optimum {central}")
    elif not problems:
        ctx.ptx_vs_central.append(100.0 * (p_tx / central - 1.0))
    return problems


def _step_slack(config, x, dx):
    """Largest change one dx step of any load makes to each power and to p_tx."""
    base = solve_linear_oracle(config, None, x)
    slack_p = np.zeros(config.n_receivers)
    slack_tx = 0.0
    for m in range(config.n_receivers):
        for sign in (1.0, -1.0):
            moved = list(x)
            moved[m] = max(moved[m] + sign * dx, 0.5 * moved[m])
            st = solve_linear_oracle(config, None, moved)
            slack_p = np.maximum(slack_p, np.abs(np.asarray(st.p) - base.p))
            slack_tx = max(slack_tx, abs(st.p_tx - base.p_tx))
    return base, slack_p * config.n_receivers, slack_tx * config.n_receivers


def _trace_header(n: int) -> str:
    return ",".join(["itr", "receiver", "case"] + [f"x_{k + 1}" for k in range(n)]
                    + [f"p_{k + 1}" for k in range(n)] + ["p_tx"]
                    + [f"fb_{k + 1}" for k in range(n)])


def _check_trace(path: str, n: int, itr_max: int, x: list[str]) -> list[str]:
    with open(path, "rb") as handle:
        header = handle.readline().decode().rstrip("\r\n")
        rows = 0
        last = b""
        while True:
            chunk = handle.read(1 << 22)
            if not chunk:
                break
            rows += chunk.count(b"\n")
            last = (last + chunk)[-4096:]
    problems = []
    if header != _trace_header(n):
        problems.append(f"trace header {header!r}")
    if rows != itr_max:
        problems.append(f"{rows} trace rows, expected {itr_max}")
    tail = last.decode().rstrip("\r\n").rsplit("\n", 1)[-1].split(",")
    if tail[3:3 + n] != x:
        problems.append("last trace row does not end at the reported loads")
    return problems


def check_simulate(req, res: Result, ctx: Context) -> list[str]:
    config, options = ctx.scenario(req.scenario)
    n = config.n_receivers
    kv = _key_values(res.stdout)
    feasible = kv.get("feasible")
    if feasible not in ("yes", "no"):
        return [f"feasible is {feasible!r}"]
    problems = []
    if int(kv["iterations"]) != options.itr_max:
        problems.append(f"iterations {kv['iterations']} != itr_max {options.itr_max}")
    if (res.rc == 0) != (feasible == "yes"):
        problems.append(f"exit code {res.rc} disagrees with feasible = {feasible}")
    expected = req.info.get("expect_feasible")
    if expected is not None and expected != (feasible == "yes"):
        problems.append(f"feasible = {feasible}, expected the opposite")
    x_text = [kv[f"x_{k + 1}"] for k in range(n)]
    x = [float(v) for v in x_text]
    p = _floats(kv, "p", n)
    p_tx = float(kv["p_tx"])
    base, slack_p, slack_tx = _step_slack(config, x, options.dx)
    if not _close(base.p_tx, p_tx):
        problems.append(f"p_tx {p_tx} but the mesh solve gives {base.p_tx}")
    for k in range(n):
        if not _close(base.p[k], p[k]):
            problems.append(f"p_{k + 1} {p[k]} but the mesh solve gives {base.p[k]}")
    short = [k for k in range(n) if base.p[k] < config.p_req[k] - slack_p[k]]
    if feasible == "yes" and short:
        problems.append(f"reported feasible but load {short[0] + 1} is short by more than a step")
    if feasible == "no" and all(base.p[k] >= config.p_req[k] for k in range(n)):
        problems.append("reported infeasible but every requirement holds")
    central = ctx.optimum(req.scenario)
    if feasible == "yes":
        if p_tx < central - slack_tx:
            problems.append(f"p_tx {p_tx} below the optimum {central} by more than a step")
        elif not problems:
            ctx.ptx_vs_central.append(100.0 * (p_tx / central - 1.0))
    if req.out:
        problems += _check_trace(req.out, n, options.itr_max, x_text)
    return problems


def check_sweep(req, res: Result, ctx: Context) -> list[str]:
    config, options = ctx.scenario(req.scenario)
    n = config.n_receivers
    info = req.info
    header, rows = _read_csv(req.out)
    want = [info["name"], "p_tx"] + [f"p_{k + 1}" for k in range(n)] + ["p_sum", "rho"]
    if header != want:
        return [f"sweep header {header}"]
    count = int(round((info["stop"] - info["start"]) / info["step"])) + 1
    if len(rows) != count:
        return [f"{len(rows)} sweep rows, expected {count}"]
    problems = []
    for row in (rows[0], rows[len(rows) // 2], rows[-1]):
        value = float(row[0])
        x = list(options.x_nominal)
        if info["name"] == "w":
            mesh = solve_linear_oracle(config.with_frequency(value), None, x)
        else:
            x[0] = value
            mesh = solve_linear_oracle(config, None, x)
        got = [float(v) for v in row[1:2 + n]]
        if not all(_close(a, b) for a, b in zip(got, [mesh.p_tx, *mesh.p])):
            problems.append(f"sweep row at {row[0]} disagrees with the mesh solve")
    return problems


def _read_region(path: str):
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    header = lines[0].split(",")
    n = len(header) - 1
    points, boundary = [], []
    for line in lines[1:]:
        values, _, section = line.rpartition(",")
        (points if section == "points" else boundary).append(values)
    return header, n, points, boundary


def _as_array(rows: list[str], n: int) -> np.ndarray:
    return np.array(",".join(rows).split(","), dtype=float).reshape(-1, n)


def _outside_hull(points: np.ndarray, vertices: np.ndarray) -> int:
    """How many points lie outside the hull of the vertices (relative tolerance)."""
    from scipy.spatial import ConvexHull

    scale = float(np.abs(vertices).max())
    hull = ConvexHull(vertices / scale)
    normals, offsets = hull.equations[:, :-1], hull.equations[:, -1]
    outside = 0
    for start in range(0, len(points), 4096):
        block = points[start:start + 4096] / scale
        outside += int(np.any(block @ normals.T + offsets > 1e-9, axis=1).sum())
    return outside


def check_region(req, res: Result, ctx: Context) -> list[str]:
    """Row counts and boundary membership; pairs are checked in check_region_pairs."""
    config, options = ctx.scenario(req.scenario)
    header, n, points, boundary = _read_region(req.out)
    mask = req.info["mask"]
    conn = mask.count("1") if mask else config.n_receivers
    grid = options.grid_points or (DEFAULT_GRID_2D if conn <= 2 else DEFAULT_GRID_3D)
    if req.info["with_ts"]:
        count = 1 + sum(math.comb(conn, m) * grid**m for m in range(1, conn + 1))
    else:
        count = grid**conn
    problems = []
    if header != [f"p_{k + 1}" for k in range(conn)] + ["section"]:
        problems.append(f"region header {header}")
    if len(points) != count:
        problems.append(f"{len(points)} region points, expected {count}")
    if res.stdout != f"points = {len(points)}\nboundary = {len(boundary)}\n":
        problems.append("printed counts disagree with the CSV")
    if not boundary or not set(boundary) <= set(points):
        problems.append("a boundary row is not one of the samples")
    return problems


def check_region_pairs(requests) -> dict[str, list[str]]:
    """Concurrent points lie inside the time-shared hull of the same system.

    The masked request must equal the two-receiver one: keeping receivers
    1 and 2 of the three-receiver system gives the same coils and coupling.
    """
    regions = {(r.scenario, r.info["mask"], r.info["with_ts"]): r
               for r in requests if r.kind == "region"}
    problems = {}
    for (scenario, mask, with_ts), req in regions.items():
        if with_ts or mask:
            continue
        shared = regions.get((scenario, None, True))
        if shared is None:
            continue
        _, n, points, _ = _read_region(req.out)
        _, _, _, hull_rows = _read_region(shared.out)
        outside = _outside_hull(_as_array(points, n), _as_array(hull_rows, n))
        if outside:
            problems[req.label] = [f"{outside} concurrent points outside the time-shared hull"]
    masked = regions.get(("three_receivers", "110", True))
    two = regions.get(("two_receivers", None, True))
    if masked and two:
        with open(masked.out, "rb") as a, open(two.out, "rb") as b:
            if a.read() != b.read():
                problems[masked.label] = ["masked region differs from the two-receiver region"]
    return problems


CHECKS = {
    "plan": check_plan,
    "schedule": check_schedule,
    "simulate": check_simulate,
    "sweep": check_sweep,
    "region": check_region,
}


def check_request(req, res: Result, ctx: Context) -> list[str]:
    """Exit code plus the request's own output check."""
    if res.error is not None:
        return [f"raised {res.error}"]
    if res.rc not in req.expect_rc:
        return [f"exit code {res.rc}, expected {req.expect_rc}: {res.stderr.strip()[:200]}"]
    try:
        return CHECKS[req.kind](req, res, ctx)
    except (KeyError, ValueError, IndexError, OSError) as exc:
        # unparsable or missing output is a wrong answer, not a harness crash
        return [f"output could not be checked: {exc!r}"]

