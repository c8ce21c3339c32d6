"""Span tracer installed from outside the package.

Modules bind names such as ``optimize_loads`` or ``solve_closed_form`` at
import time (``from .central import optimize_loads``), so wrapping the
function where it is defined is not enough: the tracer replaces the name in
every loaded ``mrcwpt`` module whose globals hold the original object, and
puts every original back on ``uninstall``. Timed runs never install it.

A span is (name, parent, request, start, end, attrs). Spans stay in memory
and are written out once, when the run ends. Self time is a span's duration
minus the time of its direct children; calls are nested and sequential in
one thread, so the children never overlap.
"""

from __future__ import annotations

import csv
import os
import statistics
import sys
from time import perf_counter

# (module, function, span name); several functions may share a span name
_TARGETS = (
    ("scenario", "parse_scenario", "scenario.parse"),
    ("circuit", "solve_closed_form", "circuit.closed_form"),
    ("central", "optimize_loads", "central.solve"),
    ("lp", "solve_lp", "lp.solve"),
    ("timeshare", "optimize_schedule", "timeshare.schedule"),
    ("timeshare", "solve_config_subproblem", "timeshare.subproblem"),
    ("timeshare", "schedule_to_csv", "timeshare.csv"),
    ("distributed", "run_distributed", "distributed.run"),
    ("distributed", "trace_to_csv", "distributed.trace_csv"),
    ("region", "sample_region_without_ts", "region.sample"),
    ("region", "sample_region_with_ts", "region.sample"),
    ("region", "pareto_boundary", "region.frontier"),
    ("region", "hull_2d", "region.frontier"),
    ("region", "_hull_nd", "region.frontier"),
    ("region", "region_to_csv", "region.csv"),
)

REQUEST = "cli.request"

NAME, PARENT, REQ, START, END, ATTRS = range(6)


def _attrs(span_name, args, kwargs, result):
    """Counts taken from a call's arguments and result, where they exist."""
    if span_name == "central.solve":
        prob = args[0] if args else kwargs["prob"]
        return {"n": len(prob.switch.connected), "infeasible": result.status.value == "infeasible",
                "kkt": result.kkt_residual}
    if span_name == "timeshare.schedule":
        return {"iterations": result.iterations}
    if span_name == "timeshare.subproblem":
        return {"ok": result.status.value == "optimal"}
    if span_name == "distributed.run":
        return {"iterations": result.iterations}
    if span_name in ("distributed.trace_csv", "region.csv"):
        path = args[-1] if len(args) >= 2 else kwargs["path"]
        return {"bytes": os.path.getsize(path)}
    if span_name == "region.sample":
        return {"points": len(result.points)}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = -1
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        span = [name, self._stack[-1] if self._stack else -1, self._request, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()

    def begin_request(self, request_id: int) -> list:
        self._request = request_id
        return self._open(REQUEST)

    def end_request(self, span: list) -> None:
        self._close(span)
        self._request = -1

    def _wrap(self, fn, span_name: str):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            span[ATTRS] = _attrs(span_name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "mrcwpt" or name.startswith("mrcwpt."))]
        for module_name, fn_name, span_name in _TARGETS:
            original = getattr(sys.modules[f"mrcwpt.{module_name}"], fn_name)
            wrapper = self._wrap(original, span_name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        """All spans as CSV, with their self time."""
        self_times = self_time(self.spans)
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "parent", "request", "name", "start_s", "end_s", "self_s"])
            for i, span in enumerate(self.spans):
                writer.writerow([i, span[PARENT], span[REQ], span[NAME],
                                 f"{span[START]:.9f}", f"{span[END]:.9f}", f"{self_times[i]:.9f}"])


def self_time(spans) -> list[float]:
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _p(values, q: float) -> float:
    """Percentile in ms (inclusive method); 0 when there are no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return 1e3 * values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return 1e3 * cuts[int(q) - 1]


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-module counts and times of one traced pass.

    ``self_s`` excludes child spans; ``.s`` is inclusive. ``cli.self_s`` is
    request time not inside any module span (argument parsing, output
    formatting, sweep rows, and circuit helpers other than the closed form).
    """
    own = self_time(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def ids(name):
        return by_name.get(name, [])

    def self_s(*names):
        return sum(own[i] for name in names for i in ids(name))

    def incl(name):
        return [spans[i][END] - spans[i][START] for i in ids(name)]

    def attr(name, key):
        # a call that raised has no attributes
        return [spans[i][ATTRS][key] for i in ids(name) if spans[i][ATTRS] is not None]

    solves = ids("central.solve")
    solve_s = incl("central.solve")
    by_n: dict[int, list[float]] = {}
    for i in solves:
        if spans[i][ATTRS] is not None:
            by_n.setdefault(spans[i][ATTRS]["n"], []).append(spans[i][END] - spans[i][START])
    kkts = [k for k in attr("central.solve", "kkt") if k == k]
    subproblems = attr("timeshare.subproblem", "ok")
    iterations = sum(attr("distributed.run", "iterations"))
    run_s = incl("distributed.run")
    requests = incl(REQUEST)

    # for requests that write a trace: trace CSV time over simulation time
    trace_ratio = []
    for i in ids("distributed.trace_csv"):
        req = spans[i][REQ]
        sim = sum(spans[j][END] - spans[j][START] for j in ids("distributed.run")
                  if spans[j][REQ] == req)
        trace_ratio.append((spans[i][END] - spans[i][START]) / sim)
    # share of request time spent inside centralized solves
    central_share = 100.0 * sum(solve_s) / sum(requests) if requests else 0.0
    return {
        "scenario.parse.calls": (len(ids("scenario.parse")), "count"),
        "scenario.parse.s": (sum(incl("scenario.parse")), "s"),
        "circuit.closed_form.calls": (len(ids("circuit.closed_form")), "count"),
        "circuit.closed_form.self_s": (self_s("circuit.closed_form"), "s"),
        "central.solve.calls": (len(solves), "count"),
        "central.solve.self_s": (self_s("central.solve"), "s"),
        "central.solve.p50_ms": (_p(solve_s, 50), "ms"),
        "central.solve.p90_ms": (_p(solve_s, 90), "ms"),
        "central.solve.n3.p50_ms": (_p(by_n.get(3, []), 50), "ms"),
        "central.solve.n6.p50_ms": (_p(by_n.get(6, []), 50), "ms"),
        "central.solve.n10.p50_ms": (_p(by_n.get(10, []), 50), "ms"),
        "central.solve.share_pct": (central_share, "%"),
        "central.infeasible.count": (sum(attr("central.solve", "infeasible")), "count"),
        "central.kkt_residual.max": (max(kkts, default=0.0), "ratio"),
        "lp.solve.calls": (len(ids("lp.solve")), "count"),
        "lp.solve.self_s": (self_s("lp.solve"), "s"),
        "lp.solve.max_ms": (1e3 * max(incl("lp.solve"), default=0.0), "ms"),
        "timeshare.outer_iterations": (sum(attr("timeshare.schedule", "iterations")), "count"),
        "timeshare.subproblems": (len(subproblems), "count"),
        "timeshare.subproblem_ok_ratio": (
            sum(subproblems) / len(subproblems) if subproblems else 0.0, "ratio"),
        "timeshare.self_s": (
            self_s("timeshare.schedule", "timeshare.subproblem", "timeshare.csv"), "s"),
        "distributed.iterations": (iterations, "count"),
        "distributed.iter_us": (1e6 * sum(run_s) / iterations if iterations else 0.0, "us"),
        "distributed.run.self_s": (self_s("distributed.run"), "s"),
        "distributed.trace_csv.s": (sum(incl("distributed.trace_csv")), "s"),
        "distributed.trace_csv.bytes": (sum(attr("distributed.trace_csv", "bytes")), "bytes"),
        "distributed.trace_csv_per_run": (max(trace_ratio, default=0.0), "ratio"),
        "region.sample.self_s": (self_s("region.sample"), "s"),
        "region.frontier.s": (sum(incl("region.frontier")), "s"),
        "region.points": (sum(attr("region.sample", "points")), "count"),
        "region.csv.s": (sum(incl("region.csv")), "s"),
        "region.csv.bytes": (sum(attr("region.csv", "bytes")), "bytes"),
        "cli.self_s": (self_s(REQUEST), "s"),
    }
