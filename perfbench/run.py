"""mrcwpt benchmark: one closed-loop client issuing CLI requests in-process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload plan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads are ``plan``, ``schedule``, ``simulate`` and ``explore`` (see
README.md). The client sends its next request only after the previous one
returns. The timed phase repeats whole passes over the seeded request list,
stopping at the pass boundary nearest to ``--seconds``, so every run holds
the same mix of requests. Outputs are checked after the timed phase.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and prints the per-module metrics. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import os

# one BLAS/OpenMP thread: the client is single-threaded and the machine is
# small; must be set before numpy is first imported, here or in a child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from speed import REF_S, SpeedProbe  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOAD_NAMES = ("plan", "schedule", "simulate", "explore")

SETUP_PROBES = 3
# a pass that runs past this stops early, so a pathologically slow build
# still ends the run inside its time limit
TIMED_CAP_S = 110.0
PROBE_TIMEOUT_S = 60.0


def _fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _import_program():
    if not (SRC / "mrcwpt" / "__init__.py").is_file():
        _fail(f"no mrcwpt sources under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import mrcwpt  # noqa: F401
    # imported lazily by the package on first use; CLI users pay for them
    import scipy.optimize  # noqa: F401
    import scipy.spatial  # noqa: F401
    from mrcwpt import cli

    return cli


@dataclass
class Call:
    req: object
    res: object
    start: float
    end: float
    pass_no: int
    scaled: float = 0.0  # seconds at reference speed


def call(cli, req):
    """One CLI request with stdout and stderr captured."""
    from checks import Result

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(req.argv))
    except Exception as exc:  # a crashing request is a counted failure
        return Result(None, out.getvalue(), err.getvalue(), repr(exc))
    return Result(rc, out.getvalue(), err.getvalue())


def set_up(workload: str, seed: int, work: Path):
    """Import, write the inputs, run one warm-up request. Returns (cli, requests, digest)."""
    cli = _import_program()
    import workloads

    writer = workloads.InputWriter(work)
    requests = workloads.build_requests(workload, seed, writer)
    warm = workloads.warmup_request(workload, writer)
    res = call(cli, warm)
    if res.error is not None or res.rc not in warm.expect_rc:
        _fail(f"warm-up request failed: rc={res.rc} {res.error or res.stderr.strip()}", 1)
    return cli, requests, writer.digest()


def _probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up in a fresh interpreter: (wall seconds, seconds at reference speed)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        _fail(f"set-up probe failed: {proc.stderr.strip()}", 1)
    loop_s = json.loads(proc.stdout.splitlines()[-1])["loop_s"]
    return elapsed, elapsed * REF_S / loop_s


def run_pass(cli, requests, log, pass_no, tracer=None, deadline=None):
    """One closed-loop pass; appends a Call per request. False if cut short."""
    for req in requests:
        if deadline is not None and perf_counter() > deadline:
            return False
        span = tracer.begin_request(len(log)) if tracer else None
        t0 = perf_counter()
        res = call(cli, req)
        t1 = perf_counter()
        if tracer:
            tracer.end_request(span)
        log.append(Call(req, res, t0, t1, pass_no))
    return True


def timed_phase(cli, requests, seconds: float):
    """Whole passes until the one ending nearest to ``seconds`` at reference
    speed, so the number of passes does not follow the host's speed."""
    log = []
    complete_passes = []
    with SpeedProbe() as probe:
        start = perf_counter()
        deadline = start + TIMED_CAP_S
        while True:
            pass_no = len(complete_passes)
            complete = run_pass(cli, requests, log, pass_no, deadline=deadline)
            if complete:
                complete_passes.append(pass_no)
            now = perf_counter()
            elapsed = probe.scale(start, now)
            if not complete or elapsed + elapsed / len(complete_passes) / 2.0 >= seconds:
                elapsed = now - start
                break
    for c in log:
        c.scaled = probe.scale(c.start, c.end)
    return log, elapsed, complete_passes, probe


def _pass_seconds(log, pass_no, scaled=True):
    return sum(c.scaled if scaled else c.end - c.start for c in log if c.pass_no == pass_no)


def check_log(log, ctx):
    """Failed request count: deep checks on each request's last output,
    and every other call of the same request must print the same."""
    from checks import check_region_pairs, check_request

    last = {}
    for c in log:
        last[c.req.label] = (c.req, c.res)
    problems = {label: check_request(req, res, ctx) for label, (req, res) in last.items()}
    if all(req.kind != "region" or not problems[req.label] for req, _ in last.values()):
        for label, found in check_region_pairs([req for req, _ in last.values()]).items():
            problems[label] += found
    failed = 0
    for c in log:
        ref = last[c.req.label][1]
        if (problems[c.req.label] or c.res.error
                or (c.res.rc, c.res.stdout) != (ref.rc, ref.stdout)):
            failed += 1
    return failed, {k: v for k, v in problems.items() if v}


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown (not a git checkout)"


def _provenance(workload, seed, digest):
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "inputs_sha256": digest,
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(args) -> dict:
    load_before = os.getloadavg()
    setups = [_probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    work = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        cli, requests, digest = set_up(args.workload, args.seed, work)
        info = _provenance(args.workload, args.seed, digest)
        info["requests_per_pass"] = len(requests)
        info["load_before"] = [round(v, 2) for v in load_before]
        info["setup_raw_s"] = statistics.median(wall for wall, _ in setups)
        result = (traced_run if args.trace else timed_run)(cli, requests, args, setups, info)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info["load_after"] = [round(v, 2) for v in os.getloadavg()]
    print("provenance " + json.dumps(info, sort_keys=True))
    return result


def timed_run(cli, requests, args, setups, info):
    from checks import Context

    log, elapsed, passes, probe = timed_phase(cli, requests, args.seconds)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed, problems = check_log(log, Context())
    _report_problems(problems)
    _report_latencies(log)

    scaled = [c.scaled for c in log]
    raw = [c.end - c.start for c in log]
    if passes:
        per_pass = len(requests) / statistics.median(_pass_seconds(log, p) for p in passes)
        raw_per_pass = len(requests) / statistics.median(
            _pass_seconds(log, p, scaled=False) for p in passes)
    else:  # the only pass was cut short
        per_pass = len(log) / sum(scaled)
        raw_per_pass = len(log) / elapsed
    info.update({
        "passes": len(passes),
        "timed_s": round(elapsed, 3),
        "error_rate": failed / len(log),
        "loop_s_median": statistics.median(probe.times),
        "raw_requests_per_s": raw_per_pass,
        "raw_request_p50_ms": 1e3 * statistics.median(raw),
    })
    if len(log) >= 100:
        p90 = statistics.quantiles(scaled, n=10, method="inclusive")[8]
        info["request_p90_ms"] = {"value": 1e3 * p90, "samples": len(log)}
    metrics = {
        "setup_s": _metric(statistics.median(ref for _, ref in setups), "s"),
        "requests_per_s": _metric(per_pass, "1/s"),
        "request_p50_ms": _metric(1e3 * statistics.median(scaled), "ms"),
        "peak_rss_mb": _metric(peak_kib / 1024.0, "MiB"),
    }
    return {"correct": failed == 0, "attempted": len(log), "failed": failed, "metrics": metrics}


def traced_run(cli, requests, args, setups, info):
    from checks import Context
    from spans import Tracer, layer_metrics

    log = []
    tracer = Tracer()
    with SpeedProbe() as probe:
        run_pass(cli, requests, log, 0)
        tracer.install()
        try:
            run_pass(cli, requests, log, 1, tracer=tracer)
        finally:
            tracer.uninstall()
    for c in log:
        c.scaled = probe.scale(c.start, c.end)

    ctx = Context()
    failed, problems = check_log(log, ctx)
    _report_problems(problems)
    untraced, traced = _pass_seconds(log, 0), _pass_seconds(log, 1)
    traced_calls = [c for c in log if c.pass_no == 1]
    # per request, so one slow stretch of the host moves one ratio, not the figure
    overhead = statistics.median(t.scaled / u.scaled for u, t in zip(log, traced_calls))
    traced_wall = traced_calls[-1].end - traced_calls[0].start
    metrics = layer_metrics(tracer.spans)
    metrics.update({
        "trace.overhead_pct": (100.0 * (overhead - 1.0), "%"),
        "trace.uncovered_s": (traced_wall - _pass_seconds(log, 1, scaled=False), "s"),
        "trace.requests": (len(traced_calls), "count"),
        "trace.spans": (len(tracer.spans), "count"),
        "quality.ptx_vs_central_pct": (
            statistics.mean(ctx.ptx_vs_central) if ctx.ptx_vs_central else 0.0, "%"),
        "error_rate": (failed / len(log), "ratio"),
    })
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write(spans_path)
    info.update({
        "spans_file": str(spans_path.relative_to(ROOT)),
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "loop_s_median": statistics.median(probe.times),
    })
    return {
        "correct": failed == 0,
        "attempted": len(log),
        "failed": failed,
        "metrics": {k: _metric(v, unit) for k, (v, unit) in metrics.items()},
    }


def _report_latencies(log):
    by_label = {}
    for c in log:
        by_label.setdefault(c.req.label, []).append(c)
    for label, calls in by_label.items():
        raw = statistics.median(c.end - c.start for c in calls)
        scaled = statistics.median(c.scaled for c in calls)
        print(f"request {label:36s} {1e3 * scaled:10.1f} ms (raw {1e3 * raw:.1f}) "
              f"x{len(calls)}")


def _report_problems(problems):
    for label, found in sorted(problems.items()):
        for problem in found:
            print(f"FAILED {label}: {problem}", file=sys.stderr)


def _print_summary(result):
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(f"{'attempted':32s} {result['attempted']}")
    print(f"{'failed':32s} {result['failed']}")
    if "error_rate" not in result["metrics"]:
        print(f"{'error_rate':32s} {result['failed'] / result['attempted']:.6g} ratio")


def run_all(args) -> dict:
    """Every workload in its own process; metrics keyed workload.metric."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            _fail(f"workload {workload} exited with {proc.returncode}", 1)
        lines = proc.stdout.splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = m
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        work = WORK / f"probe-{args.workload}-{args.seed}-{os.getpid()}"
        try:
            with SpeedProbe() as probe:
                set_up(args.workload, args.seed, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(json.dumps({"loop_s": statistics.median(probe.times)}))
        return
    if args.workload == "all":
        result = run_all(args)
    else:
        if not (SRC / "mrcwpt" / "__init__.py").is_file():
            _fail(f"no mrcwpt sources under {SRC}; run from the root of a source checkout")
        result = run_workload(args)
        _print_summary(result)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
