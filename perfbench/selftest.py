"""Harness self-test: injected wrong answers must count as failed requests.

Runs a few short real requests, then corrupts their output (a perturbed
load in captured stdout, a truncated trace CSV, a wrong exit code, a
stretched slot duration, a missing region row, a raised exception, a
repeated call that prints something else) and checks that ``check_log``
counts every corrupted call as failed while the clean calls pass.

    python3 perfbench/selftest.py

Exits 0 when every injected fault is caught.
"""

import shutil
import sys
from dataclasses import replace
from pathlib import Path

from run import WORK, Call, call, check_log, _import_program


def _corrupt_file(path, edit):
    text = Path(path).read_text()
    Path(path).write_text(edit(text))


def main() -> int:
    cli = _import_program()
    import workloads
    from checks import Context, Result
    from mrcwpt import parse_scenario

    work = WORK / "selftest"
    writer = workloads.InputWriter(work)
    config, options = parse_scenario("three_receivers")
    try:
        def scenario(name, p3, **opts):
            return writer.scenario(name, replace(config, p_req=config.p_req[:2] + (p3,)),
                                   replace(options, **opts))

        p20 = scenario("p20", 20.0)
        p40 = scenario("p40", 40.0)
        short = scenario("short", 30.0, itr_max=3000)
        one = workloads.warmup_request("schedule", writer)
        R = workloads.Request
        reqs = {
            "optimize": R("optimize p3=20", ("optimize", p20), (0,), "plan", p20),
            "infeasible": R("optimize p3=40", ("optimize", p40), (2,), "plan", p40),
            "distributed": R("distributed short", ("distributed", short, "--out",
                                                   writer.out("trace")),
                             (0, 2), "simulate", short, writer.out("trace"),
                             info={"expect_feasible": None}),
            "timeshare": R("timeshare one", one.argv, (0,), "schedule", one.scenario,
                           one.argv[-1]),
            "region": R("region two", ("region", "two_receivers", "--out", writer.out("region")),
                        (0,), "region", "two_receivers", writer.out("region"),
                        info={"mask": None, "with_ts": False}),
        }
        clean = {key: call(cli, req) for key, req in reqs.items()}
        failed, problems = check_log([Call(r, clean[k], 0.0, 0.0, 0) for k, r in reqs.items()], Context())
        if failed:
            print(f"clean outputs flagged: {problems}")
            return 1
        print(f"ok   clean outputs pass ({len(reqs)} requests)")

        def perturb_x(res):
            line = next(v for v in res.stdout.splitlines() if v.startswith("x_1 = "))
            digits = line.split()[2]
            bumped = digits[:3] + ("1" if digits[3] != "1" else "2") + digits[4:]
            return replace(res, stdout=res.stdout.replace(digits, bumped, 1))

        def truncate_trace(res):
            _corrupt_file(reqs["distributed"].out,
                          lambda t: "".join(t.splitlines(keepends=True)[:-5]))
            return res

        def stretch_tau(res):
            def edit(text):
                lines = text.splitlines(keepends=True)
                row = lines[1].split(",")
                row[2] = f"{float(row[2]) * 1.5:.11e}"
                return "".join([lines[0], ",".join(row)] + lines[2:])

            _corrupt_file(reqs["timeshare"].out, edit)
            return res

        def drop_region_row(res):
            _corrupt_file(reqs["region"].out,
                          lambda t: "".join(t.splitlines(keepends=True)[:1]
                                            + t.splitlines(keepends=True)[2:]))
            return res

        faults = [
            ("perturbed x_1 in captured output", "optimize", perturb_x),
            ("wrong exit code", "infeasible", lambda r: replace(r, rc=0)),
            ("truncated trace CSV", "distributed", truncate_trace),
            ("slot durations beyond the horizon", "timeshare", stretch_tau),
            ("missing region row", "region", drop_region_row),
            ("exception in the request", "optimize",
             lambda r: Result(None, "", "", "RuntimeError('injected')")),
        ]
        missed = 0
        for name, key, inject in faults:
            for k in reqs:  # restore every output file
                if k != "optimize" and k != "infeasible":
                    clean[k] = call(cli, reqs[k])
            bad = inject(clean[key])
            log = [Call(r, bad if k == key else clean[k], 0.0, 0.0, 0) for k, r in reqs.items()]
            failed, _ = check_log(log, Context())
            ok = failed == 1
            missed += not ok
            print(f"{'ok  ' if ok else 'MISS'} {name}: {failed} of {len(log)} failed")

        # a repeated call that prints something else fails, though the last passes
        drift = replace(clean["optimize"], stdout=clean["optimize"].stdout + "extra\n")
        log = [Call(reqs["optimize"], drift, 0.0, 0.0, 0),
               Call(reqs["optimize"], clean["optimize"], 0.0, 0.0, 0)]
        failed, _ = check_log(log, Context())
        ok = failed == 1
        missed += not ok
        print(f"{'ok  ' if ok else 'MISS'} repeated call disagrees: {failed} of 2 failed")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
