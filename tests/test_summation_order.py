"""Results do not depend on how the interpreter sums floats.

Every sum a result depends on is added left to right (``mrcwpt._sums``),
so the compensated builtin ``sum`` of Python 3.12 and later must leave
every result alone. The solver and the closed form are compared bit for
bit with ``builtins.sum`` swapped for an emulation of it
(``tests/neumaier_sum.py``), and the pinned tests are run again in a fresh
pytest process with the emulation installed.
"""

import builtins
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from mrcwpt import ChargingProblem, optimize_loads, solve_closed_form
from mrcwpt._sums import left_dot, left_sum

from conftest import bench_system, random_loads, random_switch
from neumaier_sum import neumaier_sum

TESTS = Path(__file__).parent

# every sha256 pin of the suite, and the sweeps checked against
# solve_closed_form's p_sum point by point
PINNED = (
    "test_timeshare.py::TestPinnedSchedules",
    "test_distributed.py::TestPinnedRuns",
    "test_distributed.py::TestTraceCsv::test_bundled_30w_digest",
    "test_region.py::TestPinnedCsv",
    "test_cli.py::TestSweepOutput",
)


def test_emulation_compensates_exact_floats_only():
    assert left_sum([0.1] * 10) == 0.9999999999999999
    assert neumaier_sum([0.1] * 10) == 1.0
    assert neumaier_sum([1e100, 1.0, -1e100]) == 1.0
    # numpy scalars are not exact floats: they add left to right
    assert neumaier_sum(np.full(10, 0.1)) == left_sum([0.1] * 10)
    assert neumaier_sum([True, 2, 0.5], 1) == 4.5
    assert neumaier_sum([[1], [2]], []) == [1, 2]
    if sys.version_info >= (3, 12):
        rng = np.random.default_rng(12)
        for _ in range(200):
            values = (rng.standard_normal(int(rng.integers(1, 20)))
                      * 10.0 ** rng.integers(-5, 5)).tolist()
            assert neumaier_sum(values) == sum(values)


def test_left_dot_adds_each_product_in_order():
    u, v = [1e16, 1.0, -1e16], [1.0, 1.0, 1.0]
    assert left_dot(u, v) == 0.0
    assert left_dot([], []) == 0.0
    assert left_dot([0.1] * 10, [1.0] * 10) == left_sum([0.1] * 10)


def test_solver_and_closed_form_ignore_the_builtin_sum(monkeypatch):
    # the bundled coils hold Python floats, whose builtin sum compensates
    rng = np.random.default_rng(312)
    cases = []
    for _ in range(300):
        n = int(rng.integers(1, 4))
        config = bench_system(p_req=(10 ** rng.uniform(-1.0, 1.8, 3)).tolist(), n=n)
        cases.append((config, random_switch(rng, n), random_loads(rng, config)))

    def results():
        return [repr((optimize_loads(ChargingProblem(sys=config, sw=sw)),
                      optimize_loads(ChargingProblem(sys=config)),
                      solve_closed_form(config, sw, loads)))
                for config, sw, loads in cases]

    expected = results()
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    assert results() == expected


def test_pinned_digests_hold_under_a_compensated_sum():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(TESTS), str(TESTS.parent / "src"), env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "neumaier_sum", "-p", "no:cacheprovider",
         *(str(TESTS / node) for node in PINNED)],
        cwd=TESTS.parent, env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
    assert " passed" in done.stdout and "deselected" not in done.stdout
