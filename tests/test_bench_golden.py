"""The benchmark's correctness gate, run as a test: every perfbench task at the golden seed.

perfbench/run.py opens each run with a warm-up pass of its workload's argv
lists at GOLDEN_SEED, and fails any task whose exit code or report digests
differ from those recorded in perfbench/golden.json.  Each case here runs one
task through cli.main in this process, the way perfbench/run.py::_run_task
does, and checks it against the same record, so a change that moves a
benchmark report byte fails in the test suite too.  perfbench's workloads
and checks are read, never changed.
"""

import importlib.util
import os

import pytest

from kreisslab import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name):
    """perfbench/<name>.py as a module, without putting perfbench/ on sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads, checks = _load("workloads"), _load("checks")


def _exit_code(argv):
    """cli.main's exit code, mapping SystemExit as perfbench/run.py::_run_task does."""
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse usage errors exit 2
        return exc.code or 0 if isinstance(exc.code, (int, type(None))) else 1


@pytest.mark.parametrize("workload, i", [
    pytest.param(name, i, id=f"{name}-{i}")
    for name, tasks in workloads.WORKLOADS.items() for i in range(len(tasks))
])
def test_bench_task_matches_its_golden_record(workload, i, tmp_path):
    out = str(tmp_path / "out")
    argv = workloads.task_argv(workloads.WORKLOADS[workload][i], out, workloads.GOLDEN_SEED)
    want = checks.load_golden(workload)[i]
    assert _exit_code(argv) == want["exit_code"]
    assert checks.report_digests(out) == want["sha256"]
