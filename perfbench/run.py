"""kreisslab benchmark: CLI workloads timed end to end, or traced layer by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fourier_decomp --seed 3 --seconds 20 --trace 0

Each pass runs the workload's argv list through ``kreisslab.cli.main`` in
this process, and every report of every pass is checked (see checks.py).  An
untimed warm-up pass runs at the golden seed, so every run compares its
reports with the recorded digests; the measured passes run at seeds drawn
from ``--seed``.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json: set-up (a fresh interpreter importing ``kreisslab.cli``),
the wall and CPU time of a typical pass (each task's median over the
measured passes) and peak resident memory.  Wall and CPU time are given at
a reference machine speed (see ``reference_kernel``); a text line gives them
raw.  ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, the tracing overhead among them.  The last line of standard output is the result
as one JSON object; the lines before it give each metric with its unit, the
failed-task fraction and the machine's environment.

``--record-golden`` re-records the workload's exit codes and report digests
at the golden seed, after checking that two passes agree byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import glob
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy

from checks import load_golden, report_digests, save_golden, task_errors
from tracing import COMPUTED, Tracer
from workloads import GOLDEN_SEED, SEPARATION, WORKLOADS, task_argv

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")

SETUP_SAMPLES = 5
# The reference kernel's best wall (and CPU) time on the 2-vCPU host the
# benchmark was built on: times divided by the kernel's time next to them
# are multiplied by this, so they read as seconds on that host.
REFERENCE_S = 0.0063
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 120
_IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import kreisslab.cli; "
                   "print(time.perf_counter() - t)")


@dataclasses.dataclass
class Pass:
    """Per-task wall and CPU seconds of one pass over the argv list.

    ``ref_walls`` and ``ref_cpus`` are the reference kernel's times around
    each task (the mean of one run before and one after it).
    """

    walls: list[float]
    cpus: list[float]
    ref_walls: list[float]
    ref_cpus: list[float]
    elapsed_s: float


_REFERENCE_MATRIX = numpy.random.default_rng(0).standard_normal((24, 24))


def reference_kernel() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed piece of Python and numpy work.

    It measures the machine's speed next to each timed task.  A shared host
    runs the same code up to twice as slow for minutes at a time, in CPU time
    as much as in wall time, so raw seconds of one run differ from those of
    the next far more than any change to the program would; times divided by
    the kernel's do not.  The kernel uses no kreisslab code, so a faster
    program does not speed it up.
    """
    a = _REFERENCE_MATRIX
    wall0, cpu0 = time.perf_counter(), _cpu_s()
    acc = 0.0
    for i in range(600):
        acc += float(numpy.abs(a @ a[:, i % 24]).max())
    n = 0
    for i in range(60000):
        n += i * i % 7
    for _ in range(4):
        numpy.linalg.svd(a)
    return time.perf_counter() - wall0, _cpu_s() - cpu0


def _around(timed):
    """``timed()``'s result, with the mean reference times of a kernel run before and after it."""
    before = reference_kernel()
    result = timed()
    after = reference_kernel()
    return result, (before[0] + after[0]) / 2, (before[1] + after[1]) / 2


class Runner:
    """Runs one workload's passes in this process and checks every report."""

    def __init__(self, cli, workload: str, expected: list[dict]):
        self.cli = cli
        self.workload = workload
        self.outs = [os.path.join(OUT_ROOT, workload, f"task{i}")
                     for i in range(len(WORKLOADS[workload]))]
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def argvs(self, seed: int) -> list[list[str]]:
        return [task_argv(argv, out, seed) for argv, out in zip(WORKLOADS[self.workload], self.outs)]

    def execute(self, seed: int) -> tuple[Pass, list[int | None], list[dict]]:
        """Time one pass at ``seed``; also return its exit codes and report digests."""
        for out in self.outs:
            shutil.rmtree(out, ignore_errors=True)
        codes, timing = [], Pass([], [], [], [], 0.0)
        start = time.perf_counter()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            for argv in self.argvs(seed):
                (code, wall, cpu), ref_wall, ref_cpu = _around(lambda: _timed_task(self.cli, argv))
                codes.append(code)
                timing.walls.append(wall)
                timing.cpus.append(cpu)
                timing.ref_walls.append(ref_wall)
                timing.ref_cpus.append(ref_cpu)
        timing.elapsed_s = time.perf_counter() - start
        return timing, codes, [report_digests(out) for out in self.outs]

    def run_pass(self, seed: int) -> Pass:
        timing, codes, digests = self.execute(seed)
        errors = task_errors(list(zip(codes, digests)), self.outs, self.expected,
                             golden=seed == GOLDEN_SEED)
        self.attempted += len(errors)
        for argv, error in zip(self.argvs(seed), errors):
            if error is not None:
                self.failed += 1
                print(f"FAILED {' '.join(argv)}: {error}", file=sys.stderr)
        return timing


def _timed_task(cli, argv: list[str]) -> tuple[int | None, float, float]:
    """The task's exit code, wall seconds and CPU seconds."""
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    code = _run_task(cli, argv)
    return code, time.perf_counter() - t0, _cpu_s() - cpu0


def _run_task(cli, argv: list[str]) -> int | None:
    """The task's exit code, or None if it raised."""
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse usage errors exit 2
        return exc.code or 0 if isinstance(exc.code, (int, type(None))) else 1
    except Exception:
        traceback.print_exc()
        return None


def _cpu_s() -> float:
    return time.process_time()  # user plus system, all threads of this process


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB


def _child_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)


def measure_setup(samples: int) -> list[float]:
    """Seconds a fresh interpreter takes to import kreisslab.cli.

    One untimed child first writes the bytecode caches, which users have.
    These stay raw: an import's time follows the reference kernel's too
    loosely for scaling by it to steady them.
    """
    _child_python("-c", _IMPORT_SNIPPET)
    return [float(_child_python("-c", _IMPORT_SNIPPET).stdout) for _ in range(samples)]


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(kreisslab, scipy) cumulative import seconds from ``-X importtime`` output.

    scipy counts each scipy module imported by a non-scipy parent, so nested
    scipy imports are not counted twice.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(cumulative) / 1e6))
    kreisslab_s = scipy_s = 0.0
    stack: list[str] = []  # ancestors of the current row
    for depth, name, seconds in reversed(rows):  # reversed output lists parents first
        del stack[depth:]
        if depth == 0 and name.split(".")[0] == "kreisslab":
            kreisslab_s += seconds
        if name.split(".")[0] == "scipy" and not any(a.split(".")[0] == "scipy" for a in stack):
            scipy_s += seconds
        stack.append(name)
    return kreisslab_s, scipy_s


def measure_imports(samples: int) -> dict[str, float]:
    _child_python("-c", "import kreisslab.cli")
    parsed = [parse_importtime(_child_python("-X", "importtime", "-c", "import kreisslab.cli").stderr)
              for _ in range(samples)]
    return {"import.kreisslab_s": statistics.median(k for k, _ in parsed),
            "import.scipy_s": statistics.median(s for _, s in parsed)}


def environment() -> dict:
    import numpy
    import scipy

    blas = []
    for pkg in (numpy, scipy):
        info = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas.append({"package": pkg.__name__, "name": info.get("name"),
                     "version": info.get("version"), "threads": _blas_threads(pkg)})
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}


def _blas_threads(pkg) -> int | None:
    """OpenBLAS's thread count, asked of the copy the package bundles."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)  # already loaded by the package: same handle
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def keep_measuring(start: float, last_s: float, seconds: float) -> bool:
    """Start another pass only if one more like the last still fits."""
    return time.perf_counter() - start + last_s <= seconds


def typical_pass(passes: list[Pass], field: str, reference: bool = True) -> float:
    """A pass made of each task's median time over the passes.

    A slow spell on a shared machine hits one task of one pass; the per-task
    median drops it where a median of few whole-pass totals would not.  With
    ``reference``, each time is first divided by the reference kernel's time
    next to it and multiplied by REFERENCE_S (see ``reference_kernel``).
    """
    ref_field = {"walls": "ref_walls", "cpus": "ref_cpus"}[field]
    total = 0.0
    for i in range(len(passes[0].walls)):
        times = [getattr(p, field)[i] for p in passes]
        if reference:
            times = [t / getattr(p, ref_field)[i] * REFERENCE_S for t, p in zip(times, passes)]
        total += statistics.median(times)
    return total


def pass_seeds(seed: int):
    """CLI seeds of the measured passes: the run's inputs, all drawn from its seed.

    Each pass gets its own seed because the work itself depends on it (the
    ascent's iteration counts, the decomposition corpus): a median over
    passes then averages over several inputs instead of repeating one.
    """
    for i in itertools.count(1):
        yield (seed * 1000 + i) % 2**32


def end_to_end(runner: Runner, seed: int, seconds: float) -> tuple[dict[str, float], str]:
    setup = measure_setup(SETUP_SAMPLES)
    runner.run_pass(GOLDEN_SEED)  # warm-up, checked against the golden digests
    passes = []
    start = time.perf_counter()
    for pass_seed in pass_seeds(seed):
        if passes and not keep_measuring(start, passes[-1].elapsed_s, seconds):
            break
        passes.append(runner.run_pass(pass_seed))
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": typical_pass(passes, "walls"),
        "cpu_s": typical_pass(passes, "cpus"),
        "peak_rss_mb": _peak_rss_mb(),
    }
    ref_wall = statistics.median(r for p in passes for r in p.ref_walls)
    note = (f"setup_s median of {SETUP_SAMPLES} imports; wall_s, cpu_s sum of per-task "
            f"medians over {len(passes)} passes, at reference speed "
            f"({REFERENCE_S:g} s per kernel; median kernel this run {ref_wall:.6g} s); "
            f"raw wall_s {typical_pass(passes, 'walls', reference=False):.6g} s, "
            f"raw cpu_s {typical_pass(passes, 'cpus', reference=False):.6g} s")
    return metrics, note


def per_layer(runner: Runner, seed: int, seconds: float,
              env: dict) -> tuple[dict[str, float], str]:
    imports = measure_imports(IMPORTTIME_SAMPLES)
    runner.run_pass(GOLDEN_SEED)  # warm-up, checked against the golden digests
    tracer = Tracer()
    untraced, traced, layer_runs, spans = [], [], [], []
    start = time.perf_counter()
    for pass_seed in pass_seeds(seed):
        if traced and not keep_measuring(start, untraced[-1].elapsed_s + traced[-1].elapsed_s, seconds):
            break
        untraced.append(runner.run_pass(pass_seed))
        tracer.reset()
        tracer.install()
        try:
            traced.append(runner.run_pass(pass_seed))
        finally:
            tracer.uninstall()
        layer_runs.append(tracer.metrics())
        spans.append(tracer.spans)
    metrics = {name: statistics.median_low(run[name] for run in layer_runs) for name in layer_runs[0]}
    metrics.update(imports)
    metrics["trace.traced_wall_s"] = typical_pass(traced, "walls", reference=False)
    metrics["trace.untraced_wall_s"] = typical_pass(untraced, "walls", reference=False)
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    _write_spans(runner.workload, env, spans)
    note = (f"median of {len(traced)} traced passes, each after an untraced one on the same "
            f"seed; {', '.join(COMPUTED)} computed from call arguments; all times raw, "
            f"not at reference speed")
    return metrics, note


def _write_spans(workload: str, env: dict, passes: list[list[list]]) -> None:
    names = sorted({span[0] for spans in passes for span in spans})
    index = {name: i for i, name in enumerate(names)}
    path = os.path.join(OUT_ROOT, workload, "spans.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "names": names, "columns": ["name", "start", "end", "parent"],
                   "passes": [[[index[n], s, e, p] for n, s, e, p in spans] for spans in passes]},
                  fh, separators=(",", ":"))


def record_golden(cli, workload: str) -> int:
    runner = Runner(cli, workload, expected=[])
    passes = [runner.execute(GOLDEN_SEED)[1:] for _ in range(2)]
    if passes[0] != passes[1]:
        print("reports differ between two passes; not recorded", file=sys.stderr)
        return 1
    codes, digests = passes[0]
    save_golden(workload, [{"argv": argv, "exit_code": code, "sha256": d}
                           for argv, code, d in zip(WORKLOADS[workload], codes, digests)])
    print(f"recorded golden digests for {workload} at seed {GOLDEN_SEED}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "kreisslab", "cli.py")):
        print(f"no kreisslab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import kreisslab.cli as cli

    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(SRC, "kreisslab"):
        print(f"imported kreisslab from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.record_golden:
        return record_golden(cli, args.workload)

    expected = load_golden(args.workload)
    if expected is None or [e["argv"] for e in expected] != WORKLOADS[args.workload]:
        print(f"golden digests for {args.workload} are missing or out of date", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    env = environment()
    runner = Runner(cli, args.workload, expected)
    if args.trace:
        measured, note = per_layer(runner, args.seed, args.seconds, env)
    else:
        measured, note = end_to_end(runner, args.seed, args.seconds)

    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}: {note}")
    metrics = {}
    for entry in declared:
        value = measured[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:42s} {value:14.6g} {entry['unit']}")
    failed_frac = runner.failed / runner.attempted
    print(f"  {'failed_frac':42s} {failed_frac:14.6g} fraction "
          f"({runner.failed} of {runner.attempted} tasks)")
    if args.trace:
        for description, holds in SEPARATION[args.workload]:
            print(f"separation {'holds' if holds(measured) else 'NOT MET'}: {description}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
