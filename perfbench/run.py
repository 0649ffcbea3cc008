"""Benchmark of the eselend command line batches.

    python3 perfbench/run.py --workload mv-sweep --seed 1 --seconds 15 --trace 0

Runs one workload through ``eselend.cli.main(argv)`` in this process, from
the ``src`` tree next to this directory, repeating the workload's
invocation list for ``--seconds`` after one warm-up pass and checking every
output file. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
(see layers.py). The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` (invocations that
exited non-zero or whose output check failed) and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import layers
import speed
import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

# Fresh processes timed for setup_s, after one untimed process that warms
# the file cache and the bytecode cache. OpenBLAS starts a thread per core
# at numpy import, and whether the second core is idle moved the import
# between 0.13 s and 0.21 s on the tuning machine; with one BLAS thread it
# took about 0.10 s either way.
SETUP_SAMPLES = 7
SETUP_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import eselend.cli\n"
    "eselend.cli.build_parser()\n"
    "t1 = time.perf_counter()\n"
    "print(repr(t1 - t0), eselend.__file__)\n"
)

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _cpu_seconds():
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _inside(path, root):
    return Path(path).resolve().is_relative_to(root.resolve())


def measure_setup():
    """Median seconds to import eselend.cli and build its parser.

    Returns (rescaled, raw) medians; see speed.py for the rescaling.
    """
    raw, scaled = [], []
    before = speed.probe("mixed")[0]
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=120, cwd=ROOT,
                              env=SETUP_ENV)
        after = speed.probe("mixed")[0]
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        seconds, origin = proc.stdout.split(maxsplit=1)
        if not _inside(origin.strip(), SRC):
            raise RuntimeError(f"setup probe imported eselend from {origin.strip()}")
        if i:
            raw.append(float(seconds))
            scaled.append(float(seconds) * speed.REFERENCE_S["mixed"]
                          / ((before + after) / 2))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


class Runner:
    """Runs passes of one workload and counts checked invocations."""

    def __init__(self, cli, workload, workdir):
        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def one_pass(self, tracer=None):
        """Run every invocation once; return (wall, cpu, statuses)."""
        statuses = []
        gc.collect()
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        for inv in self.workload.invocations:
            out = self.workdir / inv.out
            argv = [*inv.argv, "--out", str(out)]
            span = tracer.enter("cli.main") if tracer else None
            try:
                status = self.cli.main(argv)
            except SystemExit as exc:
                status = exc.code
            except Exception as exc:  # noqa: BLE001 - counted as a failed invocation
                status = f"exception {exc!r}"
            finally:
                if tracer:
                    tracer.leave(span)
            statuses.append(status)
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
        return wall, cpu, statuses

    def check(self, statuses):
        """Check the outputs of the pass just run; return bytes written."""
        written = 0
        for inv, status in zip(self.workload.invocations, statuses):
            self.attempted += 1
            out = self.workdir / inv.out
            if status != 0:
                problems = [f"exit status {status}"]
            else:
                problems = self.workload.check(inv, out)
            if out.exists():
                written += out.stat().st_size
                out.unlink()
            if problems:
                self.failed += 1
                self.problems.extend(f"{' '.join(inv.argv[:2])}: {p}" for p in problems[:5])
        return written

    def measured_pass(self, tracer=None):
        """One pass, then its checks; return (wall, cpu, bytes written)."""
        wall, cpu, statuses = self.one_pass(tracer)
        return wall, cpu, self.check(statuses)

    def timed_passes(self, seconds):
        """Untraced passes until ``seconds`` have elapsed (at least one).

        Returns lists of per-pass wall and CPU seconds, rescaled by the
        speed probes run before and after each pass, and the raw walls.
        """
        walls, cpus, raw_walls = [], [], []
        kind = self.workload.probe
        ref = speed.REFERENCE_S[kind]
        before = speed.probe(kind)
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            wall, cpu, _ = self.measured_pass()
            after = speed.probe(kind)
            walls.append(wall * ref / ((before[0] + after[0]) / 2))
            cpus.append(cpu * ref / ((before[1] + after[1]) / 2))
            raw_walls.append(wall)
            before = after
        return walls, cpus, raw_walls


@contextmanager
def installed(tracer, modules, wrappers):
    """Patch every wrapper in for the duration of the block."""
    try:
        for fn, wrapper in wrappers:
            tracer.install(modules, fn, wrapper)
        yield
    finally:
        tracer.uninstall()


def run_traced(runner, eselend, seconds):
    """Alternate untraced and traced passes for ``seconds``.

    Returns the per-layer medians over the traced passes, with
    ``trace.overhead_s`` the difference of the two pass medians, and the
    pass counts. Alternating keeps slow drift of the machine out of the
    overhead figure. tracemalloc slows allocation-heavy calls several-fold,
    so the ``.peak_mb`` figures come from one more traced pass whose
    timings are discarded.
    """
    tracer = Tracer()
    modules = [eselend] + [importlib.import_module(f"eselend.{m}") for m in layers.MODULES]
    wrappers = [(fn, tracer.span(name, fn, **options))
                for name, fn, options in layers.traced_functions(eselend)]
    plain, traced, per_pass = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(runner.measured_pass()[0])
        tracer.reset()
        with installed(tracer, modules, wrappers):
            wall, _, written = runner.measured_pass(tracer)
        traced.append(wall)
        per_pass.append(layers.pass_metrics(tracer, written))
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)

    tracer.reset()
    tracer.measure_peaks = True
    with installed(tracer, modules, wrappers):
        runner.measured_pass(tracer)
    metrics.update(tracer.peaks)
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    return ({name: (metrics[name], unit) for name, unit in units.items()},
            {"untraced_passes": len(plain), "traced_passes": len(traced),
             "memory_passes": 1})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eselend" / "cli.py").is_file():
        print(f"error: no eselend source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import eselend
    import eselend.cli as cli
    if not _inside(eselend.__file__, SRC):
        print(f"error: eselend imported from {eselend.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        workload = workloads.make(args.workload, args.seed)
        workload.prepare(workdir, SRC / "eselend" / "data" / "sample_schema.csv")
        setup = None if args.trace else measure_setup()
        runner = Runner(cli, workload, workdir)
        runner.check(runner.one_pass()[2])  # warm-up, checked but not timed
        if args.trace:
            metrics, counts = run_traced(runner, eselend, args.seconds)
            notes = {}
        else:
            walls, cpus, raw_walls = runner.timed_passes(args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values = {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
                      "setup_s": setup[0], "peak_rss_mb": rss_mb}
            metrics = {name: (values[name], unit) for name, unit in END_TO_END}
            counts = {"passes": len(walls)}
            notes = {"raw_wall_s": statistics.median(raw_walls), "raw_setup_s": setup[1]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    env = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "seconds": args.seconds, "warmup_passes": 1, **counts,
           "nproc": os.cpu_count(), "cpu": cpu_model(),
           "python": platform.python_version(), "numpy": numpy.__version__}
    print("env " + json.dumps(env))
    for problem in runner.problems[:20]:
        print("problem " + problem)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for name, value in notes.items():
        print(f"{name} {value:.6g} s (not rescaled)")
    ratio = runner.failed / runner.attempted
    print(f"fail_ratio {ratio:.6g} ratio ({runner.failed}/{runner.attempted} invocations)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
