"""Layered end-to-end benchmark of nsgms, driven through its command line.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are described in ``workloads.py``.  Every iteration is one call
of ``nsgms.cli.main([...])`` in this process with ``--workers 1``, on
inputs the benchmark writes from ``--seed`` into ``.perfbench_work/``; its
output is checked after the call, outside the timed region.

With ``--trace 0`` the run reports the end-to-end metrics:

- ``wall_s``: median wall seconds of one iteration at reference speed,
  over the iterations of a ``--seconds`` long loop that follows one
  warm-up iteration;
- ``peak_mem_mb``: peak bytes traced by ``tracemalloc`` (numpy buffers
  included) during one further iteration, in 1e6 bytes;
- ``setup_s``: median wall seconds, at reference speed, of a fresh
  interpreter running ``python -m nsgms.cli --version`` with
  ``PYTHONPATH=src``: the import cost.

"At reference speed": a fixed reference computation (``hostspeed.py``),
made of the parts the workload names, is timed before the first and after
every iteration or launch, and each wall time is multiplied by the
reference's nominal time over the mean of the two reference times around
it.  This takes out the host's own slow and fast spells, which on a shared
machine spread the raw medians of one input by a quarter and more across
runs minutes apart.  The ``iterations:`` and ``setup:`` lines give the raw
medians beside the median process CPU time and reference time; a gap
between wall and CPU time is time spent off the CPU (waiting on I/O or for
a core).

With ``--trace 1`` it times half of ``--seconds`` untraced, then half with
every public nsgms function wrapped (``tracer.py``), and reports per
iteration the mean self time of each layer, the counters, ``trace.wall_s``
(mean traced iteration time, which the self times add up to) and
``trace.overhead_s`` (mean traced minus mean untraced iteration time).

``attempted`` counts the iterations run, ``failed`` those whose call exits
non-zero or whose output fails the workload's check, so ``failed /
attempted`` is the run's failed fraction.  A failed one-off check (the
oracle of ``estimate_wide``, the ``--version`` launches) adds one to
``failed`` but not to ``attempted``, so the run still reads incorrect.
A per-layer metric that no wrapped function feeds (``tracer.py``) is listed
on an ``absent:`` line and left out of the result, so it cannot be read as
a layer that took no time.
The environment is printed as one JSON line before the result; the last
line of standard output is the result object.

Exits 2 without a result when the tree has no ``src/nsgms`` to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_LAUNCHES = 11
MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 60
# Nominal seconds of the all-parts reference that scales start-up times
# (hostspeed.Reference).
SETUP_REFERENCE_S = 0.045


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shapes for the smoke test")
    return parser.parse_args(argv)


def single_thread_blas() -> None:
    """Hold BLAS to one thread, whatever the caller set; run before numpy loads.

    On a small shared machine a second BLAS thread waits on a busy sibling
    core, which made iteration times of the same input vary by half.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


class Runner:
    """Runs one workload's iterations through ``nsgms.cli.main``."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.attempted = 0
        self.cpu_times = []
        self.failures = []

    def call(self, argv) -> int:
        """One CLI call; any escaping exception is reported as exit code 1."""
        try:
            return self.cli.main(argv)  # looked up per call, so tracing applies
        except SystemExit as e:
            return e.code if isinstance(e.code, int) else 1
        except Exception:  # the loop must go on and count the failure
            traceback.print_exc(file=sys.stderr)
            return 1

    def iterate(self) -> float:
        """Run, time and check one iteration; returns its wall seconds."""
        c0 = time.process_time()
        t0 = time.perf_counter()
        code = self.call(self.workload.argv())
        elapsed = time.perf_counter() - t0
        self.cpu_times.append(time.process_time() - c0)
        self.record(f"exit code {code}" if code != 0 else self.check(self.workload.check))
        self.workload.after_iteration()
        return elapsed

    @staticmethod
    def check(fn, *args):
        """The problem ``fn`` reports, or the error it raised reading the output."""
        try:
            return fn(*args)
        except (OSError, ValueError, KeyError, IndexError) as e:
            return f"output check raised {e!r}"

    def record(self, problem, iteration: bool = True) -> None:
        """Count an iteration's outcome, or with ``iteration=False`` a one-off check's."""
        self.attempted += iteration
        if problem:
            self.failures.append(problem)
            print(f"failed: {problem}", file=sys.stderr)

    def loop(self, seconds: float, reference=None) -> list:
        """Iterate for ``seconds``; the wall seconds of each iteration.

        Given a ``hostspeed.Reference``, also times it before the first and
        after every iteration, into ``self.reference_times``.
        """
        times = []
        self.reference_times = [reference.seconds()] if reference else []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(times) < MIN_ITERATIONS:
            times.append(self.iterate())
            if reference:
                self.reference_times.append(reference.seconds())
        return times


def at_reference_speed(times, reference_times, nominal_s: float) -> list:
    """Each time scaled by ``nominal_s`` over the reference times around it."""
    return [t * nominal_s / (0.5 * (before + after))
            for t, before, after in zip(times, reference_times, reference_times[1:])]


def peak_memory_bytes(runner: Runner) -> int:
    import gc
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        runner.iterate()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def setup_seconds(runner: Runner, version: str) -> float:
    """Median start-up time of ``python -m nsgms.cli --version``, at reference speed.

    Start-up mixes interpreted code, native imports and file reads, so the
    reference is made of every part.
    """
    from hostspeed import PARTS, Reference

    reference = Reference(PARTS, SETUP_REFERENCE_S)
    env = dict(os.environ, PYTHONPATH="src")
    cmd = [sys.executable, "-m", "nsgms.cli", "--version"]
    times, problems, reference_times = [], [], []
    for k in range(SETUP_LAUNCHES + 1):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        if done.returncode != 0 or version not in done.stdout:
            problems.append(f"--version exited {done.returncode}: {done.stderr.strip()}")
        if k:  # the first launch also writes bytecode caches
            times.append(elapsed)
        reference_times.append(reference.seconds())
    runner.record("; ".join(problems) or None, iteration=False)
    print(f"setup: {len(times)} launches; median wall {statistics.median(times):.6f} s, "
          f"median reference {statistics.median(reference_times):.6f} s")
    return statistics.median(at_reference_speed(times, reference_times, reference.nominal_s))


def command_output(cmd) -> str:
    """Standard output of ``cmd`` run in the checkout, or "" if it cannot run."""
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S).stdout.strip()
    except OSError:
        return ""


def blas_threads():
    """OpenBLAS's thread count, or None when it cannot be queried."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(nproc: int, workload) -> dict:
    import hashlib
    import platform

    import numpy as np

    import nsgms

    rev = command_output(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else ""
    digest = hashlib.sha256()
    for path in sorted((SRC / "nsgms").glob("*.py*")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    llc = command_output(["getconf", "LEVEL3_CACHE_SIZE"])
    backend = getattr(sys.modules.get("nsgms.kernels"), "scan_backend", None)
    return {
        "git_rev": rev or None,
        "src_sha256": digest.hexdigest(),
        "nsgms": nsgms.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "nproc": nproc,
        "llc_bytes": int(llc) if llc.isdigit() else None,
        "scan_backend": backend() if callable(backend) else None,
        "file_bytes": workload.files,
    }


def traced_metrics(runner: Runner, seconds: float) -> dict:
    from tracer import METRICS, SELF_METRICS, Tracer

    untraced = runner.loop(seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = runner.loop(seconds / 2)
    finally:
        tracer.uninstall()
    n = len(traced)
    absent = tracer.absent()
    if absent:
        print(f"absent: {', '.join(absent)}")
    metrics = {}
    for name in METRICS:
        if name in absent:
            continue
        if name.endswith("_s"):
            metrics[name] = (tracer.times[name] / n, "s")
        else:
            metrics[name] = (tracer.counts[name] / n, "bytes" if "bytes" in name else "count")
    metrics["trace.wall_s"] = (statistics.fmean(traced), "s")
    metrics["trace.overhead_s"] = (statistics.fmean(traced) - statistics.fmean(untraced), "s")
    layer_sum = sum(metrics[name][0] for name in SELF_METRICS if name in metrics)
    print(f"iterations: {len(untraced)} untraced, {n} traced; "
          f"layer self times sum to {layer_sum:.6f} s of traced wall {metrics['trace.wall_s'][0]:.6f} s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nsgms" / "cli.py").is_file():
        print(f"error: no program to benchmark at {SRC / 'nsgms'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    single_thread_blas()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import nsgms
    import workloads
    from nsgms import cli

    if Path(nsgms.__file__).resolve().parent != (SRC / "nsgms").resolve():
        print(f"error: imported nsgms from {nsgms.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.NAMES}",
              file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.make(args.workload, str(workdir), args.seed, args.size)
        runner = Runner(cli, workload)
        env = environment(nproc, workload)
        print("environment " + json.dumps(env, sort_keys=True))
        if getattr(workload, "oracle_nodes", None):
            try:
                from nsgms.regression import residual_statistic
                from nsgms.sampling import SampleBlocks
            except ImportError as e:
                runner.record(f"oracle unavailable: {e}", iteration=False)
            else:
                runner.record(runner.check(workload.oracle_check, runner.call,
                                           residual_statistic, SampleBlocks), iteration=False)
        runner.iterate()  # warm-up: imports, caches, first-call costs
        if args.trace:
            metrics = traced_metrics(runner, args.seconds)
        else:
            from hostspeed import Reference

            reference = Reference(*workload.reference)
            times = runner.loop(args.seconds, reference)
            print(f"iterations: {len(times)} timed; median wall {statistics.median(times):.6f} s, "
                  f"median cpu {statistics.median(runner.cpu_times[-len(times):]):.6f} s, "
                  f"median reference {statistics.median(runner.reference_times):.6f} s")
            metrics = {
                "wall_s": (statistics.median(at_reference_speed(
                    times, runner.reference_times, reference.nominal_s)), "s"),
                "peak_mem_mb": (peak_memory_bytes(runner) / 1e6, "MB"),
                "setup_s": (setup_seconds(runner, nsgms.__version__), "s"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:>16.6g} {unit}")
    failed = len(runner.failures)
    print(f"failed_frac {failed / runner.attempted:.6g} ({failed} of {runner.attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
