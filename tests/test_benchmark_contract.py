"""The benchmark's tracer still finds every per-layer metric it reports.

``perfbench/tracer.py`` wraps nsgms functions by module and name from
outside the package; a metric that no wrapped function feeds, or whose
counter cannot read the arguments it needs, is reported as absent and left
out of the benchmark's result.  This test reads the tracer and changes
nothing under ``perfbench/``.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nsgms.cli as cli  # loads every layer module the tracer wraps
from nsgms import regression
from nsgms.sampling import SampleBlocks

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

# A tiny sweep with a multiplier entry, so calibration runs too.
CONFIG = """\
p = 5
s_true = 1
s_est = 1
B = 2
N_grid = 0.1x, 40
beta = 2.0
coupling = 0.4
trials = 2
eta = 0.1
master_seed = 3
"""


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_metric():
    rng = np.random.default_rng(0)
    samples = SampleBlocks(p=5, B=2, L=8, data=tuple(rng.standard_normal((5, 8)) for _ in range(2)))
    config = regression.EstimatorConfig(s=2, lam=0.1)
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        # Counters read their call's arguments, so run the scan once.
        regression.estimate_graph(samples, config)
        regression.estimate_neighborhood(samples, 2, config)
        assert tracer.absent() == []
    finally:
        tracer.uninstall()


def test_every_metric_is_fed_by_the_benchmark_commands(tmp_path):
    # The benchmark runs these subcommands through ``nsgms.cli.main``; each
    # counter reads the arguments or result of a call made on their path.
    model, samples = tmp_path / "model.txt", tmp_path / "samples.bin"
    config = tmp_path / "config.txt"
    config.write_text(CONFIG)
    runs = [
        ["model", "-p", "5", "--s-max", "2", "-B", "2", "-L", "40", "--beta", "2.0",
         "--coupling", "0.4", "--seed", "1", "-o", str(model)],
        ["sample", str(model), "--seed", "2", "-o", str(samples), "--binary"],
        ["estimate", str(samples), "--binary", "-s", "2", "--lam", "0.01",
         "-o", str(tmp_path / "edges.txt")],
        ["--workers", "1", "experiment", str(config), "-o", str(tmp_path / "result.csv"),
         "--no-timings"],
    ]
    module = load_tracer()
    tracer = module.Tracer()
    tracer.install()
    try:
        for argv in runs:
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert tracer.absent() == []
    unfed = [m for m in module.METRICS if not (tracer.times[m] or tracer.counts[m])]
    assert unfed == []


@pytest.mark.parametrize("workload", ["harness_bound", "estimate_wide", "estimate_tall", "sample_write"])
def test_benchmark_smoke_run_ends_with_its_result(workload):
    # Anything nsgms writes to stdout outside the CLI's own output would
    # displace the result object from the last line.
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--size", "tiny", "--trace", "1", "--seconds", "0.2", "--seed", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert not [line for line in lines if line.startswith("absent:")]
    result = json.loads(lines[-1])
    assert result["correct"] is True
    if workload == "estimate_tall":
        for name in ("serialize.bytes_read", "sampling.gram_bytes"):
            assert result["metrics"][name]["value"] > 0
