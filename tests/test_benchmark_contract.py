"""The benchmark's tracer still finds every per-layer metric it reports.

``perfbench/tracer.py`` wraps nsgms functions by module and name from
outside the package; a metric that no wrapped function feeds, or whose
counter cannot read the arguments it needs, is reported as absent and left
out of the benchmark's result.  This test reads the tracer and changes
nothing under ``perfbench/``.
"""

import importlib.util
from pathlib import Path

import numpy as np

import nsgms.cli  # noqa: F401  (loads every layer module the tracer wraps)
from nsgms import regression
from nsgms.sampling import SampleBlocks

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
