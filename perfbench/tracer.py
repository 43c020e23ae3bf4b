"""Span tracing of nsgms layers, installed from outside the package.

The tracer replaces every public function defined in a layer module (see
``BUCKETS``) with a wrapper that records a span: its layer, its duration
and the time its child spans cover.  A layer's self time is the sum of its spans' durations
minus their children's, so the self times of all layers add up to the
duration of the outermost span (``cli.main``).

Functions are found by scanning the namespaces of every loaded ``nsgms``
module, and each reference to a wrapped function is replaced, under
whatever name it is bound (``from .x import f as _g`` included).  A
function belongs to the layer of the module that defines it
(``__module__``), so a renamed or new public function is still attributed
to its layer.  A metric that no
wrapped function feeds, because the names it needs no longer exist or no
longer take the arguments it reads, is reported as absent; nothing here
raises for a missing name.

Spans are kept on one stack, so the traced program must run in one thread
(the benchmark passes ``--workers 1``).
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

# Self-time metrics: (metric, defining-module prefix, rule on the function
# name).  The first matching entry wins.  A function no entry matches (the
# text formatters of serialize.py) is not wrapped; its time is its caller's.
BUCKETS = (
    ("cli.self_s", "nsgms.cli", None),
    ("experiments.self_s", "nsgms.experiments", None),
    ("graph.self_s", "nsgms.graph", None),
    ("model.self_s", "nsgms.model", None),
    ("sampling.gram_s", "nsgms.sampling", lambda name: "gram" in name or "covariance" in name),
    ("sampling.sample_s", "nsgms.sampling", None),
    ("regression.self_s", "nsgms.regression", None),
    ("kernels.scan_s", "nsgms.kernels", None),
    ("kernels.scan_s", "nsgms._scan", None),  # the backends behind kernels.py
    ("serialize.load_s", "nsgms.serialize", lambda name: name.startswith("load")),
    ("serialize.save_s", "nsgms.serialize", lambda name: name.startswith("save")),
)
SELF_METRICS = tuple(dict.fromkeys(metric for metric, _, _ in BUCKETS))

# Layers whose entries from another layer are counted as ``<layer>.calls``.
CALL_COUNTED = ("graph", "model", "kernels")


def _file_bytes(path) -> int:
    return sum(os.path.getsize(name) for name in (str(path), f"{path}.meta")
               if os.path.isfile(name))


# Counters, keyed by (defining-module prefix, function name): the metric and
# its increment from the bound arguments and the result of one call.
COUNTERS = {
    ("nsgms.sampling", "sample_process"):
        ("sampling.values_drawn", lambda a, r: r.p * r.B * r.L),
    ("nsgms.sampling", "block_grams"):
        ("sampling.gram_bytes", lambda a, r: 8 * a["samples"].p * a["samples"].B * a["samples"].L),
    ("nsgms.", "subset_objectives"):  # defined in kernels.py or a backend
        ("kernels.sets_scored", lambda a, r: len(a["sizes"])),
    ("nsgms.experiments", "run_node_recovery"):
        ("experiments.trials", lambda a, r: sum(row.trials for row in r)),
    ("nsgms.serialize", "load_samples"): ("serialize.bytes_read", lambda a, r: _file_bytes(a["path"])),
    ("nsgms.serialize", "load_model"): ("serialize.bytes_read", lambda a, r: _file_bytes(a["path"])),
    ("nsgms.serialize", "save_samples"): ("serialize.bytes_written", lambda a, r: _file_bytes(a["path"])),
}

# Inclusive durations (span plus children), reported beside the self times.
INCLUSIVE = {("nsgms.experiments", "calibrate_rho_min"): "experiments.calibrate_s"}

METRICS = (SELF_METRICS + tuple(f"{layer}.calls" for layer in CALL_COUNTED)
           + tuple(dict.fromkeys(metric for metric, _ in COUNTERS.values()))
           + tuple(INCLUSIVE.values()))


def _bucket(module: str, name: str):
    for metric, prefix, rule in BUCKETS:
        if module.startswith(prefix) and (rule is None or rule(name)):
            return metric
    return None


def _lookup(table, module: str, name: str):
    for (prefix, fname), value in table.items():
        if module.startswith(prefix) and name == fname:
            return value
    return None


class Tracer:
    """Self times, inclusive times and counters, summed over traced calls."""

    def __init__(self):
        self.times = defaultdict(float)
        self.counts = defaultdict(int)
        self._fed = set()       # metrics some wrapped function feeds
        self._broken = set()    # counters whose arguments could not be read
        self._stack = []        # frames: [layer, child seconds]
        self._patches = []
        self._wrappers = {}     # id(original) -> wrapper

    def install(self) -> None:
        """Wrap every public function of the loaded nsgms layer modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "nsgms" or n.startswith("nsgms."))]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not callable(obj) or inspect.isclass(obj) or inspect.ismodule(obj):
                    continue
                if inspect.isgeneratorfunction(obj):
                    continue  # a wrapper would time only the generator's creation
                name = getattr(obj, "__name__", attr)
                if name.startswith("_"):
                    continue  # private helpers count toward their caller's span
                module = getattr(obj, "__module__", None) or ""
                bucket = _bucket(module, name)
                if bucket is None:
                    continue
                if id(obj) not in self._wrappers:
                    self._wrappers[id(obj)] = self._wrap(obj, module, bucket)
                setattr(mod, attr, self._wrappers[id(obj)])
                self._patches.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def absent(self) -> list:
        """Metrics no wrapped function feeds, in ``METRICS`` order."""
        present = self._fed - self._broken
        return [m for m in METRICS if m not in present]

    def _wrap(self, fn, module: str, bucket: str):
        name = getattr(fn, "__name__", "")
        layer = bucket.split(".")[0]
        calls = f"{layer}.calls" if layer in CALL_COUNTED else None
        counter = _lookup(COUNTERS, module, name)
        inclusive = _lookup(INCLUSIVE, module, name)
        signature = None
        if counter:
            try:
                signature = inspect.signature(fn)
            except (TypeError, ValueError):
                self._broken.add(counter[0])
        self._fed.update(m for m in (bucket, calls, inclusive, counter and counter[0]) if m)
        stack, times, counts = self._stack, self.times, self.counts

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if calls and (not stack or stack[-1][0] != layer):
                counts[calls] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                times[bucket] += elapsed - frame[1]
                if inclusive:
                    times[inclusive] += elapsed
                if stack:
                    stack[-1][1] += elapsed
            if signature is not None:
                self._count(counter, signature, args, kwargs, result)
            return result

        return span

    def _count(self, counter, signature, args, kwargs, result) -> None:
        metric, increment = counter
        try:
            value = increment(signature.bind(*args, **kwargs).arguments, result)
        except (AttributeError, KeyError, TypeError, ValueError):
            self._broken.add(metric)
            return
        self.counts[metric] += int(value)
