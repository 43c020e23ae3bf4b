"""Fixed reference computations that gauge how fast the host runs now.

On a small shared host the same iteration of the same input can take up
to twice as long for minutes at a time: neighbours load the cores and
caches, and process CPU time stretches with wall time, so neither clock
alone tells a slower program from a busier host.  ``run.py`` therefore
times a reference between iterations and reports iteration times scaled
to what they would be when the reference takes its nominal time.  The
reference never calls nsgms, so a change to the program cannot move it.

The reference is made of parts that mimic the kinds of work the program
does, and each workload names the parts that match its own dominant work
(``workloads.py``), since a busy neighbour slows an interpreted loop, a
small-matrix kernel and a memory stream by different amounts:

- ``fill_index``: an interpreted loop filling an index table of 3-subsets;
- ``factorize``: batched Cholesky factorizations of small fancy-indexed
  matrices;
- ``draw_gram``: Gaussian draws reduced to a Gram matrix;
- ``stream``: a copy of a 64 MB buffer into fresh memory (mapped anew
  on every copy, as a large file read is).
"""

from __future__ import annotations

import itertools
import time

import numpy as np

PARTS = ("fill_index", "factorize", "draw_gram", "stream")
REPEATS = 3


class Reference:
    """The reference made of ``parts``; ``seconds()`` times it.

    ``nominal_s`` is the reference's median time in the runs it scales, on
    the 2-vCPU Xeon VM the benchmark was tuned on (300 MiB L3, Python 3.11,
    numpy 2.4, one BLAS thread).  It is only a scale, which keeps scaled
    times close to the raw times of a host running at its usual speed.
    """

    def __init__(self, parts, nominal_s: float):
        self.parts = tuple(parts)
        self.nominal_s = nominal_s
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 40, 400))
        self.grams = np.einsum("bil,bjl->bij", x, x)
        self.sets = list(itertools.combinations(range(40), 3))
        self.index = self.fill_index()
        self.buffer = np.ones(8_000_000)

    def fill_index(self):
        index = np.empty((len(self.sets), 3), dtype=np.int32)
        for k, subset in enumerate(self.sets):
            for m, j in enumerate(subset):
                index[k, m] = j
        return index

    def factorize(self):
        rows, cols = self.index[:, :, np.newaxis], self.index[:, np.newaxis, :]
        return np.linalg.cholesky(self.grams[:, rows, cols])

    @staticmethod
    def draw_gram():
        x = np.random.default_rng(1).standard_normal((16, 25_000))
        return x @ x.T

    def stream(self):
        return self.buffer.copy()

    def seconds(self) -> float:
        """Median over ``REPEATS`` passes of this reference's parts."""
        passes = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            for part in self.parts:
                getattr(self, part)()
            passes.append(time.perf_counter() - t0)
        return sorted(passes)[REPEATS // 2]
