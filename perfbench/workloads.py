"""Benchmark workloads: inputs made from a seed, one CLI call, an output check.

Each workload writes its inputs into a work directory, names the argument
list of one iteration of ``nsgms.cli.main`` and checks that iteration's
output; ``files`` gives the size of each input and output file.
``reference`` names the parts of the host-speed reference (``hostspeed.py``)
that do the same kind of work as the iteration's dominant layers, and the
reference's nominal seconds in this workload's runs.  The inputs of the
``estimate_*`` and ``sample_write`` workloads are drawn here with plain
numpy from a planted precision matrix, never through ``nsgms.sampling``,
so a change to the program's sampler cannot change them.  Files are
written in the formats documented in ``nsgms/serialize.py``.

Why these four (shares from traced runs on a 2-vCPU Xeon VM with a 300 MiB
L3, Python 3.11, numpy 2.4, the numpy scan fallback, one BLAS thread):

- ``harness_bound``: the acceptance recovery config at the bound, the run
  the acceptance gate waits on.  Sampling takes about 85% of an iteration;
  model and graph construction and calibration ride along; the scan and
  serialize layers are hardly used.
- ``estimate_wide``: whole-graph estimation at p=40, s=3 on a 5 MB file.
  The subset scan (about 60%) and the candidate-set build in regression
  (about 40%) dominate; sampling is bypassed.
- ``estimate_tall``: whole-graph estimation at p=16, s=2 on a 256 MB file.
  Loading takes about 85%, the Gram reduction most of the rest; the scan is
  cheap.  The only workload where a memmap or chunked-Gram change shows.
- ``sample_write``: ``nsgms sample --binary`` of a 128 MB file, the write
  counterpart of ``estimate_tall``: explicit sampling (about two thirds)
  plus ``save_samples``.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

SAMPLES_MAGIC = "nsgms-samples v1"
MODEL_MAGIC = "nsgms-model v1"

# The acceptance recovery config (tests/test_acceptance.py) with the 1x point
# pinned to N = 749008, the sample count 1x resolves to under the acceptance
# seed (L = 187252).  Left as ``1x``, the point would resolve against each
# workload seed's own calibration, and L would range over about 158k-196k,
# so the work done per iteration would vary by seed.  The 0.1x entry keeps
# calibration and multiplier resolution on the path; the check applies only
# to the 1x row, where the recovery guarantee holds.
HARNESS_CONFIG = """\
p = 8
s_true = 2
s_est = 2
B = 4
N_grid = 0.1x, {n_bound}
beta = 2.0
coupling = 0.4
trials = {trials}
eta = 0.1
master_seed = {seed}
"""

# Per size: shapes of each workload.  ``tiny`` is for the smoke test.
SIZES = {
    "full": {
        "harness_bound": dict(n_bound=749008, trials=4),
        "estimate_wide": dict(p=40, B=4, L=4000, s=3),
        "estimate_tall": dict(p=16, B=8, L=250_000, s=2),
        "sample_write": dict(p=16, B=8, L=125_000, s=2),
    },
    "tiny": {
        "harness_bound": dict(n_bound=40000, trials=1),
        "estimate_wide": dict(p=12, B=2, L=5000, s=3),
        "estimate_tall": dict(p=8, B=2, L=5000, s=2),
        "sample_write": dict(p=6, B=2, L=5000, s=2),
    },
}

ORACLE_NODES = 3
ORACLE_RTOL = 1e-9
# Entrywise tolerance on block 1's empirical covariance, in standard
# deviations of a Wishart entry: Var(C_hat_ij) = (C_ij^2 + C_ii C_jj) / L.
COVARIANCE_SDS = 6.0


# ---------------------------------------------------------------- inputs

def planted_model(rng, p: int, B: int, degree: int):
    """A random graph of max degree ``degree`` and B precision matrices on it.

    K_b = I + W_b, with |W_b[i, j]| drawn in [0.5, 0.9] / degree on the
    edges, so every row is diagonally dominant.  Each K_b is scaled so the
    covariance eigenvalues start at 1.  Returns (edges, precisions) with
    1-based sorted edge pairs.
    """
    deg = np.zeros(p, dtype=int)
    edges = set()

    def add(i, j):
        if i != j and (min(i, j), max(i, j)) not in edges and deg[i] < degree and deg[j] < degree:
            edges.add((min(i, j), max(i, j)))
            deg[i] += 1
            deg[j] += 1

    perm = rng.permutation(p)
    for i, j in zip(perm[0::2], perm[1::2]):
        add(int(i), int(j))
    for _ in range(2 * p):
        i, j = rng.integers(p, size=2)
        add(int(i), int(j))
    pairs = sorted(edges)
    precisions = []
    for _ in range(B):
        K = np.eye(p)
        for i, j in pairs:
            K[i, j] = K[j, i] = rng.uniform(0.5, 0.9) / degree * rng.choice((-1.0, 1.0))
        precisions.append(K / np.linalg.eigvalsh(K)[-1])
    return [(i + 1, j + 1) for i, j in pairs], precisions


def min_edge_strength(edges, precisions) -> float:
    """Minimum over edges of the block-averaged (K_ij / K_ii)^2."""
    return min(
        float(np.mean([(K[i - 1, j - 1] / K[i - 1, i - 1]) ** 2 for K in precisions]))
        for i, j in edges
    )


def covariances(precisions):
    out = []
    for K in precisions:
        C = np.linalg.inv(K)
        out.append(0.5 * (C + C.T))
    return out


def write_binary_samples(path, rng, precisions, L: int) -> None:
    """Draw L columns per block with covariance inv(K_b); write them raw."""
    p, B = precisions[0].shape[0], len(precisions)
    with open(path, "wb") as fh:
        for C in covariances(precisions):
            Z = rng.standard_normal((L, p))
            (Z @ np.linalg.cholesky(C).T).astype("<f8").tofile(fh)  # rows are samples
    with open(f"{path}.meta", "w", newline="\n") as fh:
        fh.write(f"{SAMPLES_MAGIC} p={p} B={B} L={L}\n")


def read_binary_samples(path, p: int, B: int, L: int) -> tuple:
    """The p x L blocks of a binary samples file."""
    flat = np.fromfile(path, dtype="<f8")
    return tuple(np.ascontiguousarray(flat[b * L * p:(b + 1) * L * p].reshape(L, p).T)
                 for b in range(B))


def write_model(path, precisions, L: int) -> None:
    p, B = precisions[0].shape[0], len(precisions)
    beta = max(float(np.linalg.cond(K)) for K in precisions)
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{MODEL_MAGIC} p={p} B={B} L={L} beta={beta:.17g}\n")
        for b, K in enumerate(precisions, start=1):
            fh.write(f"block {b}\n")
            for row in K:
                fh.write(" ".join(format(float(v), ".17g") for v in row) + "\n")


def _remove(*paths) -> None:
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


# ---------------------------------------------------------------- workloads

class HarnessBound:
    """``nsgms experiment`` on the acceptance recovery config."""

    reference = ("draw_gram",), 0.0080

    def __init__(self, workdir, seed: int, shape: dict):
        self.config = os.path.join(workdir, "harness.cfg")
        self.output = os.path.join(workdir, "harness.csv")
        self.n_bound = shape["n_bound"]
        with open(self.config, "w", newline="\n") as fh:
            fh.write(HARNESS_CONFIG.format(seed=seed, **shape))
        self.files = {"config": os.path.getsize(self.config)}

    def argv(self):
        return ["--workers", "1", "experiment", self.config, "-o", self.output, "--no-timings"]

    def check(self):
        with open(self.output, newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if int(r["N"]) == self.n_bound]
        if len(rows) != 1:
            return f"expected one row with N={self.n_bound}, got {len(rows)}"
        row = rows[0]
        if not float(row["error_rate"]) <= 0.1 or row["rho_cond"] != "true":
            return f"error_rate={row['error_rate']} rho_cond={row['rho_cond']} at the bound"
        return None

    def after_iteration(self):
        _remove(self.output)


class Estimate:
    """``nsgms estimate --binary`` on samples from a planted model."""

    def __init__(self, workdir, seed: int, shape: dict, tag: int, reference,
                 n_oracle: int = 0):
        rng = np.random.default_rng([seed, tag])
        self.reference = reference
        self.p, self.B, self.L, self.s = shape["p"], shape["B"], shape["L"], shape["s"]
        self.edges, precisions = planted_model(rng, self.p, self.B, self.s)
        self.rho_min = repr(min_edge_strength(self.edges, precisions))
        self.samples = os.path.join(workdir, "samples.bin")
        self.output = os.path.join(workdir, "edges.txt")
        write_binary_samples(self.samples, rng, precisions, self.L)
        self.oracle_nodes = sorted(int(i) + 1 for i in rng.choice(self.p, n_oracle, replace=False))
        self.files = {"samples": os.path.getsize(self.samples)}

    def argv(self, node=None):
        args = ["--workers", "1", "estimate", self.samples, "--binary", "-s", str(self.s),
                "--rho-min", self.rho_min, "-o", self.output]
        return args if node is None else args + ["--node", str(node)]

    def check(self):
        with open(self.output) as fh:
            found = [tuple(int(v) for v in line.split()[1:]) for line in fh if line.strip()]
        if found != self.edges:
            missing = sorted(set(self.edges) - set(found))
            extra = sorted(set(found) - set(self.edges))
            return f"edge list differs from the planted graph: missing {missing}, extra {extra}"
        return None

    def after_iteration(self):
        _remove(self.output)

    def oracle_check(self, run_cli, residual_statistic, sample_blocks):
        """``estimate --node i`` objectives against residual_statistic + lambda*|T|."""
        blocks = read_binary_samples(self.samples, self.p, self.B, self.L)
        samples = sample_blocks(p=self.p, B=self.B, L=self.L, data=blocks)
        lam = float(self.rho_min) / 6.0
        for node in self.oracle_nodes:
            if run_cli(self.argv(node)) != 0:
                return f"estimate --node {node} failed"
            with open(self.output) as fh:
                line = fh.read().strip()
            self.after_iteration()
            head, _, objective = line.partition(" objective=")
            inner = head.split("{", 1)[1].rstrip("}")
            selected = [int(v) for v in inner.split(",") if v]
            expected = residual_statistic(samples, node, selected) + lam * len(selected)
            if not math.isclose(float(objective), expected, rel_tol=ORACLE_RTOL, abs_tol=0.0):
                return f"node {node}: objective {objective} != oracle {expected!r}"
            truth = sorted({j for e in self.edges if node in e for j in e} - {node})
            if selected != truth:
                return f"node {node}: selected {selected}, planted {truth}"
        return None


class SampleWrite:
    """``nsgms sample --binary`` from a planted model file; output removed after."""

    reference = ("draw_gram", "stream"), 0.0296

    def __init__(self, workdir, seed: int, shape: dict, tag: int):
        rng = np.random.default_rng([seed, tag])
        self.p, self.B, self.L = shape["p"], shape["B"], shape["L"]
        self.seed = seed
        _, precisions = planted_model(rng, self.p, self.B, shape["s"])
        self.model = os.path.join(workdir, "model.txt")
        self.output = os.path.join(workdir, "sampled.bin")
        write_model(self.model, precisions, self.L)
        self.cov1 = covariances(precisions)[0]
        self.files = {"model": os.path.getsize(self.model), "output": 8 * self.p * self.B * self.L}

    def argv(self):
        return ["--workers", "1", "sample", self.model, "--seed", str(self.seed),
                "--binary", "-o", self.output]

    def check(self):
        size = os.path.getsize(self.output)
        if size != 8 * self.p * self.B * self.L:
            return f"file is {size} bytes, expected {8 * self.p * self.B * self.L}"
        with open(f"{self.output}.meta") as fh:
            header = fh.read()
        expected = f"{SAMPLES_MAGIC} p={self.p} B={self.B} L={self.L}\n"
        if header != expected:
            return f".meta header {header!r} != {expected!r}"
        X = np.fromfile(self.output, dtype="<f8", count=self.p * self.L).reshape(self.L, self.p)
        emp = (X.T @ X) / self.L
        C = self.cov1
        sd = np.sqrt((C * C + np.outer(np.diag(C), np.diag(C))) / self.L)
        worst = float(np.max(np.abs(emp - C) / sd))
        if not worst <= COVARIANCE_SDS:
            return f"block 1 covariance off by {worst:.2f} sd (limit {COVARIANCE_SDS})"
        return None

    def after_iteration(self):
        _remove(self.output, f"{self.output}.meta")


def make(name: str, workdir, seed: int, size: str):
    """Build workload ``name``, writing its inputs into ``workdir``."""
    shape = SIZES[size][name]
    if name == "harness_bound":
        return HarnessBound(workdir, seed, shape)
    if name == "estimate_wide":
        return Estimate(workdir, seed, shape, tag=1,
                        reference=(("fill_index", "factorize"), 0.0131), n_oracle=ORACLE_NODES)
    if name == "estimate_tall":
        return Estimate(workdir, seed, shape, tag=2, reference=(("stream",), 0.0118))
    if name == "sample_write":
        return SampleWrite(workdir, seed, shape, tag=3)
    raise ValueError(f"unknown workload {name!r}")


NAMES = tuple(SIZES["full"])
