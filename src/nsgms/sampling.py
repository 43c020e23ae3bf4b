"""Seeded Gaussian sampling of block models, as columns or as Gram matrices.

The estimator reads block b only through its Gram matrix W_b = X_b X_b^T,
so there are two samplers:

- :func:`sample_process` draws the L i.i.d. zero-mean columns of each
  block, as G @ z with G the Cholesky factor of the block's covariance and
  z standard normal.  The ``sample`` command and every check that needs
  columns, such as the projection oracle, use it.
- :func:`sample_grams` draws W_b itself from its Wishart law, in O(p^2)
  numbers per block whatever L is.  The Monte Carlo harness uses it and
  never materialises columns.

Every block gets its own PRNG stream keyed by (master seed, block index),
in a separate namespace for each sampler, so blocks can be generated in
any order or in parallel and the output never depends on scheduling.
Variates come from a per-block PCG64 generator and the transforms are
fixed, so identical seeds give bit-identical output across runs.

Finiteness is checked once, on the Gram stack, by :class:`GramBlocks`.
A NaN or infinity in row i of a block, or a finite entry whose square
overflows, makes G_ii = sum of x^2 non-finite, so that check covers the
samples too and :class:`SampleBlocks` checks shapes only.  The estimators
raise :class:`InvalidParameterError` "samples or their Gram matrices
contain non-finite values" for such input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NotPositiveDefiniteError
from .model import BlockModel

#: relative tolerance on the Cholesky reconstruction ||G G^T - C||_inf
CHOLESKY_TOL = 1e-10

#: spawn-key namespace separating Gram streams from the column streams
_GRAM_KEY = 0x6A4D


@dataclass(frozen=True)
class SampleBlocks:
    """B matrices of shape p x L; column n of block b is sample (b-1)*L + n.

    Only shapes are checked here, so a mapped file is not read on
    construction.  Finiteness is checked on the Gram stack that the
    estimators build from the blocks (see :class:`GramBlocks`); code that
    reads the columns directly checks the rows it uses.
    """

    p: int
    B: int
    L: int
    data: tuple  # tuple of B arrays, each p x L

    def __post_init__(self):
        if len(self.data) != self.B:
            raise InvalidParameterError("need exactly B data blocks")
        for X in self.data:
            if X.shape != (self.p, self.L):
                raise InvalidParameterError(f"block shape {X.shape} != ({self.p}, {self.L})")

    @property
    def n_samples(self) -> int:
        return self.B * self.L


@dataclass(frozen=True)
class GramBlocks:
    """Per-block Gram matrices X_b X_b^T of B blocks of L samples, shape (B, p, p).

    The estimator's sufficient statistic: it reads the data through this
    type only.  A non-finite entry is rejected here; a Gram stack built by
    :func:`block_grams` has one whenever its samples do.
    """

    p: int
    B: int
    L: int
    grams: np.ndarray

    def __post_init__(self):
        grams = np.ascontiguousarray(self.grams, dtype=float)
        if grams.shape != (self.B, self.p, self.p):
            raise InvalidParameterError(
                f"Gram stack shape {grams.shape} != ({self.B}, {self.p}, {self.p})"
            )
        if not np.all(np.isfinite(grams)):
            raise InvalidParameterError("samples or their Gram matrices contain non-finite values")
        object.__setattr__(self, "grams", grams)

    @property
    def n_samples(self) -> int:
        return self.B * self.L


def cholesky_factor(C: np.ndarray) -> np.ndarray:
    """Lower-triangular G with G @ G^T == C, for symmetric positive-definite C.

    ``C`` is a p x p matrix or a (B, p, p) stack, checked block by block with
    tolerances scaled by each block's largest entry; G has the shape of C.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim not in (2, 3) or C.shape[-1] != C.shape[-2]:
        raise InvalidParameterError(f"expected p x p or (B, p, p), got shape {C.shape}")
    scale = np.abs(C).max(axis=(-2, -1))
    # A NaN compares false, so it fails here as in np.allclose.
    tol = 1e-12 * np.maximum(1.0, scale)[..., None, None]
    if not np.all(np.abs(C - C.swapaxes(-1, -2)) <= tol):
        raise InvalidParameterError("matrix is not symmetric")
    try:
        G = np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError("matrix is not positive definite") from None
    err = np.abs(G @ G.swapaxes(-1, -2) - C).max(axis=(-2, -1))
    if np.any(err > CHOLESKY_TOL * np.maximum(scale, 1e-300)):
        raise NotPositiveDefiniteError(f"Cholesky reconstruction error {err.max():.3e} too large")
    return G


def block_seed_sequence(seed, block_index: int) -> np.random.SeedSequence:
    """Seed stream for one block, keyed by (master seed, block index)."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(block_index,))


def sample_process(model: BlockModel, seed) -> SampleBlocks:
    """Draw B blocks of L i.i.d. columns, block b with covariance C^(b)."""
    factors = cholesky_factor(model.covariances)
    blocks = []
    for b, G in enumerate(factors):
        rng = np.random.default_rng(block_seed_sequence(seed, b))
        Z = rng.standard_normal((model.p, model.L))
        blocks.append(G @ Z)
    return SampleBlocks(p=model.p, B=model.B, L=model.L, data=tuple(blocks))


def sample_grams(model: BlockModel, seed) -> GramBlocks:
    """Draw each block's Gram matrix X_b X_b^T directly, without its L columns.

    W_b = (G A)(G A)^T, with G the Cholesky factor of C^(b) and A the
    p x min(p, L) lower-trapezoidal Bartlett factor: A_kk = sqrt(chi^2_{L-k})
    for k = 0, 1, ..., and N(0, 1) entries below the diagonal (Bartlett 1933;
    Odell & Feiveson 1966).  A is distributed as the L-factor of the LQ
    decomposition of a p x L standard normal matrix, so W_b has the law of
    X_b X_b^T for every L >= 1, rank min(p, L) included.
    """
    p, L = model.p, model.L
    m = min(p, L)
    rows, cols = np.tril_indices(p, -1, m)
    A = np.zeros((model.B, p, m))
    for b, A_b in enumerate(A):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(_GRAM_KEY, b)))
        A_b[np.arange(m), np.arange(m)] = np.sqrt(rng.chisquare(L - np.arange(m)))
        A_b[rows, cols] = rng.standard_normal(rows.size)
    M = cholesky_factor(model.covariances) @ A
    return GramBlocks(p=p, B=model.B, L=L, grams=M @ M.swapaxes(1, 2))


def empirical_block_covariance(samples: SampleBlocks, b: int) -> np.ndarray:
    """(1/L) X_b X_b^T for block index b (0-based)."""
    X = samples.data[b]
    return (X @ X.T) / samples.L


def block_grams(samples: SampleBlocks) -> np.ndarray:
    """Stacked per-block Gram matrices X_b X_b^T, shape (B, p, p)."""
    out = np.empty((samples.B, samples.p, samples.p))
    # A finite value near the float64 limit overflows here; GramBlocks rejects
    # the non-finite result, so numpy's own warning would only add noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for b, X in enumerate(samples.data):
            out[b] = X @ X.T
    return out
