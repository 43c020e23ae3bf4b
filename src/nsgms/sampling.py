"""Seeded Gaussian sampling of block models, as columns or as Gram matrices.

The estimator reads block b only through its Gram matrix W_b = X_b X_b^T,
so there are two samplers:

- :func:`sample_process` draws the L i.i.d. zero-mean columns of each
  block, or of the listed blocks, as F @ Z with F = K^-1/2 the root of the
  block's precision matrix K (:func:`~nsgms.model.inverse_square_roots`)
  and Z one p x L standard normal draw.  Z is drawn straight into the
  block's output and turned into F @ Z in place, a chunk of columns at a
  time, so a draw holds its output and one small buffer.  Every check
  that needs columns, such as the projection oracle, uses it.
  :class:`BlockDraws` yields the same blocks one at a time, each drawn by
  :func:`sample_process` into one reused buffer; the ``sample`` command
  writes them as they come, so it holds one block, not the stack.
- :func:`sample_grams` draws W_b itself from its Wishart law, in O(p^2)
  numbers per block whatever L is; :func:`sample_gram_stack` does so for
  n models at once, from their roots.  The Monte Carlo harness forms each
  model's roots from the precisions the model build returns
  (:func:`~nsgms.model.build_model_stack`) and never materialises columns.
  Every root, here and there, is :func:`~nsgms.model.inverse_square_roots`
  of the precisions, a continuous function of K, so a rounding-level
  change to a model moves every draw from it at rounding level only.

Samples are one (B, p, L) stack (:class:`SampleBlocks`) and Gram matrices
one (B, p, p) stack (:class:`GramBlocks`); both take p, B and L as
integers >= 1, as :class:`~nsgms.model.BlockModel` does.

:func:`sample_process` gives every block its own PRNG stream keyed by
(seed, block index), so blocks can be drawn in any order, alone or
together, and the output never depends on scheduling.  The Gram samplers
draw each model's Bartlett variates for all its blocks from one stream,
the model's seed or generator: one chi-square draw per degree of freedom
over the B blocks, then one array draw of normals.  Variates come from
PCG64 and the transforms are fixed, so identical seeds give bit-identical
output across runs.

Finiteness is checked once, on the Gram stack, by :class:`GramBlocks`.
A NaN or infinity in row i of a block, or a finite entry whose square
overflows, makes G_ii = sum of x^2 non-finite, so that check covers the
samples too and :class:`SampleBlocks` checks shapes only.  The estimators
raise :class:`InvalidParameterError` "samples or their Gram matrices
contain non-finite values" for such input.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .graph import _positive_int
from .model import BlockModel, inverse_square_roots

#: bytes of one chunk of columns that :func:`sample_process` multiplies by F
_CHUNK_BYTES = 1 << 18


@dataclass(frozen=True)
class SampleBlocks:
    """B blocks of L samples as one (B, p, L) float64 stack; data[b] is X_b.

    A sequence of B p x L blocks is stacked; an array is kept as it is, so
    a view of a mapped file is neither copied nor read here.  Finiteness is
    checked on the Gram stack the estimators build (see
    :class:`GramBlocks`); code that reads the columns directly checks the
    rows it uses.
    """

    p: int
    B: int
    L: int
    data: np.ndarray

    def __post_init__(self):
        for name in ("p", "B", "L"):
            object.__setattr__(self, name, _positive_int(getattr(self, name), name))
        shape = (self.B, self.p, self.L)
        try:
            data = np.asarray(self.data, dtype=float)
        except ValueError:  # ragged blocks
            raise InvalidParameterError(f"sample blocks do not form a {shape} stack") from None
        if data.shape != shape:
            raise InvalidParameterError(f"sample stack shape {data.shape} != {shape}")
        object.__setattr__(self, "data", data)

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
        for name in ("p", "B", "L"):
            object.__setattr__(self, name, _positive_int(getattr(self, name), name))
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


def _chunk_columns(p: int) -> int:
    """Columns per chunk: about ``_CHUNK_BYTES`` of a p-row block, a multiple of 8, at least 8."""
    return max(8, _CHUNK_BYTES // (8 * p) // 8 * 8)


def _is_block(b, B: int) -> bool:
    """Whether ``b`` is an integer of any type but bool in 0..B-1: the rule of
    ``graph._positive_int``, 0-based."""
    try:
        return not isinstance(b, bool) and 0 <= operator.index(b) < B
    except TypeError:  # not an integer, e.g. 1.0
        return False


def sample_process(model: BlockModel, seed, blocks=None, out=None) -> SampleBlocks:
    """Draw L i.i.d. columns for the listed blocks (default all B), block b with covariance K_b^-1.

    ``blocks`` lists integer block indices in 0..B-1, bool excluded.  Block
    b draws on its own (seed, b) stream, so it comes out bit for bit the
    same whichever other blocks are drawn with it; the result stacks the
    listed blocks in the order given.  ``out``, a writable C-contiguous
    (n, p, L) float64 array for n listed blocks, receives the draw in place
    of a new stack.

    Each block's normals Z are drawn into its output, in the order of
    ``standard_normal((p, L))``, and replaced by F @ Z one chunk of about
    256 KiB of columns at a time through one reused buffer, so no p x L
    array is allocated besides the output.  The draws are those of one
    product over the whole block, but not always its rounding: chunks are
    multiples of 8 columns wide, and a BLAS ``gemm`` can round the last
    L mod 8 columns of a block differently from one product over the whole
    block, by about an ulp of the column's scale.
    """
    blocks = list(range(model.B) if blocks is None else blocks)
    if not blocks or not all(_is_block(b, model.B) for b in blocks):
        raise InvalidParameterError(f"blocks {blocks} must name one or more of 0..{model.B - 1}")
    p, L = model.p, model.L
    shape = (len(blocks), p, L)
    if out is None:
        out = np.empty(shape)
    elif (out.shape != shape or out.dtype != np.float64
          or not (out.flags.c_contiguous and out.flags.writeable)):
        raise InvalidParameterError(f"out must be a writable C-contiguous float64 array of shape {shape}")
    roots = inverse_square_roots(model.precisions[blocks])
    w = _chunk_columns(p)
    buf = np.empty((p, min(w, L)))
    for X, b, F in zip(out, blocks, roots):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))
        rng.standard_normal(out=X)
        for lo in range(0, L, w):
            chunk = buf[:, :min(w, L - lo)]
            np.matmul(F, X[:, lo:lo + w], out=chunk)
            X[:, lo:lo + w] = chunk
    return SampleBlocks(p=p, B=len(blocks), L=L, data=out)


@dataclass(frozen=True)
class BlockDraws:
    """The blocks of ``sample_process(model, seed)``, drawn one at a time as they are iterated.

    Iteration yields each p x L block b in order, drawn alone by
    ``sample_process(model, seed, blocks=[b], out=...)`` into one reused
    buffer, so a yielded block is valid until the next one is drawn.  A
    writer of the blocks thus holds one block (the buffer, and the small
    chunk :func:`sample_process` multiplies through) instead of the
    (B, p, L) stack, and allocates no block-sized array after the first
    block.  Every block's root is formed on construction, so a model that
    is not positive definite fails before anything is drawn or written.
    """

    model: BlockModel
    seed: int

    def __post_init__(self):
        inverse_square_roots(self.model.precisions)

    p = property(lambda self: self.model.p)
    B = property(lambda self: self.model.B)
    L = property(lambda self: self.model.L)

    def __iter__(self):
        out = np.empty((1, self.p, self.L))
        for b in range(self.B):
            yield sample_process(self.model, self.seed, blocks=[b], out=out).data[0]


def sample_gram_stack(factors: np.ndarray, L: int, seeds) -> np.ndarray:
    """Draw the Gram matrices of n models' blocks at once, without their columns.

    ``factors`` is the (n, B, p, p) stack of the blocks' roots, any F with
    F F^T = C the block's covariance; every caller passes K^-1/2, formed by
    :func:`~nsgms.model.inverse_square_roots`, the harness's trials and
    :func:`sample_grams` alike.  Model k draws on ``seeds[k]``,
    anything ``np.random.default_rng`` takes (a Generator or bit generator
    is drawn from in place); returns the (n, B, p, p) stack of W_b =
    X_b X_b^T.  Each model's is bit for bit what it draws alone on the
    same roots.
    W_b = (F A)(F A)^T, with A the p x min(p, L) lower-trapezoidal Bartlett
    factor: A_kk = sqrt(chi^2_{L-k}) for k = 0, 1, ..., and N(0, 1) entries
    below the diagonal (Bartlett 1933; Odell & Feiveson 1966).  A is
    distributed as the L-factor of the LQ decomposition of a p x L standard
    normal matrix, whose law no rotation changes, so W_b has the law of
    X_b X_b^T for any root F and every L >= 1, rank min(p, L) included.  A model draws its
    blocks' chi-square diagonals column by column, B values per degree of
    freedom, and then their normals as one (B, entries below the diagonal)
    array; two products then serve the whole stack.
    """
    n, B, p, _ = factors.shape
    m = min(p, L)
    # np.tril_indices(p, -1, m), which also adds a tuple to the free list per call
    rows, cols = np.nonzero(np.tri(p, m, -1, dtype=bool))
    diag = np.arange(m)
    chi = np.empty((n, B, m))
    normals = np.empty((n, B, rows.size))
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        # One draw per degree of freedom, over the B blocks: a draw with an array of
        # degrees leaves a 1-tuple on CPython's free list per call (up to 2,000),
        # which tracemalloc counts as live, so a run's traced peak grew with its trials.
        for j in range(m):
            chi[k, :, j] = rng.chisquare(L - j, size=B)
        rng.standard_normal(out=normals[k])
    A = np.zeros((n * B, p, m))
    A[:, diag, diag] = np.sqrt(chi, out=chi).reshape(n * B, m)
    A[:, rows, cols] = normals.reshape(n * B, -1)
    del chi, normals
    M = factors.reshape(n * B, p, p) @ A
    del A
    return (M @ M.swapaxes(1, 2)).reshape(n, B, p, p)


def sample_grams(model: BlockModel, seed) -> GramBlocks:
    """Draw each block's Gram matrix X_b X_b^T directly, without its L columns.

    The case n = 1 of :func:`sample_gram_stack`, which gives the law, on the
    roots K^-1/2 of the model's precisions.
    """
    roots = inverse_square_roots(model.precisions)
    (grams,) = sample_gram_stack(roots[None], model.L, [seed])
    return GramBlocks(p=model.p, B=model.B, L=model.L, grams=grams)


def block_grams(samples: SampleBlocks) -> np.ndarray:
    """Stacked per-block Gram matrices X_b X_b^T, shape (B, p, p)."""
    X = samples.data
    # A finite value near the float64 limit overflows here; GramBlocks rejects
    # the non-finite result, so numpy's own warning would only add noise.
    with np.errstate(over="ignore", invalid="ignore"):
        return X @ X.swapaxes(1, 2)
