"""Block-wise Gaussian model families with a prescribed sparsity pattern.

A model is a stack of B precision matrices sharing one graph:
off-diagonal precision entries are nonzero exactly on the graph's edges,
and every covariance matrix K^-1 has its eigenvalues inside a band
[1, beta].  A :class:`BlockModel` is its precisions and nothing more, checked
on construction.  Every draw from a model goes through one root per block,
K^-1/2 = V diag(lambda^-1/2) V^T, which one function forms and checks from
the precisions, :func:`inverse_square_roots`, where a draw is made: in
every sampler and in the harness's trials.  :func:`build_block_model`
forms them once, as a check.  No covariance is formed anywhere.

Construction recipe: per block, start from K = I + W where W is symmetric
with support on the edges and entries drawn uniformly from
+-[c/(2*s_max), c/s_max], c = ``W_SCALE`` (sign and magnitude redrawn per
block, so the family genuinely varies across blocks).  The spectrum of K
is then mapped affinely, K <- alpha*(K + gamma*I), with alpha and gamma
chosen from the extreme eigenvalues so the covariance eigenvalues land on
[1, beta] exactly.  This cancels c and the I: the edge strengths follow
from beta, the graph and the W draws alone.  An affine map of the
precision matrix keeps its off-diagonal zero pattern, the graph, which
one of the covariance would not; so it is formed on the edges and the
diagonal alone.

Edge strength is measured by the block-averaged squared ratio of the
off-diagonal precision entry to the diagonal one; it is reported, never
targeted.  One reduction gives each model's minimum, rho_min (inf for an
edgeless graph), to every caller: :func:`build_model_stack` returns it
beside the precisions, and :func:`min_edge_strength` and
:func:`partial_correlation` apply it to one model.  It reads the precisions
only, so the harness's calibration pilots, which nothing draws from, take
it from the build and form no roots.

n models of one shape are built on one (n*B, p, p) stack
(:func:`build_model_stack`): each model draws all its W entries from its
own stream in one call, and then one decode, one edge index, one scatter,
one ``eigvalsh``, one band map and one strength reduction serve them all.
Every step is per block, so a stacked model is bit for bit the model built
alone; :func:`build_block_model` is the case n = 1, plus its roots' check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ConstructionFailure, InvalidParameterError, NotPositiveDefiniteError
from .graph import Cig, _positive_int

#: relative tolerance on ||F K F - I||_inf of a built root F = K^-1/2, scaled by p
INVERSION_TOL = 1e-8

#: slack allowed on the covariance eigenvalue band [1, beta]
EIG_BAND_TOL = 1e-9

#: beta must lie below 1/eps = 2^52, or the band floor 1/beta is lost to rounding
#: against 1.  Built models hold to about 1e8: from about 4e8 to 1e10, by p and
#: seed, a block's root fails its F K F = I check (``ConstructionFailure``).
BETA_LIMIT = 2.0**52

#: scale of the W entries; the band map cancels it, so ``coupling`` inputs are ignored
#: and it stays at 0.4, the value recorded outputs were built with
W_SCALE = 0.4

#: sign of a W entry by the bit ``rng.integers(2)`` returns, and where that bit
#: sits in a raw PCG64 word: bit 31 of its low 32-bit half, bit 63 of its high half
_SIGNS = np.array([-1.0, 1.0])
_SIGN_BITS = np.array([31, 63], dtype=np.uint64)


@dataclass(frozen=True)
class BlockModel:
    """B zero-mean Gaussian blocks of size p, each stated by its precision matrix.

    ``precisions`` is a (B, p, p) float64 stack; a sequence of B p x p
    matrices is stacked on construction.  Construction checks that p, B
    and L are integers >= 1, that 1 < beta < 2^52, and that the precisions
    are finite and exactly symmetric, in that order.  Positive
    definiteness and the roots' check apply where a root is formed
    (:func:`inverse_square_roots`): by :func:`build_block_model`, the
    harness's trials, :class:`~nsgms.sampling.BlockDraws`,
    :func:`~nsgms.sampling.sample_process` and
    :func:`~nsgms.sampling.sample_grams`.  So a singular or indefinite
    model, such as one loaded from a file, is constructed here, and fails
    when it is drawn from.
    """

    p: int
    B: int
    L: int
    beta: float
    precisions: np.ndarray

    def __post_init__(self):
        for name in ("p", "B", "L"):
            object.__setattr__(self, name, _positive_int(getattr(self, name), name))
        _check_beta(self.beta)
        try:
            K = np.ascontiguousarray(self.precisions, dtype=float)
        except ValueError:
            raise InvalidParameterError("precisions do not form one matrix stack") from None
        if K.shape != (self.B, self.p, self.p):
            raise InvalidParameterError(
                f"precisions stack shape {K.shape} != ({self.B}, {self.p}, {self.p})"
            )
        _check_finite(K, "precisions")
        # Exact, not within a tolerance: a built stack is bit-symmetric and a
        # written one loads back exactly, and eigh, which forms the roots,
        # reads one triangle only.
        if not np.array_equal(K, K.swapaxes(1, 2)):
            raise InvalidParameterError("precisions are not symmetric")
        object.__setattr__(self, "precisions", K)


@dataclass(frozen=True)
class ModelReport:
    """Literal evaluation of the three model assumptions."""

    rho_min_achieved: float
    max_degree: int
    eig_min: float
    eig_max: float
    assumptions_ok: tuple  # (min edge strength, sparsity, eigenvalue band)


def _spectrum_to_band(K: np.ndarray, beta: float, edges) -> np.ndarray:
    """Affine map of each precision spectrum so covariance eigenvalues hit [1, beta].

    ``K`` is a (B, p, p) stack, zero off the diagonal but on ``edges`` (an
    :func:`_edge_index`); it is overwritten and returned.  The map needs each
    block's extreme eigenvalues only, from ``eigvalsh``, and forms alpha*K +
    (alpha*gamma)*I on the nonzero entries alone: alpha*K_ij on each edge, read
    from the upper triangle and written to both (so the mapped stack is exactly
    symmetric), and alpha*K_ii + alpha*gamma on the diagonal.
    """
    evals = np.linalg.eigvalsh(K)
    kmin, kmax = evals[:, 0], evals[:, -1]
    # A flat spectrum (e.g. empty graph) is plainly scaled: all eigenvalues at 1.
    flat = kmax - kmin <= 1e-12 * kmax
    alpha = np.where(flat, 1.0 / kmax, (1.0 - 1.0 / beta) / np.where(flat, 1.0, kmax - kmin))
    gamma = np.where(flat, 0.0, 1.0 / alpha - kmax)
    blocks, mirror, _ = edges
    K.put(mirror, K.take(mirror[0]) * alpha[blocks])
    diag = np.arange(K.shape[-1])
    K[:, diag, diag] = K[:, diag, diag] * alpha[:, None] + (alpha * gamma)[:, None]
    return K


def inverse_square_roots(K: np.ndarray) -> np.ndarray:
    """K^-1/2 = V diag(lambda^-1/2) V^T per block of a precision stack K,
    from its ``eigh``: the one place a root is formed and checked.

    The root every draw goes through: X = F Z has covariance F F^T = K^-1.
    Each eigenvector enters twice, so the root does not depend on the signs
    LAPACK gives them, nor on the basis it picks where eigenvalues repeat,
    and a rounding-level change to K moves it at rounding level.  It is
    formed as U U^T with U = V diag(lambda^-1/4), which is exactly
    symmetric.  A block with lambda_min <= p*eps*lambda_max, the floor of
    numpy's ``matrix_rank``, raises :class:`NotPositiveDefiniteError`: eigh
    puts a singular block's zero eigenvalue at rounding level, of either
    sign.  A root with F K F off I by more than ``INVERSION_TOL * p``, as a
    block too ill-conditioned for eigh gives, raises :class:`ConstructionFailure`.
    """
    evals, U = np.linalg.eigh(K)
    p = evals.shape[-1]
    # Checked first: the square root would warn and give NaN or huge roots instead.
    if not np.all(evals[..., 0] > p * np.finfo(float).eps * evals[..., -1]):
        raise NotPositiveDefiniteError("precision matrix is not positive definite")
    U /= np.sqrt(np.sqrt(evals))[..., None, :]
    F = U @ U.swapaxes(-1, -2)
    e = np.abs(F @ K @ F - np.eye(p)).max()
    if not e <= INVERSION_TOL * p:  # NaN included
        raise ConstructionFailure(f"inversion residual {e:.3e} exceeds tolerance")
    return F


def _edge_index(model_edges, B: int, p: int) -> tuple:
    """Where the 1-based edges of n models sit in their (n*B, p, p) stack.

    Entry (e, b) is the e-th edge (i, j), in model then edge order, in block b
    of its model k: ``blocks`` (E, B) holds k*B + b, ``mirror`` (2, E, B) the
    flat offsets of its (i, j) and (j, i) entries, over which ``put`` repeats
    an (E, B) array, and ``diagonal`` (E, B) the flat offset of its (i, i)."""
    counts = [len(edges) for edges in model_edges]
    i, j = np.fromiter(chain.from_iterable(chain.from_iterable(model_edges)), np.intp,
                       2 * sum(counts)).reshape(-1, 2, 1).transpose(1, 0, 2) - 1
    blocks = np.arange(0, B * len(counts), B).repeat(counts)[:, None] + np.arange(B)
    base = blocks * (p * p)
    return blocks, np.stack([base + (i * p + j), base + (j * p + i)]), base + i * (p + 1)


def _w_draws(cigs, B: int, seeds) -> np.ndarray:
    """The (E, B) W entries of n models' edges (:func:`_edge_index` order) in each block.

    Model k's n entries, in block then edge order, are what a fresh PCG64 on
    ``seeds[k]`` (anything ``np.random.default_rng`` takes; a Generator or bit
    generator is drawn from in place) gives for one ``rng.uniform(lo, hi)``
    magnitude and one ``rng.integers(2)`` sign (0 for minus) per edge and
    block, drawn in turn: one raw draw of the (3n + 1) // 2 words they consume,
    and one decode for all models.  Each pair of entries takes words w0, w1 and
    w2: the magnitudes are lo + span * ((w >> 11) * 2^-53) of w0 and of w2, as
    in ``rng.random()``; the first sign is bit 31 of w1, since Lemire's draw
    over a range of 2 returns the top bit of a 32-bit output and PCG64 serves
    w1's low half first; the second sign is bit 63 of w1, the cached high
    half.  An odd n's pad word is decoded and cut.
    """
    words, lows, counts = [], [], []
    for cig, seed in zip(cigs, seeds):
        n = B * len(cig.edges)
        words.append(np.random.default_rng(seed).bit_generator.random_raw((3 * n + 1) // 2))
        if n % 2:  # the last triple's missing word
            words.append(np.zeros(1, np.uint64))
        lows.append(W_SCALE / (2 * max(cig.max_degree, 1)))
        counts.append(len(cig.edges))
    # The span hi - lo is lo, exactly.  Not np.repeat: tracemalloc counts its
    # wrapper's freed keyword dicts as live.
    lo = np.array(lows).repeat([(B * E + 1) // 2 for E in counts])[:, None]
    words = np.concatenate(words).reshape(-1, 3)
    entries = ((lo + lo * ((words[:, ::2] >> 11) * 2.0**-53))
               * _SIGNS[(words[:, 1:2] >> _SIGN_BITS) & 1]).ravel()
    del lo, words
    # Model k's B*E entries follow the previous models' whole triples; one
    # model at a time, so few views are held at once.
    out, start, row = np.empty((sum(counts), B)), 0, 0
    for E in counts:
        out[row:row + E] = entries[start:start + B * E].reshape(B, E).T
        start, row = start + B * E + B * E % 2, row + E
    return out


def _check_beta(beta) -> None:
    if not 1 < beta < BETA_LIMIT:
        raise InvalidParameterError(f"need 1 < beta < 2^52 (above that the band floor "
                                    f"1/beta underflows against 1), got {beta}")


def _check_finite(stack: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(stack)):
        raise InvalidParameterError(f"{name} contain non-finite values")
    return stack


def build_model_stack(cigs, B: int, beta: float, seeds):
    """The (n, B, p, p) precision stack of n models built at once, and each
    model's minimum edge strength.

    Model k has graph ``cigs[k]`` and draws its W entries on ``seeds[k]``
    (see :func:`_w_draws`); it is bit for bit the model
    :func:`build_block_model` builds from that pair.  Each K = I + W is
    mapped into the band on its edges and its diagonal, and the mapped stack
    must be finite.  No root is formed: a caller that draws forms them with
    :func:`inverse_square_roots`.
    """
    B = _positive_int(B, "B")
    _check_beta(beta)
    n, p = len(cigs), cigs[0].p
    if any(cig.p != p for cig in cigs):
        raise InvalidParameterError("graphs of one stack differ in p")
    edges = _edge_index([cig.edges for cig in cigs], B, p)
    draws = _w_draws(cigs, B, seeds)
    K = np.zeros((n * B, p, p))
    K.put(edges[1], draws)
    del draws  # freed before the band map
    # K = I + W, its diagonal set through a strided view; each row of |W| sums
    # to <= W_SCALE < 1: PD by Gershgorin.
    K.reshape(n * B, -1)[:, ::p + 1] = 1.0
    K = _check_finite(_spectrum_to_band(K, beta, edges), "precisions").reshape(n, B, p, p)
    return K, _rho_mins(K, edges)


def build_block_model(cig: Cig, B: int, L: int, beta: float, seed) -> BlockModel:
    """Build a B-block model whose precision support equals the graph's edges.

    Its roots are formed and checked once (:func:`inverse_square_roots`), so
    a model that no sampler could draw from fails here.
    """
    (precisions,), _ = build_model_stack([cig], B, beta, [seed])
    inverse_square_roots(precisions)
    return BlockModel(p=cig.p, B=B, L=L, beta=float(beta), precisions=precisions)


def _rho_mins(precisions: np.ndarray, edges) -> list:
    """Per model of a stack of n models' B precision blocks, the minimum over
    its edges in ``edges`` (an :func:`_edge_index`) of the block-averaged
    (K_ij/K_ii)^2, or inf if it has none.

    Each edge's B squares are one contiguous row of the (E, B) ratios: their
    mean has the same bits as ``np.mean`` over that edge's 1-D array.
    """
    blocks, mirror, diagonal = edges
    B, p = blocks.shape[1], precisions.shape[-1]
    ratio = precisions.take(mirror[0]) / precisions.take(diagonal)
    out = np.full(precisions.size // (B * p * p), np.inf)
    np.minimum.at(out, blocks[:, 0] // B, (ratio * ratio).mean(axis=-1))
    return out.tolist()


def partial_correlation(model: BlockModel, i: int, j: int) -> float:
    """Block-averaged squared ratio K_ij/K_ii; zero iff K_ij = 0 in all blocks."""
    i, j = _positive_int(i, "node", model.p), _positive_int(j, "node", model.p)
    if i == j:
        raise InvalidParameterError("need two distinct nodes")
    return _rho_mins(model.precisions, _edge_index([[(i, j)]], model.B, model.p))[0]


def min_edge_strength(model: BlockModel, cig: Cig) -> float:
    """Minimum average partial correlation over the graph's edges (inf if edgeless)."""
    if model.p != cig.p:  # flat offsets into a smaller model would read other entries
        raise InvalidParameterError("model and graph disagree on p")
    return _rho_mins(model.precisions, _edge_index([cig.edges], model.B, model.p))[0]


def covariance_eig_range(model: BlockModel):
    """Extreme covariance eigenvalues over all blocks: the reciprocals of the
    precisions' eigenvalues, so a singular block gives an infinite one."""
    with np.errstate(divide="ignore"):
        evals = 1.0 / np.linalg.eigvalsh(model.precisions)
    return evals.min(), evals.max()


def verify_assumptions(model: BlockModel, cig: Cig, rho_min: float, s: int) -> ModelReport:
    """Check the three structural assumptions and report the measured quantities.

    The checks are, in order: every edge's average partial correlation is at
    least ``rho_min``; the maximum degree is at most ``s`` with
    ``s < min(p, L)/3``; all covariance eigenvalues lie in [1, beta].
    """
    if model.p != cig.p:
        raise InvalidParameterError("model and graph disagree on p")
    rho_achieved = min_edge_strength(model, cig)
    max_deg = cig.max_degree
    eig_lo, eig_hi = covariance_eig_range(model)
    ok_rho = rho_achieved >= rho_min
    ok_sparse = (max_deg <= s) and (s < min(model.p / 3, model.L / 3))
    ok_eigs = (eig_lo >= 1.0 - EIG_BAND_TOL) and (eig_hi <= model.beta + EIG_BAND_TOL)
    return ModelReport(
        rho_min_achieved=rho_achieved,
        max_degree=max_deg,
        eig_min=eig_lo,
        eig_max=eig_hi,
        assumptions_ok=(ok_rho, ok_sparse, ok_eigs),
    )
