"""Block-wise Gaussian model families with a prescribed sparsity pattern.

A model is a stack of B precision matrices sharing one graph:
off-diagonal precision entries are nonzero exactly on the graph's edges,
and every covariance matrix has its eigenvalues inside a band [1, beta].
A :class:`BlockModel`, built or loaded, gets its covariances by one rule,
:func:`covariances_of` its precisions.

Construction recipe: per block, start from K = I + W where W is symmetric
with support on the edges and entries drawn uniformly from
+-[coupling/(2*s_max), coupling/s_max] (sign and magnitude redrawn per
block, so the family genuinely varies across blocks).  The spectrum of K
is then mapped affinely, K <- alpha*(K + gamma*I), with alpha and gamma
chosen from the extreme eigenvalues so the covariance eigenvalues land on
[1, beta] exactly.  An affine map of the precision matrix preserves its
off-diagonal zero pattern, which an affine map of the covariance would
not, and the pattern is what encodes the graph.

Edge strength is measured by the block-averaged squared ratio of the
off-diagonal precision entry to the diagonal one; it is reported, never
targeted.  One reduction gives each model's minimum, rho_min (inf for an
edgeless graph), to every caller: :func:`build_model_stack` returns it
beside the stacks, and :func:`min_edge_strength` and
:func:`partial_correlation` apply it to one model.  It reads the precisions
only, so :func:`pilot_min_edge_strengths` (the harness's calibration
pilots) runs the precision half of a build, on the same random streams,
and forms no roots.

n models of one shape are built on one (n*B, p, p) stack
(:func:`build_model_stack`): each model draws all its W entries from its
own stream in one call, and then one scatter, one ``eigh``, one band map,
one root scaling and one strength reduction serve them all, with a root
check per model.  No covariance is formed: that ``eigh`` gives each
covariance's square root, which is all the Gram sampler needs.  Every
step is per block, so a stacked model is bit for bit the model built
alone; :func:`build_block_model` is the case n = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ConstructionFailure, InvalidParameterError, NotPositiveDefiniteError
from .graph import Cig

#: relative tolerance on ||F^T K F - I||_inf of a square root F of C = K^-1, scaled by p
INVERSION_TOL = 1e-8

#: slack allowed on the covariance eigenvalue band [1, beta]
EIG_BAND_TOL = 1e-9

#: beta must lie below 1/eps = 2^52: the band map puts the precision floor 1/beta
#: beside the top of the band at 1, and a smaller floor is lost to rounding there
BETA_LIMIT = 2.0**52

#: sign of a W entry by the bit ``rng.integers(2)`` returns, and where that bit
#: sits in a raw PCG64 word: bit 31 of its low 32-bit half, bit 63 of its high half
_SIGNS = np.array([-1.0, 1.0])
_SIGN_BITS = np.array([31, 63], dtype=np.uint64)


@dataclass(frozen=True)
class BlockModel:
    """B symmetric positive-definite precision/covariance pairs of size p.

    ``precisions`` and ``covariances`` are (B, p, p) float64 stacks; a
    sequence of B p x p matrices is stacked on construction.
    """

    p: int
    B: int
    L: int
    beta: float
    precisions: np.ndarray
    covariances: np.ndarray

    def __post_init__(self):
        for name in ("precisions", "covariances"):
            try:
                stack = np.ascontiguousarray(getattr(self, name), dtype=float)
            except ValueError:
                raise InvalidParameterError(f"{name} do not form one matrix stack") from None
            if stack.shape != (self.B, self.p, self.p):
                raise InvalidParameterError(
                    f"{name} stack shape {stack.shape} != ({self.B}, {self.p}, {self.p})"
                )
            _check_finite(stack, name)
            object.__setattr__(self, name, stack)


@dataclass(frozen=True)
class ModelReport:
    """Literal evaluation of the three model assumptions."""

    rho_min_achieved: float
    max_degree: int
    eig_min: float
    eig_max: float
    assumptions_ok: tuple  # (min edge strength, sparsity, eigenvalue band)


def _spectrum_to_band(K: np.ndarray, beta: float):
    """Affine map of each precision spectrum so covariance eigenvalues hit [1, beta].

    ``K`` is a (B, p, p) stack; it is overwritten.  Returns the mapped
    precision stack K_new together with its eigenvalues and eigenvectors,
    all from one symmetric eigendecomposition per block;
    :func:`build_model_stack` turns the latter two into square roots of
    K_new's inverse.  The map acts entrywise, so K_new is as exactly
    symmetric as K.
    """
    evals, vecs = np.linalg.eigh(K)
    kmin, kmax = evals[:, 0], evals[:, -1]
    if np.any(kmin <= 0):
        raise ConstructionFailure("precision matrix not positive definite; reduce coupling")
    # A flat spectrum (e.g. empty graph) is plainly scaled: all eigenvalues at 1.
    flat = kmax - kmin <= 1e-12 * kmax
    alpha = np.where(flat, 1.0 / kmax, (1.0 - 1.0 / beta) / np.where(flat, 1.0, kmax - kmin))
    gamma = np.where(flat, 0.0, 1.0 / alpha - kmax)
    new_evals = alpha[:, None] * (evals + gamma[:, None])
    # alpha*K + (alpha*gamma)*I, formed in K's own buffer with the same bits.
    K *= alpha[:, None, None]
    diag = np.arange(K.shape[-1])
    K[:, diag, diag] += (alpha * gamma)[:, None]
    return K, new_evals, vecs


def covariances_of(precisions: np.ndarray) -> np.ndarray:
    """0.5 * (C + C^T) with C = K^-1, per block of a precision stack K.

    Every :class:`BlockModel` gets its covariances by this one rule.  The
    transpose is copied first, so the sum runs on two contiguous stacks;
    a sum with the strided transpose makes numpy allocate an iteration buffer
    as large as the stack.
    """
    C = np.linalg.inv(precisions)
    out = C.swapaxes(-1, -2).copy()
    out += C
    out *= 0.5
    return out


def _coupling_draws(cig: Cig, B: int, coupling: float, seed) -> np.ndarray:
    """One model's W entries, in block then edge order, from one raw draw on ``seed``.

    ``seed`` is anything ``np.random.default_rng`` takes; a Generator or bit
    generator is drawn from in place.  The n
    entries are what a fresh PCG64 gives for one ``rng.uniform(lo, hi)``
    magnitude and one ``rng.integers(2)`` sign (0 for minus) per edge and
    block, drawn in turn, decoded from the (3n + 1) // 2 words those draws
    consume.  Each pair of entries takes words w0, w1 and w2: the
    magnitudes are lo + span * ((w >> 11) * 2^-53) of w0 and of w2, as in
    ``rng.random()``; the first sign is bit 31 of w1, since Lemire's draw
    over a range of 2 returns the top bit of a 32-bit output and PCG64
    serves w1's low half first; the second sign is bit 63 of w1, the
    cached high half.
    """
    rng = np.random.default_rng(seed)
    s_max = max(cig.max_degree, 1)
    lo, hi = coupling / (2 * s_max), coupling / s_max
    n = B * len(cig.edges)
    # An odd n leaves the last triple one word short; its pad word is decoded and cut.
    words = np.zeros(3 * ((n + 1) // 2), dtype=np.uint64)
    words[:(3 * n + 1) // 2] = rng.bit_generator.random_raw((3 * n + 1) // 2)
    triples = words.reshape(-1, 3)
    magnitudes = lo + (hi - lo) * ((triples[:, ::2] >> 11) * 2.0**-53)
    return (magnitudes * _SIGNS[(triples[:, 1:2] >> _SIGN_BITS) & 1]).ravel()[:n]


def _edge_index(model_edges, B: int):
    """Block, row and column index arrays of the 1-based edges of n models.

    Model k's edges (i, j) appear as (b, i - 1, j - 1) for each of its
    blocks b = k*B, ..., k*B + B - 1, in block then edge order.
    """
    flat = np.fromiter(chain.from_iterable(
        (b, i - 1, j - 1) for k, edges in enumerate(model_edges)
        for b in range(k * B, (k + 1) * B) for i, j in edges
    ), dtype=np.intp)
    return flat.reshape(-1, 3).T


def _banded_precisions(cigs, B: int, beta: float, coupling: float, seeds):
    """The precision half of n model builds: draw each W, map K = I + W into the band.

    Returns ``_spectrum_to_band``'s (K_new, new_evals, vecs) over the
    (n*B, p, p) stack, whose blocks k*B to k*B + B - 1 are model k's.
    """
    if B < 1:
        raise InvalidParameterError(f"need B >= 1, got B={B}")
    if not 1 < beta < BETA_LIMIT:
        raise InvalidParameterError(f"need 1 < beta < 2^52 (above that the band floor "
                                    f"1/beta underflows against 1), got {beta}")
    if not (0 < coupling < 1):
        raise InvalidParameterError(f"need 0 < coupling < 1, got {coupling}")
    p = cigs[0].p
    if any(cig.p != p for cig in cigs):
        raise InvalidParameterError("graphs of one stack differ in p")
    draws = np.concatenate([_coupling_draws(cig, B, coupling, seed)
                            for cig, seed in zip(cigs, seeds)])
    blocks, rows, cols = _edge_index([cig.edges for cig in cigs], B)
    K = np.zeros((len(cigs) * B, p, p))
    K[blocks, rows, cols] = K[blocks, cols, rows] = draws
    K += np.eye(p)  # each row of |W| sums to <= coupling < 1: PD by Gershgorin
    return _spectrum_to_band(K, beta)


def _check_finite(stack: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(stack)):
        raise InvalidParameterError(f"{name} contain non-finite values")


def build_model_stack(cigs, B: int, beta: float, coupling: float, seeds):
    """Precision and root stacks, each (n, B, p, p), of n models built at
    once, and each model's minimum edge strength.

    A block's root F = V diag(lambda^-1/2), from the band map's ``eigh``, has
    F F^T = C = K^-1.  Model k has graph ``cigs[k]`` and draws its W entries
    on ``seeds[k]`` (see :func:`_coupling_draws`); it is bit for bit the
    model :func:`build_block_model` builds from that pair.  Each model's
    mapped eigenvalues must be positive (:class:`NotPositiveDefiniteError`),
    then F^T K F = I must hold within ``INVERSION_TOL * p``
    (:class:`ConstructionFailure`) and its precisions must be finite, which
    makes its roots finite; the first model that fails raises.
    """
    n, p = len(cigs), cigs[0].p
    K_new, new_evals, roots = _banded_precisions(cigs, B, beta, coupling, seeds)
    # Checked before the square root, which would warn and give NaN roots instead.
    if np.any(new_evals <= 0):
        raise NotPositiveDefiniteError("mapped precision matrix is not positive definite")
    roots /= np.sqrt(new_evals)[:, None, :]
    K_new, roots = K_new.reshape(n, B, p, p), roots.reshape(n, B, p, p)
    # One model at a time, so a residual holds B blocks, not the stack.
    for K, F in zip(K_new, roots):
        e = np.abs(F.swapaxes(1, 2) @ K @ F - np.eye(p)).max()
        if e > INVERSION_TOL * p:
            raise ConstructionFailure(f"inversion residual {e:.3e} exceeds tolerance")
    _check_finite(K_new, "precisions")
    return K_new, roots, _rho_mins(K_new, [cig.edges for cig in cigs])


def build_block_model(cig: Cig, B: int, L: int, beta: float, coupling: float, seed) -> BlockModel:
    """Build a B-block model whose precision support equals the graph's edges."""
    if L < 1:
        raise InvalidParameterError(f"need L >= 1, got L={L}")
    (precisions,), _, _ = build_model_stack([cig], B, beta, coupling, [seed])
    return BlockModel(p=cig.p, B=B, L=L, beta=float(beta),
                      precisions=precisions, covariances=covariances_of(precisions))


def pilot_min_edge_strengths(cigs, B: int, beta: float, coupling: float, seeds) -> list:
    """The strengths ``build_model_stack(cigs, ...)`` returns, without the models.

    Draws the same streams and forms the same precision stack, bit for
    bit, but no roots, so it skips their checks; the precisions get the
    finiteness check.
    """
    K_new = _banded_precisions(cigs, B, beta, coupling, seeds)[0]
    _check_finite(K_new, "precisions")
    return _rho_mins(K_new, [cig.edges for cig in cigs])


def _rho_mins(precisions: np.ndarray, model_edges) -> list:
    """Per model k of a stack of n models' (B, p, p) precisions, the minimum
    over its 1-based edges ``model_edges[k]`` of the block-averaged
    (K_ij/K_ii)^2, or inf if it has none.

    Each edge's B squares are summed along a contiguous last axis: the same
    bits as ``np.mean`` over that edge's 1-D array.
    """
    models, rows, cols = _edge_index(model_edges, 1)
    n, p = len(model_edges), precisions.shape[-1]
    K = precisions.reshape(n, -1, p, p).transpose(0, 2, 3, 1)  # (n, p, p, B)
    ratio = K[models, rows, cols] / K[models, rows, rows]
    out = np.full(n, np.inf)
    np.minimum.at(out, models, (ratio * ratio).mean(axis=-1))
    return out.tolist()


def partial_correlation(model: BlockModel, i: int, j: int) -> float:
    """Block-averaged squared ratio K_ij/K_ii; zero iff K_ij = 0 in all blocks."""
    for v in (i, j):
        if not (1 <= v <= model.p):
            raise InvalidParameterError(f"node {v} outside 1..{model.p}")
    if i == j:
        raise InvalidParameterError("need two distinct nodes")
    return _rho_mins(model.precisions, [[(i, j)]])[0]


def min_edge_strength(model: BlockModel, cig: Cig) -> float:
    """Minimum average partial correlation over the graph's edges (inf if edgeless)."""
    return _rho_mins(model.precisions, [cig.edges])[0]


def covariance_eig_range(model: BlockModel):
    """Extreme covariance eigenvalues over all blocks."""
    evals = np.linalg.eigvalsh(model.covariances)
    return evals[:, 0].min(), evals[:, -1].max()


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
