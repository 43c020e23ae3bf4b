"""Block-wise Gaussian model families with a prescribed sparsity pattern.

A model is a stack of B precision/covariance pairs sharing one graph:
off-diagonal precision entries are nonzero exactly on the graph's edges,
and every covariance matrix has its eigenvalues inside a band [1, beta].

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
targeted.  It reads the precisions only, so :func:`pilot_min_edge_strength`
(the harness's calibration pilots) runs the precision half of a build, on
the same random stream, and forms no covariances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionFailure, InvalidParameterError
from .graph import Cig

#: relative tolerance on ||C @ K - I||_inf, scaled by p
INVERSION_TOL = 1e-8

#: slack allowed on the covariance eigenvalue band [1, beta]
EIG_BAND_TOL = 1e-9


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
            if not np.all(np.isfinite(stack)):
                raise InvalidParameterError(f"{name} contain non-finite values")
            object.__setattr__(self, name, stack)

    @property
    def n_samples(self) -> int:
        return self.B * self.L


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

    ``K`` is a (B, p, p) stack.  Returns the mapped precision stack K_new
    together with its eigenvalues and eigenvectors, all from one symmetric
    eigendecomposition per block; :func:`_covariances` turns the latter two
    into C_new, so every pair is consistent to machine precision.
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
    K_new = alpha[:, None, None] * K + (alpha * gamma)[:, None, None] * np.eye(K.shape[-1])
    K_new = 0.5 * (K_new + K_new.swapaxes(1, 2))
    return K_new, new_evals, vecs


def _covariances(new_evals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """C_new = V diag(1/new_evals) V^T per block, symmetrised."""
    C_new = (vecs / new_evals[:, None, :]) @ vecs.swapaxes(1, 2)
    return 0.5 * (C_new + C_new.swapaxes(1, 2))


def _banded_precisions(cig: Cig, B: int, beta: float, coupling: float, seed, edge_pairs):
    """The precision half of a model build: draw W, map K = I + W into the band.

    Returns ``_spectrum_to_band``'s (K_new, new_evals, vecs).  The random
    stream is that of one ``rng.uniform(lo, hi)`` magnitude and one
    ``rng.integers(0, 2)`` sign per edge and block, in block then edge order.
    """
    if B < 1:
        raise InvalidParameterError(f"need B >= 1, got B={B}")
    if not beta > 1:
        raise InvalidParameterError(f"need beta > 1, got {beta}")
    if not (0 < coupling < 1):
        raise InvalidParameterError(f"need 0 < coupling < 1, got {coupling}")
    rng = np.random.default_rng(seed)
    p = cig.p
    s_max = max(cig.max_degree, 1)
    lo, hi = coupling / (2 * s_max), coupling / s_max
    span = hi - lo
    signs = (-1.0, 1.0)
    # lo + span * random() is the arithmetic of rng.uniform(lo, hi), bit for bit.
    n = len(edge_pairs)
    draws = np.fromiter(((lo + span * rng.random()) * signs[rng.integers(0, 2)]
                         for _ in range(B * n)), dtype=float, count=B * n)
    K = np.zeros((B, p, p))
    if edge_pairs:
        rows, cols = (np.array(edge_pairs, dtype=np.intp) - 1).T
        K[:, rows, cols] = K[:, cols, rows] = draws.reshape(B, n)
    K += np.eye(p)  # each row of |W| sums to <= coupling < 1: PD by Gershgorin
    return _spectrum_to_band(K, beta)


def build_block_model(cig: Cig, B: int, L: int, beta: float, coupling: float, seed) -> BlockModel:
    """Build a B-block model whose precision support equals the graph's edges."""
    if L < 1:
        raise InvalidParameterError(f"need L >= 1, got L={L}")
    K_new, new_evals, vecs = _banded_precisions(cig, B, beta, coupling, seed, cig.edge_list())
    C_new = _covariances(new_evals, vecs)
    err = np.abs(C_new @ K_new - np.eye(cig.p)).max()
    if err > INVERSION_TOL * cig.p:
        raise ConstructionFailure(f"inversion residual {err:.3e} exceeds tolerance")
    return BlockModel(p=cig.p, B=B, L=L, beta=float(beta), precisions=K_new, covariances=C_new)


def pilot_min_edge_strength(cig: Cig, B: int, beta: float, coupling: float, seed) -> float:
    """``min_edge_strength(build_block_model(cig, B, L, ...), cig)`` without the model.

    Draws the same stream and forms the same precision stack, bit for bit,
    but no covariances, so it skips their inversion-residual check; the
    precisions get ``BlockModel``'s finiteness check.  Any L >= 1 gives the
    same value.
    """
    edge_pairs = cig.edge_list()
    K_new, _, _ = _banded_precisions(cig, B, beta, coupling, seed, edge_pairs)
    if not np.all(np.isfinite(K_new)):
        raise InvalidParameterError("precisions contain non-finite values")
    return _min_strength(K_new, edge_pairs)


def _edge_strengths(precisions: np.ndarray, rows, cols) -> np.ndarray:
    """Block-averaged (K_ij/K_ii)^2 per 0-based pair (rows[e], cols[e]).

    Each pair's B squares are summed along a contiguous last axis: the same
    bits as ``np.mean`` over that pair's 1-D array.
    """
    K = np.moveaxis(precisions, 0, -1)  # (p, p, B)
    ratio = K[rows, cols] / K[rows, rows]
    return (ratio * ratio).mean(axis=-1)


def _min_strength(precisions: np.ndarray, edge_pairs) -> float:
    """Minimum of ``_edge_strengths`` over 1-based edge pairs (inf if there are none)."""
    if not edge_pairs:
        return float("inf")
    pairs = np.array(edge_pairs, dtype=np.intp) - 1
    return float(_edge_strengths(precisions, pairs[:, 0], pairs[:, 1]).min())


def partial_correlation(model: BlockModel, i: int, j: int) -> float:
    """Block-averaged squared ratio K_ij/K_ii; zero iff K_ij = 0 in all blocks."""
    for v in (i, j):
        if not (1 <= v <= model.p):
            raise InvalidParameterError(f"node {v} outside 1..{model.p}")
    if i == j:
        raise InvalidParameterError("need two distinct nodes")
    return float(_edge_strengths(model.precisions, [i - 1], [j - 1])[0])


def min_edge_strength(model: BlockModel, cig: Cig) -> float:
    """Minimum average partial correlation over the graph's edges (inf if edgeless)."""
    return _min_strength(model.precisions, cig.edge_list())


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
