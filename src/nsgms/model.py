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
targeted.
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

    ``K`` is a (B, p, p) stack.  Returns the stacks (K_new, C_new), each block
    computed from one symmetric eigendecomposition, so every pair is
    consistent to machine precision.
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
    C_new = (vecs / new_evals[:, None, :]) @ vecs.swapaxes(1, 2)
    C_new = 0.5 * (C_new + C_new.swapaxes(1, 2))
    return K_new, C_new


def build_block_model(cig: Cig, B: int, L: int, beta: float, coupling: float, seed) -> BlockModel:
    """Build a B-block model whose precision support equals the graph's edges."""
    if B < 1 or L < 1:
        raise InvalidParameterError(f"need B >= 1 and L >= 1, got B={B}, L={L}")
    if not beta > 1:
        raise InvalidParameterError(f"need beta > 1, got {beta}")
    if not (0 < coupling < 1):
        raise InvalidParameterError(f"need 0 < coupling < 1, got {coupling}")
    rng = np.random.default_rng(seed)
    p = cig.p
    s_max = max(cig.max_degree, 1)
    lo, hi = coupling / (2 * s_max), coupling / s_max
    edge_pairs = cig.edge_list()

    K = np.zeros((B, p, p))
    for W in K:
        for (i, j) in edge_pairs:
            w = rng.uniform(lo, hi) * (-1.0, 1.0)[rng.integers(0, 2)]
            W[i - 1, j - 1] = W[j - 1, i - 1] = w
    K += np.eye(p)  # each row of |W| sums to <= coupling < 1: PD by Gershgorin
    K_new, C_new = _spectrum_to_band(K, beta)
    err = np.abs(C_new @ K_new - np.eye(p)).max()
    if err > INVERSION_TOL * p:
        raise ConstructionFailure(f"inversion residual {err:.3e} exceeds tolerance")
    return BlockModel(p=p, B=B, L=L, beta=float(beta), precisions=K_new, covariances=C_new)


def _edge_strengths(model: BlockModel, rows, cols) -> np.ndarray:
    """Block-averaged (K_ij/K_ii)^2 per 0-based pair (rows[e], cols[e]).

    Each pair's B squares are summed along a contiguous last axis: the same
    bits as ``np.mean`` over that pair's 1-D array.
    """
    K = np.moveaxis(model.precisions, 0, -1)  # (p, p, B)
    ratio = K[rows, cols] / K[rows, rows]
    return (ratio * ratio).mean(axis=-1)


def partial_correlation(model: BlockModel, i: int, j: int) -> float:
    """Block-averaged squared ratio K_ij/K_ii; zero iff K_ij = 0 in all blocks."""
    for v in (i, j):
        if not (1 <= v <= model.p):
            raise InvalidParameterError(f"node {v} outside 1..{model.p}")
    if i == j:
        raise InvalidParameterError("need two distinct nodes")
    return float(_edge_strengths(model, [i - 1], [j - 1])[0])


def min_edge_strength(model: BlockModel, cig: Cig) -> float:
    """Minimum average partial correlation over the graph's edges (inf if edgeless)."""
    pairs = np.array(cig.edge_list(), dtype=np.intp).reshape(-1, 2) - 1
    if not len(pairs):
        return float("inf")
    return float(_edge_strengths(model, pairs[:, 0], pairs[:, 1]).min())


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
