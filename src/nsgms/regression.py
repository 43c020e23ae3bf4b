"""Sparse neighborhood regression by exhaustive penalized subset search.

Per node i, every candidate set T of at most s other nodes is scored by

    Z(T) + lambda * |T|,   Z(T) = (1/N) sum_b || proj_complement(x_i, T, b) ||^2,

where the projection removes, within each block, the span of the candidate
rows.  The global minimizer is returned, ties broken by smaller |T| and
then lexicographically.  Z(T) is evaluated from the per-block Gram matrices
by the sweep in :mod:`nsgms.kernels`, which scores every node in one pass;
the explicit projection route below is the slow reference the tests check
it against.
The estimators take a :class:`GramBlocks`, or a :class:`SampleBlocks`
that they reduce to one first, so every input is checked and scanned on
the same path.

Also here: the lambda default (one sixth of the minimum edge strength),
the sufficient sample-size bound used to place experiment grids, and the
block-length condition for that bound to apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    DimensionMismatchError,
    InfeasibleConfigError,
    InvalidParameterError,
)
from .graph import Cig, _positive_int
from .kernels import subset_objectives
from .sampling import GramBlocks, SampleBlocks, block_grams

DEFAULT_RANK_TOL = 1e-10


@dataclass(frozen=True)
class EstimatorConfig:
    """Search budget s, penalty weight, and the numerical rank threshold.

    ``rank_tol`` drops a candidate row whose relative residual norm, given
    the earlier rows of the set, is at most ``rank_tol``.  The scan works
    on Gram matrices, which square the data, so it resolves that norm only
    down to about 1e-7: a row between ``rank_tol`` and about 1e-7 is
    neither dropped nor projected out accurately, and sets containing it
    can be scored several percent away from ``residual_statistic``.
    """

    s: int
    lam: float
    rank_tol: float = DEFAULT_RANK_TOL

    def __post_init__(self):
        object.__setattr__(self, "s", _positive_int(self.s, "s", least=0))
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise InvalidParameterError(f"need a finite lambda >= 0, got {self.lam}")
        if not (0 < self.rank_tol < 1):
            raise InvalidParameterError(f"need 0 < rank_tol < 1, got {self.rank_tol}")


@dataclass(frozen=True)
class NeighborhoodEstimate:
    """Selected index set for one node and its penalized objective."""

    node: int
    selected: frozenset
    objective: float


def project_complement(block_data: np.ndarray, T, x: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Remove from ``x`` its projection onto the span of rows ``T`` of the block.

    Rows are orthogonalized by modified Gram-Schmidt with one
    reorthogonalization pass; a row whose norm falls below ``rank_tol``
    times its original norm is treated as dependent and dropped.
    ``T`` holds 1-based node indices.
    """
    block_data = np.asarray(block_data, dtype=float)
    x = np.asarray(x, dtype=float)
    if block_data.ndim != 2 or x.ndim != 1 or block_data.shape[1] != x.shape[0]:
        raise DimensionMismatchError(
            f"block {block_data.shape} incompatible with vector {x.shape}"
        )
    T = sorted({_positive_int(j, "node", block_data.shape[0]) for j in T})
    L = x.shape[0]
    if len(T) >= L:
        raise InvalidParameterError(f"need |T| < L, got |T|={len(T)}, L={L}")
    basis = []
    for j in T:
        v = block_data[j - 1].copy()
        norm0 = np.linalg.norm(v)
        if norm0 == 0.0:
            continue
        for _ in range(2):  # MGS + one reorthogonalization pass
            for u in basis:
                v -= (u @ v) * u
        norm = np.linalg.norm(v)
        if norm <= rank_tol * norm0:
            continue
        basis.append(v / norm)
    r = x.copy()
    for u in basis:
        r -= (u @ r) * u
    return r


def residual_statistic(samples: SampleBlocks, i: int, T, rank_tol: float = DEFAULT_RANK_TOL) -> float:
    """Average squared residual of node i's samples after projecting out T, per block.

    Reads the columns directly, so it checks the rows it uses, T and i, for
    non-finite values itself.
    """
    i = _positive_int(i, "node", samples.p)
    T = sorted({_positive_int(j, "node", samples.p) for j in T})
    if i in T:
        raise InvalidParameterError(f"candidate set must not contain the target node {i}")
    rows = [j - 1 for j in T] + [i - 1]
    if not np.isfinite(samples.data[:, rows]).all():
        raise InvalidParameterError("samples contain non-finite values in the rows used")
    total = 0.0
    for X in samples.data:
        r = project_complement(X, T, X[i - 1], rank_tol)
        total += float(r @ r)
    return total / samples.n_samples


def candidate_sets(p: int, i: int, s: int):
    """All subsets of {1..p}\\{i} with at most s elements, by (size, lex) order.

    The brute-force enumeration the tests score the sweep's choices against.
    """
    others = [j for j in range(1, p + 1) if j != i]
    for t in range(s + 1):
        yield from combinations(others, t)


def _checked_grams(data: SampleBlocks | GramBlocks, config: EstimatorConfig) -> GramBlocks:
    """The Gram stack of ``data``, after checking the budget against it."""
    if isinstance(data, SampleBlocks):
        data = GramBlocks(p=data.p, B=data.B, L=data.L, grams=block_grams(data))
    elif not isinstance(data, GramBlocks):
        raise InvalidParameterError(
            f"expected SampleBlocks or GramBlocks, got {type(data).__name__}"
        )
    if config.s >= data.L:
        raise InfeasibleConfigError(
            f"budget s={config.s} >= block length L={data.L}: "
            "a candidate set could span a whole block"
        )
    if config.s >= data.p:
        raise InvalidParameterError(f"need s < p, got s={config.s}, p={data.p}")
    return data


def estimate_neighborhood(data: SampleBlocks | GramBlocks, i: int,
                          config: EstimatorConfig) -> NeighborhoodEstimate:
    """Exhaustive penalized search for the best explaining set for node i."""
    gb = _checked_grams(data, config)
    (estimate,) = _estimate_neighborhoods(gb.grams[None], gb.L, [i], config.s, [config.lam],
                                          config.rank_tol)
    return estimate


def _estimate_neighborhoods(grams: np.ndarray, L: int, nodes, s: int, lams,
                            rank_tol: float = DEFAULT_RANK_TOL) -> list:
    """``estimate_neighborhood`` of node nodes[k] on grams[k] at penalty lams[k], for every k.

    grams is an (n, B, p, p) stack of n problems' Gram stacks, each of
    blocks of length L, searched with budget s.  Each problem is checked in
    turn, as ``estimate_neighborhood`` checks it, and all are scored in one
    sweep, each bit for bit as alone.
    """
    nodes = [_checked_node(W, L, i, EstimatorConfig(s=s, lam=lam, rank_tol=rank_tol))
             for W, i, lam in zip(grams, nodes, lams, strict=True)]
    selected, objectives = subset_objectives(
        grams, range(s + 1), grams.shape[1] * L, lams, rank_tol, target=[i - 1 for i in nodes],
    )
    return [NeighborhoodEstimate(node=i, selected=frozenset(j + 1 for j in best),
                                 objective=float(objective))
            for i, (best,), (objective,) in zip(nodes, selected, objectives)]


def _checked_node(grams: np.ndarray, L: int, i, config: EstimatorConfig) -> int:
    """Node i of one problem's Gram stack, after checking both under ``config``."""
    gb = _checked_grams(GramBlocks(p=grams.shape[-1], B=len(grams), L=L, grams=grams), config)
    return _positive_int(i, "node", gb.p)


def estimate_graph(data: SampleBlocks | GramBlocks, config: EstimatorConfig,
                   combine: str = "OR") -> Cig:
    """Assemble a graph estimate from all per-node neighborhood estimates.

    Node i picking node j sets entry (i, j) of a p x p "picked" matrix.  The
    OR rule joins i and j when either picks the other (``picked | picked.T``),
    the AND rule when both do (``picked & picked.T``); the upper triangle of
    the result, read in row-major order, is the lexicographic edge list.
    """
    if combine not in ("OR", "AND"):
        raise InvalidParameterError(f"combine rule must be OR or AND, got {combine!r}")
    gb = _checked_grams(data, config)
    p = gb.p
    best, _ = subset_objectives(
        gb.grams, range(config.s + 1), gb.n_samples, config.lam, config.rank_tol,
    )
    picked = np.zeros((p, p), dtype=bool)
    for i, T in enumerate(best):
        picked[i, list(T)] = True
    adjacent = picked | picked.T if combine == "OR" else picked & picked.T
    return Cig(p=p, edges=(np.argwhere(np.triu(adjacent, 1)) + 1).tolist())


def default_lambda(rho_min: float) -> float:
    """Penalty weight that makes the recovery guarantee go through: rho_min/6."""
    if not (math.isfinite(rho_min) and rho_min > 0):
        raise InvalidParameterError(f"need a finite rho_min > 0, got {rho_min}")
    return rho_min / 6.0


def sample_size_bound(beta: float, rho_min: float, p: int, s: int, eta: float) -> float:
    """Sample size above which per-node recovery fails with probability <= eta.

    Evaluates 864 * (beta/rho_min) * log(6*p*s^2/eta).  This is the paper's
    sufficient condition, not a threshold: it says nothing about failure
    below it, and its union-bound constant is loose, so empirical error rates
    are typically already 0 at a small fraction of it (on the acceptance
    config, from about 1e-2x of the bound upward).
    """
    for name, v in (("beta", beta), ("rho_min", rho_min), ("p", p), ("s", s), ("eta", eta)):
        if not (math.isfinite(v) and v > 0):  # NaN and inf included
            raise InvalidParameterError(f"need a finite {name} > 0, got {v}")
    if eta >= 1:  # a failure probability; from eta = 6 p s^2 on the bound is <= 0
        raise InvalidParameterError(f"need 0 < eta < 1, got {eta}")
    return 864.0 * (beta / rho_min) * math.log(6.0 * p * s * s / eta)


def rho_condition_holds(rho_min: float, beta: float, L: int) -> bool:
    """Whether the minimum edge strength clears 24*beta/L, as the bound requires."""
    for name, v in (("rho_min", rho_min), ("beta", beta), ("L", L)):
        if not (math.isfinite(v) and v > 0):  # NaN and inf included
            raise InvalidParameterError(f"need a finite {name} > 0, got {v}")
    return rho_min >= 24.0 * beta / L
