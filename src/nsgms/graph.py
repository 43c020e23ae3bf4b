"""Undirected conditional-independence graphs and a seeded random generator.

Nodes are labelled 1..p.  Graphs are simple (no self-loops, no duplicate
edges) and every graph produced by :func:`random_cig` respects a maximum
degree bound, so the precision matrices built on top of it stay sparse.

Edges are stored in the one form every reader wants, the lexicographically
sorted tuple of ``(i, j)`` pairs of plain ints with ``i < j``; :class:`Cig`
alone sorts and validates pairs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError


@dataclass(frozen=True)
class Cig:
    """Simple undirected graph on nodes 1..p.

    ``edges`` may be given as any iterable of 2-node pairs (tuples, lists,
    frozensets, or rows of ``np.argwhere(...).tolist()``), with nodes of any
    integer type; it is stored as ``tuple(sorted({(min, max)}))`` of plain
    ints, so reversed and repeated pairs merge.  A pair that is not two
    distinct integer nodes in 1..p, of any integer type but bool, is
    rejected.  ``p`` must be an integer >= 1 of any integer type but bool,
    and is stored as a plain int.
    """

    p: int
    edges: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "p", _positive_int(self.p, "node count"))
        pairs = set()
        for e in self.edges:
            try:
                a, b = e
                i, j = operator.index(a), operator.index(b)
            except (TypeError, ValueError):  # not two nodes, or a node not an integer
                i = j = None
            # A bool is no node, as it is no node count (see _positive_int).
            if i is None or i == j or type(a) is bool or type(b) is bool:
                raise InvalidParameterError(f"edge {e!r} is not a pair of distinct integer nodes")
            if j < i:
                i, j = j, i
            if i < 1 or j > self.p:
                raise InvalidParameterError(f"edge {e!r} has a node outside 1..{self.p}")
            # A sorted tuple of plain ints, as random_cig gives, is kept, not rebuilt.
            pairs.add(e if i is a and j is b and type(e) is tuple else (i, j))
        object.__setattr__(self, "edges", tuple(sorted(pairs)))

    def neighborhood(self, i: int) -> frozenset:
        """Nodes adjacent to i."""
        i = _positive_int(i, "node", self.p)
        return frozenset(k if j == i else j for j, k in self.edges if i in (j, k))

    @property
    def max_degree(self) -> int:
        """Largest node degree, counted in one pass over the edges."""
        degree = [0] * (self.p + 1)
        for i, j in self.edges:
            degree[i] += 1
            degree[j] += 1
        return max(degree)


def _positive_int(value, name: str, top: float = math.inf, least: int = 1) -> int:
    """``value`` as a plain int, if it is an integer of any type but bool in ``least``..``top``.

    The one rule for a count or a node: 2.5, ``True`` and ``np.float64(2.0)``
    are rejected, and ``np.int64(2)`` is taken as 2.  :class:`Cig` applies it
    to its node count, every entry point that takes one node or a set of
    nodes to each node (``top`` = p), :func:`random_cig`, the experiment
    config, the lemma checks, :class:`~nsgms.model.BlockModel`, the model
    builds, and the sample and Gram stacks to their counts, and, with
    ``least`` = 0, the sweep to its sizes and targets, ``sample_process`` to
    its block indices and :class:`~nsgms.regression.EstimatorConfig` to its
    budget s.
    """
    try:
        n = operator.index(value)
    except TypeError:  # not an integer, e.g. 2.5
        n = least - 1
    if isinstance(value, bool) or not least <= n <= top:
        bound = f">= {least}" if top == math.inf else f"in {least}..{top}"
        raise InvalidParameterError(f"need an integer {name} {bound}, got {value!r}")
    return n


def random_cig(p: int, s_max: int, seed) -> Cig:
    """Draw a random simple graph with maximum degree at most ``s_max``.

    Construction is in two phases: first a random near-perfect matching so
    that (almost) every node gets at least one edge, then extra random edges
    are added while the degree bound permits.  With ``s_max == 1`` and odd
    ``p`` one node necessarily stays isolated; in every other case all nodes
    end up with degree >= 1.  ``p`` >= 2 and 1 <= ``s_max`` <= p - 1 are
    counts (see :func:`_positive_int`).  Deterministic given ``seed``, which
    is anything ``np.random.default_rng`` takes: a Generator or bit generator
    is drawn from in place, so the caller's stream goes on after the graph's draws.
    """
    p = _positive_int(p, "p", least=2)
    s_max = _positive_int(s_max, "s_max", p - 1)
    rng = np.random.default_rng(seed)
    degree = [0] * (p + 1)
    edges = set()

    # Phase 1: matching over a random permutation covers all but at most one node.
    # Its pairs are distinct nodes of degree 0, so each is accepted.
    perm = (rng.permutation(p) + 1).tolist()
    for i, j in zip(perm[::2], perm[1::2]):
        edges.add((i, j) if i < j else (j, i))
        degree[i] = degree[j] = 1
    if p % 2 == 1:
        # Attach the leftover node anywhere the bound allows (impossible for s_max=1).
        leftover = perm[-1]
        for q in (rng.permutation(p) + 1).tolist():
            if q != leftover and degree[q] < s_max:
                edges.add((leftover, q) if leftover < q else (q, leftover))
                degree[leftover], degree[q] = 1, degree[q] + 1
                break

    # Phase 2: sprinkle extra edges, keeping the graph degree-bounded.
    # One call draws every pair: the same values as one size-2 call per attempt.
    if s_max >= 2:
        attempts = rng.integers(0, 2 * p, endpoint=True)
        nodes = iter(rng.integers(1, p + 1, size=(attempts, 2)).ravel().tolist())
        for i, j in zip(nodes, nodes):
            if i != j and degree[i] < s_max and degree[j] < s_max:
                e = (i, j) if i < j else (j, i)
                if e not in edges:
                    edges.add(e)
                    degree[i] += 1
                    degree[j] += 1

    return Cig(p=p, edges=edges)
