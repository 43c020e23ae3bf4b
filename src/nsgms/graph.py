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
    distinct integer nodes in 1..p is rejected.  ``p`` must be an integer
    >= 1 of any integer type but bool, and is stored as a plain int.
    """

    p: int
    edges: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "p", _positive_int(self.p, "node count"))
        pairs = set()
        for e in self.edges:
            try:
                i, j = sorted(map(operator.index, e))
            except (TypeError, ValueError):  # not two nodes, or a node not an integer
                i = j = None
            if i is None or i == j:
                raise InvalidParameterError(f"edge {e!r} is not a pair of distinct integer nodes")
            if i < 1 or j > self.p:
                raise InvalidParameterError(f"edge {e!r} has a node outside 1..{self.p}")
            pairs.add((i, j))
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


def _positive_int(value, name: str, top: float = math.inf) -> int:
    """``value`` as a plain int, if it is an integer of any type but bool in 1..``top``.

    The one rule for a count or a node: 2.5, ``True`` and ``np.float64(2.0)``
    are rejected, and ``np.int64(2)`` is taken as 2.  :class:`Cig` applies it
    to its node count, every entry point that takes one node to the node
    (``top`` = p), and :class:`~nsgms.model.BlockModel` to its sizes.
    """
    try:
        n = operator.index(value)
    except TypeError:  # not an integer, e.g. 2.5
        n = 0
    if isinstance(value, bool) or not 1 <= n <= top:
        bound = ">= 1" if top == math.inf else f"in 1..{top}"
        raise InvalidParameterError(f"need an integer {name} {bound}, got {value!r}")
    return n


def random_cig(p: int, s_max: int, seed) -> Cig:
    """Draw a random simple graph with maximum degree at most ``s_max``.

    Construction is in two phases: first a random near-perfect matching so
    that (almost) every node gets at least one edge, then extra random edges
    are added while the degree bound permits.  With ``s_max == 1`` and odd
    ``p`` one node necessarily stays isolated; in every other case all nodes
    end up with degree >= 1.  Deterministic given ``seed``, which is anything
    ``np.random.default_rng`` takes: a Generator or bit generator is drawn
    from in place, so the caller's stream goes on after the graph's draws.
    """
    if p < 2:
        raise InvalidParameterError(f"need p >= 2, got {p}")
    if not (1 <= s_max <= p - 1):
        raise InvalidParameterError(f"need 1 <= s_max <= p-1, got s_max={s_max}")
    rng = np.random.default_rng(seed)
    degree = [0] * (p + 1)
    edges = set()

    def add(i, j):
        e = (i, j) if i < j else (j, i)
        if i != j and e not in edges and degree[i] < s_max and degree[j] < s_max:
            edges.add(e)
            degree[i] += 1
            degree[j] += 1
            return True
        return False

    # Phase 1: matching over a random permutation covers all but at most one node.
    perm = [int(v) + 1 for v in rng.permutation(p)]
    for k in range(0, p - 1, 2):
        add(perm[k], perm[k + 1])
    if p % 2 == 1:
        # Attach the leftover node anywhere the bound allows (impossible for s_max=1).
        leftover = perm[-1]
        partners = [int(v) + 1 for v in rng.permutation(p)]
        for q in partners:
            if q != leftover and degree[q] < s_max and add(leftover, q):
                break

    # Phase 2: sprinkle extra edges, keeping the graph degree-bounded.
    # One call draws every pair: the same values as one size-2 call per attempt.
    # Indexing the array, not a .tolist() of it: that list of lists raised the traced peak.
    if s_max >= 2:
        attempts = rng.integers(0, 2 * p, endpoint=True)
        pairs = rng.integers(1, p + 1, size=(attempts, 2))
        for k in range(attempts):
            add(int(pairs[k, 0]), int(pairs[k, 1]))

    return Cig(p=p, edges=edges)
