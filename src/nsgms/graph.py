"""Undirected conditional-independence graphs and a seeded random generator.

Nodes are labelled 1..p.  Graphs are simple (no self-loops, no duplicate
edges) and every graph produced by :func:`random_cig` respects a maximum
degree bound, so the precision matrices built on top of it stay sparse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError


@dataclass(frozen=True)
class Cig:
    """Simple undirected graph on nodes 1..p."""

    p: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.p < 1:
            raise InvalidParameterError(f"node count must be >= 1, got {self.p}")
        edges = frozenset(frozenset(e) for e in self.edges)
        for e in edges:
            if len(e) != 2:
                raise InvalidParameterError(f"edge {set(e)} is not a pair of distinct nodes")
            for v in e:
                if not (1 <= v <= self.p):
                    raise InvalidParameterError(f"node {v} outside 1..{self.p}")
        object.__setattr__(self, "edges", edges)

    def neighborhood(self, i: int) -> frozenset:
        """Nodes adjacent to i."""
        if not (1 <= i <= self.p):
            raise InvalidParameterError(f"node {i} outside 1..{self.p}")
        return frozenset(v for e in self.edges for v in e if i in e and v != i)

    def degree(self, i: int) -> int:
        return len(self.neighborhood(i))

    @property
    def max_degree(self) -> int:
        """Largest node degree, counted in one pass over the edges."""
        degree = [0] * (self.p + 1)
        for e in self.edges:
            for v in e:
                degree[v] += 1
        return max(degree)

    def edge_list(self) -> list:
        """Edges as sorted (i, j) tuples with i < j, in lexicographic order."""
        return sorted(tuple(sorted(e)) for e in self.edges)

    def has_edge(self, i: int, j: int) -> bool:
        return frozenset((i, j)) in self.edges


def random_cig(p: int, s_max: int, seed) -> Cig:
    """Draw a random simple graph with maximum degree at most ``s_max``.

    Construction is in two phases: first a random near-perfect matching so
    that (almost) every node gets at least one edge, then extra random edges
    are added while the degree bound permits.  With ``s_max == 1`` and odd
    ``p`` one node necessarily stays isolated; in every other case all nodes
    end up with degree >= 1.  Deterministic given ``seed``.
    """
    if p < 2:
        raise InvalidParameterError(f"need p >= 2, got {p}")
    if not (1 <= s_max <= p - 1):
        raise InvalidParameterError(f"need 1 <= s_max <= p-1, got s_max={s_max}")
    rng = np.random.default_rng(seed)
    degree = [0] * (p + 1)
    edges = set()

    def add(i, j):
        e = frozenset((i, j))
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

    return Cig(p=p, edges=frozenset(edges))
