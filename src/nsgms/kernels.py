"""One sweep over the per-block Gram stack that scores every node at once.

The estimator reads the data only through the per-block Gram matrices
G_b = X_b X_b^T.  For a target row i and a candidate set T (i not in T),
the squared residual of row i after projecting out the rows T within block
b is the i-th diagonal entry of G_b after sweeping out the pivots T, that
is, of the Schur complement of G_b[T, T] in G_b.  One swept stack holds
that residual for every target outside T, so the kernel scores all nodes
in one pass over the sets |T| <= s (the sweep operator, Goodnight, Am.
Stat. 1979):

- It walks the sets depth first in index order, and each set's swept
  stack is shared by all its supersets, as in leaps-and-bounds (Furnival &
  Wilson, Technometrics 1974).  A child costs one rank-1 update of the
  (B, p, p) stack.
- Each level's children are scored together from their swept diagonals,
  and the last two levels are batched over all children of a parent: they
  need only the swept diagonal and the target columns, never a stack per
  set.  The children are taken in batches, one for a tail of small p, and
  each batch's grandchildren in chunks of children, a chunk's per-block
  terms a group of blocks at a time, each group added into one objective
  slab.  The scratch buffer holds one group plus that slab, so memory
  stays O(s * B * p^2) plus about ``TAIL_ENTRIES`` floats, and
  the slab is laid out target-major, so the argmin over each target's
  candidates reads it in place.
- From s = 3 on, first-level roots are bounded (the "bounds" half of
  leaps-and-bounds, in the branch-and-bound form of Gatu &
  Kontoghiorghes, JCGS 2006), below.

A one-target call scores one target column of the same sweep over the
caller's stack, with no permuted copy: the bar that keeps each node out of
its own sets gives every set containing the target an infinite objective,
so the result is the target's row of a whole-graph call, to the last bit.

Each rule is written once.  ``_pivot`` drops the pivot of node j in block
b when G_b[j, j] <= 0 or its swept value is at most rank_tol^2 * G_b[j, j],
as a column-dropping Cholesky factor of G_b[T, T] in index order does: a
row whose relative residual norm given the earlier pivots is at most
``rank_tol`` adds nothing to that block.  ``_block_sum`` and
``_Sweep._objective`` score every set: each block's residual is clamped at
0 and added in block order, one block at a time, and the objective is
their sum over N plus lam * |T|, plus inf if the set holds its target.

Bounds: every set of two or more nodes under the root j lies inside
S = {j..p-1}, and projecting out more rows never raises a residual (a
dropped pivot only projects out fewer), so for target i each such set
scores at least

    min(2 * lam, s * lam) + (1/N) sum_b r_b,i(S minus i).

``_root_bounds`` reads these for every root and target
from one Cholesky factor of the index-reversed stack.  Before the sweep
descends under root j, a target whose best so far over the scanned sizes
lies below that bound by more than the slack, ``SLACK`` * (sum_b G_ii / N
+ |lam| * s), is dropped from the subtree, and a subtree with no target
left is skipped.  Every root is checked, whatever the size of its tail.

Why the argmin stays exact: a pruned set scores more than the best so far
plus the slack, so it is strictly worse than the final winner and can
neither win nor tie.  Every set that is scored is scored by the same
operations as without pruning, so the first minimum of the (size,
lex)-ordered enumeration and its objective keep every bit.  The slack is
needed: the sweep can score a set an ulp below the exact value its bound
reads, which breaks an exact tie in that set's favour, and a bound with no
slack would prune the winner.  It covers the rounding of the sweep and of
the bound only where both are accurate, so a block whose reverse pivot of
a node k >= j is at or below ``UNSAFE_PIVOT`` * G_kk adds 0 to root j's
bound.  The lowest index of a near-collinear group of rows gets such a
pivot, which covers the rows of the resolution limit below.  Where the
factorization fails (a rank-deficient block, as when L <= p), nothing is
pruned.

Tie-break: sets of one size are visited in lexicographic order, and the
best set per (target, size) is kept with a strict ``<``, so the first
minimum wins.  Sizes are then combined smallest first, again with a strict
``<``.  Together this is the first minimum of the (size, lex)-ordered
enumeration: a smaller set first, then the lexicographically first.

Resolution limit: the Gram route squares the data, so a pivot whose
relative residual norm lies between ``rank_tol`` and about 1e-7 is
swept at below rounding level.  Such a row is neither dropped nor
projected out accurately, and the objectives of sets containing it can
differ by several percent from the explicit projection route
(``regression.project_complement``), whether that route keeps or drops
the row.  The projection route remains the reference.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Cap, in float64 entries, on a batched tail's (B, targets, children,
# grandchildren) term: the children of one parent are taken in chunks below
# it, at least one child per chunk.  The term is never held whole: its
# blocks are formed a group at a time, as many as fit GROUP_ENTRIES (at
# least one), and added into one (targets, children, grandchildren)
# objective slab, so the scratch buffer holds one group plus that slab.
# When all B blocks fit one group, their sum is kept in block 0's slot.
# The children's own (B, targets, children) terms are formed in batches of
# at most GROUP_ENTRIES floats (at least one child); chunks end with a batch.
TAIL_ENTRIES = 1 << 16
GROUP_ENTRIES = TAIL_ENTRIES // 4
# A block whose reverse pivot of node k is at or below this share of G_kk
# adds nothing to the root bounds of k and every earlier root.
UNSAFE_PIVOT = 1e-4
# A bound prunes only when it beats the best so far by this share of the
# target's objective scale, sum_b G_ii / N + |lam| * s.
SLACK = 1e-9


def subset_objectives(grams: np.ndarray, sizes, n_total: int, lam: float,
                      rank_tol: float, target: int | None = None):
    """Best candidate set and its penalized objective for each target node.

    grams: (B, p, p) per-block Gram matrices.
    sizes: the subset sizes to scan, increasing, e.g. ``range(s + 1)``.
    target: a 0-based node scored alone over the sets without it, or
    ``None`` to score all p nodes, each over the sets without itself.

    Returns ``(selected, objectives)``, one entry per target: the winning
    set as a tuple of 0-based nodes in increasing order, and its objective
    (1/N) * sum_b max(r_b, 0) + lam * |T|.
    """
    grams = np.asarray(grams, dtype=float)
    p = grams.shape[1]
    sizes = [int(t) for t in sizes]
    if not sizes or sizes != sorted(set(sizes)) or sizes[0] < 0 or sizes[-1] >= p:
        raise ValueError(f"sizes must increase within 0..{p - 1}, got {sizes}")
    targets = slice(0, p) if target is None else slice(target, target + 1)
    sweep = _Sweep(grams, targets, n_total, lam, rank_tol, sizes)
    # Sizes smallest first with strict ``<``: the first minimum over sizes.
    by_size = sweep.best[sizes]
    first = by_size.argmin(axis=0)
    selected = [tuple(sweep.chosen[sizes[f], k, :sizes[f]].tolist())
                for k, f in enumerate(first)]
    return selected, by_size[first, np.arange(len(first))]


def _root_bounds(grams, n_total):
    """Lower bound on (1/N) sum_b r_b,i over the sets under each first-level root.

    Entry [j, i] bounds, for target i, every set that holds root j and more
    candidates, all from S = {j..p-1}: r_b,i(S minus i), and inf for i = j.
    Read from one Cholesky factor C of the index-reversed stack: for i < j,
    G_ii minus the leading squares of i's row of C; for i in S, the
    leave-one-out 1/[(G_SS)^-1]_ii from the leading columns of C^-1.  A
    block adds 0 to root j once a reverse pivot of a node k >= j is at or
    below ``UNSAFE_PIVOT`` * G_kk.  None, so that nothing is pruned, when
    the factorization fails, as it mostly does for a rank-deficient block
    (L <= p); where rounding lets one through, its pivot is tiny, so unsafe.
    """
    p = grams.shape[1]
    rev = grams[:, ::-1, ::-1]
    try:
        C = np.linalg.cholesky(rev)
    except np.linalg.LinAlgError:
        return None
    g = rev.diagonal(axis1=1, axis2=2)
    safe = np.logical_and.accumulate(C.diagonal(axis1=1, axis2=2) ** 2 > UNSAFE_PIVOT * g, axis=1)
    # [b, q, m]: reversed node m given reversed nodes 0..q, less m itself.
    r = np.cumsum(C * C, axis=2).transpose(0, 2, 1)
    np.subtract(g[:, None, :], r, out=r)
    # inv of the upper factor C^T is a pure back substitution, so C^-1's
    # leading columns depend on C's leading block alone.
    with np.errstate(over="ignore"):
        inv = np.linalg.inv(C.transpose(0, 2, 1))
        del C  # the passes below work in place, so the peak holds two stacks
        inv *= inv
        loo = np.cumsum(inv, axis=2, out=inv).transpose(0, 2, 1)
    np.divide(1.0, loo, out=r, where=np.tri(p, dtype=bool))
    np.copyto(r, 0.0, where=~safe[:, :, None])
    bounds = r.sum(axis=0)[::-1, ::-1] / n_total
    np.fill_diagonal(bounds, np.inf)
    return bounds


def _pivot(a, floor):
    """Swept pivots ``a``, inf where one drops (a <= floor): it then projects nothing out."""
    return np.where(a > floor, a, np.inf)


def _block_sum(r, total=None, out=None):
    """sum_b max(r_b, 0): r clamped into ``out``, its blocks added in turn into ``total``.

    With ``total`` None they are added into block 0.  Every objective adds
    its blocks in this one order, so one-target and whole-graph calls, and
    a tail's groups of blocks, add them alike.
    """
    r = np.maximum(r, 0.0, out=out)
    first = 0
    if total is None:
        total, first = r[0], 1
    for b in range(first, len(r)):
        total += r[b]
    return total


class _Targets(NamedTuple):
    """The targets a subtree scores.

    ``nodes`` are their columns of the stack, ``rows`` their rows of
    ``best`` (None for every target) and ``own`` the per-(target, node)
    penalty that bars each target from its own sets.
    """

    nodes: slice | np.ndarray
    rows: np.ndarray | None
    own: np.ndarray


class _Sweep:
    """Depth-first sweep recording the best set per (size, target).

    Every node is a candidate, in index order; the targets are the node
    range ``targets``, and each is barred from its own sets.  Objectives
    are laid out target-major, (targets, candidates), so that the argmin
    over each target's candidates reads them in place.
    """

    def __init__(self, grams, targets, n_total, lam, rank_tol, sizes):
        p, s = grams.shape[1], sizes[-1]
        self.p, self.n_total, self.lam, self.s = p, n_total, lam, s
        nt = targets.stop - targets.start
        self.cols = np.arange(nt)
        nodes = np.arange(p)
        own = np.where(nodes[targets, None] == nodes, np.inf, 0.0)
        diag = grams.diagonal(axis1=1, axis2=2)
        # A swept pivot at or below its floor drops; G_jj <= 0 always drops.
        self.floor = np.where(diag > 0, rank_tol * rank_tol * diag, np.inf)
        self.best = np.full((s + 1, nt), np.inf)
        self.chosen = np.zeros((s + 1, nt, max(s, 1)), dtype=np.intp)
        self._keep(self._objective(_block_sum(diag[:, targets, None]), 0), 0, None)
        # cut[j, k]: target k skips root j's subtree once its best over the
        # scanned sizes is below cut[j, k], the root bound plus the least
        # penalty of a set of 2..s nodes, less the slack.
        self.sizes, self.cut = np.array(sizes), None
        bounds = _root_bounds(grams, n_total) if s >= 3 else None
        if bounds is not None:
            scale = diag[:, targets].sum(axis=0) / n_total + abs(lam) * s
            self.cut = bounds[:, targets] + (min(2 * lam, s * lam) - SLACK * scale)
        # Grandchild slot kk of child slot jj precedes it where kk < jj.
        self.before = nodes[:, None] > nodes
        if s > 0:
            self._descend(grams, (), 0, np.zeros(nt), _Targets(targets, None, own))

    def _objective(self, total, t, *penalties):
        """(1/N) ``total`` + lam * t + the 0/inf penalties, in place."""
        total /= self.n_total
        total += self.lam * t
        for penalty in penalties:
            total += penalty
        return total

    def _keep(self, obj, t, rows):
        """Fold candidates of size t into the best kept so far.

        ``obj`` is (targets, candidates in lexicographic order), for the
        ``rows`` of ``best`` (None: all).  Returns the candidates of the
        first strict minima that beat the best so far, and the rows they win.
        """
        first = obj.argmin(axis=1)
        value = obj[self.cols[:len(first)], first]
        won = (value < (self.best[t] if rows is None else self.best[t, rows])).nonzero()[0]
        first, value = first[won], value[won]
        if rows is not None:
            won = rows[won]
        self.best[t, won] = value
        return first, won

    def _keep_children(self, obj, T, start, rows):
        """Keep the sets T + {j}, j from ``start`` on, scored by ``obj``."""
        t = len(T) + 1
        first, won = self._keep(obj, t, rows)
        if T:
            self.chosen[t, won, :t - 1] = T
        self.chosen[t, won, t - 1] = start + first

    def _descend(self, A, T, start, barred, view):
        """Score the supersets of T that add candidates from ``start`` on.

        A is the stack swept by T, ``barred`` the per-target penalty of the
        nodes in T, and ``view`` the targets scored.  The children T + {j}
        are scored together from their swept diagonals at the targets,
        col * (col / den), as each child's rank-1 update forms them.
        """
        if start == self.p:
            return
        if len(T) + 2 >= self.s:
            self._tail(A, T, start, barred, view)
            return
        t = len(T) + 1
        diag = A.diagonal(axis1=1, axis2=2)
        den = _pivot(diag[:, start:], self.floor[:, start:])
        col = A[:, view.nodes, start:]
        penalty = barred[:, None] + view.own[:, start:]
        r = diag[:, view.nodes, None] - col * (col / den[:, None])
        self._keep_children(self._objective(_block_sum(r, out=r), t, penalty), T, start, view.rows)
        del col, r  # not held through the subtrees
        for j in range(start, self.p):
            child_barred, sub = penalty[:, j - start], view
            if t == 1 and self.cut is not None:
                alive = (self.cut[j] <= self.best.take(self.sizes, axis=0).min(axis=0)).nonzero()[0]
                if not len(alive):
                    continue
                if len(alive) < len(barred):
                    sub = _Targets(alive + view.nodes.start, alive, view.own.take(alive, axis=0))
                    child_barred = child_barred[alive]
            col = A[:, :, j]
            child = A - col[:, :, None] * (col / den[:, j - start, None])[:, None, :]
            self._descend(child, T + (j,), j + 1, child_barred, sub)

    def _tail(self, A, T, start, barred, view):
        """Score T + {j} and, below size s, T + {j, k}, for candidates j < k from ``start``.

        Only the target entries and the pivots' diagonal of each child's
        swept stack are formed.  The children T + {j} are scored in batches
        of up to ``GROUP_ENTRIES`` (B, targets, j) terms, one batch for a
        tail of small p; their children in chunks of j within a batch, each
        chunk's (targets, j, k) objective summed in one slab a group of
        blocks at a time.
        """
        B, t, p = A.shape[0], len(T) + 1, self.p
        nodes, rows, own = view
        nt = len(barred)
        diag = A.diagonal(axis1=1, axis2=2)
        # [b, i, j]: row j's entry in the column of target i; one gather
        # where rows pick the targets.
        A_t = A.transpose(0, 2, 1)
        A_t = A_t[:, nodes] if rows is None else A_t.take(nodes, axis=1)
        den = _pivot(diag[:, start:], self.floor[:, start:])
        # The scratch buffer takes each batch's clamped (B, targets, j)
        # terms, then each chunk's groups.  Grandchildren take j below ``last``.
        width = max(1, GROUP_ENTRIES // (B * nt))
        last = p - 1 if t < self.s else start
        step = max(1, TAIL_ENTRIES // (B * (p - start) * nt))
        entries = B * nt * min(width, p - start)
        if last > start:
            # A chunk's (targets, j, k) slab is largest for the first chunk.
            # The first group's block 0 holds the sum; later groups go behind it.
            slab = nt * min(step, p - start) * (p - start - 1)
            group = min(B, max(1, GROUP_ENTRIES // slab))
            entries = max(entries, min(B, group + 1) * slab)
        scratch = np.empty(entries)
        for top in range(start, p, width):
            end = min(top + width, p)
            c_ij = A_t[:, :, top:end]
            r1 = c_ij * c_ij
            r1 /= den[:, None, top - start:end - start]
            np.subtract(diag[:, nodes, None], r1, out=r1)
            total = _block_sum(r1, out=scratch[:r1.size].reshape(r1.shape))
            self._keep_children(self._objective(total, t, barred[:, None] + own[:, top:end]),
                                T, top, rows)
            for lo in range(top, min(end, last), step):
                hi = min(lo + step, end)
                nj, nk = hi - lo, p - lo - 1
                c_jk = A[:, lo:hi, lo + 1:p]
                u = c_jk / den[:, lo - start:hi - start, None]
                den_k = _pivot(diag[:, None, lo + 1:p] - u * c_jk, self.floor[:, None, lo + 1:p])
                size, obj = nt * nj * nk, None
                for b0 in range(0, B, group):
                    bs = slice(b0, min(b0 + group, B))
                    at = size if b0 else 0
                    r2 = scratch[at:at + (bs.stop - b0) * size].reshape(-1, nt, nj, nk)
                    # u * c_ij in two calls of one broadcast operand each: numpy
                    # gives each such operand of a call a 64 KiB buffer.
                    np.copyto(r2, u[bs, None])
                    r2 *= A_t[bs, :, lo:hi, None]
                    np.subtract(A_t[bs, :, None, lo + 1:p], r2, out=r2)
                    r2 *= r2
                    r2 /= den_k[bs, None]
                    np.subtract(r1[bs, :, lo - top:hi - top, None], r2, out=r2)
                    obj = _block_sum(r2, obj, out=r2)
                obj = self._objective(obj, t + 1, barred[:, None, None] + own[:, None, lo + 1:p],
                                      own[:, lo:hi, None])
                # Grandchild slot kk is candidate lo + 1 + kk: it must follow j = lo + jj.
                np.copyto(obj, np.inf, where=self.before[:nj, :nk])
                first, won = self._keep(obj.reshape(nt, -1), t + 1, rows)
                jj, kk = np.divmod(first, nk)
                if T:
                    self.chosen[t + 1, won, :t - 1] = T
                self.chosen[t + 1, won, t - 1] = lo + jj
                self.chosen[t + 1, won, t] = lo + 1 + kk
