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
  stack.
- Each level's children are scored together from their swept diagonals,
  and the last two levels are batched over all children of a parent: they
  need only the swept diagonal and the target columns, never a stack per
  set.  The children are taken in batches, one for a tail of small p, and
  each batch's grandchildren in chunks of children, a chunk's per-block
  terms a group of blocks at a time, each group added into one objective
  slab.  The scratch buffer holds one group plus that slab, so memory
  stays O(s * B * p^2) plus about ``TAIL_ENTRIES`` floats, plus numpy's
  iteration buffers of ``UFUNC_BUFFER`` floats, one per broadcast operand
  of a call.  The sweep sets them small: numpy's default, 64 KiB each, is
  a large share of a small sweep's peak.  Each pivot is formed in one array.
  The slab is laid out target-major, so the argmin over each target's
  candidates reads it in place.
- From s = 3 on, first-level roots are bounded (the "bounds" half of
  leaps-and-bounds, in the branch-and-bound form of Gatu &
  Kontoghiorghes, JCGS 2006), below.

A one-target call scores one target column of the same sweep over the
caller's stack, with no permuted copy: the bar that keeps each node out of
its own sets gives every set containing the target an infinite objective,
so the result is the target's row of a whole-graph call, to the last bit.

Problems: one call scores an (n, B, p, p) stack of n problems, each with
its own targets (all p nodes, or one node per problem) and its own lam;
N and rank_tol are shared.  The sweep runs on a (B, n, p, p) view, so a
block's terms for every problem are one slice, and a lone (B, p, p) stack
is the case n = 1, whole graph or one target.  Every rank-1 update, pivot
and residual is formed per (block, problem) by the same element-wise
operations as alone, and every block sum adds the blocks in order, so
each problem's result is its lone call's, to the last bit.  The harness
scores a chunk of trials this way, one target each: its numpy calls are
paid once per chunk, not once per trial.  Whole-graph targets are a slice
view of the stack, one-target problems one gather of their target columns.
The tail's budgets count the (problem, target) rows, and a chunk's pivots
are formed for at most B (block, problem) pairs at once, so a stack of
problems holds no more of them than one problem does (``_tail_budget``).

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

With several problems, each is bounded alone and cut per (problem,
target); a root is skipped only when no (problem, target) is alive, and
below it a column of targets is scored for every problem while one of
them is alive.  Scoring that union is exact: a pruned (problem, target)
scores each of its sets above its best so far plus the slack, so none of
them can become its winner or lower the best over sizes that the next cut
reads, and every other set is scored by the same operations as alone.

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

import operator
from typing import NamedTuple

import numpy as np

# Cap, in float64 entries, on a batched tail's (B, problems, targets,
# children, grandchildren) term: the children of one parent are taken in
# chunks below it, at least one child per chunk.  The term is never held
# whole: its blocks are formed a group at a time, as many as fit
# GROUP_ENTRIES (at least one), and added into one (problems, targets,
# children, grandchildren) objective slab, so the scratch buffer holds one
# group plus that slab.  When all B blocks fit one group, their sum is kept
# in block 0's slot.  The children's own (B, problems, targets, children)
# terms are formed in batches of at most GROUP_ENTRIES floats (at least one
# child); chunks end with a batch.  ``_tail_budget`` states these once.
TAIL_ENTRIES = 1 << 16
GROUP_ENTRIES = TAIL_ENTRIES // 4
# Entries of numpy's ufunc iteration buffer during a sweep.  numpy gives each
# operand of a call that it must buffer, such as a broadcast one, a buffer of
# ``np.getbufsize()`` entries, 8,192 floats (64 KiB) by default; at 1,024
# floats (8 KiB) each fits L1.  ``subset_objectives`` sets it for one sweep
# and restores the caller's value after.
UFUNC_BUFFER = 1 << 10
# A block whose reverse pivot of node k is at or below this share of G_kk
# adds nothing to the root bounds of k and every earlier root.
UNSAFE_PIVOT = 1e-4
# A bound prunes only when it beats the best so far by this share of the
# target's objective scale, sum_b G_ii / N + |lam| * s.
SLACK = 1e-9


def subset_objectives(grams: np.ndarray, sizes, n_total: int, lam, rank_tol: float,
                      target=None):
    """Best candidate set and its penalized objective for each target node.

    grams: (B, p, p) per-block Gram matrices, or an (n, B, p, p) stack of n
    problems, scored in one sweep.
    sizes: the subset sizes to scan, increasing, e.g. ``range(s + 1)``.
    lam: the penalty weight; for a stack, one per problem.
    target: ``None`` to score all p nodes, each over the sets without
    itself, or a 0-based node scored alone over the sets without it; for
    a stack, ``None`` or one node per problem.

    Returns ``(selected, objectives)``, one entry per target: the winning
    set as a tuple of 0-based nodes in increasing order, and its objective
    (1/N) * sum_b max(r_b, 0) + lam * |T|.  For a stack, problem k's are
    ``selected[k]`` and ``objectives[k]``, bit for bit its lone call's.
    """
    grams = np.asarray(grams, dtype=float)
    if grams.ndim not in (3, 4) or grams.shape[-2] != grams.shape[-1]:
        raise ValueError(f"grams must be a (B, p, p) or (n, B, p, p) stack, got {grams.shape}")
    lone = grams.ndim == 3
    # Blocks lead, then problems: a block's terms for every problem are one slice.
    grams = grams[:, None] if lone else grams.swapaxes(0, 1)
    n, p = grams.shape[1], grams.shape[3]
    sizes = [int(t) for t in sizes]
    if not sizes or sizes != sorted(set(sizes)) or sizes[0] < 0 or sizes[-1] >= p:
        raise ValueError(f"sizes must increase within 0..{p - 1}, got {sizes}")
    lam = np.asarray([lam] if lone else lam, dtype=float)
    if lam.shape != (n,):
        raise ValueError(f"need one lam per problem ({n}), got shape {lam.shape}")
    lam = lam.tolist()
    if target is not None:
        target = _target_nodes([target] if lone else target, n, p)
    # Restored by hand: ``np.errstate`` restores the buffer size only on numpy >= 2.
    bufsize = np.setbufsize(UFUNC_BUFFER)
    try:
        sweep = _Sweep(grams, target, n_total, lam, rank_tol, sizes)
        if sizes[-1] > 0:  # descended here, so the set-up's temporaries are freed first
            sweep._descend(*sweep.root)
    finally:
        np.setbufsize(bufsize)
    # Sizes smallest first with strict ``<``: the first minimum over sizes.
    by_size = sweep.best[sizes]
    first = by_size.argmin(axis=0)
    objectives = by_size[first, np.arange(len(first))].reshape(n, -1)
    selected = [tuple(sweep.chosen[sizes[f], r, :sizes[f]].tolist()) for r, f in enumerate(first)]
    nt = len(selected) // n
    selected = [selected[k * nt:(k + 1) * nt] for k in range(n)]
    return (selected[0], objectives[0]) if lone else (selected, objectives)


def _target_nodes(target, n, p):
    """The (n, 1) target nodes, one per problem, each an integer in 0..p-1."""
    try:
        target = list(target)
    except TypeError:  # one node for a stack of problems
        raise ValueError(f"need one target per problem ({n}), got {target!r}") from None
    nodes = []
    for node in target:
        try:  # a bool is no node, as in ``graph._positive_int``
            ok = not isinstance(node, (bool, np.bool_)) and 0 <= operator.index(node) < p
        except TypeError:  # not an integer, e.g. 1.0
            ok = False
        if not ok:
            raise ValueError(f"target must be an integer node in 0..{p - 1}, got {node!r}")
        nodes.append(operator.index(node))
    if len(nodes) != n:
        raise ValueError(f"need one target per problem ({n}), got {len(nodes)}")
    return np.array([[node] for node in nodes], dtype=np.intp)


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


def _pivot(diag, floor, u=None, c=None):
    """Swept pivots diag - u * c (``diag`` alone without ``u``), in one new array.

    A pivot is inf where it drops (<= floor): it then projects nothing out.
    """
    if u is None:
        a = diag.copy()
    else:
        a = np.multiply(u, c)
        np.subtract(diag, a, out=a)
    np.copyto(a, np.inf, where=~(a > floor))
    return a


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


def _tail_budget(B, n, rows, m, grandchildren):
    """A tail's budgets: (width, step, pivots, group, entries).

    For B blocks of n problems, ``rows`` (problem, target) pairs and m
    candidates: ``width`` children per batch, ``step`` children per
    grandchild chunk, the blocks whose pivots are formed at once, the
    blocks per group of a chunk, and the scratch buffer's floats, all from
    ``GROUP_ENTRIES`` and ``TAIL_ENTRIES``.  Pivots are formed for at most
    B (block, problem) pairs at once, and a group holds no more blocks
    than that, so a chunk of problems holds no more of them than one
    problem does.
    """
    width = max(1, GROUP_ENTRIES // (B * rows))
    step = max(1, TAIL_ENTRIES // (B * m * rows))
    pivots = group = max(1, B // n)
    entries = B * rows * min(width, m)
    if grandchildren:
        # A chunk's (rows, j, k) slab is largest for the first chunk.  The
        # first group's block 0 holds the sum; later groups go behind it.
        slab = rows * min(step, m) * (m - 1)
        group = max(1, min(pivots, GROUP_ENTRIES // slab))
        entries = max(entries, min(B, group + 1) * slab)
    return width, step, pivots, group, entries


def _at(x, at):
    """The targets' rows along axis 2 of a (B, problems, ...) array (``_Targets.at``).

    Shared columns are taken, so the rows are contiguous, as the tail's
    operations read them.
    """
    return x.take(at, axis=2) if isinstance(at, np.ndarray) else x[at]


class _Targets(NamedTuple):
    """The targets a subtree scores.

    ``at`` picks their rows along axis 2 of a (B, problems, ...) array
    (``_at``): an index tuple, or columns shared by every problem,
    ``rows`` are their flat (problem, target) rows of ``best`` (None for
    every target) and ``own`` the per-(problem, target, node) penalty that
    bars each target from its own sets.
    """

    at: tuple | np.ndarray
    rows: np.ndarray | None
    own: np.ndarray


class _Sweep:
    """Depth-first sweep recording the best set per (size, problem, target).

    The stack is (B, problems, p, p), and every node is a candidate, in
    index order.  The targets are all p nodes of every problem, or one node
    per problem, and each is barred from its own sets.  Objectives are laid
    out problem- and target-major, (problems, targets, candidates), so that
    the argmin over each target's candidates reads them in place; ``best``
    and ``chosen`` hold one flat row per (problem, target).
    """

    def __init__(self, grams, nodes, n_total, lam, rank_tol, sizes):
        n, p, s = grams.shape[1], grams.shape[2], sizes[-1]
        self.p, self.n_total, self.lam, self.s = p, n_total, lam, s
        candidates = np.arange(p)
        if nodes is None:
            at, nodes = (slice(None), slice(None), slice(0, p)), candidates[None]
        else:
            at = (slice(None), np.array([[k] for k in range(n)]), nodes)
        nt = nodes.shape[1]
        self.cols = np.arange(n * nt)
        own = np.where(nodes[..., None] == candidates, np.inf, 0.0)
        diag = grams.diagonal(axis1=2, axis2=3)
        # A swept pivot at or below its floor drops; G_jj <= 0 always drops.
        self.floor = np.where(diag > 0, rank_tol * rank_tol * diag, np.inf)
        self.best = np.full((s + 1, n * nt), np.inf)
        self.chosen = np.zeros((s + 1, n * nt, max(s, 1)), dtype=np.intp)
        self._keep(self._objective(_block_sum(_at(diag, at)[..., None]), 0), 0, None)
        # cut[j, k, i]: target i of problem k skips root j's subtree once its
        # best over the scanned sizes is below cut[j, k, i], the root bound
        # plus the least penalty of a set of 2..s nodes, less the slack.
        self.sizes, self.cut = np.array(sizes), None
        # Each problem is bounded alone; one whose factorization fails is never cut.
        bounds = [_root_bounds(grams[:, k], n_total) for k in range(n)] if s >= 3 else [None]
        if any(b is not None for b in bounds):
            lam = np.array(lam)[:, None]
            scale = _at(diag, at).sum(axis=0) / n_total + np.abs(lam) * s
            bounds = np.array([np.full((p, p), -np.inf) if b is None else b for b in bounds])
            self.cut = _at(bounds.swapaxes(0, 1), at) + (np.minimum(2 * lam, s * lam) - SLACK * scale)
        # Grandchild slot kk of child slot jj precedes it where kk < jj.
        self.before = candidates[:, None] > candidates
        # The descent's arguments at the root: the stack, no set, no penalty.
        self.root = (grams, (), 0, np.zeros((n, nt)), _Targets(at, None, own))

    def _objective(self, total, t, *penalties):
        """(1/N) ``total`` + lam * t + the 0/inf penalties, in place; problems lead."""
        total /= self.n_total
        for k, lam in enumerate(self.lam):
            total[k] += lam * t
        for penalty in penalties:
            total += penalty
        return total

    def _keep(self, obj, t, rows):
        """Fold candidates of size t into the best kept so far.

        ``obj`` is (problems, targets, candidates in lexicographic order),
        for the flat ``rows`` of ``best`` (None: all).  Returns the
        candidates of the first strict minima that beat the best so far,
        and the rows they win.
        """
        obj = obj.reshape(-1, obj.shape[-1])
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

        A is the stack swept by T, ``barred`` the per-(problem, target)
        penalty of the nodes in T, and ``view`` the targets scored.  The
        children T + {j} are scored together from their swept diagonals at
        the targets, col * (col / den), as each child's rank-1 update forms
        them.
        """
        if start == self.p:
            return
        if len(T) + 2 >= self.s:
            self._tail(A, T, start, barred, view)
            return
        t = len(T) + 1
        diag = A.diagonal(axis1=2, axis2=3)
        den = _pivot(diag[..., start:], self.floor[..., start:])
        col = _at(A[..., start:], view.at)
        penalty = barred[..., None] + view.own[..., start:]
        r = _at(diag, view.at)[..., None] - col * (col / den[:, :, None])
        self._keep_children(self._objective(_block_sum(r, out=r), t, penalty), T, start, view.rows)
        del col, r  # not held through the subtrees
        for j in range(start, self.p):
            child_barred, sub = penalty[..., j - start], view
            if t == 1 and self.cut is not None:
                # A column of targets is scored for every problem while one
                # of them is alive: a pruned set scores above its target's
                # best plus the slack, so it changes no result.
                best = self.best.take(self.sizes, axis=0).min(axis=0).reshape(barred.shape)
                alive = np.logical_or.reduce(self.cut[j] <= best).nonzero()[0]
                if not len(alive):
                    continue
                if len(alive) < barred.shape[1]:  # a whole-graph view: all p targets
                    rows = self.cols.reshape(barred.shape)[:, alive].ravel()
                    sub = _Targets(alive, rows, view.own.take(alive, axis=1))
                    child_barred = child_barred[:, alive]
            col = A[..., j]
            child = A - col[..., None] * (col / den[..., j - start, None])[..., None, :]
            self._descend(child, T + (j,), j + 1, child_barred, sub)

    def _tail(self, A, T, start, barred, view):
        """Score T + {j} and, below size s, T + {j, k}, for candidates j < k from ``start``.

        Only the target entries and the pivots' diagonal of each child's
        swept stack are formed.  The children T + {j} are scored in batches
        of up to ``GROUP_ENTRIES`` (B, problems, targets, j) terms, one batch
        for a tail of small p; their children in chunks of j within a batch,
        each chunk's (problems, targets, j, k) objective summed in one slab a
        group of blocks at a time.
        """
        B, n, t, p = A.shape[0], A.shape[1], len(T) + 1, self.p
        at, rows, own = view
        nt = barred.shape[1]
        diag = A.diagonal(axis1=2, axis2=3)
        # [b, k, i, j]: row j's entry in the column of target i of problem k;
        # one gather where the targets are listed.
        A_t = _at(A.swapaxes(2, 3), at)
        den = _pivot(diag[..., start:], self.floor[..., start:])
        # The scratch buffer takes each batch's clamped (B, problems, targets,
        # j) terms, then each chunk's groups.  Grandchildren take j below ``last``.
        last = p - 1 if t < self.s else start
        width, step, pivots, group, entries = _tail_budget(B, n, n * nt, p - start,
                                                           last > start)
        scratch = np.empty(entries)
        for top in range(start, p, width):
            end = min(top + width, p)
            c_ij = A_t[..., top:end]
            r1 = c_ij * c_ij
            r1 /= den[:, :, None, top - start:end - start]
            np.subtract(_at(diag, at)[..., None], r1, out=r1)
            total = _block_sum(r1, out=scratch[:r1.size].reshape(r1.shape))
            self._keep_children(self._objective(total, t, barred[..., None] + own[..., top:end]),
                                T, top, rows)
            for lo in range(top, min(end, last), step):
                hi = min(lo + step, end)
                nj, nk = hi - lo, p - lo - 1
                size, obj = n * nt * nj * nk, None
                for p0 in range(0, B, pivots):
                    ps = slice(p0, min(p0 + pivots, B))
                    c_jk = A[ps, :, lo:hi, lo + 1:p]
                    u = c_jk / den[ps, :, lo - start:hi - start, None]
                    den_k = _pivot(diag[ps, :, None, lo + 1:p], self.floor[ps, :, None, lo + 1:p],
                                   u, c_jk)
                    for b0 in range(p0, ps.stop, group):
                        bs = slice(b0, min(b0 + group, ps.stop))
                        gs = slice(b0 - p0, bs.stop - p0)
                        at0 = size if b0 else 0
                        r2 = scratch[at0:at0 + (bs.stop - b0) * size].reshape(-1, n, nt, nj, nk)
                        # u * c_ij as a copy and an in-place product: one multiply
                        # buffers both broadcast operands, and was slower (25 against
                        # 19 us at a (1, 40, 10, 38) group, 2 vCPU, numpy 2.4).
                        np.copyto(r2, u[gs, :, None])
                        r2 *= A_t[bs, :, :, lo:hi, None]
                        np.subtract(A_t[bs, :, :, None, lo + 1:p], r2, out=r2)
                        r2 *= r2
                        r2 /= den_k[gs, :, None]
                        np.subtract(r1[bs, :, :, lo - top:hi - top, None], r2, out=r2)
                        obj = _block_sum(r2, obj, out=r2)
                    del u, den_k  # freed before the next blocks' are formed
                obj = self._objective(obj, t + 1,
                                      barred[..., None, None] + own[..., None, lo + 1:p],
                                      own[..., lo:hi, None])
                # Grandchild slot kk is candidate lo + 1 + kk: it must follow j = lo + jj.
                np.copyto(obj, np.inf, where=self.before[:nj, :nk])
                first, won = self._keep(obj.reshape(n, nt, -1), t + 1, rows)
                jj, kk = np.divmod(first, nk)
                if T:
                    self.chosen[t + 1, won, :t - 1] = T
                self.chosen[t + 1, won, t - 1] = lo + jj
                self.chosen[t + 1, won, t] = lo + 1 + kk
