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
- The last two levels are batched over all children of a parent.  They
  need only the swept diagonal and the target columns, never a stack per
  set.  Children are taken in chunks, so memory stays O(s * B * p^2) plus
  a fixed cap on the batch.

A one-target call scores one target column of the same sweep over the
caller's stack, with no permuted copy: the bar that keeps each node out of
its own sets gives every set containing the target an infinite objective,
so the result is the target's row of a whole-graph call.

Rank drops follow a column-dropping Cholesky factor of G_b[T, T] taken in
index order: the pivot of node j is dropped in block b when G_b[j, j] <= 0
or its swept value d satisfies d <= rank_tol^2 * G_b[j, j], so a row whose
relative residual norm given the earlier pivots is at most ``rank_tol``
adds nothing to that block.  Each block's residual is clamped at 0 before
the sum over blocks, and a set's objective is that sum over N plus
lam * |T|.

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

import numpy as np

# Cap, in float64 entries, on a batched tail's (B, children, grandchildren,
# targets) temporaries: the children of one parent are taken in chunks
# below it (at least one child per chunk).
TAIL_ENTRIES = 1 << 16


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
    sweep = _Sweep(grams, targets, n_total, lam, rank_tol, sizes[-1])
    # Sizes smallest first with strict ``<``: the first minimum over sizes.
    by_size = sweep.best[sizes]
    first = by_size.argmin(axis=0)
    selected = [tuple(sweep.chosen[sizes[f], k, :sizes[f]].tolist())
                for k, f in enumerate(first)]
    return selected, by_size[first, np.arange(len(first))]


class _Sweep:
    """Depth-first sweep recording the best set per (size, target).

    Every node is a candidate, in index order; the targets are the node
    range ``targets``, and each is barred from its own sets.
    """

    def __init__(self, grams, targets, n_total, lam, rank_tol, s):
        p = grams.shape[1]
        self.p, self.targets = p, targets
        self.n_total, self.lam, self.s = n_total, lam, s
        nt = targets.stop - targets.start
        self.cols = np.arange(nt)
        # Objective penalty per (node, target): inf where the node is the
        # target, since a target is never in its own set.
        self.own = np.where(np.arange(p)[:, None] == np.arange(p)[targets], np.inf, 0.0)
        diag = grams.diagonal(axis1=1, axis2=2)
        # A swept pivot at or below its floor drops; G_jj <= 0 always drops.
        self.floor = np.where(diag > 0, rank_tol * rank_tol * diag, np.inf)
        self.best = np.full((s + 1, nt), np.inf)
        self.chosen = np.zeros((s + 1, nt, max(s, 1)), dtype=np.intp)
        self._keep(self._objective(diag[:, None, targets], 0), 0)
        if s > 0:
            self._descend(grams, (), 0, np.zeros(nt))

    def _objective(self, residuals, t):
        """(1/N) sum_b max(r_b, 0) + lam * t over the leading block axis."""
        return np.maximum(residuals, 0.0).sum(axis=0) / self.n_total + self.lam * t

    def _keep(self, obj, t):
        """Fold candidates of size t into the best kept so far.

        ``obj`` is (candidates in lexicographic order, targets).  Returns
        the rows of the first strict minima that beat the best so far, and
        the targets they win.
        """
        first = obj.argmin(axis=0)
        value = obj[first, self.cols]
        won = np.flatnonzero(value < self.best[t])
        self.best[t, won] = value[won]
        return first[won], won

    def _descend(self, A, T, start, barred):
        """Score the supersets of T that add candidates from ``start`` on.

        A is the stack swept by T, and ``barred`` the per-target penalty
        of the nodes in T.
        """
        if start == self.p:
            return
        if len(T) + 2 >= self.s:
            self._tail(A, T, start, barred, two_levels=len(T) + 2 == self.s)
            return
        tg, t = self.targets, len(T) + 1
        for j in range(start, self.p):
            den = np.where(A[:, j, j] > self.floor[:, j], A[:, j, j], np.inf)
            col = A[:, :, j]
            child = A - col[:, :, None] * (col / den[:, None])[:, None, :]
            child_barred = barred + self.own[j]
            diag = child.diagonal(axis1=1, axis2=2)
            _, won = self._keep(self._objective(diag[:, None, tg], t) + child_barred, t)
            self.chosen[t, won, :t] = T + (j,)
            self._descend(child, T + (j,), j + 1, child_barred)

    def _tail(self, A, T, start, barred, two_levels):
        """Score T + {j} and, if asked, T + {j, k}, for candidates j < k from ``start``.

        Only the target entries and the pivots' diagonal of each child's
        swept stack are formed.
        """
        B, tg, t, p = A.shape[0], self.targets, len(T) + 1, self.p
        nt = len(self.cols)
        diag = A.diagonal(axis1=1, axis2=2)
        base = diag[:, None, tg]
        step = max(1, TAIL_ENTRIES // (B * (p - start) * nt))
        for lo in range(start, p, step):
            hi = min(lo + step, p)
            a_jj = diag[:, lo:hi]
            den_j = np.where(a_jj > self.floor[:, lo:hi], a_jj, np.inf)[:, :, None]
            c_ji = A[:, lo:hi, tg]
            r1 = base - c_ji * c_ji / den_j
            first, won = self._keep(self._objective(r1, t) + barred + self.own[lo:hi], t)
            self.chosen[t, won, :t - 1] = T
            self.chosen[t, won, t - 1] = lo + first
            if not two_levels or lo + 1 == p:
                continue
            c_jk = A[:, lo:hi, lo + 1:p]
            u = c_jk / den_j
            a_kk = diag[:, None, lo + 1:p] - u * c_jk
            den_k = np.where(a_kk > self.floor[:, None, lo + 1:p], a_kk, np.inf)
            a_ki = A[:, None, lo + 1:p, tg] - u[..., None] * c_ji[:, :, None, :]
            a_ki *= a_ki
            a_ki /= den_k[..., None]
            r2 = np.subtract(r1[:, :, None, :], a_ki, out=a_ki)
            obj = self._objective(r2, t + 1)
            obj += barred + self.own[lo + 1:p]
            obj += self.own[lo:hi, None, :]
            # Grandchild slot kk is candidate lo + 1 + kk: it must follow j = lo + jj.
            obj[np.tri(hi - lo, p - lo - 1, -1, dtype=bool)] = np.inf
            first, won = self._keep(obj.reshape(-1, nt), t + 1)
            jj, kk = np.divmod(first, p - lo - 1)
            self.chosen[t + 1, won, :t - 1] = T
            self.chosen[t + 1, won, t - 1] = lo + jj
            self.chosen[t + 1, won, t] = lo + 1 + kk
