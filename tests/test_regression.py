"""Projections, the residual statistic, and the exhaustive subset search."""

import hashlib
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsgms import (
    EstimatorConfig,
    GramBlocks,
    SampleBlocks,
    build_block_model,
    default_lambda,
    estimate_graph,
    estimate_neighborhood,
    partial_correlation,
    project_complement,
    random_cig,
    residual_statistic,
    rho_condition_holds,
    sample_process,
    sample_size_bound,
)
from nsgms import kernels, regression
from nsgms.errors import InfeasibleConfigError, InvalidParameterError
from nsgms.kernels import subset_objectives
from nsgms.regression import DEFAULT_RANK_TOL, candidate_sets
from nsgms.sampling import block_grams


def random_samples(rng, p, B, L):
    return SampleBlocks(p=p, B=B, L=L,
                        data=tuple(rng.standard_normal((p, L)) for _ in range(B)))


def lstsq_residual(block, T, x):
    """Normal-equations oracle for the projection residual."""
    if not T:
        return x.copy()
    A = block[[j - 1 for j in sorted(T)]].T
    coef, *_ = np.linalg.lstsq(A, x, rcond=None)
    return x - A @ coef


# ---------------------------------------------------------------- project_complement

def test_project_empty_set_is_identity():
    rng = np.random.default_rng(0)
    block = rng.standard_normal((4, 8))
    x = rng.standard_normal(8)
    assert np.array_equal(project_complement(block, (), x), x)


def test_project_span_member_vanishes():
    rng = np.random.default_rng(1)
    block = rng.standard_normal((5, 10))
    x = 2.0 * block[0] - 3.0 * block[2]
    r = project_complement(block, (1, 3), x)
    assert np.linalg.norm(r) <= 1e-8 * np.linalg.norm(x)


def test_project_matches_least_squares_oracle():
    rng = np.random.default_rng(2)
    for _ in range(50):
        block = rng.standard_normal((6, 6))
        x = rng.standard_normal(6)
        r = project_complement(block, (2, 5), x)
        r_ref = lstsq_residual(block, (2, 5), x)
        assert np.linalg.norm(r - r_ref) <= 1e-8 * max(np.linalg.norm(x), 1.0)


def test_project_idempotent_and_pythagorean():
    rng = np.random.default_rng(3)
    block = rng.standard_normal((5, 12))
    x = rng.standard_normal(12)
    r = project_complement(block, (1, 2, 4), x)
    r2 = project_complement(block, (1, 2, 4), r)
    assert np.linalg.norm(r2 - r) <= 1e-8 * np.linalg.norm(x)
    proj = x - r
    assert (r @ r + proj @ proj) == pytest.approx(x @ x, rel=1e-8)
    for j in (1, 2, 4):
        assert abs(block[j - 1] @ r) <= 1e-8 * np.linalg.norm(x) * np.linalg.norm(block[j - 1])


def test_project_handles_dependent_rows():
    rng = np.random.default_rng(4)
    block = rng.standard_normal((4, 9))
    block[3] = block[1]  # duplicated row must be dropped, not corrupt the basis
    x = rng.standard_normal(9)
    r = project_complement(block, (2, 4), x)
    r_ref = lstsq_residual(block, (2,), x)
    assert np.allclose(r, r_ref, atol=1e-8)


def test_project_rejects_oversized_set():
    rng = np.random.default_rng(5)
    block = rng.standard_normal((6, 3))
    with pytest.raises(InvalidParameterError):
        project_complement(block, (1, 2, 3), rng.standard_normal(3))


# ---------------------------------------------------------------- residual_statistic

def test_residual_statistic_empty_set_is_mean_energy():
    rng = np.random.default_rng(6)
    samples = random_samples(rng, 4, 3, 7)
    expected = sum(float(X[1] @ X[1]) for X in samples.data) / samples.n_samples
    assert residual_statistic(samples, 2, ()) == pytest.approx(expected, rel=1e-12)


def test_residual_statistic_zero_on_exact_span():
    rng = np.random.default_rng(7)
    blocks = []
    for _ in range(2):
        X = rng.standard_normal((5, 8))
        X[0] = 1.5 * X[2] - 0.5 * X[4]
        blocks.append(X)
    samples = SampleBlocks(p=5, B=2, L=8, data=tuple(blocks))
    assert residual_statistic(samples, 1, (3, 5)) <= 1e-12


def test_residual_statistic_monotone_under_inclusion():
    rng = np.random.default_rng(8)
    for _ in range(100):
        samples = random_samples(rng, 6, 2, 9)
        t2 = sorted(rng.choice(np.arange(2, 7), size=3, replace=False))
        t1 = t2[:2]
        z1 = residual_statistic(samples, 1, [int(v) for v in t1])
        z2 = residual_statistic(samples, 1, [int(v) for v in t2])
        assert z1 >= z2 - 1e-10 * max(z1, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_residual_statistic_rejects_non_finite_rows_it_uses(bad):
    rng = np.random.default_rng(10)
    samples = random_samples(rng, 5, 2, 8)
    samples.data[1][4, 3] = bad  # row 5 of the second block
    assert np.isfinite(residual_statistic(samples, 1, (2, 3)))
    for i, T in ((5, (2,)), (1, (3, 5))):
        with pytest.raises(InvalidParameterError, match="non-finite"):
            residual_statistic(samples, i, T)


def test_residual_statistic_rejects_self():
    rng = np.random.default_rng(9)
    samples = random_samples(rng, 4, 1, 6)
    with pytest.raises(InvalidParameterError):
        residual_statistic(samples, 2, (2, 3))


# ---------------------------------------------------------------- scan kernel

def sweep(samples, s, lam, sizes=None, target=None):
    """The kernel's (selected, objectives), as 1-based sets keyed by target."""
    selected, objectives = subset_objectives(
        block_grams(samples), range(s + 1) if sizes is None else sizes,
        samples.n_samples, lam, DEFAULT_RANK_TOL,
        target=None if target is None else target - 1,
    )
    targets = range(1, samples.p + 1) if target is None else (target,)
    return {i: (tuple(j + 1 for j in T), float(obj))
            for i, T, obj in zip(targets, selected, objectives)}


def brute_force(samples, i, s, lam, sizes=None):
    """First minimum over the (size, lex)-ordered sets, scored by the projection route."""
    best = None
    for T in candidate_sets(samples.p, i, s):
        if sizes is None or len(T) in sizes:
            obj = residual_statistic(samples, i, T) + lam * len(T)
            if best is None or obj < best[1]:
                best = (T, obj)
    return best


def test_kernel_matches_projection_route():
    rng = np.random.default_rng(10)
    samples = random_samples(rng, 6, 3, 10)
    lam = 0.05
    for t in range(4):
        for target in (None, 2):
            for i, (T, obj) in sweep(samples, 3, lam, sizes=(t,), target=target).items():
                assert len(T) == t and i not in T
                direct = residual_statistic(samples, i, T) + lam * t
                assert obj == pytest.approx(direct, rel=1e-9, abs=1e-12)
                assert obj == pytest.approx(brute_force(samples, i, 3, lam, (t,))[1],
                                            rel=1e-9, abs=1e-12)


def test_sweep_matches_brute_force_for_every_target():
    rng = np.random.default_rng(11)
    for s in (0, 1, 2, 3, 4):
        samples = random_samples(rng, 7, 2, 12)
        lam = float(rng.uniform(0.0, 0.05))
        whole = sweep(samples, s, lam)
        for i in range(1, 8):
            T, obj = brute_force(samples, i, s, lam)
            for found in (whole[i], sweep(samples, s, lam, target=i)[i]):
                assert found[0] == T
                assert found[1] == pytest.approx(obj, rel=1e-9, abs=1e-12)


def test_kernel_rejects_bad_sizes():
    grams = np.stack([np.eye(4)] * 2)
    for sizes in ((), (1, 0), (0, 0), (-1, 0), (0, 4)):
        with pytest.raises(ValueError):
            subset_objectives(grams, sizes, 8, 0.1, DEFAULT_RANK_TOL)


def test_kernel_rejects_a_target_that_is_not_a_node():
    # Each was scored before: -1 and 5 failed inside numpy, True as node 1.
    grams = np.stack([np.eye(5)] * 2)
    for target in (-1, 5, True, np.True_, 1.0, "1", [2]):
        with pytest.raises(ValueError, match="target"):
            subset_objectives(grams, range(3), 8, 0.1, DEFAULT_RANK_TOL, target=target)
        with pytest.raises(ValueError, match="target"):
            subset_objectives(np.stack([grams] * 2), range(3), 8, [0.1, 0.1], DEFAULT_RANK_TOL,
                              target=[2, target])
    for target in (3, [1, 2, 3]):  # one node per problem of a two-problem stack
        with pytest.raises(ValueError, match="target"):
            subset_objectives(np.stack([grams] * 2), range(3), 8, [0.1, 0.1], DEFAULT_RANK_TOL,
                              target=target)
    (T,), _ = subset_objectives(grams, range(3), 8, 0.1, DEFAULT_RANK_TOL, target=np.int64(4))
    assert 4 not in T


@st.composite
def degenerate_samples(draw, blocks=st.integers(1, 3), nodes=st.integers(3, 7)):
    """Blocks whose rows may repeat, repeat scaled, or vanish; B and p are drawn from
    ``blocks`` and ``nodes``."""
    p = draw(nodes)
    B = draw(blocks)
    L = draw(st.integers(p + 1, 15))
    kinds = draw(st.lists(st.sampled_from(("plain", "copy", "scaled", "zero")),
                          min_size=p, max_size=p))
    sources = draw(st.lists(st.integers(0, p - 1), min_size=p, max_size=p))
    scale = draw(st.sampled_from((2.0, -0.5, 3.7, 1e-3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for _ in range(B):
        X = rng.standard_normal((p, L))
        for r, (kind, src) in enumerate(zip(kinds, sources)):
            if kind == "copy":
                X[r] = X[src]
            elif kind == "scaled":
                X[r] = scale * X[src]
            elif kind == "zero":
                X[r] = 0.0
        blocks.append(X)
    return SampleBlocks(p=p, B=B, L=L, data=tuple(blocks))


@settings(max_examples=60, deadline=None)
@given(degenerate_samples(), st.integers(1, 3), st.floats(0.0, 0.3))
def test_sweep_matches_oracle_on_degenerate_rows(samples, s, lam):
    # Dependent rows are swept at rounding level instead of dropping, so the
    # tolerance is rounding relative to the target's energy sum_b G_ii / N.
    s = min(s, samples.p - 1)
    grams = block_grams(samples)
    for i, (T, obj) in sweep(samples, s, lam).items():
        tol = 1.3e-15 * float(grams[:, i - 1, i - 1].sum()) / samples.n_samples
        assert abs(obj - (residual_statistic(samples, i, T) + lam * len(T))) <= tol
        assert obj <= brute_force(samples, i, s, lam)[1] + tol
        assert obj >= lam * len(T)  # each block's residual is clamped at 0


@settings(max_examples=80, deadline=None)
@given(degenerate_samples(blocks=st.sampled_from((1, 2, 3, 8, 9))), st.integers(1, 3),
       st.floats(0.0, 0.3), st.data())
def test_one_target_sweep_is_its_row_of_the_whole_graph_sweep(samples, s, lam, data):
    # Both modes add the blocks of every objective in turn, so the row and the
    # selection agree to the last bit at any B, ties included.
    s = min(s, samples.p - 1)
    grams = block_grams(samples)
    whole_sets, whole_objs = subset_objectives(grams, range(s + 1), samples.n_samples,
                                               lam, DEFAULT_RANK_TOL)
    for i in data.draw(st.lists(st.integers(0, samples.p - 1), min_size=1, max_size=3)):
        (T,), objs = subset_objectives(grams, range(s + 1), samples.n_samples,
                                       lam, DEFAULT_RANK_TOL, target=i)
        assert T == whole_sets[i]
        assert objs.tobytes() == whole_objs[i:i + 1].tobytes()


@pytest.mark.xfail(strict=True, reason="resolution limit of the Gram route: a row whose "
                   "relative residual norm lies between rank_tol and about 1e-7 is swept "
                   "below rounding, so neither the keeping nor the dropping oracle is matched")
def test_gram_route_resolves_rows_just_above_rank_tol():
    rng = np.random.default_rng(24)
    delta = 1e-8  # row 4 = row 2 + delta * noise: relative residual ~1e-8 > rank_tol
    gaps = []
    for _ in range(100):
        blocks = []
        for _ in range(2):
            X = rng.standard_normal((5, 50))
            X[3] = X[1] + delta * rng.standard_normal(50)
            blocks.append(X)
        samples = SampleBlocks(p=5, B=2, L=50, data=tuple(blocks))
        for i in (1, 3, 5):
            ((T, obj),) = sweep(samples, 2, 0.0, sizes=(2,), target=i).values()
            keep = residual_statistic(samples, i, T)
            drop = residual_statistic(samples, i, [j for j in T if j != 4])
            gaps.append(min(abs(obj - keep), abs(obj - drop)) / keep)
    assert max(gaps) <= 1e-7


# ---------------------------------------------------------------- pruning

def planted_samples(rng, p, B, L, degree=3):
    """Blocks drawn from sparse planted precision matrices, on which the bounds prune."""
    degrees = [0] * p
    edges = set()
    for i, j in rng.integers(0, p, size=(3 * p, 2)).tolist():
        if i != j and (min(i, j), max(i, j)) not in edges and max(degrees[i], degrees[j]) < degree:
            edges.add((min(i, j), max(i, j)))
            degrees[i] += 1
            degrees[j] += 1
    blocks = []
    for _ in range(B):
        K = np.eye(p)
        for i, j in edges:
            K[i, j] = K[j, i] = rng.uniform(0.5, 0.9) / degree * rng.choice((-1.0, 1.0))
        blocks.append(np.linalg.cholesky(np.linalg.inv(K)) @ rng.standard_normal((p, L)))
    return SampleBlocks(p=p, B=B, L=L, data=tuple(blocks))


def tie_samples():
    """The inputs of the two tie-break tests above: duplicated and zero rows."""
    rng = np.random.default_rng(16)
    X = rng.standard_normal((4, 8))
    X[3] = X[1]
    X[0] = X[1] + 0.01 * rng.standard_normal(8)
    yield SampleBlocks(p=4, B=1, L=8, data=(X,))
    rng = np.random.default_rng(25)
    X = rng.standard_normal((7, 12))
    X[3] = X[1]
    X[0] = X[1] + X[4] + X[5] + 0.01 * rng.standard_normal(12)
    yield SampleBlocks(p=7, B=1, L=12, data=(X,))
    X = rng.standard_normal((3, 12))
    X[2] = 0.0
    yield SampleBlocks(p=3, B=2, L=6, data=(X[:, :6], X[:, 6:]))


def assert_pruning_keeps_every_bit(samples, s, lam, targets):
    """Pruned sweeps equal a sweep whose bound prunes nothing, bit for bit."""
    grams, n = block_grams(samples), samples.n_samples
    for target in [None, *targets]:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_root_bounds", lambda *args: None)
            ref_sets, ref_objs = subset_objectives(grams, range(s + 1), n, lam,
                                                   DEFAULT_RANK_TOL, target=target)
        sets, objs = subset_objectives(grams, range(s + 1), n, lam, DEFAULT_RANK_TOL,
                                       target=target)
        assert sets == ref_sets
        assert objs.tobytes() == ref_objs.tobytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(5, 11), st.integers(1, 3),
       st.sampled_from((3, 4)), st.floats(0.0, 0.05), st.data())
def test_pruning_keeps_every_bit_on_planted_grams(seed, p, B, s, lam, data):
    rng = np.random.default_rng(seed)
    samples = planted_samples(rng, p, B, data.draw(st.integers(p + 1, 80)))
    targets = data.draw(st.lists(st.integers(0, p - 1), max_size=2))
    assert_pruning_keeps_every_bit(samples, s, lam, targets)


@settings(max_examples=40, deadline=None)
@given(degenerate_samples(), st.sampled_from((3, 4)), st.floats(0.0, 0.3), st.data())
def test_pruning_keeps_every_bit_on_degenerate_rows(samples, s, lam, data):
    s = min(s, samples.p - 1)
    targets = data.draw(st.lists(st.integers(0, samples.p - 1), max_size=2))
    assert_pruning_keeps_every_bit(samples, s, lam, targets)


def test_pruning_keeps_every_bit_on_the_tie_inputs():
    for samples in tie_samples():
        for s in (3, 4):
            for lam in (0.0, 1e-9, 0.05):
                if s < samples.p:
                    assert_pruning_keeps_every_bit(samples, s, lam, range(samples.p))


def test_pruning_keeps_a_winner_that_nearly_ties_an_earlier_root():
    # Node 2 nearly duplicates node 4, so {2, 5} nearly ties the winner
    # {4, 5} of node 1, and root 4's bound lies just under the best so far:
    # only a bound that keeps its slack on the safe side keeps {4, 5}.
    rng = np.random.default_rng(34)
    blocks = []
    for _ in range(2):
        X = rng.standard_normal((7, 4000))
        X[1] = X[3] + 0.03 * rng.standard_normal(4000)
        X[0] = X[3] + X[4] + 0.5 * rng.standard_normal(4000)
        blocks.append(X)
    samples = SampleBlocks(p=7, B=2, L=4000, data=tuple(blocks))
    assert sweep(samples, 3, 0.01, target=1)[1][0] == (4, 5)
    assert_pruning_keeps_every_bit(samples, 3, 0.01, [0])


def test_slack_keeps_a_pruned_set_that_wins_by_one_ulp():
    # Node 3 is orthogonal to the rest, so root 1's bound for target 0 is the
    # residual on {1, 2}, 16, read exactly from the integer Cholesky factor of
    # the reversed Gram (every pivot share is above 0.09).  At this lam, {1}
    # and {1, 2} tie at 728/41 in exact arithmetic; the sweep scores {1, 2}
    # one ulp lower, so it wins.  A bound with no slack prunes it.
    grams = np.array([[[88.0, -54.0, 18.0, 0.0], [-54.0, 41.0, -15.0, 0.0],
                       [18.0, -15.0, 9.0, 0.0], [0.0, 0.0, 0.0, 16.0]]])
    lam = 0.8780487804878048
    runs = {}
    for name, patches in (("unpruned", {"_root_bounds": lambda *args: None}),
                          ("no slack", {"SLACK": 0.0}), ("pruned", {})):
        with pytest.MonkeyPatch.context() as mp:
            for attr, value in patches.items():
                mp.setattr(kernels, attr, value)
            runs[name] = [subset_objectives(grams, range(4), 1, lam, DEFAULT_RANK_TOL, target=t)
                          for t in (None, 0)]
    (sets, objs), (one_set, one_obj) = runs["unpruned"]
    assert sets[0] == one_set[0] == (1, 2)
    assert runs["no slack"][1][0] == [(1,)]
    assert runs["no slack"][1][1][0] == pytest.approx(one_obj[0], rel=1e-15)
    for (ref_sets, ref_objs), (got_sets, got_objs) in zip(runs["unpruned"], runs["pruned"]):
        assert got_sets == ref_sets
        assert got_objs.tobytes() == ref_objs.tobytes()


def test_root_bounds_are_full_set_residuals_below_every_subset():
    rng = np.random.default_rng(30)
    p = 6
    samples = random_samples(rng, p, 2, 14)
    bounds = kernels._root_bounds(block_grams(samples), samples.n_samples)
    for j in range(p):
        assert bounds[j, j] == np.inf
        for i in set(range(p)) - {j}:
            rest = [k + 1 for k in range(j, p) if k != i]  # 1-based {j..p-1} \ {i}
            full = residual_statistic(samples, i + 1, rest)
            assert bounds[j, i] == pytest.approx(full, rel=1e-9)
            for t in range(1, len(rest)):
                for T in combinations(rest, t):
                    assert residual_statistic(samples, i + 1, T) >= bounds[j, i] * (1 - 1e-9)


def test_root_bounds_leave_out_blocks_with_a_near_collinear_row():
    rng = np.random.default_rng(31)
    p = 6
    samples = random_samples(rng, p, 2, 20)
    samples.data[0][1] = samples.data[0][3] + 1e-8 * rng.standard_normal(20)
    grams, n = block_grams(samples), samples.n_samples
    bounds = kernels._root_bounds(grams, n)
    # Node 1 has a tiny reverse pivot in block 0, so that block adds nothing
    # to roots 0 and 1; later roots see both blocks.
    alone = kernels._root_bounds(grams[1:], n)
    off = ~np.eye(p, dtype=bool)
    assert np.allclose(bounds[:2][off[:2]], alone[:2][off[:2]], rtol=1e-12, atol=0)
    for j in range(2, p):
        for i in set(range(p)) - {j}:
            rest = [k + 1 for k in range(j, p) if k != i]
            assert bounds[j, i] == pytest.approx(residual_statistic(samples, i + 1, rest), rel=1e-9)
    # L <= p: the blocks have no Cholesky factor, so nothing is pruned.
    short = random_samples(rng, p, 2, p - 1)
    assert kernels._root_bounds(block_grams(short), short.n_samples) is None


def test_pruning_fires_on_a_planted_input(monkeypatch):
    rng = np.random.default_rng(32)
    samples = planted_samples(rng, 20, 4, 400)
    grams, n, lam = block_grams(samples), samples.n_samples, 0.005
    tail, scored = kernels._Sweep._tail, []

    def counting_tail(self, A, T, start, barred, view):
        scored.append(barred.size * (self.p - start))  # (problem, target) rows x children
        return tail(self, A, T, start, barred, view)

    monkeypatch.setattr(kernels._Sweep, "_tail", counting_tail)
    counts, results = [], []
    for bounds in (kernels._root_bounds, lambda *args: None):
        monkeypatch.setattr(kernels, "_root_bounds", bounds)
        scored.clear()
        results.append(subset_objectives(grams, range(4), n, lam, DEFAULT_RANK_TOL))
        counts.append(sum(scored))
    assert counts[0] < 0.8 * counts[1]
    assert results[0][0] == results[1][0]
    assert results[0][1].tobytes() == results[1][1].tobytes()


def traced_peak(call):
    """Peak traced bytes of ``call()``, after one untraced warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_is_one_tail_buffer_plus_stacks():
    rng = np.random.default_rng(33)
    # A tail's scratch holds one group of blocks' terms, up to GROUP_ENTRIES
    # floats, and the chunk's objective slab, a share 1/B of TAIL_ENTRIES at
    # most; beside it lie (B, p, p) stacks and numpy's ufunc iteration
    # buffers of UFUNC_BUFFER floats.  Each bound is the peak with the
    # in-place pivots and 1,024-float buffers plus 5%, and lies below the
    # peak with 8,192-float buffers and three pivot temporaries (588,686 and
    # 272,704 bytes here).  All B blocks' terms held at once, plus argmin's
    # copy of their sum, peaked at 849,990 bytes at p = 40 and 434,440 at
    # p = 16, B = 8.
    for B, p, s, bound in ((4, 40, 3, 567_000), (8, 16, 2, 233_000)):
        X = rng.standard_normal((B, p, 4 * p))
        grams = X @ X.transpose(0, 2, 1)
        peak = traced_peak(lambda: subset_objectives(grams, range(s + 1), B * 4 * p, 0.05,
                                                     DEFAULT_RANK_TOL))
        assert peak <= bound
    # The harness's one-target s = 2 sweep (p = 8, B = 4) forms all blocks
    # at once.  It peaked at 16,032 bytes before the scratch buffer and at
    # 14,304 with 8,192-float buffers.
    X = rng.standard_normal((4, 8, 32))
    grams = X @ X.transpose(0, 2, 1)
    peak = traced_peak(lambda: subset_objectives(grams, range(3), 128, 0.05,
                                                 DEFAULT_RANK_TOL, target=3))
    assert peak <= 14_260
    # At p = 100, B = 8 the one s = 2 tail takes its children in batches of
    # GROUP_ENTRIES floats.  It peaked at 909,432 bytes with each child's
    # (B, 99, 100) grandchild term at once, at 1,605,640 with every child's
    # (B, 100) terms formed, and a clamped copy, at once, and at 670,360
    # with 8,192-float buffers and three pivot temporaries.
    X = np.random.default_rng(34).standard_normal((8, 100, 400))
    grams = X @ X.transpose(0, 2, 1)
    peak = traced_peak(lambda: subset_objectives(grams, range(3), 3200, 0.05, DEFAULT_RANK_TOL))
    assert peak <= 570_000


def test_sweep_restores_the_callers_numpy_state(monkeypatch):
    grams = integer_grams(40, 8, 4, 32)
    seen = []
    tail = kernels._Sweep._tail

    def spying_tail(self, *args):
        seen.append(np.getbufsize())
        return tail(self, *args)

    def failing_tail(self, *args):
        raise RuntimeError("injected")

    bufsize = np.getbufsize()
    try:
        with np.errstate(all="ignore"):  # not numpy's default
            np.setbufsize(4096)
            state = np.geterr()
            monkeypatch.setattr(kernels._Sweep, "_tail", spying_tail)
            subset_objectives(grams, range(4), 128, 0.05, DEFAULT_RANK_TOL)
            assert seen and set(seen) == {kernels.UFUNC_BUFFER}
            assert (np.getbufsize(), np.geterr()) == (4096, state)
            monkeypatch.setattr(kernels._Sweep, "_tail", failing_tail)
            with pytest.raises(RuntimeError, match="injected"):
                subset_objectives(grams, range(4), 128, 0.05, DEFAULT_RANK_TOL)
            assert (np.getbufsize(), np.geterr()) == (4096, state)
    finally:
        np.setbufsize(bufsize)


def integer_grams(seed, p, B, L):
    """Gram stack of integer-valued samples: exact, so its bits need no BLAS."""
    X = np.random.default_rng(seed).integers(-3, 4, size=(B, p, L)).astype(float)
    return X @ X.transpose(0, 2, 1)


def planted_integer_grams(p=20, seed=32):
    """B = 4, each row plus or minus a few others: the s = 3 bounds prune."""
    rng = np.random.default_rng(seed)
    M = np.eye(p)
    for i, j in rng.integers(0, p, size=(p, 2)):
        if i != j:
            M[i, j] = rng.choice((-1.0, 1.0))
    X = M @ rng.integers(-3, 4, size=(4, p, 400)).astype(float)
    return X @ X.transpose(0, 2, 1)


def short_grams():
    """L < p, so no bounds, with a duplicated, a zero and a dependent row."""
    X = np.random.default_rng(45).integers(-3, 4, size=(2, 10, 6)).astype(float)
    X[0, 4] = X[0, 1]
    X[0, 7] = 0.0
    X[1, 8] = X[1, 2] + X[1, 5]
    return X @ X.transpose(0, 2, 1)


def eight_block_grams():
    """B = 8 with a strong neighbour, so the one-target winner is one node.

    Its objective has one entry per block; numpy's sum(axis=0) would add
    those pairwise from B = 8 on, the sweep adds them in turn.
    """
    X = np.random.default_rng(42).integers(-3, 4, size=(8, 8, 24)).astype(float)
    X[:, 3] += 2 * X[:, 5]
    return X @ X.transpose(0, 2, 1)


# sha256 of repr(selected) + objective bytes of subset_objectives, recorded
# before the sweep's objective, drop rule and tail were each written once
# ("one target, B=8" when every objective came to add its blocks in turn;
# the last three before the tail added its blocks a group at a time, the
# two B=8 batched ones before it scored its children in batches):
# (grams, s, lam, target, sha).
SWEEP_PINS = {
    "harness one target": (lambda: integer_grams(40, 8, 4, 32), 2, 0.05, 3,
                           "a742d6fc8750842d0acdc3b573001bb5a62558b123576c16fefa7aad7a36139d"),
    "one target, B=8": (eight_block_grams, 3, 0.5, 3,
                        "850b834cc7ae7a6e8c456dd149dc879f162edb80e2aeb022f7888a265a8139c5"),
    "whole graph s=2, p=16": (lambda: integer_grams(41, 16, 4, 40), 2, 0.05, None,
                              "f8327adcf7e9d9ee54f3efb403ee319395d7f0a2841932a6a6056f06cdfe9f52"),
    "whole graph s=2, p=40": (lambda: integer_grams(42, 40, 4, 60), 2, 0.02, None,
                              "ea993eb85d6320c4261927b0567111b93deac55ba34ea24ff49274d88767a71b"),
    "s=1": (lambda: integer_grams(43, 9, 3, 20), 1, 0.1, None,
            "1ad36210e9d700c92c8f69af83e4343243f5819fe22f1163b5634669b847cf8f"),
    "s=4": (lambda: integer_grams(44, 9, 2, 20), 4, 0.01, None,
            "6eaa096bf2a90ea301fa97c23001ff7ca33285bb9a0bed867edd9ca27935a818"),
    "planted, pruned": (planted_integer_grams, 3, 0.005, None,
                        "62de70e1cf18b454e29662868fe49299779836d4fea80a120b32c05f77b4c599"),
    "L < p": (short_grams, 3, 0.01, None,
              "1dc33300393a0908658fab5a9a835958fad446dc6ddc091a9cb6f4b67b7c445b"),
    "B=1": (lambda: integer_grams(46, 7, 1, 15), 3, 0.02, None,
            "25344f5513c9d56ac8f5032561a8768511cbd8b6f75808373d8e62295a90d02c"),
    "planted p=40, chunked and pruned": (
        lambda: planted_integer_grams(40, 47), 3, 0.1, None,
        "f9ce8d8b4bd2d686cb751e2ec2f747f3f3bc1c45d2315ad506a047acc8c701d8"),
    "p=24, B=8, grouped blocks": (
        lambda: integer_grams(48, 24, 8, 40), 3, 0.07, None,
        "94a99c6c911ea1908b24d9d0c565d0052cd8d4abae304fd65c3ea3e0559652fd"),
    "one target, p=40": (lambda: integer_grams(49, 40, 4, 60), 3, 0.05, 17,
                         "09e9f80315b66afcb035c511e9f7f920c340ddfbd3755dac5f00cd2e0aed14ca"),
    "whole graph s=2, p=46, B=8, batched children": (
        lambda: integer_grams(50, 46, 8, 60), 2, 0.03, None,
        "dd8161e91ab66791b83c7bfad707f742294ced0dbc4e82e4aff65dccbffe314d"),
    "p=48, B=8, batched children": (
        lambda: integer_grams(51, 48, 8, 60), 3, 0.04, None,
        "ac83ed6bebc33ab2ebd251d58f9fbc543f04b1aaac61e6f736413dd9b562f211"),
}


@pytest.mark.parametrize("name", SWEEP_PINS)
def test_sweep_bytes_are_pinned(name):
    make, s, lam, target, sha = SWEEP_PINS[name]
    grams = make()
    sets, objs = subset_objectives(grams, range(s + 1), 100 * len(grams), lam,
                                   DEFAULT_RANK_TOL, target=target)
    assert hashlib.sha256(repr(sets).encode() + objs.tobytes()).hexdigest() == sha


@pytest.mark.parametrize("bufsize", (64, 8192))
@pytest.mark.parametrize("name", SWEEP_PINS)
def test_sweep_bytes_do_not_depend_on_the_ufunc_buffer(monkeypatch, name, bufsize):
    monkeypatch.setattr(kernels, "UFUNC_BUFFER", bufsize)
    test_sweep_bytes_are_pinned(name)


def assert_chunk_is_its_lone_sweeps(stacks, s, lams, targets, n_total):
    """Problems scored in one call equal their lone calls, sets and objective bytes."""
    sets, objs = subset_objectives(np.stack(stacks), range(s + 1), n_total, lams,
                                   DEFAULT_RANK_TOL, target=targets)
    for k, grams in enumerate(stacks):
        alone = subset_objectives(grams, range(s + 1), n_total, lams[k], DEFAULT_RANK_TOL,
                                  target=None if targets is None else targets[k])
        assert sets[k] == alone[0]
        assert objs[k].tobytes() == alone[1].tobytes()


@st.composite
def problem_stacks(draw):
    """1-4 Gram stacks of one shape: degenerate rows, planted (the s = 3 bounds
    prune) or L <= p (no bounds), with a penalty each, 0 included."""
    p, B = draw(st.integers(3, 7)), draw(st.sampled_from((1, 2, 3, 8)))
    stacks, lams = [], []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("degenerate", "planted", "short")))
        if kind == "degenerate":
            grams = block_grams(draw(degenerate_samples(blocks=st.just(B), nodes=st.just(p))))
        else:
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            L = draw(st.integers(1, p) if kind == "short" else st.integers(p + 1, 60))
            grams = block_grams(planted_samples(rng, p, B, L) if kind == "planted"
                                else random_samples(rng, p, B, L))
        stacks.append(grams)
        lams.append(draw(st.sampled_from((0.0, 1e-3, 0.02, 0.3))))
    return stacks, lams


@settings(max_examples=60, deadline=None)
@given(problem_stacks(), st.integers(0, 3), st.booleans(), st.data())
def test_a_chunk_of_problems_is_its_lone_sweeps(problems, s, whole, data):
    stacks, lams = problems
    p = stacks[0].shape[1]
    s = min(s, p - 1)
    targets = None if whole else [data.draw(st.integers(0, p - 1)) for _ in stacks]
    assert_chunk_is_its_lone_sweeps(stacks, s, lams, targets, 10 * len(stacks[0]))


def test_a_chunk_of_the_tie_inputs_is_their_lone_sweeps():
    rng = np.random.default_rng(35)
    for samples in tie_samples():
        grams = block_grams(samples)
        other = block_grams(random_samples(rng, samples.p, samples.B, samples.L))
        stacks, lams = [grams, other, grams], [0.0, 0.05, 1e-9]
        for s in range(min(4, samples.p)):
            assert_chunk_is_its_lone_sweeps(stacks, s, lams, None, samples.n_samples)
            for t in range(samples.p):
                assert_chunk_is_its_lone_sweeps(stacks, s, lams, [t, samples.p - 1 - t, t],
                                                samples.n_samples)


@pytest.mark.parametrize("name", SWEEP_PINS)
def test_sweep_bytes_hold_inside_a_chunk(name):
    make, s, lam, target, sha = SWEEP_PINS[name]
    grams = make()
    B, p, _ = grams.shape
    other = integer_grams(60, p, B, 2 * p)
    stacks, lams = [other, grams, other[::-1]], [2 * lam, lam, 0.0]
    targets = None if target is None else [p - 1 - target, target, 0]
    sets, objs = subset_objectives(np.stack(stacks), range(s + 1), 100 * B, lams,
                                   DEFAULT_RANK_TOL, target=targets)
    assert hashlib.sha256(repr(sets[1]).encode() + objs[1].tobytes()).hexdigest() == sha


# ---------------------------------------------------------------- estimate_neighborhood

def test_large_penalty_returns_empty_set():
    rng = np.random.default_rng(12)
    samples = random_samples(rng, 5, 2, 8)
    z_empty = residual_statistic(samples, 3, ())
    est = estimate_neighborhood(samples, 3, EstimatorConfig(s=2, lam=2.0 * z_empty))
    assert est.selected == frozenset()
    assert est.objective == pytest.approx(z_empty, rel=1e-12)


def test_noiseless_exact_recovery():
    rng = np.random.default_rng(13)
    for _ in range(20):
        blocks = []
        for _ in range(2):
            X = rng.standard_normal((6, 10))
            X[2] = 0.7 * X[0] - 1.2 * X[4]
            blocks.append(X)
        samples = SampleBlocks(p=6, B=2, L=10, data=tuple(blocks))
        est = estimate_neighborhood(samples, 3, EstimatorConfig(s=3, lam=1e-6))
        assert est.selected == frozenset({1, 5})


def test_objective_is_recomputable():
    rng = np.random.default_rng(15)
    samples = random_samples(rng, 6, 2, 9)
    config = EstimatorConfig(s=2, lam=0.07)
    est = estimate_neighborhood(samples, 4, config)
    direct = residual_statistic(samples, 4, est.selected) + config.lam * len(est.selected)
    assert est.objective == pytest.approx(direct, rel=1e-9)
    assert 4 not in est.selected and len(est.selected) <= 2


def test_tie_breaks_prefer_smaller_then_lexicographic():
    # Node 4 duplicates node 2 bit-for-bit, so the singletons {2} and {4}
    # produce identical objectives; the lexicographically first must win.
    rng = np.random.default_rng(16)
    X = rng.standard_normal((4, 8))
    X[3] = X[1]
    X[0] = X[1] + 0.01 * rng.standard_normal(8)
    samples = SampleBlocks(p=4, B=1, L=8, data=(X,))
    est = estimate_neighborhood(samples, 1, EstimatorConfig(s=1, lam=1e-9))
    assert est.selected == frozenset({2})
    assert sweep(samples, 1, 1e-9)[1][0] == (2,)
    # {1, 2} and {1, 4} tie bit-for-bit as pairs for node 3, in both sweeps.
    assert sweep(samples, 2, 1e-9, sizes=(2,))[3][0] == (1, 2)
    assert sweep(samples, 2, 1e-9, sizes=(2,), target=3)[3][0] == (1, 2)
    # A dominating penalty prefers the smallest tied set, the empty one.
    empty = estimate_neighborhood(samples, 1, EstimatorConfig(s=2, lam=1e9))
    assert empty.selected == frozenset()


def test_tie_breaks_across_sweep_branches_and_sizes():
    rng = np.random.default_rng(25)
    X = rng.standard_normal((7, 12))
    X[3] = X[1]  # node 4 duplicates node 2
    X[0] = X[1] + X[4] + X[5] + 0.01 * rng.standard_normal(12)
    samples = SampleBlocks(p=7, B=1, L=12, data=(X,))
    # {2, 5, 6} and {4, 5, 6} tie bit-for-bit but sit under different
    # first pivots of the sweep; the lexicographically first must win.
    for target in (None, 1):
        assert sweep(samples, 3, 0.0, sizes=(3,), target=target)[1][0] == (2, 5, 6)
    # Node 3 is all zeros, so with no penalty {2} ties with {2, 3}: the
    # smaller set wins.
    X = rng.standard_normal((3, 12))
    X[2] = 0.0
    samples = SampleBlocks(p=3, B=2, L=6, data=(X[:, :6], X[:, 6:]))
    for target in (None, 1):
        assert sweep(samples, 2, 0.0, sizes=(2,), target=target)[1][0] == (2, 3)
        assert sweep(samples, 2, 0.0, target=target)[1][0] == (2,)


def test_argmin_invariant_under_block_permutation():
    rng = np.random.default_rng(17)
    samples = random_samples(rng, 6, 3, 9)
    config = EstimatorConfig(s=2, lam=0.05)
    est = estimate_neighborhood(samples, 2, config)
    permuted = SampleBlocks(p=6, B=3, L=9, data=(samples.data[2], samples.data[0], samples.data[1]))
    assert estimate_neighborhood(permuted, 2, config).selected == est.selected


def test_argmin_invariant_under_joint_scaling():
    rng = np.random.default_rng(18)
    samples = random_samples(rng, 6, 2, 9)
    c = 3.7
    scaled = SampleBlocks(p=6, B=2, L=9, data=tuple(c * X for X in samples.data))
    e1 = estimate_neighborhood(samples, 2, EstimatorConfig(s=2, lam=0.05))
    e2 = estimate_neighborhood(scaled, 2, EstimatorConfig(s=2, lam=0.05 * c * c))
    assert e1.selected == e2.selected
    assert e2.objective == pytest.approx(c * c * e1.objective, rel=1e-9)


def test_infeasible_budget_raises():
    rng = np.random.default_rng(19)
    samples = random_samples(rng, 8, 2, 3)
    with pytest.raises(InfeasibleConfigError):
        estimate_neighborhood(samples, 1, EstimatorConfig(s=3, lam=0.1))
    small = random_samples(rng, 3, 2, 10)
    with pytest.raises(InvalidParameterError):
        estimate_neighborhood(small, 1, EstimatorConfig(s=3, lam=0.1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_estimate_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    samples = random_samples(rng, 5, 2, 7)
    config = EstimatorConfig(s=2, lam=float(rng.uniform(0, 0.3)))
    est = estimate_neighborhood(samples, 1, config)
    best = min(
        (residual_statistic(samples, 1, T) + config.lam * len(T), len(T), T)
        for T in candidate_sets(5, 1, 2)
    )
    assert est.objective <= best[0] + 1e-9
    assert est.selected == frozenset(best[2])


# ---------------------------------------------------------------- estimate_graph

def test_two_node_edge_recovered_by_both_rules():
    g = random_cig(2, 1, 1)
    model = build_block_model(g, 2, 400, 2.0, 2)
    samples = sample_process(model, 3)
    lam = default_lambda(0.02)
    for rule in ("OR", "AND"):
        est = estimate_graph(samples, EstimatorConfig(s=1, lam=lam), combine=rule)
        assert est.edges == g.edges


def test_and_edges_subset_of_or_edges():
    rng = np.random.default_rng(20)
    for seed in range(5):
        g = random_cig(6, 2, seed)
        model = build_block_model(g, 2, 30, 2.0, seed + 50)
        samples = sample_process(model, seed + 100)
        lam = float(rng.uniform(0.001, 0.05))
        and_est = estimate_graph(samples, EstimatorConfig(s=2, lam=lam), combine="AND")
        or_est = estimate_graph(samples, EstimatorConfig(s=2, lam=lam), combine="OR")
        assert set(and_est.edges) <= set(or_est.edges)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_estimate_graph_equivariant_under_relabelling(seed, s):
    # Gaussian data has no exact ties, so relabelling must only rename edges.
    rng = np.random.default_rng(seed)
    samples = random_samples(rng, 7, 2, 12)
    perm = rng.permutation(7)  # node k of the relabelled data is node perm[k - 1] + 1
    relabelled = SampleBlocks(p=7, B=2, L=12, data=tuple(X[perm] for X in samples.data))
    config = EstimatorConfig(s=s, lam=float(rng.uniform(0.0, 0.1)))
    for rule in ("OR", "AND"):
        renamed = {tuple(sorted(int(perm[k - 1]) + 1 for k in edge))
                   for edge in estimate_graph(relabelled, config, rule).edges}
        assert renamed == set(estimate_graph(samples, config, rule).edges)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 9), st.integers(1, 3))
def test_estimate_graph_combines_the_per_node_selections(seed, p, s):
    # Reference: the pair-by-pair OR/AND of the per-node estimates.
    rng = np.random.default_rng(seed)
    samples = random_samples(rng, p, 2, 12)
    config = EstimatorConfig(s=min(s, p - 1), lam=float(rng.uniform(0.0, 0.1)))
    picks = {i: estimate_neighborhood(samples, i, config).selected for i in range(1, p + 1)}
    for rule, join in (("OR", lambda a, b: a or b), ("AND", lambda a, b: a and b)):
        expected = tuple((i, j) for i in range(1, p + 1) for j in range(i + 1, p + 1)
                         if join(j in picks[i], i in picks[j]))
        assert estimate_graph(samples, config, rule).edges == expected


def test_samples_and_grams_take_one_path():
    rng = np.random.default_rng(22)
    for p, B, L, s in ((6, 2, 9, 2), (7, 3, 5, 3), (5, 1, 40, 1)):
        samples = random_samples(rng, p, B, L)
        grams = GramBlocks(p=p, B=B, L=L, grams=block_grams(samples))
        config = EstimatorConfig(s=s, lam=float(rng.uniform(0.0, 0.2)))
        for i in range(1, p + 1):
            from_samples = estimate_neighborhood(samples, i, config)
            from_grams = estimate_neighborhood(grams, i, config)
            assert from_samples.selected == from_grams.selected
            assert from_samples.objective == from_grams.objective
        for rule in ("OR", "AND"):
            assert estimate_graph(samples, config, rule) == estimate_graph(grams, config, rule)
        for bad, error in (
            (EstimatorConfig(s=L, lam=0.1), InfeasibleConfigError),
            (EstimatorConfig(s=p, lam=0.1),
             InfeasibleConfigError if p >= L else InvalidParameterError),
        ):
            for data in (samples, grams):
                with pytest.raises(error):
                    estimate_neighborhood(data, 1, bad)
                with pytest.raises(error):
                    estimate_graph(data, bad)
        for data in (samples, grams):
            with pytest.raises(InvalidParameterError):
                estimate_neighborhood(data, p + 1, config)
    with pytest.raises(InvalidParameterError):
        estimate_graph(np.zeros((1, 2, 2)), EstimatorConfig(s=1, lam=0.1))


def test_estimate_graph_rejects_unknown_rule():
    rng = np.random.default_rng(21)
    samples = random_samples(rng, 4, 1, 8)
    with pytest.raises(InvalidParameterError):
        estimate_graph(samples, EstimatorConfig(s=1, lam=0.1), combine="XOR")


@pytest.mark.parametrize("node", [2.5, True, np.float64(2.0), pytest.param(2.0, id="float-2.0")])
def test_every_one_node_entry_rejects_a_node_that_is_not_an_integer(node):
    # Cig.neighborhood(2.5) gave frozenset(), partial_correlation(model, 1.5, 4)
    # the (1, 4) strength, estimate_neighborhood a bare TypeError, and True
    # passed all three as node 1.  The search budget s follows the same rule:
    # s = 2.5 and 2.0 gave a bare TypeError inside the kernel, and True ran as 1.
    g = random_cig(5, 2, 3)
    model = build_block_model(g, 2, 8, 2.0, 4)
    samples = sample_process(model, 5)
    with pytest.raises(InvalidParameterError, match="integer node"):
        g.neighborhood(node)
    with pytest.raises(InvalidParameterError, match="integer node"):
        partial_correlation(model, node, 4)
    with pytest.raises(InvalidParameterError, match="integer node"):
        estimate_neighborhood(samples, node, EstimatorConfig(s=2, lam=0.01))
    with pytest.raises(InvalidParameterError, match="integer s >= 0"):
        EstimatorConfig(s=node, lam=0.01)


def test_every_one_node_entry_takes_a_numpy_integer_node_as_an_int():
    g = random_cig(5, 2, 3)
    model = build_block_model(g, 2, 8, 2.0, 4)
    samples = sample_process(model, 5)
    config = EstimatorConfig(s=2, lam=0.01)
    assert g.neighborhood(np.int64(2)) == g.neighborhood(2)
    assert partial_correlation(model, np.int64(2), 4) == partial_correlation(model, 2, 4)
    est = estimate_neighborhood(samples, np.int64(2), config)
    assert type(est.node) is int and est == estimate_neighborhood(samples, 2, config)
    budget = EstimatorConfig(s=np.int64(2), lam=0.01)
    assert type(budget.s) is int and budget == config
    assert EstimatorConfig(s=0, lam=0.01).s == 0
    with pytest.raises(InvalidParameterError, match="integer s >= 0"):
        EstimatorConfig(s=-1, lam=0.01)


def test_problems_scored_together_are_each_their_estimate():
    rng = np.random.default_rng(36)
    blocks = [GramBlocks(p=6, B=2, L=10, grams=block_grams(random_samples(rng, 6, 2, 10)))
              for _ in range(3)]
    grams = np.stack([gb.grams for gb in blocks])
    lams = [0.0, 0.01, 0.2]
    together = regression._estimate_neighborhoods(grams, 10, [1, 6, 3], 2, lams)
    assert together == [estimate_neighborhood(gb, i, EstimatorConfig(s=2, lam=lam))
                        for gb, i, lam in zip(blocks, [1, 6, 3], lams)]
    with pytest.raises(InvalidParameterError, match="node"):
        regression._estimate_neighborhoods(grams, 10, [1, 7, 3], 2, lams)
    with pytest.raises(InvalidParameterError, match="lambda"):
        regression._estimate_neighborhoods(grams, 10, [1, 6, 3], 2, [0.0, -1.0, 0.2])


# ---------------------------------------------------------------- scalar helpers

def test_default_lambda_values():
    assert default_lambda(0.6) == pytest.approx(0.1)
    assert default_lambda(6.0) == 1.0
    assert default_lambda(0.25) == pytest.approx(1.0 / 24.0)
    with pytest.raises(InvalidParameterError):
        default_lambda(0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-3])
def test_non_finite_or_negative_penalties_are_rejected(bad):
    # NaN slipped past `lam < 0` and `rho_min <= 0` and selected no set at all.
    with pytest.raises(InvalidParameterError, match="finite lambda"):
        EstimatorConfig(s=1, lam=bad)
    with pytest.raises(InvalidParameterError, match="finite rho_min"):
        default_lambda(bad)


def test_sample_size_bound_values():
    # eta = 6 p s^2 gave a bound of 0, and a larger eta a negative one.
    for eta in (1.0, 6.0, 7.0):
        with pytest.raises(InvalidParameterError, match="need 0 < eta < 1"):
            sample_size_bound(1.0, 1.0, 1, 1, eta)
    expected = 3456.0 * math.log(34560.0)
    assert sample_size_bound(2.0, 0.5, 64, 3, 0.1) == pytest.approx(expected)
    assert sample_size_bound(2.0, 0.5, 64, 3, 0.1) == pytest.approx(36116.9, rel=1e-4)


def test_sample_size_bound_scalings():
    base = sample_size_bound(1.0, 0.5, 8, 2, 0.1)
    assert sample_size_bound(2.0, 0.5, 8, 2, 0.1) == pytest.approx(2 * base)
    assert sample_size_bound(1.0, 0.25, 8, 2, 0.1) == pytest.approx(2 * base)
    with pytest.raises(InvalidParameterError):
        sample_size_bound(-1.0, 0.5, 8, 2, 0.1)


def test_rho_condition_values():
    assert rho_condition_holds(1.0, 1.0, 24) is True
    assert rho_condition_holds(0.5, 2.0, 64) is False
    assert rho_condition_holds(0.5, 2.0, 10**9) is True


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", range(5))
def test_bound_and_rho_condition_reject_non_finite_arguments(bad, at):
    # sample_size_bound gave NaN for a NaN argument and a bare ValueError for eta = inf.
    args = [2.0, 0.5, 8, 2, 0.1]
    args[at] = bad
    with pytest.raises(InvalidParameterError, match="need a finite"):
        sample_size_bound(*args)
    if at < 3:
        args = [0.5, 2.0, 64]
        args[at] = bad
        with pytest.raises(InvalidParameterError, match="need a finite"):
            rho_condition_holds(*args)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(1.01, 100.0), st.floats(1e-6, 10.0),
    st.integers(1, 1000), st.integers(1, 50), st.floats(1e-6, 0.99),
)
def test_sample_size_bound_monotone(beta, rho, p, s, eta):
    base = sample_size_bound(beta, rho, p, s, eta)
    assert sample_size_bound(2 * beta, rho, p, s, eta) == pytest.approx(2 * base, rel=1e-12)
    assert sample_size_bound(beta, rho, p, s, eta / 2) >= base
