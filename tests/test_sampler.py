"""Roots K^-1/2 of the precisions, and seeded block sampling, as columns and as Grams."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nsgms.model as model_module
from nsgms import (
    BlockModel,
    Cig,
    GramBlocks,
    SampleBlocks,
    build_block_model,
    random_cig,
    sample_grams,
    sample_process,
)
from nsgms.errors import InvalidParameterError, NotPositiveDefiniteError
from nsgms.model import build_model_stack, inverse_square_roots
from nsgms.regression import EstimatorConfig, estimate_graph, estimate_neighborhood
from nsgms.sampling import BlockDraws, _chunk_columns, block_grams, sample_gram_stack


def roots(K):
    """K^-1/2 of a precision matrix or stack, as every sampler forms it."""
    return inverse_square_roots(*np.linalg.eigh(K))


def test_root_of_the_identity_is_the_identity():
    assert np.array_equal(roots(np.eye(4)), np.eye(4))


def test_root_of_a_diagonal_precision():
    assert np.allclose(roots(np.diag([4.0, 9.0])), np.diag([0.5, 1.0 / 3.0]))


def test_root_of_a_random_spd_precision_is_its_inverse_square_root():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((5, 5))
    K = A @ A.T + 5 * np.eye(5)
    F = roots(K)
    assert np.array_equal(F, F.T)
    assert np.abs(F @ K @ F - np.eye(5)).max() <= 1e-13
    assert np.abs(F @ F - np.linalg.inv(K)).max() <= 1e-13 * np.abs(np.linalg.inv(K)).max()


@pytest.mark.parametrize("K", [[[1.0, 2.0], [2.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]],
                         ids=["indefinite", "singular"])
def test_root_rejects_a_precision_that_is_not_positive_definite(K):
    with pytest.raises(NotPositiveDefiniteError, match="not positive definite"):
        roots(np.array(K))


def spd_stack(B, p=5, seed=2):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((B, p, p))
    return A @ A.swapaxes(1, 2) + p * np.eye(p)


# A draw is formed from a model's precisions only, so the symmetry and
# finiteness a Cholesky draw once checked are checked when the model is made.

def test_cholesky_rejects_asymmetric():
    with pytest.raises(InvalidParameterError, match="not symmetric"):
        BlockModel(p=2, B=1, L=4, beta=2.0, precisions=np.array([[[1.0, 0.5], [0.0, 1.0]]]))


@pytest.mark.parametrize("bad", [0.5, np.nan])
def test_cholesky_stack_rejects_one_asymmetric_or_nan_block(bad):
    K = spd_stack(4)
    K[3, 0, 1] += bad
    with pytest.raises(InvalidParameterError):
        BlockModel(p=5, B=4, L=4, beta=2.0, precisions=K)


def test_root_stack_matches_per_block_roots():
    K = spd_stack(6)
    F = roots(K)
    assert F.shape == K.shape
    for b in range(6):
        assert np.array_equal(F[b], roots(K[b]))


def test_root_stack_rejects_one_indefinite_block():
    K = spd_stack(4)
    K[2, 4, 4] = -1.0  # a negative diagonal entry rules out positive definiteness
    with pytest.raises(NotPositiveDefiniteError):
        roots(K)


def one_ulp_up(K):
    """K with each block's (1, 1) entry one ulp higher, still exactly symmetric."""
    K = K.copy()
    K[..., 0, 0] = np.nextafter(K[..., 0, 0], np.inf)
    return K


def relative_change(a, b):
    return np.abs(a - b).max() / np.abs(a).max()


def test_a_one_ulp_change_to_the_precisions_moves_every_draw_at_rounding_level(monkeypatch):
    # Every draw goes through K^-1/2, which does not depend on the signs LAPACK
    # gives eigenvectors.  A root V diag(lambda^-1/2) flips with those signs,
    # and through it these harness Grams move by O(1) in most of the models.
    p, B, L = 8, 4, 50
    cigs, seeds = [random_cig(p, 2, k) for k in range(20)], range(100, 120)

    def sampler_draws(K, seed):
        model = BlockModel(p=p, B=B, L=L, beta=2.0, precisions=K)
        return roots(K), sample_process(model, seed).data, sample_grams(model, seed).grams

    def harness_draws():
        out = []
        for cig, seed in zip(cigs, seeds):
            (K,), F, _ = build_model_stack([cig], B, 2.0, 0.4, [seed])
            out.append((K, F, sample_gram_stack(F, L, [seed])))
        return out

    models = [build_block_model(cig, B, L, 2.0, 0.4, seed) for cig, seed in zip(cigs, seeds)]
    for model, seed in zip(models, seeds):
        before = sampler_draws(model.precisions, seed)
        after = sampler_draws(one_ulp_up(model.precisions), seed)
        for a, b in zip(before, after):
            assert relative_change(a, b) <= 1e-12
    # The harness forms its roots inside the build, from the band map's eigh,
    # so the change goes in before the map, which carries it to the mapped
    # precisions at rounding level.
    before = harness_draws()
    spectrum_to_band = model_module._spectrum_to_band
    monkeypatch.setattr(model_module, "_spectrum_to_band",
                        lambda K, beta: spectrum_to_band(one_ulp_up(K), beta))
    for draws, nudged in zip(before, harness_draws()):
        for a, b in zip(draws, nudged):
            assert relative_change(a, b) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((np.nan, np.inf, -np.inf, 1e200)), st.integers(0, 2),
       st.integers(0, 4), st.integers(0, 9), st.integers(1, 5))
def test_estimators_reject_one_non_finite_value(bad, b, row, col, node):
    # SampleBlocks checks shapes only; the Gram check sees the bad value,
    # since G_ii sums the squares of row i (1e200 squared overflows).
    rng = np.random.default_rng(0)
    data = rng.standard_normal((3, 5, 10))
    data[b, row, col] = bad
    samples = SampleBlocks(p=5, B=3, L=10, data=tuple(data))
    config = EstimatorConfig(s=2, lam=0.1)
    with pytest.raises(InvalidParameterError, match="non-finite"):
        estimate_graph(samples, config)
    with pytest.raises(InvalidParameterError, match="non-finite"):
        estimate_neighborhood(samples, node, config)


def test_sample_process_deterministic():
    g = random_cig(5, 2, 4)
    model = build_block_model(g, 3, 16, 2.0, 0.4, 5)
    s1 = sample_process(model, 99)
    s2 = sample_process(model, 99)
    for X1, X2 in zip(s1.data, s2.data):
        assert np.array_equal(X1, X2)
    s3 = sample_process(model, 100)
    assert not np.array_equal(s1.data[0], s3.data[0])


@pytest.mark.parametrize("p, B, L", [(5, 3, 16), (6, 1, 40), (7, 3, 4), (4, 1, 2)])
def test_per_block_draws_are_the_blocks_of_the_whole_draw(p, B, L):
    # B = 1 and L < p included: block b comes from its own (seed, b) stream,
    # alone, in any order, into a reused buffer, or lazily from BlockDraws.
    model = build_block_model(random_cig(p, 2, p), B, L, 2.0, 0.4, B + L)
    whole = sample_process(model, 31).data
    out = np.full((1, p, L), np.nan)
    for b in range(B):
        alone = sample_process(model, 31, blocks=[b])
        assert (alone.B, alone.data.shape) == (1, (1, p, L))
        assert np.array_equal(alone.data[0], whole[b])
        assert sample_process(model, 31, blocks=[b], out=out).data is out
        assert np.array_equal(out[0], whole[b])
    backwards = sample_process(model, 31, blocks=range(B - 1, -1, -1)).data
    assert np.array_equal(backwards, whole[::-1])
    lazy = [X.copy() for X in BlockDraws(model, 31)]  # each block is valid until the next
    assert len(lazy) == B and all(np.array_equal(X, whole[b]) for b, X in enumerate(lazy))


def test_block_draws_reuse_one_buffer():
    model = build_block_model(random_cig(4, 2, 1), 3, 10, 2.0, 0.4, 2)
    first, *rest = list(BlockDraws(model, 5))
    assert all(np.shares_memory(first, X) for X in rest)


@pytest.mark.parametrize("blocks", [[], [3], [-1], [0, 3], [True], [1.0], [1.5]])
def test_sample_process_rejects_blocks_outside_the_model(blocks):
    model = build_block_model(random_cig(4, 2, 1), 3, 10, 2.0, 0.4, 2)
    with pytest.raises(InvalidParameterError, match="blocks"):
        sample_process(model, 5, blocks=blocks)


def _stream_normals(seed, b, p, L):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,))).standard_normal((p, L))


def _chunk_edge_lengths(p):
    w = _chunk_columns(p)
    return [1, 7, w - 1, w, w + 1, 2 * w + 1]


@pytest.mark.parametrize("p", [1, 16, 17])
def test_sample_process_draws_each_blocks_stream_across_chunk_edges(p):
    # With K = I the root is I and the product is exact, so the output is the
    # (seed, b) stream's normals bit for bit, whichever chunk a column falls in.
    for L in _chunk_edge_lengths(p):
        model = build_block_model(Cig(p=p), 2, L, 2.0, 0.3, 6)
        assert np.array_equal(roots(model.precisions), np.broadcast_to(np.eye(p), (2, p, p)))
        X = sample_process(model, 23).data
        for b in range(2):
            assert np.array_equal(X[b], _stream_normals(23, b, p, L))


@pytest.mark.parametrize("p", [1, 16, 17])
def test_sample_process_is_g_times_z_across_chunk_edges(p):
    # Chunked or not, each entry is a p-term dot product, whose rounding
    # error is at most gamma_p = p u / (1 - p u) < p * eps times that entry
    # of |F| @ |Z|; two such roundings differ by at most twice that.
    eps = np.finfo(float).eps
    for L in _chunk_edge_lengths(p):
        graph = random_cig(p, 2, L) if p > 1 else Cig(p=1)
        model = build_block_model(graph, 2, L, 2.0, 0.4, L)
        X = sample_process(model, 29).data
        for b, F in enumerate(roots(model.precisions)):
            Z = _stream_normals(29, b, p, L)
            assert np.all(np.abs(X[b] - F @ Z) <= 2 * p * eps * (np.abs(F) @ np.abs(Z)))


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sample_process_allocates_no_normals_per_block():
    # 1.28 MB per block and a 256 KiB chunk buffer: beside the output, only
    # that buffer and a few small objects may be allocated.
    p, B, L = 8, 3, 20_000
    model = build_block_model(random_cig(p, 2, 1), B, L, 2.0, 0.4, 2)
    chunk = 8 * p * _chunk_columns(p)
    out = np.empty((B, p, L))
    assert _traced_peak(lambda: sample_process(model, 5, out=out)) < chunk + 32 * 1024
    assert _traced_peak(lambda: sample_process(model, 5)) < out.nbytes + chunk + 32 * 1024


@pytest.mark.parametrize("out", [np.empty((2, 4, 10)), np.empty((1, 4, 10), dtype=np.float32),
                                 np.empty((1, 4, 10), order="F"), np.empty((1, 4, 20))[:, :, ::2]])
def test_sample_process_rejects_an_out_of_another_shape_or_dtype(out):
    model = build_block_model(random_cig(4, 2, 1), 3, 10, 2.0, 0.4, 2)
    with pytest.raises(InvalidParameterError, match="out"):
        sample_process(model, 5, blocks=[1], out=out)


def test_block_draws_check_every_covariance_on_construction():
    model = build_block_model(random_cig(4, 2, 1), 3, 10, 2.0, 0.4, 2)
    K = model.precisions.copy()
    K[2, 3, 3] = -1.0  # symmetric, and indefinite
    with pytest.raises(NotPositiveDefiniteError):
        BlockDraws(dataclasses.replace(model, precisions=K), 5)


def test_identity_covariance_unit_variance():
    model = build_block_model(Cig(p=3), 2, 20_000, 2.0, 0.3, 6)
    # Empty graph plus the exact eigenvalue band forces K_b = I here.
    assert np.allclose(model.precisions, np.eye(3))
    samples = sample_process(model, 17)
    for X in samples.data:
        var = np.mean(X * X, axis=1)
        # the variance estimator itself has variance 2/L per coordinate
        assert np.abs(var - 1.0).max() <= 5.0 * np.sqrt(2.0 / 20_000)


def test_block_covariances_match_model():
    g = random_cig(4, 2, 10)
    L = 10_000
    model = build_block_model(g, 2, L, 2.0, 0.5, 11)
    samples = sample_process(model, 12)
    C = np.linalg.inv(model.precisions)
    assert not np.allclose(C[0], C[1])
    for b in range(2):
        emp = block_grams(samples)[b] / samples.L
        err = np.linalg.norm(emp - C[b])
        assert err <= 10.0 * model.p / np.sqrt(L)


def test_blocks_are_uncorrelated():
    model = build_block_model(Cig(p=3), 2, 10_000, 2.0, 0.3, 14)
    samples = sample_process(model, 15)
    X, Y = samples.data
    cross = (X @ Y.T) / samples.L
    assert np.abs(cross).max() <= 5.0 / np.sqrt(samples.L)


def test_empirical_covariance_consistency():
    # L = 1e4, p = 3: Frobenius error below 0.15 with high probability.
    g = random_cig(3, 2, 20)
    model = build_block_model(g, 1, 10_000, 2.0, 0.4, 21)
    ok = 0
    for seed in range(10):
        samples = sample_process(model, seed)
        emp = block_grams(samples)[0] / samples.L
        ok += np.linalg.norm(emp - np.linalg.inv(model.precisions[0])) <= 0.15
    assert ok >= 9


# ---------------------------------------------------------------- sample_grams

# Over n draws the mean of a Wishart entry W_ij has standard error
# sqrt(L (C_ij^2 + C_ii C_jj) / n); means must lie within 4.5 of them.
# A sample variance over n = 3000 draws has relative standard error
# sqrt((kurtosis - 1) / n), at most about 0.045 at L = 3, so the variance
# ratio must lie within 1 +- 0.2 (4.5 of them).  Correlations across blocks
# have standard error 1/sqrt(n) and must lie within 4.5 of them.
GRAM_DRAWS = 3000
MEAN_SES = 4.5
VAR_RTOL = 0.2


@pytest.mark.parametrize("L", [3, 200])
def test_sample_grams_moments_match_wishart(L):
    model = build_block_model(random_cig(4, 2, 30), 2, L, 2.0, 0.5, 31)
    draws = np.stack([sample_grams(model, seed).grams for seed in range(GRAM_DRAWS)])
    for b, C in enumerate(np.linalg.inv(model.precisions)):
        W = draws[:, b]
        var_expected = L * (C * C + np.outer(np.diag(C), np.diag(C)))
        se = np.sqrt(var_expected / GRAM_DRAWS)
        assert np.all(np.abs(W.mean(axis=0) - L * C) <= MEAN_SES * se)
        ratio = W.var(axis=0, ddof=1) / var_expected
        assert np.abs(ratio - 1.0).max() <= VAR_RTOL
    # blocks draw from independent streams
    for k in range(4):
        corr = np.corrcoef(draws[:, 0, k, k], draws[:, 1, k, k])[0, 1]
        assert abs(corr) <= MEAN_SES / np.sqrt(GRAM_DRAWS)


@pytest.mark.parametrize("L", [1, 2, 5, 6, 40])
def test_sample_grams_rank_is_min_p_l(L):
    model = build_block_model(random_cig(6, 2, 32), 3, L, 2.0, 0.4, 33)
    grams = sample_grams(model, 34)
    assert grams.n_samples == 3 * L
    for W in grams.grams:
        assert np.array_equal(W, W.T)
        assert np.linalg.matrix_rank(W) == min(6, L)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 9), st.integers(1, 9), st.integers(1, 5), st.integers(1, 400), st.data())
def test_gram_stack_is_bitwise_the_grams_sampled_alone(p, B, n, L, data):
    # L < p covers the rank-deficient Bartlett factor, m = min(p, L) columns.
    cigs = [random_cig(p, data.draw(st.integers(1, p - 1)), data.draw(st.integers(0, 2**32)))
            for _ in range(n)]
    model_seeds = [data.draw(st.integers(0, 2**63 - 1)) for _ in range(n)]
    gram_seeds = [data.draw(st.integers(0, 2**63 - 1)) for _ in range(n)]
    models = [build_block_model(cig, B, L, 2.0, 0.4, seed) for cig, seed in zip(cigs, model_seeds)]
    factors = roots(np.concatenate([m.precisions for m in models])).reshape(n, B, p, p)
    grams = sample_gram_stack(factors, L, gram_seeds)
    assert grams.shape == (n, B, p, p)
    for k, model in enumerate(models):
        assert grams[k].tobytes() == sample_grams(model, gram_seeds[k]).grams.tobytes()


# sha256 of the roots K^-1/2 that sample_grams forms and of its Gram stack,
# recorded when every draw came to go through that one root.  The digests
# hold for a given numpy, LAPACK (eigh) and BLAS build.
@pytest.mark.parametrize("p, s, B, L, seed, root_sha, gram_sha", [
    (8, 2, 4, 187252, 1, "602c8d7339171032239ace321ef3fdbe8ead08a6e7b2ad152308afea33493045",
     "d1144da08e8a11fa2b9d5975ab21b43021ecff64d1270837aec98caa21be078c"),
    (6, 3, 9, 4, 7, "db34a2d8f1545b2220267fe23c996a02dc332e172b06715b0fc2fae0b2065c2d",
     "1c37f98219b90f2de973eac3fe0141e9850ed6bf43942616236e2bbb96308e18"),
    (10, 3, 3, 50, 2026, "93aba2fcb974b4230c517279766321b0c1123c64abc5b49a201d8dec4a045d1a",
     "b8f22f683613e17fc8b0b6718779cb13399e65332a448c59d84857aad0fc7e2c"),
], ids=["p8-B4-L187252", "p6-B9-L4", "p10-B3-L50"])
def test_covariance_and_gram_streams_are_pinned(p, s, B, L, seed, root_sha, gram_sha):
    model = build_block_model(random_cig(p, s, seed), B, L, 2.0, 0.4, seed + 1)
    assert hashlib.sha256(roots(model.precisions).tobytes()).hexdigest() == root_sha
    grams = sample_grams(model, seed + 2).grams
    assert hashlib.sha256(grams.tobytes()).hexdigest() == gram_sha


def test_sample_grams_deterministic():
    model = build_block_model(random_cig(5, 2, 4), 3, 16, 2.0, 0.4, 5)
    g1 = sample_grams(model, 99)
    assert np.array_equal(g1.grams, sample_grams(model, 99).grams)
    assert not np.array_equal(g1.grams[0], sample_grams(model, 100).grams[0])


def test_gram_blocks_rejects_bad_input():
    good = np.stack([np.eye(3), 2 * np.eye(3)])
    assert GramBlocks(p=3, B=2, L=10, grams=good).n_samples == 20
    bad = good.copy()
    bad[1, 0, 2] = np.inf
    with pytest.raises(InvalidParameterError):
        GramBlocks(p=3, B=2, L=10, grams=bad)
    with pytest.raises(InvalidParameterError):
        GramBlocks(p=3, B=1, L=10, grams=good)
    with pytest.raises(InvalidParameterError):
        GramBlocks(p=3, B=2, L=10, grams=good[:, :2, :])


def test_sample_blocks_are_one_stack_of_the_declared_shape():
    rng = np.random.default_rng(3)
    blocks = tuple(rng.standard_normal((3, 5)) for _ in range(2))
    samples = SampleBlocks(p=3, B=2, L=5, data=blocks)
    assert samples.data.shape == (2, 3, 5)
    assert np.array_equal(samples.data[1], blocks[1])
    ragged = (blocks[0], blocks[1][:, :4])
    for bad in (ragged, blocks[:1], np.zeros((2, 5, 3)), np.zeros((3, 5))):
        with pytest.raises(InvalidParameterError):
            SampleBlocks(p=3, B=2, L=5, data=bad)
