"""Cholesky factorization and seeded block sampling, as columns and as Grams."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsgms import (
    Cig,
    GramBlocks,
    SampleBlocks,
    build_block_model,
    cholesky_factor,
    random_cig,
    sample_grams,
    sample_process,
)
from nsgms.errors import InvalidParameterError, NotPositiveDefiniteError
from nsgms.regression import EstimatorConfig, estimate_graph, estimate_neighborhood
from nsgms.sampling import BlockDraws, block_grams, sample_gram_stack


def test_cholesky_identity():
    assert np.array_equal(cholesky_factor(np.eye(4)), np.eye(4))


def test_cholesky_diagonal():
    G = cholesky_factor(np.diag([4.0, 9.0]))
    assert np.allclose(G, np.diag([2.0, 3.0]))


def test_cholesky_random_spd_reconstructs():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((5, 5))
    C = A @ A.T + 5 * np.eye(5)
    G = cholesky_factor(C)
    assert np.abs(G @ G.T - C).max() <= 1e-10 * np.abs(C).max()
    assert np.allclose(np.triu(G, 1), 0.0)


def test_cholesky_rejects_asymmetric():
    with pytest.raises(InvalidParameterError):
        cholesky_factor(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        cholesky_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


def spd_stack(B, p=5, seed=2):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((B, p, p))
    return A @ A.swapaxes(1, 2) + p * np.eye(p)


def test_cholesky_stack_matches_per_block_factors():
    C = spd_stack(6)
    G = cholesky_factor(C)
    assert G.shape == C.shape
    for b in range(6):
        assert np.array_equal(G[b], cholesky_factor(C[b]))


def test_cholesky_stack_rejects_one_indefinite_block():
    C = spd_stack(4)
    C[2, 4, 4] = -1.0  # a negative diagonal entry rules out positive definiteness
    with pytest.raises(NotPositiveDefiniteError):
        cholesky_factor(C)


@pytest.mark.parametrize("bad", [0.5, np.nan])
def test_cholesky_stack_rejects_one_asymmetric_or_nan_block(bad):
    C = spd_stack(4)
    C[3, 0, 1] += bad
    with pytest.raises(InvalidParameterError):
        cholesky_factor(C)


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


@pytest.mark.parametrize("blocks", [[], [3], [-1], [0, 3]])
def test_sample_process_rejects_blocks_outside_the_model(blocks):
    model = build_block_model(random_cig(4, 2, 1), 3, 10, 2.0, 0.4, 2)
    with pytest.raises(InvalidParameterError, match="blocks"):
        sample_process(model, 5, blocks=blocks)


@pytest.mark.parametrize("out", [np.empty((2, 4, 10)), np.empty((1, 4, 10), dtype=np.float32)])
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
    # Empty graph plus the exact eigenvalue band forces C^(b) = I here.
    assert all(np.allclose(C, np.eye(3)) for C in model.covariances)
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
    assert not np.allclose(model.covariances[0], model.covariances[1])
    for b in range(2):
        emp = block_grams(samples)[b] / samples.L
        err = np.linalg.norm(emp - model.covariances[b])
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
        ok += np.linalg.norm(emp - model.covariances[0]) <= 0.15
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
    for b, C in enumerate(model.covariances):
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
    factors = cholesky_factor(np.concatenate([m.covariances for m in models])).reshape(n, B, p, p)
    grams = sample_gram_stack(factors, L, gram_seeds)
    assert grams.shape == (n, B, p, p)
    for k, model in enumerate(models):
        assert grams[k].tobytes() == sample_grams(model, gram_seeds[k]).grams.tobytes()


# sha256 of covariance and Gram stack bytes, recorded when every BlockModel
# came to take its covariances as the symmetrised inverse of its precisions.
@pytest.mark.parametrize("p, s, B, L, seed, cov_sha, gram_sha", [
    (8, 2, 4, 187252, 1, "df07d033f29b7dca3fd6f4b09ae1152ec368e2186cd9ae1147344c9896e08c98",
     "610a1f05a38d9a4a1d60629d0bc09b24466550152625d9870c973510b2d974f1"),
    (6, 3, 9, 4, 7, "def65f515986b0dc057f18344f4b6b5541fff91db8bf993733931c72f9571db4",
     "304597c23c3822e5abc72cbc07203ad687c767337b37bc96a0930e9bf7af1a62"),
    (10, 3, 3, 50, 2026, "b0bf091d01bf8604f4e09fd424df4bf085e27381b9e1987e6bf7f8325cd68f74",
     "ffe0be24ecf07987ae88cde2489705bb4ac6aabe867baebc1c2cf0f0a57e07e3"),
], ids=["p8-B4-L187252", "p6-B9-L4", "p10-B3-L50"])
def test_covariance_and_gram_streams_are_pinned(p, s, B, L, seed, cov_sha, gram_sha):
    model = build_block_model(random_cig(p, s, seed), B, L, 2.0, 0.4, seed + 1)
    assert hashlib.sha256(model.covariances.tobytes()).hexdigest() == cov_sha
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
