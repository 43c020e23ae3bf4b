"""DFT repackaging of stationary records into block samples."""

import numpy as np
import pytest

from nsgms import (
    EstimatorConfig,
    StationarySeries,
    build_block_model,
    decorrelation_report,
    default_lambda,
    estimate_graph,
    min_edge_strength,
    random_cig,
    to_block_samples,
)
from nsgms.errors import InvalidParameterError
from nsgms.model import inverse_square_roots
from nsgms.sampling import SampleBlocks


def total_energy(blocks):
    return float(sum(np.sum(X * X) for X in blocks.data))


def columns(data):
    """The N real columns of a p x N record: its one block at W = 1."""
    p, N = data.shape
    return to_block_samples(StationarySeries(p=p, N=N, data=data, W=1)).data[0]


def transposed(data):
    """``data`` as the (p, N) view of (N, p) rows that ``load_samples`` hands over."""
    return np.ascontiguousarray(data.T).T


def test_width_must_divide_length():
    data = np.zeros((2, 10))
    with pytest.raises(InvalidParameterError):
        StationarySeries(p=2, N=10, data=data, W=3)


@pytest.mark.parametrize("sizes", [(2.0, 10, 5), (2, 10.0, 5), (2, 10, 5.0), (True, 10, 5),
                                   (2, 10, True), (0, 10, 5), (2, 10, -5)])
def test_sizes_must_be_positive_integers(sizes):
    p, N, W = sizes
    with pytest.raises(InvalidParameterError, match="integer [pNW] >= 1"):
        StationarySeries(p=p, N=N, data=np.zeros((2, 10)), W=W)


def test_numpy_integer_sizes_are_stored_as_int():
    series = StationarySeries(p=np.int64(2), N=np.int64(10), data=np.zeros((2, 10)), W=np.int32(5))
    assert all(type(v) is int for v in (series.p, series.N, series.W))
    assert (series.p, series.N, series.W) == (2, 10, 5)


def test_constant_series_is_dc_only():
    v = np.array([1.0, -2.0, 0.5])
    N = 16
    cols = columns(np.tile(v[:, None], (1, N)))
    assert np.allclose(cols[:, 0], np.sqrt(N) * v)
    assert np.abs(cols[:, 1:]).max() <= 1e-12


def test_pure_cosine_hits_one_column():
    # The unitary coefficient at k0 is sqrt(N)/2, real; its column carries
    # sqrt(2) times that, the energy of the coefficient and its conjugate.
    N = 32
    k0 = 5
    t = np.arange(N)
    cols = columns(np.cos(2 * np.pi * k0 * t / N)[None, :])
    assert np.flatnonzero(np.abs(cols[0]) > 1e-10).tolist() == [2 * k0 - 1]
    assert cols[0, 2 * k0 - 1] == pytest.approx(np.sqrt(N / 2), rel=1e-12)


def test_parseval_identity():
    # Through the blocks, and from the transposed rows a samples file loads as.
    rng = np.random.default_rng(1)
    data = transposed(rng.standard_normal((4, 64)))
    blocks = to_block_samples(StationarySeries(p=4, N=64, data=data, W=4))
    assert total_energy(blocks) == pytest.approx(np.sum(data**2), rel=1e-9)


def test_block_partition_shape():
    rng = np.random.default_rng(2)
    series = StationarySeries(p=2, N=8, data=rng.standard_normal((2, 8)), W=2)
    blocks = to_block_samples(series)
    assert (blocks.B, blocks.L) == (2, 4)
    assert blocks.B * blocks.L == series.N


@pytest.mark.parametrize("N", [15, 16])
def test_energy_preserved_exactly(N):
    rng = np.random.default_rng(N)
    data = rng.standard_normal((3, N))
    series = StationarySeries(p=3, N=N, data=data, W=1)
    blocks = to_block_samples(series)
    assert total_energy(blocks) == pytest.approx(np.sum(data**2), rel=1e-9)


@pytest.mark.parametrize("N, W", [(15, 3), (16, 4)])
def test_real_columns_follow_frequency_order(N, W):
    # DC, then sqrt(2) Re and sqrt(2) Im of each frequency 1 <= k < N/2,
    # then, for even N, the Nyquist coefficient; blocks are runs of N/W columns.
    rng = np.random.default_rng(N)
    data = rng.standard_normal((3, N))
    coeffs = np.fft.fft(data, axis=1) / np.sqrt(N)
    expected = [coeffs[:, 0].real]
    for k in range(1, (N + 1) // 2):
        expected += [np.sqrt(2.0) * coeffs[:, k].real, np.sqrt(2.0) * coeffs[:, k].imag]
    if N % 2 == 0:
        expected.append(coeffs[:, N // 2].real)
    expected = np.column_stack(expected)
    L = N // W
    scale = np.abs(expected).max()
    for record in (data, transposed(data)):
        blocks = to_block_samples(StationarySeries(p=3, N=N, data=record, W=W))
        for b in range(W):
            assert np.abs(blocks.data[b] - expected[:, b * L:(b + 1) * L]).max() <= 1e-12 * scale


def test_white_noise_keeps_covariance():
    # The spectrum of i.i.d. input is flat, so every output block should
    # again look i.i.d. with the same covariance.
    rng = np.random.default_rng(3)
    A = rng.standard_normal((3, 3))
    C = A @ A.T + np.eye(3)
    G = np.linalg.cholesky(C)
    N, W = 4096, 4
    data = G @ rng.standard_normal((3, N))
    blocks = to_block_samples(StationarySeries(p=3, N=N, data=data, W=W))
    L = blocks.L
    for X in blocks.data:
        emp = (X @ X.T) / L
        assert np.linalg.norm(emp - C) <= 10.0 * 3 / np.sqrt(L) * np.linalg.norm(C)


def test_report_small_for_independent_blocks():
    rng = np.random.default_rng(4)
    L = 512
    blocks = SampleBlocks(p=3, B=4, L=L,
                          data=tuple(rng.standard_normal((3, L)) for _ in range(4)))
    rep = decorrelation_report(blocks)
    assert rep.cross_block_energy <= 5.0 / L
    assert rep.within_block_flatness <= 0.5


def test_report_flags_repeated_blocks():
    # One signal copied into every coordinate of both blocks: every entry of
    # the cross-correlation is 1, so the energy metric saturates.
    rng = np.random.default_rng(5)
    row = rng.standard_normal(64)
    X = np.tile(row, (3, 1))
    rep = decorrelation_report(SampleBlocks(p=3, B=2, L=64, data=(X, X.copy())))
    assert rep.cross_block_energy >= 0.9
    # Repeating a block with independent coordinates still stands out
    # against the 1/L baseline of truly independent blocks.
    Y = rng.standard_normal((3, 64))
    rep2 = decorrelation_report(SampleBlocks(p=3, B=2, L=64, data=(Y, Y.copy())))
    assert rep2.cross_block_energy >= 0.25


def test_report_needs_two_columns():
    with pytest.raises(InvalidParameterError):
        decorrelation_report(SampleBlocks(p=2, B=1, L=1, data=(np.ones((2, 1)),)))


P_VAR, A_VAR, W_VAR = 8, 0.5, 16


def var1_record(K, N, seed):
    """x_t = a x_{t-1} + e_t with e_t ~ N(0, K^-1), a p x N stationary stretch.

    x_t is the sum over k < 64 of a^k e_{t-k}; a^64 < 1e-17, so the rest of
    the series lies below an ulp.  The sum is built by doubling: after each
    step the array holds the sum over k < 2m of the one over k < m.
    """
    root = inverse_square_roots(*np.linalg.eigh(K))
    e = root @ np.random.default_rng(seed).standard_normal((P_VAR, N + 63))
    m = 1
    while m < 64:
        e = e[:, m:] + A_VAR**m * e[:, :-m]
        m *= 2
    return e


def recovered_through_decorrelate(seed, N):
    # The inverse spectral density of a VAR(1) record with scalar a is
    # |1 - a e^{-i theta}|^2 cov^{-1}, so its graph is the support of
    # cov^{-1}, with the same rho_min (Dahlhaus, Metrika 2000).
    cig = random_cig(P_VAR, 2, seed)
    model = build_block_model(cig, 1, 1, 2.0, 0.4, seed + 100)
    x = var1_record(model.precisions[0], N, seed + 200)
    blocks = to_block_samples(StationarySeries(p=P_VAR, N=N, data=x, W=W_VAR))
    lam = default_lambda(min_edge_strength(model, cig))
    return estimate_graph(blocks, EstimatorConfig(s=2, lam=lam)).edges == cig.edges


def test_planted_graph_is_recovered_through_decorrelate():
    exact = {N: sum(recovered_through_decorrelate(seed, N) for seed in range(20))
             for N in (1 << 12, 1 << 16)}
    assert exact[1 << 16] >= 18
    assert exact[1 << 12] < exact[1 << 16]
