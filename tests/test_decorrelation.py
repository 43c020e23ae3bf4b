"""DFT repackaging of stationary records into block samples."""

import numpy as np
import pytest

from nsgms import (
    StationarySeries,
    decorrelation_report,
    dft_coefficients,
    to_block_samples,
)
from nsgms.decorrelate import _real_columns
from nsgms.errors import InvalidParameterError
from nsgms.sampling import SampleBlocks


def total_energy(blocks):
    return float(sum(np.sum(X * X) for X in blocks.data))


def test_width_must_divide_length():
    data = np.zeros((2, 10))
    with pytest.raises(InvalidParameterError):
        StationarySeries(p=2, N=10, data=data, W=3)


def test_constant_series_is_dc_only():
    v = np.array([1.0, -2.0, 0.5])
    N = 16
    series = StationarySeries(p=3, N=N, data=np.tile(v[:, None], (1, N)), W=1)
    coeffs = dft_coefficients(series)
    assert np.allclose(coeffs[:, 0], np.sqrt(N) * v)
    assert np.abs(coeffs[:, 1:]).max() <= 1e-12


def test_pure_cosine_hits_two_bins():
    N = 32
    k0 = 5
    t = np.arange(N)
    data = np.cos(2 * np.pi * k0 * t / N)[None, :]
    series = StationarySeries(p=1, N=N, data=data, W=1)
    coeffs = dft_coefficients(series)
    mags = np.abs(coeffs[0])
    nonzero = np.flatnonzero(mags > 1e-10)
    assert sorted(nonzero) == [k0, N - k0]


def test_parseval_identity():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((4, 64))
    series = StationarySeries(p=4, N=64, data=data, W=4)
    coeffs = dft_coefficients(series)
    assert np.sum(np.abs(coeffs) ** 2) == pytest.approx(np.sum(data**2), rel=1e-9)


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
    series = StationarySeries(p=3, N=N, data=rng.standard_normal((3, N)), W=W)
    coeffs = dft_coefficients(series)
    columns = [coeffs[:, 0].real]
    for k in range(1, (N + 1) // 2):
        columns += [np.sqrt(2.0) * coeffs[:, k].real, np.sqrt(2.0) * coeffs[:, k].imag]
    if N % 2 == 0:
        columns.append(coeffs[:, N // 2].real)
    expected = np.column_stack(columns)
    assert np.array_equal(_real_columns(coeffs), expected)
    L = N // W
    blocks = to_block_samples(series)
    for b in range(W):
        assert np.array_equal(blocks.data[b], expected[:, b * L:(b + 1) * L])


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
