"""DFT front-end mapping a stationary record to approximately i.i.d. blocks.

A length-N stationary vector series is transformed coordinate-wise with a
unitary DFT.  For real input the coefficients come in conjugate pairs, so
the complex spectrum is repackaged into N real columns: the DC (and, for
even N, Nyquist) coefficient as-is, and for every other frequency pair
sqrt(2)*Re and sqrt(2)*Im as two adjacent columns.  That keeps total
energy exactly and preserves second-order structure, since the real and
imaginary parts of a proper Gaussian coefficient each carry half the
spectral covariance.  Columns are ordered by increasing frequency and cut
into W contiguous blocks of length L = N/W, over which the spectral
density of a series with correlation width W is approximately flat.

The report quantifies how block-i.i.d. the output actually is; both
metrics are diagnostics of this package, with calibration thresholds
rather than theoretical guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .sampling import SampleBlocks


@dataclass(frozen=True)
class StationarySeries:
    """Real p x N record treated as one stationary stretch, with width hint W.

    The record must be finite: ``decorrelate`` writes its blocks without
    forming a Gram matrix, so no later check would see a NaN or infinity.
    """

    p: int
    N: int
    data: np.ndarray
    W: int

    def __post_init__(self):
        if self.data.shape != (self.p, self.N):
            raise InvalidParameterError(f"data shape {self.data.shape} != ({self.p}, {self.N})")
        if not np.all(np.isfinite(self.data)):
            raise InvalidParameterError("record contains non-finite values")
        if self.W < 1 or self.N % self.W != 0:
            raise InvalidParameterError(
                f"correlation width W={self.W} must divide N={self.N}"
            )


def dft_coefficients(series: StationarySeries) -> np.ndarray:
    """Unitary DFT along time, shape (p, N) complex; Parseval-exact.

    A record near the float64 limit can overflow to non-finite coefficients
    without a warning; :func:`to_block_samples` rejects them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.fft.fft(series.data, axis=1) / np.sqrt(series.N)


def _real_columns(coeffs: np.ndarray) -> np.ndarray:
    """Repackage a conjugate-symmetric spectrum into N real energy-preserving columns."""
    p, N = coeffs.shape
    out = np.empty((p, N))
    out[:, 0] = coeffs[:, 0].real  # DC, real for real input
    half = N // 2
    root2 = np.sqrt(2.0)
    col = 1
    for k in range(1, (N + 1) // 2):
        out[:, col] = root2 * coeffs[:, k].real
        out[:, col + 1] = root2 * coeffs[:, k].imag
        col += 2
    if N % 2 == 0:
        out[:, col] = coeffs[:, half].real  # Nyquist, real for real input
    return out


def to_block_samples(series: StationarySeries) -> SampleBlocks:
    """Frequency-domain repackaging into B = W blocks of L = N/W real columns."""
    cols = _real_columns(dft_coefficients(series))
    if not np.all(np.isfinite(cols)):  # a finite record near the float64 limit
        raise InvalidParameterError("DFT of the record overflows to non-finite values")
    B, L = series.W, series.N // series.W
    blocks = tuple(np.ascontiguousarray(cols[:, b * L:(b + 1) * L]) for b in range(B))
    return SampleBlocks(p=series.p, B=B, L=L, data=blocks)


@dataclass(frozen=True)
class DecorrelationReport:
    """How far the blocks are from the ideal block-i.i.d. model."""

    cross_block_energy: float
    within_block_flatness: float


def decorrelation_report(blocks: SampleBlocks) -> DecorrelationReport:
    """Measure residual correlation between blocks and covariance drift within them.

    cross_block_energy: mean squared entry of the normalized cross-covariance
    between every pair of distinct blocks (columns paired by position, L per
    block); about 1/L for truly independent blocks.

    within_block_flatness: worst relative Frobenius deviation of a half-block
    empirical covariance from its block's covariance; tends to 0 as L grows
    when the covariance really is constant within a block.
    """
    if blocks.L < 2:
        raise InvalidParameterError("need at least 2 columns per block")
    L = blocks.L
    stds = [np.sqrt(np.mean(X * X, axis=1)) for X in blocks.data]

    cross_terms = []
    for b in range(blocks.B):
        for c in range(b + 1, blocks.B):
            cross = (blocks.data[b] @ blocks.data[c].T) / L
            corr = cross / np.outer(stds[b], stds[c])
            cross_terms.append(np.mean(corr**2))
    cross_energy = float(np.mean(cross_terms)) if cross_terms else 0.0

    flat = 0.0
    for X in blocks.data:
        C_full = (X @ X.T) / L
        scale = np.linalg.norm(C_full)
        for half in (X[:, : L // 2], X[:, L // 2:]):
            C_half = (half @ half.T) / half.shape[1]
            flat = max(flat, float(np.linalg.norm(C_half - C_full) / scale))
    return DecorrelationReport(cross_block_energy=cross_energy, within_block_flatness=flat)
