"""DFT front-end mapping a stationary record to approximately i.i.d. blocks.

A length-N stationary vector series is transformed coordinate-wise with one
unitary real DFT (``rfft``).  It gives frequencies 0..N//2 only: for real
input every other coefficient is the conjugate of one of these.  They are
written straight into N real columns: the DC (and, for even N, Nyquist)
coefficient as-is, and for every frequency 0 < k < N/2 sqrt(2)*Re and
sqrt(2)*Im as two adjacent columns.  That keeps total energy exactly and
preserves second-order structure, since the real and imaginary parts of a
proper Gaussian coefficient each carry half the spectral covariance.
Columns are ordered by increasing frequency and cut into W contiguous
blocks of length L = N/W, over which the spectral density of a series with
correlation width W is approximately flat.  The transform holds the half
spectrum and the columns, about twice the record.

The report quantifies how block-i.i.d. the output actually is; both
metrics are diagnostics of this package, with calibration thresholds
rather than theoretical guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .graph import _positive_int
from .sampling import SampleBlocks


@dataclass(frozen=True)
class StationarySeries:
    """Real p x N record treated as one stationary stretch, with width hint W.

    p, N and W are positive integers, by the rule :class:`~nsgms.graph.Cig`
    and :class:`~nsgms.model.BlockModel` apply to their sizes.  The record
    must be finite: ``decorrelate`` writes its blocks without forming a Gram
    matrix, so no later check would see a NaN or infinity.
    """

    p: int
    N: int
    data: np.ndarray
    W: int

    def __post_init__(self):
        for name in ("p", "N", "W"):
            object.__setattr__(self, name, _positive_int(getattr(self, name), name))
        if self.data.shape != (self.p, self.N):
            raise InvalidParameterError(f"data shape {self.data.shape} != ({self.p}, {self.N})")
        if not np.all(np.isfinite(self.data)):
            raise InvalidParameterError("record contains non-finite values")
        if self.N % self.W != 0:
            raise InvalidParameterError(
                f"correlation width W={self.W} must divide N={self.N}"
            )


def to_block_samples(series: StationarySeries) -> SampleBlocks:
    """Frequency-domain repackaging into B = W blocks of L = N/W real columns."""
    p, N = series.p, series.N
    paired = slice(1, (N + 1) // 2)  # frequencies 0 < k < N/2, each standing for its conjugate too
    # A finite record near the float64 limit can overflow without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        spectrum = np.fft.rfft(series.data, axis=1, norm="ortho")  # frequencies 0..N//2
        spectrum[:, paired] *= np.sqrt(2.0)
    if not np.all(np.isfinite(spectrum)):
        raise InvalidParameterError("DFT of the record overflows to non-finite values")
    cols = np.empty((p, N))
    cols[:, 0] = spectrum[:, 0].real  # DC, real for real input
    cols[:, 1::2] = spectrum[:, 1:].real  # for even N the last is Nyquist, real too
    cols[:, 2::2] = spectrum[:, paired].imag
    B, L = series.W, N // series.W
    # Block b is columns b*L..(b+1)*L-1: a (B, p, L) view of the (p, N) array.
    return SampleBlocks(p=p, B=B, L=L, data=cols.reshape(p, B, L).swapaxes(0, 1))


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
