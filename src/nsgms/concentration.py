"""Tail bound and moment generating function for Gaussian quadratic forms.

The object of study is y = sum_j a_j z_j^2 + b_j z_j with i.i.d. standard
normal z_j.  The closed-form per-coordinate MGF and the resulting
two-sided deviation bound

    P{ |y - E y| >= eta }  <=  2 exp( -(eta^2/8) / (||a||^2 + ||b||^2 + ||a||_inf * eta) )

are implemented literally, together with Monte Carlo validators for both.
The bound is returned raw (it exceeds 1 for small eta); only negativity is
impossible by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFormError, InvalidParameterError


@dataclass(frozen=True)
class QuadraticForm:
    """Coefficient vectors of the quadratic and linear parts."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if a.shape != b.shape or a.ndim != 1:
            raise InvalidParameterError(f"coefficient shapes differ: {a.shape} vs {b.shape}")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise InvalidParameterError("coefficients must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def mean(self) -> float:
        """E{y} = sum_j a_j."""
        return float(self.a.sum())

    def is_degenerate(self) -> bool:
        return not (np.any(self.a) or np.any(self.b))


def _check_eta(eta: float) -> None:
    """Reject a deviation level that is not a finite eta > 0 (NaN included)."""
    if not (math.isfinite(eta) and eta > 0):
        raise InvalidParameterError(f"need a finite eta > 0, got {eta}")


def tail_bound(form: QuadraticForm, eta: float) -> float:
    """Two-sided deviation bound at level eta; raw value, possibly above 1."""
    _check_eta(eta)
    if form.is_degenerate():
        raise DegenerateFormError("both coefficient vectors are zero")
    a, b = form.a, form.b
    denom = float(a @ a + b @ b + np.abs(a).max() * eta)
    if denom == 0.0:
        # squared tiny coefficients can underflow; the bound's limit is 0
        return 0.0
    return 2.0 * math.exp(-(eta * eta / 8.0) / denom)


def mgf_term(a_i: float, b_i: float, lam: float) -> float:
    """E{ exp(lam * (a z^2 + b z)) } for standard normal z.

    Closed form: exp(lam^2 b^2 / (2 (1 - 2 lam a))) / sqrt(1 - 2 lam a),
    valid while 1 - 2 lam a > 0.
    """
    denom = 1.0 - 2.0 * lam * a_i
    if denom <= 0:
        raise InvalidParameterError(
            f"need 1 - 2*lam*a > 0, got lam={lam}, a={a_i}"
        )
    return math.exp(lam * lam * b_i * b_i / (2.0 * denom)) / math.sqrt(denom)


def _draw_y(form: QuadraticForm, trials: int, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = form.a.shape[0]
    # Chunked so large (trials x n) products stay inside a modest footprint.
    chunk = max(1, int(4e6) // n)
    out = np.empty(trials)
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        z = rng.standard_normal((m, n))
        out[done:done + m] = (z * z) @ form.a + z @ form.b
        done += m
    return out


def empirical_tail(form: QuadraticForm, eta: float, trials: int, seed) -> float:
    """Fraction of Monte Carlo draws with |y - E y| >= eta."""
    if trials < 1:
        raise InvalidParameterError(f"need trials >= 1, got {trials}")
    _check_eta(eta)
    y = _draw_y(form, trials, seed)
    return float(np.mean(np.abs(y - form.mean) >= eta))


def mgf_empirical(a_i: float, b_i: float, lam: float, trials: int, seed) -> float:
    """Monte Carlo average of exp(lam * (a z^2 + b z))."""
    if trials < 1:
        raise InvalidParameterError(f"need trials >= 1, got {trials}")
    if lam == 0.0:
        return 1.0
    rng = np.random.default_rng(seed)
    total = 0.0
    done = 0
    while done < trials:
        m = min(4_000_000, trials - done)
        z = rng.standard_normal(m)
        total += float(np.exp(lam * (a_i * z * z + b_i * z)).sum())
        done += m
    return total / trials
