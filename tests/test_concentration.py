"""Tail bound and moment generating function of Gaussian quadratic forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsgms import QuadraticForm, empirical_tail, mgf_empirical, mgf_term, tail_bound
from nsgms.errors import DegenerateFormError, InvalidParameterError


def test_form_validation():
    with pytest.raises(InvalidParameterError):
        QuadraticForm(a=np.ones(3), b=np.ones(2))
    with pytest.raises(InvalidParameterError):
        QuadraticForm(a=np.array([np.inf]), b=np.array([0.0]))
    form = QuadraticForm(a=np.array([1.0, 2.0]), b=np.zeros(2))
    assert form.mean == 3.0


def test_tail_bound_hand_value():
    form = QuadraticForm(a=np.array([1.0]), b=np.array([0.0]))
    assert tail_bound(form, 2.0) == pytest.approx(2.0 * math.exp(-1.0 / 6.0))
    assert tail_bound(form, 2.0) == pytest.approx(1.693, abs=1e-3)


def test_tail_bound_limits_and_scaling():
    form = QuadraticForm(a=np.array([0.5, -0.25]), b=np.array([1.0, 2.0]))
    assert tail_bound(form, 1e-9) == pytest.approx(2.0)
    c = 3.0
    scaled = QuadraticForm(a=c * form.a, b=c * form.b)
    assert tail_bound(scaled, c * 1.7) == pytest.approx(tail_bound(form, 1.7), rel=1e-12)


def test_tail_bound_symmetric_in_b():
    a = np.array([0.2, -0.3, 0.1])
    form = QuadraticForm(a=a, b=np.array([1.0, -2.0, 0.5]))
    perm = QuadraticForm(a=a, b=np.array([-2.0, 0.5, 1.0]))
    # depends on b only through its norm when a is unchanged elementwise in magnitude
    assert tail_bound(form, 1.3) == tail_bound(perm, 1.3)


def test_tail_bound_degenerate_and_bad_eta():
    form = QuadraticForm(a=np.zeros(2), b=np.zeros(2))
    assert form.is_degenerate()
    with pytest.raises(DegenerateFormError):
        tail_bound(form, 1.0)
    with pytest.raises(InvalidParameterError):
        tail_bound(QuadraticForm(a=np.ones(1), b=np.zeros(1)), 0.0)


@pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_tail_bound_and_empirical_tail_need_a_finite_positive_eta(eta):
    # NaN and infinity used to pass an ``eta <= 0`` check: a row of nan, or a warning.
    form = QuadraticForm(a=np.ones(2), b=np.zeros(2))
    with pytest.raises(InvalidParameterError, match="finite eta"):
        tail_bound(form, eta)
    with pytest.raises(InvalidParameterError, match="finite eta"):
        empirical_tail(form, eta, 100, 0)


def test_mgf_term_closed_forms():
    assert mgf_term(0.7, 1.3, 0.0) == 1.0
    assert mgf_term(0.0, 1.0, 1.0) == pytest.approx(math.exp(0.5))
    assert mgf_term(0.5, 0.0, 0.5) == pytest.approx(math.sqrt(2.0))
    with pytest.raises(InvalidParameterError):
        mgf_term(1.0, 0.0, 0.5)


def test_empirical_tail_vanishes_far_out():
    form = QuadraticForm(a=np.array([0.1]), b=np.array([0.1]))
    assert empirical_tail(form, 1e6, 1000, 0) == 0.0


def test_empirical_tail_matches_normal_cdf():
    form = QuadraticForm(a=np.array([0.0]), b=np.array([1.0]))
    freq = empirical_tail(form, 1.959963984540054, 10**5, 42)
    assert freq == pytest.approx(0.05, abs=0.005)


def test_empirical_tail_deterministic():
    form = QuadraticForm(a=np.array([0.3, -0.2]), b=np.array([1.0, 0.5]))
    assert empirical_tail(form, 1.0, 5000, 9) == empirical_tail(form, 1.0, 5000, 9)


def test_bound_dominates_empirical_tail():
    rng = np.random.default_rng(6)
    for _ in range(5):
        n = int(rng.integers(1, 17))
        form = QuadraticForm(a=rng.uniform(-1, 1, n), b=rng.uniform(-1, 1, n))
        scale = np.linalg.norm(form.a) + np.linalg.norm(form.b)
        for eta in np.geomspace(0.1, 10.0, 6) * scale:
            emp = empirical_tail(form, float(eta), 20_000, int(rng.integers(2**63)))
            slack = 3.0 * math.sqrt(max(emp * (1 - emp), 1e-12) / 20_000)
            assert emp <= tail_bound(form, float(eta)) + slack


def test_mgf_empirical_matches_closed_form():
    assert mgf_empirical(0.3, 0.4, 0.0, 10, 0) == 1.0
    assert mgf_empirical(0.0, 1.0, 1.0, 10**6, 1) == pytest.approx(math.exp(0.5), rel=0.01)
    assert mgf_empirical(0.5, 0.0, 0.5, 10**6, 2) == pytest.approx(math.sqrt(2.0), rel=0.01)


def test_mgf_product_rule():
    # For independent coordinates the joint MGF factorizes.
    a = np.array([0.2, -0.4])
    b = np.array([0.5, 1.0])
    lam = 0.4
    rng = np.random.default_rng(3)
    z = rng.standard_normal((200_000, 2))
    joint = float(np.mean(np.exp(lam * ((z * z) @ a + z @ b))))
    product = mgf_term(a[0], b[0], lam) * mgf_term(a[1], b[1], lam)
    assert joint == pytest.approx(product, rel=0.02)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-1, 1), min_size=1, max_size=8),
    st.lists(st.floats(-1, 1), min_size=1, max_size=8),
    st.floats(0.01, 50.0),
)
def test_tail_bound_in_valid_range(a, b, eta):
    n = min(len(a), len(b))
    form = QuadraticForm(a=np.array(a[:n]), b=np.array(b[:n]))
    if form.is_degenerate():
        return
    v = tail_bound(form, eta)
    # the exponential can underflow to exactly zero for extreme eta
    assert 0.0 <= v <= 2.0
