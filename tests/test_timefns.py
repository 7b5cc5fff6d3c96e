import math
import struct

import pytest
from hypothesis import given, strategies as st

from bohm_squeeze import Scenario, TimePolynomial


def test_value_linear():
    assert TimePolynomial([0, 1]).value(2.0) == 2.0
    assert TimePolynomial([0, 1]).value(0.0) == 0.0


def test_value_quadratic():
    assert TimePolynomial([0, 0, 1]).value(3.0) == 9.0


def test_first_derivative():
    assert TimePolynomial([0, 1]).d1(5.0) == 1.0
    assert TimePolynomial([0, 0, 1]).d1(2.0) == 4.0
    assert TimePolynomial([0]).d1(17.3) == 0.0


def test_second_derivative():
    assert TimePolynomial([0, 1]).d2(-4.0) == 0.0
    assert TimePolynomial([0, 0, 1]).d2(11.0) == 2.0
    # d^2/dt^2 (t + t^2) = 2, checked below by finite differences too
    assert TimePolynomial([0, 1, 1]).d2(1.0) == 2.0


def test_second_derivative_matches_finite_difference():
    poly = TimePolynomial([0, 1, 1])
    h = 1e-5
    fd = (poly.value(1 + h) - 2 * poly.value(1.0) + poly.value(1 - h)) / h**2
    assert abs(fd - poly.d2(1.0)) < 1e-5


coeff_lists = st.lists(
    st.floats(min_value=-5, max_value=5, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=6,
)
times = st.floats(min_value=-3, max_value=3, allow_nan=False, allow_infinity=False)


@given(coeff_lists, times)
def test_d1_matches_central_difference(coeffs, t):
    poly = TimePolynomial(coeffs)
    h = 1e-4
    fd = (poly.value(t + h) - poly.value(t - h)) / (2 * h)
    scale = 1.0 + max(abs(c) for c in coeffs)
    assert abs(fd - poly.d1(t)) < 1e-5 * scale


@given(coeff_lists, times)
def test_d2_matches_second_difference(coeffs, t):
    poly = TimePolynomial(coeffs)
    h = 1e-4
    fd = (poly.value(t + h) - 2 * poly.value(t) + poly.value(t - h)) / h**2
    scale = 1.0 + max(abs(c) for c in coeffs)
    assert abs(fd - poly.d2(t)) < 1e-4 * scale


def reference_loops(coeffs, t):
    """value, d1 and d2 as three separate Horner loops, one per derivative."""
    value = d1 = d2 = 0.0
    for c in reversed(coeffs):
        value = value * t + c
    for k in range(len(coeffs) - 1, 0, -1):
        d1 = d1 * t + k * coeffs[k]
    for k in range(len(coeffs) - 1, 1, -1):
        d2 = d2 * t + k * (k - 1) * coeffs[k]
    return value, d1, d2


# signed zeros, subnormals and magnitudes up to 1e+-300; sums may overflow to
# inf and inf - inf give NaN, which both sides must give alike
wide_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e300]),
    st.floats(min_value=-1e300, max_value=1e300),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10, 10), st.integers(-300, 290)),
)


@given(st.lists(wide_floats, min_size=1, max_size=8), wide_floats)
def test_derivatives_match_reference_loops_bit_for_bit(coeffs, t):
    # reports print these values with 17 digits, so they must not move by a bit
    poly = TimePolynomial(coeffs)
    got = (poly.value(t), poly.d1(t), poly.d2(t))
    assert [struct.pack("<d", x) for x in got] == [struct.pack("<d", x) for x in reference_loops(poly.coeffs, t)]


def test_empty_coefficients_become_zero_polynomial():
    poly = TimePolynomial([])
    assert poly.value(3.0) == 0.0 and poly.coeffs == (0.0,)


def test_scenario_rejects_nonzero_initial_squeeze():
    with pytest.raises(ValueError, match="nu"):
        Scenario(m=1.0, r=0.0, nu=TimePolynomial([0.5, 1]), mu=TimePolynomial([0]))


def test_scenario_rejects_bad_mass():
    with pytest.raises(ValueError, match="mass"):
        Scenario(m=0.0, r=0.0, nu=TimePolynomial([0, 1]), mu=TimePolynomial([0]))
    with pytest.raises(ValueError, match="mass"):
        Scenario(m=-2.0, r=0.0, nu=TimePolynomial([0, 1]), mu=TimePolynomial([0]))


def test_scenario_rejects_non_finite_r():
    for r in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError) as refused:
            Scenario(m=1.0, r=r, nu=TimePolynomial([0, 1]), mu=TimePolynomial([0]))
        assert str(refused.value) == f"mix parameter r must be finite, got {r}"


def test_mu_may_have_constant_term():
    s = Scenario(m=1.0, r=0.0, nu=TimePolynomial([0, 1]), mu=TimePolynomial([0.7]))
    assert s.mu.value(0.0) == 0.7
