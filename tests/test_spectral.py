import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import eval_hermite

from bohm_squeeze import Scenario, TimePolynomial, amplitude_A
from bohm_squeeze import spectral as sp


# ---------------------------------------------------------------------------
# Hermite functions


def hermite_phi(n: int, eta):
    """Normalized oscillator eigenfunction phi_n(eta), the last row of the table."""
    value = sp.hermite_phi_table(n, eta)[n]
    return float(value) if np.ndim(eta) == 0 else value


def brute_force_phi(n: int, eta: float) -> float:
    """Direct normalized eigenfunction from the raw Hermite polynomial."""
    norm = math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
    return float(eval_hermite(n, eta)) * math.exp(-0.5 * eta * eta) / norm


def test_phi0_at_origin():
    assert hermite_phi(0, 0.0) == pytest.approx(math.pi**-0.25, rel=1e-15)


def test_phi_odd_vanishes_at_origin():
    for n in [1, 3, 7]:
        assert hermite_phi(n, 0.0) == 0.0


def test_phi5_matches_direct_formula():
    # H5(x) = 32 x^5 - 160 x^3 + 120 x
    eta = 1.3
    h5 = 32 * eta**5 - 160 * eta**3 + 120 * eta
    direct = h5 * math.exp(-0.5 * eta * eta) / math.sqrt(2.0**5 * 120 * math.sqrt(math.pi))
    assert hermite_phi(5, eta) == pytest.approx(direct, rel=1e-13)
    assert direct == pytest.approx(brute_force_phi(5, eta), rel=1e-13)


@given(
    st.integers(min_value=0, max_value=25),
    st.floats(min_value=-6, max_value=6, allow_nan=False),
)
def test_phi_matches_raw_polynomial_route(n, eta):
    assert hermite_phi(n, eta) == pytest.approx(brute_force_phi(n, eta), rel=1e-10, abs=1e-12)


def test_recurrence_stays_finite_at_high_order():
    etas = np.linspace(-20, 20, 81)
    table = sp.hermite_phi_table(512, etas)
    assert np.all(np.isfinite(table))
    assert np.abs(table).max() < 10.0


def test_orthonormality_spot_check():
    # fine trapezoid on [-20, 20]; the integrand decays far below 1e-8 there
    eta = np.linspace(-20, 20, 8001)
    table = sp.hermite_phi_table(10, eta)
    h = eta[1] - eta[0]
    gram = table @ table.T * h
    np.testing.assert_allclose(gram, np.eye(11), atol=1e-8)


# ---------------------------------------------------------------------------
# series vs closed forms


def test_series_single_term_at_zero_squeeze():
    x, y = 0.4, -1.2
    assert sp.series_amplitude_r0(x, y, 0.0, 0) == pytest.approx(
        hermite_phi(0, x) * hermite_phi(0, y), rel=1e-14
    )
    assert sp.series_amplitude_r0(x, y, 0.0, 40) == pytest.approx(
        hermite_phi(0, x) * hermite_phi(0, y), rel=1e-14
    )


def test_series_matches_kernel_closed_form():
    assert sp.series_amplitude_r0(0.3, -0.2, 0.5, 60) == pytest.approx(
        sp.mehler_closed(0.3, -0.2, math.tanh(0.5)), abs=1e-12
    )


def test_series_triangle_on_lattice_moderate_squeeze():
    xs = np.linspace(-3, 3, 41)
    x, y = np.meshgrid(xs, xs, indexing="ij")
    for nu in [0.25, 0.5]:
        series = sp.series_amplitude_r0(x, y, nu, 60)
        kernel = sp.mehler_closed(x, y, math.tanh(nu))
        assert np.abs(series - kernel).max() < 1e-10


def test_series_tail_at_strong_squeeze():
    # At nu = 1 the 60-term tail is ~5e-9; going to N = 90 restores 1e-10.
    xs = np.linspace(-3, 3, 41)
    x, y = np.meshgrid(xs, xs, indexing="ij")
    kernel = sp.mehler_closed(x, y, math.tanh(1.0))
    gap60 = np.abs(sp.series_amplitude_r0(x, y, 1.0, 60) - kernel).max()
    assert 1e-10 < gap60 < 1e-7
    gap90 = np.abs(sp.series_amplitude_r0(x, y, 1.0, 90) - kernel).max()
    assert gap90 < 1e-10


def test_kernel_equals_closed_form_amplitude_r0():
    xs = np.linspace(-3, 3, 41)
    x, y = np.meshgrid(xs, xs, indexing="ij")
    for nu in [0.25, 0.5, 1.0]:
        s = Scenario(m=1.0, r=0.0, nu=TimePolynomial([0, nu]), mu=TimePolynomial([0]))
        closed = amplitude_A(s, x, y, 1.0)
        kernel = sp.mehler_closed(x, y, math.tanh(nu))
        assert np.abs(kernel - closed).max() < 1e-13


def test_kernel_reduces_to_ground_state():
    x, y = 0.8, -0.3
    assert sp.mehler_closed(x, y, 0.0) == pytest.approx(
        math.exp(-(x * x + y * y) / 2) / math.sqrt(math.pi), rel=1e-14
    )


def test_kernel_diagonal_correlation_at_high_rho():
    # near rho = 1 the kernel concentrates on x = y: finite positive on the
    # diagonal, essentially zero on the anti-diagonal
    on_diag = sp.mehler_closed(1.0, 1.0, 0.99)
    off_diag = sp.mehler_closed(1.0, -1.0, 0.99)
    assert math.isfinite(on_diag) and on_diag > 0.1
    assert 0.0 <= off_diag < 1e-40


def test_kernel_domain_error():
    for rho in [1.0, -1.0, 1.5]:
        with pytest.raises(ValueError, match="rho"):
            sp.mehler_closed(0.0, 0.0, rho)


def test_series_rejects_negative_order():
    with pytest.raises(ValueError):
        sp.series_amplitude_r0(0.0, 0.0, 0.5, -1)


# ---------------------------------------------------------------------------
# Schmidt spectrum and entropy


def test_schmidt_zero_squeeze_is_separable():
    spec = sp.schmidt_spectrum(0.0, 10)
    assert spec.lambdas[0] == 1.0
    assert np.all(spec.lambdas[1:] == 0.0)
    assert spec.tail_mass == 0.0


def test_schmidt_leading_eigenvalue():
    spec = sp.schmidt_spectrum(1.0, 50)
    assert spec.lambdas[0] == pytest.approx(1 / math.cosh(1.0) ** 2, rel=1e-14)
    assert spec.lambdas[0] == pytest.approx(0.419974, abs=1e-6)


@given(st.floats(min_value=-3, max_value=3, allow_nan=False), st.integers(min_value=1, max_value=400))
def test_schmidt_normalization(nu, n):
    spec = sp.schmidt_spectrum(nu, n)
    assert abs(math.fsum(spec.lambdas.tolist()) + spec.tail_mass - 1.0) < 1e-12
    assert np.all(spec.lambdas >= 0.0)
    # strictly decreasing on the representable (non-underflowed) prefix
    positive = spec.lambdas[spec.lambdas > 0.0]
    if nu != 0.0:
        assert np.all(np.diff(positive) < 0.0)


def test_entropy_zero_at_zero_squeeze():
    assert sp.entanglement_entropy(sp.schmidt_spectrum(0.0, 5)) == 0.0
    assert sp.entropy_closed_form(0.0) == 0.0


def test_entropy_sum_matches_closed_form():
    for nu in [0.3, 1.0, 1.7, 2.0]:
        spec = sp.schmidt_spectrum(nu, 600)
        assert sp.entanglement_entropy(spec) == pytest.approx(sp.entropy_closed_form(nu), abs=1e-9)


def test_entropy_strictly_increasing():
    nus = np.linspace(0.0, 2.0, 41)
    values = [sp.entropy_closed_form(float(n)) for n in nus]
    assert np.all(np.diff(values) > 0.0)
    summed = [sp.entanglement_entropy(sp.schmidt_spectrum(float(n), 600)) for n in nus]
    assert np.all(np.diff(summed) > 0.0)


def test_entropy_requires_small_tail():
    spec = sp.schmidt_spectrum(2.0, 20)  # tail ~ tanh(2)^40 ~ 0.22
    with pytest.raises(ValueError, match="tail"):
        sp.entanglement_entropy(spec)
