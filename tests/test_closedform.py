import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bohm_squeeze import GridSpec2D, Scenario, TimePolynomial
from bohm_squeeze import closedform as cf
from harness import example1, example2, in_range, traced_peak

SQRT_PI = math.sqrt(math.pi)


def generic():
    return Scenario(m=1.7, r=-0.6, nu=TimePolynomial([0, 0.8, -0.3]), mu=TimePolynomial([0.2, -0.5]))


# ---------------------------------------------------------------------------
# phase


def test_phase_example1_is_xy():
    assert cf.phase_S(example1(), 1.0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert cf.phase_S(example1(), 2.0, -3.0, 0.8) == pytest.approx(-6.0, abs=1e-15)


def test_phase_vanishing_quadratic_part_at_origin():
    s = generic()
    for t in [0.0, 0.5, 2.0]:
        assert cf.phase_S(s, 0.0, 0.0, t) == pytest.approx(s.mu.value(t), abs=1e-15)


def test_phase_example2_is_t_times_sum_squared():
    # nud = 2t and r = 1 collapse the form to t (x + y)^2
    s = example2()
    assert cf.phase_S(s, 1.0, 1.0, 1.0) == pytest.approx(4.0, abs=1e-14)
    for x, y, t in [(0.3, -0.8, 0.7), (1.2, 0.4, 2.0)]:
        assert cf.phase_S(s, x, y, t) == pytest.approx(t * (x + y) ** 2, rel=1e-14)


# ---------------------------------------------------------------------------
# amplitude


def test_amplitude_initial_ground_state():
    for s in [example1(), example2(), generic()]:
        assert cf.amplitude_A(s, 1.0, 1.0, 0.0) == pytest.approx(math.exp(-1.0) / SQRT_PI, rel=1e-14)
        assert cf.amplitude_A(s, 0.0, 0.0, 0.0) == pytest.approx(1.0 / SQRT_PI, rel=1e-14)


def test_amplitude_example1_closed_form():
    # exp[-cosh(2t)(x^2+y^2)/2 + xy sinh(2t)] / sqrt(pi)
    s = example1()
    assert cf.amplitude_A(s, 1.0, 1.0, 1.0) == pytest.approx(
        math.exp(-math.cosh(2.0) + math.sinh(2.0)) / SQRT_PI, rel=1e-14
    )
    x, y, t = 0.4, -1.1, 0.65
    expected = math.exp(-math.cosh(2 * t) * (x * x + y * y) / 2 + x * y * math.sinh(2 * t)) / SQRT_PI
    assert cf.amplitude_A(s, x, y, t) == pytest.approx(expected, rel=1e-14)


def test_amplitude_example2_closed_form():
    # exp(-t^2) exp[-e^{-2t^2} cosh(2t^2)(x^2+y^2)/2 + e^{-2t^2} sinh(2t^2) xy] / sqrt(pi)
    s = example2()
    x, y, t = 0.9, 0.3, 1.2
    n = t * t
    expected = (
        math.exp(-n)
        * math.exp(-math.exp(-2 * n) * (math.cosh(2 * n) * (x * x + y * y) / 2 - math.sinh(2 * n) * x * y))
        / SQRT_PI
    )
    assert cf.amplitude_A(s, x, y, t) == pytest.approx(expected, rel=1e-13)


def test_amplitude_matches_dilated_product_form():
    # the (P, Q) rewrite must equal the literal product
    # (1/sqrt(pi)) e^{-r nu} exp[-s/2 e^{-2 r nu}
    #   - (s tanh^2 nu - 2 x y tanh nu) cosh^2 nu e^{-2 r nu}]
    s = generic()
    rng = np.random.default_rng(7)
    for t in [0.3, 1.0, 1.6]:
        nu = s.nu.value(t)
        scale = math.exp(-2 * s.r * nu)
        th, ch = math.tanh(nu), math.cosh(nu)
        for _ in range(20):
            x, y = rng.uniform(-3, 3, size=2)
            ss = x * x + y * y
            literal = (
                math.exp(-s.r * nu)
                / SQRT_PI
                * math.exp(-ss / 2 * scale - (ss * th * th - 2 * x * y * th) * ch * ch * scale)
            )
            assert cf.amplitude_A(s, x, y, t) == pytest.approx(literal, rel=1e-12)


@settings(max_examples=200)
@given(
    st.floats(min_value=-4, max_value=4, allow_nan=False),
    st.floats(min_value=-4, max_value=4, allow_nan=False),
    st.floats(min_value=-2, max_value=2, allow_nan=False),
)
def test_amplitude_strictly_positive(x, y, t):
    assert cf.amplitude_A(generic(), x, y, t) > 0.0


def test_nu_range_error():
    s = Scenario(m=1.0, r=0.0, nu=TimePolynomial([0, 60]), mu=TimePolynomial([0]))
    with pytest.raises(ValueError, match="exceeds the supported range"):
        cf.amplitude_A(s, 0.0, 0.0, 1.0)
    # the mix parameter scales the dilation exponents, so |r nu| is bounded too
    s = Scenario(m=1.0, r=8.0, nu=TimePolynomial([0, 10]), mu=TimePolynomial([0]))
    with pytest.raises(ValueError, match="exceeds the supported range"):
        cf.bohm_potential(s, 1.0, 1.0, 1.0)



def test_nu_range_guard_edges():
    # each bound is in range and the next float past it is not; a NaN nu
    # fails both bounds (abs(nan) > NU_LIMIT alone would be False)
    s = Scenario(m=1.0, r=0.0, nu=TimePolynomial([0, 1]), mu=TimePolynomial([0]))
    assert s.at(cf.NU_LIMIT).nu == s.at(-cf.NU_LIMIT).nu * -1 == cf.NU_LIMIT
    for t in (np.nextafter(cf.NU_LIMIT, math.inf), np.nextafter(-cf.NU_LIMIT, -math.inf), float("nan")):
        with pytest.raises(ValueError, match="exceeds the supported range"):
            s.at(t)
    # |r nu| reaches the bound first when |r| > 1
    s = Scenario(m=1.0, r=2.0, nu=TimePolynomial([0, 1]), mu=TimePolynomial([0]))
    assert s.at(cf.NU_LIMIT / 2).nu == s.at(-cf.NU_LIMIT / 2).nu * -1 == cf.NU_LIMIT / 2
    for t in (np.nextafter(cf.NU_LIMIT / 2, math.inf), np.nextafter(-cf.NU_LIMIT / 2, -math.inf)):
        with pytest.raises(ValueError, match=r"\(\|r nu\| = 50\) exceeds"):
            s.at(t)
    with pytest.raises(ValueError, match=r"\|nu\(t\)\| = nan"):
        cf.spread_sigmas(s.at(float("nan")))
    # over an array of times, the message names the first time out of range
    ts = np.array([0.0, -cf.NU_LIMIT / 2, 30.0, float("nan"), 40.0])
    with pytest.raises(ValueError, match=r"^\|nu\(t\)\| = 30 \(\|r nu\| = 60\) exceeds the supported range 50 at t = 30$"):
        s.at(ts)
    np.testing.assert_array_equal(s.at(ts[:2]).nu, ts[:2])


@given(st.floats(-4.0, 4.0), st.floats(-80.0, 80.0))
@example(2.0, np.nextafter(cf.NU_LIMIT / 2, math.inf))
@example(-0.5, np.nextafter(cf.NU_LIMIT, math.inf))
@example(-1.0, cf.NU_LIMIT)
def test_nu_range_guard_is_both_bounds(r, t):
    # Scenario.at checks |nu| and |r nu| by one product; it refuses exactly
    # the times where either bound fails
    s = Scenario(m=1.0, r=r, nu=TimePolynomial([0, 1]), mu=TimePolynomial([0]))
    if in_range(s, s.nu.value(t)):
        assert s.at(t).nu == t
    else:
        with pytest.raises(ValueError, match="exceeds the supported range"):
            s.at(t)


def test_negative_squeeze_schedule():
    # nu < 0 squeezes the orthogonal diagonal: roles of u and v swap
    s = Scenario(m=1.0, r=0.0, nu=TimePolynomial([0, -1]), mu=TimePolynomial([0]))
    sigma_u, sigma_v = cf.spread_sigmas(s.at(1.0))
    assert sigma_u == pytest.approx(math.exp(-1.0) / math.sqrt(2.0), rel=1e-14)
    assert sigma_v == pytest.approx(math.exp(1.0) / math.sqrt(2.0), rel=1e-14)
    # amplitude concentrates along x = -y now
    assert cf.amplitude_A(s, 1.0, -1.0, 1.0) > cf.amplitude_A(s, 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# wavefunction


def test_wavefunction_at_initial_time():
    # At t = 0 the amplitude is the ground-state product, and the phase is
    # m nud(0) [r (x^2+y^2)/2 + xy] + mu(0); it vanishes only when nud(0)
    # does.  Example 2 (nu = t^2) starts with zero phase, example 1
    # (nu = t) starts with the xy phase its closed form carries at all
    # times.
    x, y = 0.7, -0.2
    psi2 = cf.wavefunction_psi(example2(), x, y, 0.0)
    assert psi2.imag == pytest.approx(0.0, abs=1e-16)
    assert psi2.real == pytest.approx(math.exp(-(x * x + y * y) / 2) / SQRT_PI, rel=1e-14)

    psi1 = cf.wavefunction_psi(example1(), x, y, 0.0)
    expected = math.exp(-(x * x + y * y) / 2) / SQRT_PI * np.exp(1j * x * y)
    assert psi1 == pytest.approx(expected, rel=1e-14)


def test_wavefunction_example1_value():
    psi = cf.wavefunction_psi(example1(), 1.0, 1.0, 1.0)
    expected = math.exp(-math.cosh(2.0) + math.sinh(2.0)) / SQRT_PI * np.exp(1j)
    assert psi == pytest.approx(expected, rel=1e-13)


def test_density_equals_squared_amplitude():
    s = generic()
    xs = np.linspace(-2, 2, 9)
    x, y = np.meshgrid(xs, xs, indexing="ij")
    psi = cf.wavefunction_psi(s, x, y, 1.1)
    np.testing.assert_allclose(np.abs(psi) ** 2, cf.amplitude_A(s, x, y, 1.1) ** 2, rtol=1e-13)


# ---------------------------------------------------------------------------
# Bohm potential


def test_bohm_origin_value_example1():
    assert cf.bohm_potential(example1(), 0.0, 0.0, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_bohm_example2_point_value():
    expected = -0.5 * math.exp(-4.0) * math.cosh(4.0) + math.exp(-2.0) * math.cosh(2.0)
    assert cf.bohm_potential(example2(), 1.0, 0.0, 1.0) == pytest.approx(expected, rel=1e-14)


def test_bohm_example1_printed_form():
    s = example1()
    for x, y, t in [(0.5, -0.3, 0.4), (1.5, 1.0, 1.0)]:
        expected = -0.5 * (x * x + y * y) * math.cosh(4 * t) + x * y * math.sinh(4 * t) + math.cosh(2 * t)
        assert cf.bohm_potential(s, x, y, t) == pytest.approx(expected, rel=1e-13)


def test_bohm_equals_gaussian_laplacian_identity_at_t0():
    # For the ground-state product, -(lap A)/(2 m A) = (2 - x^2 - y^2)/(2m).
    s = generic()
    for x, y in [(0.0, 0.0), (1.0, 2.0), (-0.5, 0.25)]:
        expected = (2 - x * x - y * y) / (2 * s.m)
        assert cf.bohm_potential(s, x, y, 0.0) == pytest.approx(expected, rel=1e-13, abs=1e-13)


# ---------------------------------------------------------------------------
# external potential


def test_hamilton_jacobi_closure_is_exact():
    # |grad S|^2/(2m) + V_B + V + S_t = 0 in coefficient space.
    for s in [example1(), example2(), generic()]:
        for t in [0.0, 0.3, 1.0, 2.0]:
            total = (
                cf.kinetic_coeffs(s.at(t))
                + cf.bohm_coeffs(s.at(t))
                + cf.external_coeffs(s.at(t))
                + cf.phase_rate_coeffs(s.at(t))
            )
            bohm = cf.bohm_coeffs(s.at(t))
            scale = max(abs(c) for c in ((bohm.c_u + bohm.c_v) / 2, bohm.const, 1.0))
            assert abs(total.c_u) < 1e-12 * scale
            assert abs(total.c_v) < 1e-12 * scale
            assert abs(total.const) < 1e-12 * scale


def test_closure_residual_below_1e9_on_lattice():
    xs = np.linspace(-4, 4, 21)
    x, y = np.meshgrid(xs, xs, indexing="ij")
    for s in [example1(), example2(), generic()]:
        for t in [0.0, 0.5, 1.25]:
            sform = cf.phase_coeffs(s.at(t))
            s_x, s_y = sform.grad(x, y)
            residual = (
                (s_x**2 + s_y**2) / (2 * s.m)
                + cf.bohm_potential(s, x, y, t)
                + cf.external_potential(s, x, y, t)
                + cf.phase_rate_coeffs(s.at(t))(x, y)
            )
            assert np.abs(residual).max() < 1e-9


def test_external_example1_printed_form():
    # ((x^2+y^2)/2)(cosh 4t - 1) - xy sinh 4t - cosh 2t
    s = example1()
    for x, y, t in [(1.0, 0.0, 0.0), (0.7, -0.4, 0.9), (2.0, 1.0, 1.5)]:
        expected = 0.5 * (x * x + y * y) * (math.cosh(4 * t) - 1) - x * y * math.sinh(4 * t) - math.cosh(2 * t)
        assert cf.external_potential(s, x, y, t) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_external_example2_printed_form():
    # [-4t^2 + e^{-4t^2} cosh(4t^2)/2 - 1](x^2+y^2)
    #   + [-8t^2 - e^{-4t^2} sinh(4t^2) - 2] xy - e^{-2t^2} cosh(2t^2)
    s = example2()
    for x, y, t in [(1.0, 0.5, 0.5), (-0.6, 1.1, 1.0)]:
        n = t * t
        expected = (
            (-4 * n + 0.5 * math.exp(-4 * n) * math.cosh(4 * n) - 1) * (x * x + y * y)
            + (-8 * n - math.exp(-4 * n) * math.sinh(4 * n) - 2) * x * y
            - math.exp(-2 * n) * math.cosh(2 * n)
        )
        assert cf.external_potential(s, x, y, t) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_variant_point_value():
    # the sign-variant transcription at (1, 0), t = 0 for example 1:
    # (1/2)(-1 - 2 cosh 0) + 2 cosh 0 = 1/2
    assert cf.external_variant_coeffs(example1().at(0.0))(1.0, 0.0) == pytest.approx(0.5, abs=1e-14)


def test_variant_differs_from_closure_by_bohm_multiple():
    # variant - consistent = (2m + 1) V_B identically
    for s in [example1(), example2(), generic()]:
        for t in [0.0, 0.4, 1.3]:
            diff = cf.external_variant_coeffs(s.at(t)) - cf.external_coeffs(s.at(t))
            vb, k = cf.bohm_coeffs(s.at(t)), 2 * s.m + 1
            assert diff.c_u == pytest.approx(k * vb.c_u, rel=1e-12)
            assert diff.c_v == pytest.approx(k * vb.c_v, rel=1e-12, abs=1e-15)
            assert diff.const == pytest.approx(k * vb.const, rel=1e-12)


def test_external_value_at_origin():
    s = generic()
    for t in [0.0, 0.8]:
        nu = s.nu.value(t)
        expected = -math.exp(-2 * s.r * nu) * math.cosh(2 * nu) / s.m - s.mu.d1(t)
        assert cf.external_potential(s, 0.0, 0.0, t) == pytest.approx(expected, rel=1e-13)


def test_quadform_is_held_by_mode_coefficients():
    assert [f.name for f in dataclasses.fields(cf.QuadForm)] == ["c_u", "c_v", "const"]
    # ln A is one exponential per mode: -exp(-2 (r +- 1) nu)/2
    s = generic()
    nu = s.nu.value(1.1)
    form = cf.log_amplitude_coeffs(s.at(1.1))
    assert form.c_u == pytest.approx(-math.exp(-2 * (s.r + 1) * nu) / 2, rel=1e-15)
    assert form.c_v == pytest.approx(-math.exp(-2 * (s.r - 1) * nu) / 2, rel=1e-15)


FORMS = (
    cf.phase_coeffs,
    cf.phase_rate_coeffs,
    cf.log_amplitude_coeffs,
    cf.bohm_coeffs,
    cf.kinetic_coeffs,
    cf.external_coeffs,
    cf.external_variant_coeffs,
)


@st.composite
def scenario_times(draw):
    """A scenario of any degree up to 3 and a 1-D array of times with |nu| and |r nu| within NU_LIMIT."""
    coeffs = st.lists(st.floats(-5.0, 5.0), max_size=3)
    s = Scenario(
        m=draw(st.floats(0.1, 10.0)),
        r=draw(st.floats(-3.0, 3.0)),
        nu=TimePolynomial([0.0, *draw(coeffs)]),
        mu=TimePolynomial(draw(coeffs)),
    )
    ts = [t for t in draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=20)) if in_range(s, s.nu.value(t))]
    assume(ts)
    return s, np.array(ts)


@settings(max_examples=300, deadline=None)
@given(scenario_times())
def test_forms_over_times_are_the_forms_at_each_time(case):
    # one record over an array of times against a loop of one record per
    # time: each schedule has the times' shape, and every form's
    # coefficients are the scalar calls' within 1 ulp, entry by entry
    s, ts = case
    over, each = s.at(ts), [s.at(float(t)) for t in ts]
    for name in ("nu", "nud", "nudd", "mu", "mud", "e_u", "e_v"):
        assert getattr(over, name).shape == ts.shape
        np.testing.assert_array_max_ulp(getattr(over, name), [getattr(at, name) for at in each], maxulp=1)
    for form in FORMS:
        forms = form(over), [form(at) for at in each]
        for name in ("c_u", "c_v", "const"):
            got = np.broadcast_to(getattr(forms[0], name), ts.shape)
            np.testing.assert_array_max_ulp(got, [getattr(f, name) for f in forms[1]], maxulp=1)


def test_quadform_cartesian_calls_rotate_to_modes():
    # a quadratic form's central differences are exact up to rounding
    form = cf.QuadForm(c_u=0.7, c_v=-1.9, const=0.3)
    rng = np.random.default_rng(3)
    h = 1e-3
    for x, y in rng.uniform(-2, 2, size=(10, 2)):
        u, v = (x + y) / math.sqrt(2), (x - y) / math.sqrt(2)
        assert form(x, y) == pytest.approx(0.7 * u * u - 1.9 * v * v + 0.3, rel=1e-14, abs=1e-14)
        g_x, g_y = form.grad(x, y)
        assert g_x == pytest.approx((form(x + h, y) - form(x - h, y)) / (2 * h), abs=1e-9)
        assert g_y == pytest.approx((form(x, y + h) - form(x, y - h)) / (2 * h), abs=1e-9)
        lap = (form(x + h, y) + form(x - h, y) + form(x, y + h) + form(x, y - h) - 4 * form(x, y)) / h**2
        assert form.laplacian == pytest.approx(lap, abs=1e-6)


# ---------------------------------------------------------------------------
# conic classification


def test_bohm_conics_at_reference_points():
    c = cf.classify_level_curves_bohm(example1(), 0.0)
    assert c.discriminant == pytest.approx(-0.25, rel=1e-14)
    assert c.minor33 == pytest.approx(0.25, rel=1e-14)
    assert c.classification == "ellipse"

    c = cf.classify_level_curves_bohm(example2(), 1.0)
    assert c.discriminant == pytest.approx(-math.exp(-10.0) * math.cosh(2.0) / 4.0, rel=1e-13)
    assert c.minor33 == pytest.approx(math.exp(-8.0) / 4.0, rel=1e-13)
    assert c.classification == "ellipse"


def test_bohm_conics_always_elliptic():
    rng = np.random.default_rng(11)
    for _ in range(50):
        s = Scenario(
            m=float(rng.uniform(0.4, 2.5)),
            r=float(rng.uniform(-1, 1)),
            nu=TimePolynomial([0, rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2)]),
            mu=TimePolynomial([rng.uniform(-1, 1)]),
        )
        for t in rng.uniform(0, 3, size=4):
            c = cf.classify_level_curves_bohm(s, float(t))
            assert c.classification == "ellipse"
            assert c.discriminant < 0 and c.minor33 > 0


def test_external_conic_hyperbolic_at_late_times():
    # cosh(4t) dominates the quadratic part while the cross term keeps the
    # opposite sign, so the level curves open up into hyperbolas.
    c = cf.classify_level_curves_external(example1(), 2.0, level=0.0)
    assert c.classification == "hyperbola"
    assert c.minor33 < 0


def test_external_conic_degenerate_at_t0_example1():
    # at t = 0 the quadratic part of V vanishes identically
    c = cf.classify_level_curves_external(example1(), 0.0, level=0.0)
    assert c.minor33 == 0.0
    assert c.classification == "parabola-degenerate"


def test_external_conic_point_degenerate_level():
    # a level equal to the vertex value collapses the ellipse/hyperbola
    s = example1()
    form = cf.external_coeffs(s.at(2.0))
    c = cf.classify_level_curves_external(s, 2.0, level=form.const)
    assert c.discriminant == 0.0
    assert c.classification == "degenerate-lines"


# ---------------------------------------------------------------------------
# grids and sampling


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec2D(1.0, -1.0, -1.0, 1.0, 11, 11)
    with pytest.raises(ValueError, match=r"^grids need at least 3 samples per axis$"):
        GridSpec2D(-1.0, 1.0, -1.0, 1.0, 2, 11)


def test_auto_grid_covers_and_resolves():
    s = example1()
    g = cf.auto_grid(s, 1.0)
    sigma_u, sigma_v = cf.spread_sigmas(s.at(1.0))
    assert g.x_max >= 7.5 * sigma_u / math.sqrt(2) - 1e-12
    assert g.hx <= sigma_v / 2 + 1e-12
    assert g.nx % 2 == 1


def test_auto_grid_raises_when_infeasible():
    with pytest.raises(ValueError, match="auto grid"):
        cf.auto_grid(example2(), 2.0)  # nu = 4: cartesian grid would need ~10^5 points/axis


def _edge_times(holds, lo: float, hi: float) -> tuple[float, float]:
    """Adjacent floats lo < hi with ``holds(lo)`` and not ``holds(hi)``, by bisection."""
    assert holds(lo) and not holds(hi)
    while math.nextafter(lo, hi) != hi:
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return lo, hi


def test_auto_grid_cap_edge():
    # example 1's count grows with t: the last time accepted lands on the
    # cap, and the next float needs the next odd count, refused by name
    s = example1()

    def fits(t: float) -> bool:
        try:
            cf.auto_grid(s, t)
        except ValueError:
            return False
        return True

    lo, hi = _edge_times(fits, 1.0, 5.0)
    assert cf.auto_grid(s, lo).nx == cf.AUTO_N_CAP == 1401
    with pytest.raises(ValueError, match=r"needs 1403 points per axis \(cap 1401\)"):
        cf.auto_grid(s, hi)


def test_auto_grid_floor_edge():
    # at t = 0 the spacing rule alone asks 31 points (15 spacings of
    # sigma/2 each side of 7.5 sigma); the floor holds the count at 61
    # until the rule needs more, then the count moves on to 63
    s = example1()
    g0 = cf.auto_grid(s, 0.0)
    assert g0.nx == cf.AUTO_N_MIN == 61
    assert round(2.0 * g0.x_max / (math.sqrt(0.5) / cf.AUTO_POINTS_PER_SIGMA)) + 1 == 31
    lo, hi = _edge_times(lambda t: cf.auto_grid(s, t).nx == 61, 0.0, 1.0)
    assert cf.auto_grid(s, hi).nx == 63


def test_sample_density_shape_and_value():
    s = example1()
    g = GridSpec2D.square(3.0, 11)
    f = cf.sample_density(s, g, 0.0)
    assert f.values.shape == (11, 11)
    x, y = g.mesh()
    np.testing.assert_allclose(f.values, np.exp(-(x**2 + y**2)) / math.pi, rtol=1e-12)


@pytest.mark.parametrize("sampler", [cf.sample_density, cf.sample_bohm, cf.sample_external])
def test_samplers_hold_at_most_four_and_a_half_grid_arrays(sampler):
    # on fig1's 601^2 grid: the samplers broadcast the x column against the
    # y row, so the modes u and v are the first grid-sized arrays and the
    # form's two products the only others (4 arrays); a meshgrid adds 2
    s, grid = example1(), GridSpec2D.square(6.0, 601)
    sampler(s, grid, 1.0)
    field, peak = traced_peak(lambda: sampler(s, grid, 1.0))
    assert peak <= 4.5 * field.values.nbytes


def test_field_rejects_a_shape_that_is_not_the_grid():
    with pytest.raises(ValueError) as refused:
        cf.ScalarField2D(grid=GridSpec2D(-1.0, 1.0, 0.0, 1.0, 5, 3), t=0.0, values=np.zeros((3, 5)))
    assert str(refused.value) == "field shape (3, 5) does not match grid (5, 3)"


def test_field_rejects_nonfinite():
    g = GridSpec2D.square(1.0, 5)
    bad = np.full((5, 5), np.inf)
    with pytest.raises(ValueError, match="non-finite"):
        cf.ScalarField2D(grid=g, t=0.0, values=bad)
