import math
import warnings

import numpy as np
import pytest

from bohm_squeeze import GridSpec2D, Scenario, TimePolynomial
from bohm_squeeze import closedform as cf
from bohm_squeeze import verify


def example1():
    return Scenario(m=1.0, r=0.0, nu=TimePolynomial([0, 1]), mu=TimePolynomial([0]))


def example2():
    return Scenario(m=1.0, r=1.0, nu=TimePolynomial([0, 0, 1]), mu=TimePolynomial([0]))


# ---------------------------------------------------------------------------
# Bohm potential from the sampled amplitude


def test_bohm_from_amplitude_ground_state():
    # exact check against the Gaussian identity V_B = 1 - (x^2+y^2)/2 at t=0
    s = example1()
    grid = verify.residual_grid(s, 0.0)
    fd = verify.bohm_from_amplitude(cf.sample_amplitude(s, grid, 0.0), s.m)
    x, y = fd.grid.mesh()
    exact = 1.0 - (x * x + y * y) / 2.0
    assert np.abs(fd.values - exact).max() < 1e-4
    # center error is the pure stencil term h^2/4 for the unit Gaussian
    center = fd.values[fd.grid.nx // 2, fd.grid.ny // 2]
    assert center == pytest.approx(1.0 - grid.hx**2 / 4.0, abs=1e-8)


def test_bohm_from_amplitude_matches_closed_form():
    s = example1()
    grid = verify.residual_grid(s, 1.0)
    rep = verify.bohm_definition_residual(s, 1.0, grid)
    assert rep.max_abs_residual < 1e-4
    assert rep.equation == "bohm_definition"


def test_bohm_from_amplitude_second_order():
    s = example1()
    g1 = verify.residual_grid(s, 0.5, n=101)
    g2 = GridSpec2D(g1.x_min, g1.x_max, g1.y_min, g1.y_max, 201, 201)
    r1 = verify.bohm_definition_residual(s, 0.5, g1)
    r2 = verify.bohm_definition_residual(s, 0.5, g2)
    assert 3.5 < r1.max_abs_residual / r2.max_abs_residual < 4.5


def test_bohm_from_amplitude_guards():
    s = example1()
    with pytest.raises(ValueError, match="5 samples"):
        verify.bohm_from_amplitude(cf.sample_amplitude(s, GridSpec2D.square(1.0, 4), 0.0), s.m)
    with pytest.raises(ValueError, match="mass"):
        verify.bohm_from_amplitude(cf.sample_amplitude(s, GridSpec2D.square(1.0, 9), 0.0), 0.0)
    # amplitude underflow on an absurdly wide box
    wide = GridSpec2D.square(60.0, 9)
    with pytest.raises(ValueError, match="underflow"):
        verify.bohm_from_amplitude(cf.sample_amplitude(s, wide, 0.0), s.m)


def test_bohm_from_amplitude_interior_grid():
    s = example1()
    grid = GridSpec2D.square(1.0, 11)
    fd = verify.bohm_from_amplitude(cf.sample_amplitude(s, grid, 0.3), s.m)
    assert fd.grid.nx == 9
    assert fd.grid.x_min == pytest.approx(grid.xs()[1])
    assert fd.grid.x_max == pytest.approx(grid.xs()[-2])


# ---------------------------------------------------------------------------
# PDE residuals


@pytest.mark.parametrize("scenario_fn,t", [(example1, 0.5), (example1, 1.0), (example2, 0.5), (example2, 1.0)])
def test_continuity_residual_small(scenario_fn, t):
    s = scenario_fn()
    rep = verify.continuity_residual(s, t, verify.residual_grid(s, t))
    assert rep.max_abs_residual < 1e-4
    assert rep.rms_residual <= rep.max_abs_residual


@pytest.mark.parametrize("scenario_fn,t", [(example1, 0.5), (example2, 1.0)])
def test_schrodinger_residual_small(scenario_fn, t):
    s = scenario_fn()
    rep = verify.schrodinger_residual(s, t, verify.residual_grid(s, t))
    assert rep.max_abs_residual < 1e-4


def test_schrodinger_residual_second_order():
    s = example1()
    g1 = verify.residual_grid(s, 0.5, n=101)
    g2 = GridSpec2D(g1.x_min, g1.x_max, g1.y_min, g1.y_max, 201, 201)
    r1 = verify.schrodinger_residual(s, 0.5, g1, dt=2e-4)
    r2 = verify.schrodinger_residual(s, 0.5, g2, dt=1e-4)
    assert 3.5 < r1.max_abs_residual / r2.max_abs_residual < 4.5


def test_hamilton_jacobi_residual_closed_form_sources():
    grid = GridSpec2D.square(4.0, 41)
    for s in [example1(), example2()]:
        for t in [0.0, 0.7, 1.5]:
            for source in ("closed_form", "hj_closure"):
                rep = verify.hamilton_jacobi_residual(s, t, grid, v_source=source)
                assert rep.max_abs_residual < 1e-9


def test_hamilton_jacobi_residual_exposes_variant():
    # the variant source leaves exactly (2m + 1) V_B as residual
    s = example1()
    grid = GridSpec2D.square(4.0, 41)
    rep = verify.hamilton_jacobi_residual(s, 0.5, grid, v_source="variant")
    x, y = grid.mesh()
    expected = np.abs((2 * s.m + 1) * cf.bohm_potential(s, x, y, 0.5)).max()
    assert rep.max_abs_residual == pytest.approx(expected, rel=1e-10)
    assert rep.max_abs_residual > 1.0


def test_schrodinger_residual_exposes_variant():
    s = example1()
    grid = verify.residual_grid(s, 0.5)
    good = verify.schrodinger_residual(s, 0.5, grid, v_source="hj_closure")
    bad = verify.schrodinger_residual(s, 0.5, grid, v_source="variant")
    assert bad.max_abs_residual > 1e3 * good.max_abs_residual


def test_unknown_v_source():
    with pytest.raises(ValueError, match="v_source"):
        verify.external_quadform(example1(), 0.0, "nonsense")  # type: ignore[arg-type]


def test_residual_reports_serialize():
    s = example1()
    rep = verify.continuity_residual(s, 0.5, GridSpec2D.square(1.0, 21))
    obj = rep.to_json()
    assert obj["equation"] == "continuity"
    assert set(obj) == {"equation", "t", "max_abs_residual", "rms_residual", "grid", "dt"}
    assert obj["grid"]["nx"] == 21


def test_dt_validation():
    s = example1()
    grid = GridSpec2D.square(1.0, 21)
    with pytest.raises(ValueError, match="dt"):
        verify.continuity_residual(s, 0.5, grid, dt=0.0)
    with pytest.raises(ValueError, match="dt"):
        verify.schrodinger_residual(s, 0.5, grid, dt=-1e-4)


# ---------------------------------------------------------------------------
# quadrature


def test_simpson_weights_validation():
    with pytest.raises(ValueError, match="odd"):
        verify.simpson_weights(10)
    w = verify.simpson_weights(5)
    np.testing.assert_allclose(w, np.array([1, 4, 2, 4, 1]) / 3.0)


@pytest.mark.parametrize("seed", range(5))
def test_simpson_moments_match_outer_product_sums(seed):
    # reference: the explicit weighted sums over a 2-D weight array that the
    # separable routine replaces
    rng = np.random.default_rng(seed)
    na, nb = 2 * rng.integers(1, 40, size=2) + 1
    a = np.linspace(-rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0), na)
    b = np.linspace(-rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0), nb)
    rho = rng.random((na, nb))
    wa = verify.simpson_weights(na) * (a[1] - a[0])
    wb = verify.simpson_weights(nb) * (b[1] - b[0])
    w = np.outer(wa, wb)
    got = verify._simpson_moments(rho, a, b)
    for value, factor in zip(got, [1.0, a[:, None] ** 2, b[None, :] ** 2, a[:, None] * b[None, :]]):
        terms = w * rho * factor
        # relative to the integrand's magnitude: the a b moment may cancel
        assert abs(value - np.sum(terms)) <= 1e-13 * np.sum(np.abs(terms))


def test_normalization_ground_state():
    s = example1()
    grid = cf.auto_grid(s, 0.0)
    assert verify.normalization(s, 0.0, grid) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_normalization_example1(t):
    s = example1()
    grid = cf.auto_grid(s, t)
    assert verify.normalization(s, t, grid) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("t", [0.5, 1.0])
def test_normalization_example2(t):
    s = example2()
    grid = cf.auto_grid(s, t)
    assert verify.normalization(s, t, grid) == pytest.approx(1.0, abs=1e-6)


def test_normalization_warns_on_small_domain():
    s = example1()
    with pytest.warns(UserWarning, match="boundary"):
        verify.normalization(s, 0.0, GridSpec2D.square(2.0, 41))


def test_quadrature_variances_vacuum():
    s = example1()
    vp, vm = verify.quadrature_variances(s, 0.0, cf.auto_grid(s, 0.0))
    assert vp == pytest.approx(0.5, abs=1e-7)
    assert vm == pytest.approx(0.5, abs=1e-7)


def test_quadrature_variances_example1():
    s = example1()
    grid = cf.auto_grid(s, 1.0)
    vp, vm = verify.quadrature_variances(s, 1.0, grid)
    assert vp == pytest.approx(math.exp(2.0) / 2.0, abs=1e-5)
    assert vm == pytest.approx(math.exp(-2.0) / 2.0, abs=1e-5)
    assert vp * vm == pytest.approx(0.25, abs=1e-6)


def test_quadrature_variances_cancellation_bound():
    # var(v) from cartesian moments cancels to about eps var(u)/var(v); at
    # nu = 2 that stays far below the 1e-5 check and matches the rotated frame
    s = example1()
    _, vm = verify.quadrature_variances(s, 2.0, cf.auto_grid(s, 2.0))
    _, _, vm_rotated = verify.diagonal_moments(s, 2.0)
    assert vm == pytest.approx(vm_rotated, rel=100 * np.finfo(float).eps * math.exp(8.0))


def test_normalization_example1_late_time_rotated():
    # t = 3 needs ~8600 points per axis on a cartesian grid (auto_grid
    # refuses); the rotated frame handles it directly
    s = example1()
    with pytest.raises(ValueError, match="auto grid"):
        cf.auto_grid(s, 3.0)
    norm, _, vm = verify.diagonal_moments(s, 3.0)
    assert norm == pytest.approx(1.0, abs=1e-6)
    assert vm == pytest.approx(math.exp(-6.0) / 2.0, rel=1e-6)


def test_diagonal_moments_handles_extreme_squeeze():
    # nu = 4 with r = 1: cartesian grids are hopeless (sigma_u/sigma_v = e^8),
    # the rotated frame integrates it exactly
    s = example2()
    norm, vp, vm = verify.diagonal_moments(s, 2.0)
    assert norm == pytest.approx(1.0, abs=1e-6)
    assert vm == pytest.approx(0.5, abs=1e-6)
    assert vp == pytest.approx(math.exp(16.0) / 2.0, rel=1e-6)


def test_diagonal_moments_match_cartesian_route():
    s = example1()
    grid = cf.auto_grid(s, 1.0)
    vp_c, vm_c = verify.quadrature_variances(s, 1.0, grid)
    norm, vp_r, vm_r = verify.diagonal_moments(s, 1.0)
    assert norm == pytest.approx(verify.normalization(s, 1.0, grid), abs=1e-8)
    assert vp_r == pytest.approx(vp_c, rel=1e-7)
    assert vm_r == pytest.approx(vm_c, rel=1e-7)


@pytest.mark.parametrize("r", [0.0, 1.0])
def test_diagonal_moments_exact_to_half_nu_limit(r):
    # ln A on the mode axes has no cancelling terms, so the moments stay
    # exact up to |nu| = NU_LIMIT / 2, fig2's nu = 9 and nu = 12 included
    for nu in [*np.linspace(-cf.NU_LIMIT / 2, cf.NU_LIMIT / 2, 21), 9.0, 12.0]:
        s = Scenario(m=1.0, r=r, nu=TimePolynomial([0, float(nu)]), mu=TimePolynomial([0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm, vp, vm = verify.diagonal_moments(s, 1.0)
        assert norm == pytest.approx(1.0, rel=1e-12, abs=0)
        assert vp == pytest.approx(math.exp(2 * (r + 1) * nu) / 2, rel=1e-12, abs=0)
        assert vm == pytest.approx(math.exp(2 * (r - 1) * nu) / 2, rel=1e-12, abs=0)


def test_variance_law_negative_squeeze():
    # with nu < 0 the anti-diagonal mode is the squeezed one
    s = Scenario(m=1.0, r=0.0, nu=TimePolynomial([0, -1]), mu=TimePolynomial([0]))
    norm, vp, vm = verify.diagonal_moments(s, 1.0)
    assert norm == pytest.approx(1.0, abs=1e-7)
    assert vp == pytest.approx(math.exp(-2.0) / 2.0, rel=1e-6)
    assert vm == pytest.approx(math.exp(2.0) / 2.0, rel=1e-6)


def test_variance_product_law_with_mix():
    # var(u) var(v) = exp(4 r nu)/4 for any r
    s = Scenario(m=1.0, r=0.5, nu=TimePolynomial([0, 1]), mu=TimePolynomial([0]))
    norm, vp, vm = verify.diagonal_moments(s, 1.0)
    assert norm == pytest.approx(1.0, abs=1e-7)
    assert vp * vm == pytest.approx(math.exp(2.0) / 4.0, rel=1e-6)


# ---------------------------------------------------------------------------
# grid chooser


def test_residual_grid_meets_target():
    for s, t in [(example1(), 0.25), (example1(), 1.0), (example2(), 1.0)]:
        grid = verify.residual_grid(s, t)
        assert grid.nx == 201
        for rep in [
            verify.schrodinger_residual(s, t, grid),
            verify.continuity_residual(s, t, grid),
            verify.bohm_definition_residual(s, t, grid),
        ]:
            assert rep.max_abs_residual < 1e-4


def test_residual_grid_caps_extent():
    # at t ~ 0 the state is a unit Gaussian and the allowed extent is capped
    s = example1()
    grid = verify.residual_grid(s, 1e-3, n=401, target=1e-3)
    assert grid.x_max <= 6.0
