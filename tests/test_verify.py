import functools
import json
import math
import operator
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from bohm_squeeze import GridSpec2D, ScalarField2D, Scenario, TimePolynomial
from bohm_squeeze import closedform as cf
from bohm_squeeze import verify

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

def example1():
    return Scenario(m=1.0, r=0.0, nu=TimePolynomial([0, 1]), mu=TimePolynomial([0]))


def example2():
    return Scenario(m=1.0, r=1.0, nu=TimePolynomial([0, 0, 1]), mu=TimePolynomial([0]))


# ---------------------------------------------------------------------------
# Bohm potential from the sampled amplitude


def sample_amplitude(s: Scenario, grid: GridSpec2D, t: float) -> ScalarField2D:
    x, y = grid.mesh()
    return ScalarField2D(grid=grid, t=t, values=cf.amplitude_A(s, x, y, t))


def bohm_from_amplitude(field_a: ScalarField2D, mass: float) -> ScalarField2D:
    """Bohm potential -(lap A)/(2 m A) by central second differences.

    A 2-D reference, independent of the mode factors: returned on the grid
    interior (one-point boundary ring dropped, where the 5-point Laplacian
    has no neighbors).  Guards against amplitudes at the underflow floor,
    where the division is meaningless.
    """
    if mass <= 0.0:
        raise ValueError("mass must be positive")
    g = field_a.grid
    if g.nx < 5 or g.ny < 5:
        raise ValueError("need at least 5 samples per axis for an interior Laplacian")
    a = field_a.values
    if float(np.min(a)) < verify.AMPLITUDE_FLOOR:
        raise ValueError("amplitude reaches the underflow floor; shrink the grid extent")
    lap = (
        (a[2:, 1:-1] - 2.0 * a[1:-1, 1:-1] + a[:-2, 1:-1]) / g.hx**2
        + (a[1:-1, 2:] - 2.0 * a[1:-1, 1:-1] + a[1:-1, :-2]) / g.hy**2
    )
    vb = -lap / (2.0 * mass * a[1:-1, 1:-1])
    xs, ys = g.xs(), g.ys()
    inner = GridSpec2D(xs[1], xs[-2], ys[1], ys[-2], g.nx - 2, g.ny - 2)
    return ScalarField2D(grid=inner, t=field_a.t, values=vb)


def test_bohm_from_amplitude_ground_state():
    # exact check against the Gaussian identity V_B = 1 - (x^2+y^2)/2 at t=0
    s = example1()
    grid = verify.residual_grid(s, 0.0)
    fd = bohm_from_amplitude(sample_amplitude(s, grid, 0.0), s.m)
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
        bohm_from_amplitude(sample_amplitude(s, GridSpec2D.square(1.0, 4), 0.0), s.m)
    with pytest.raises(ValueError, match="mass"):
        bohm_from_amplitude(sample_amplitude(s, GridSpec2D.square(1.0, 9), 0.0), 0.0)
    # amplitude underflow on an absurdly wide box
    wide = GridSpec2D.square(60.0, 9)
    with pytest.raises(ValueError, match="underflow"):
        bohm_from_amplitude(sample_amplitude(s, wide, 0.0), s.m)


def test_bohm_from_amplitude_interior_grid():
    s = example1()
    grid = GridSpec2D.square(1.0, 11)
    fd = bohm_from_amplitude(sample_amplitude(s, grid, 0.3), s.m)
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


RESIDUALS = [
    verify.schrodinger_residual,
    verify.continuity_residual,
    verify.hamilton_jacobi_residual,
    verify.bohm_definition_residual,
]


@pytest.mark.parametrize("residual", RESIDUALS)
def test_residuals_require_one_spacing(residual):
    s = example1()
    with pytest.raises(ValueError, match="one grid spacing"):
        residual(s, 0.5, GridSpec2D(-3.0, 3.0, -3.0, 3.0, 41, 21))
    # rectangular windows of one spacing are fine, and so is a spacing
    # mismatch at the rounding level; 1e-11 relative is not
    residual(s, 0.5, GridSpec2D(-3.0, 3.0, -1.5, 1.5, 41, 21))
    residual(s, 0.5, GridSpec2D(-3.0, 3.0, -3.0, 3.0 * (1.0 + 1e-13), 41, 41))
    with pytest.raises(ValueError, match="one grid spacing"):
        residual(s, 0.5, GridSpec2D(-3.0, 3.0, -3.0, 3.0 * (1.0 + 1e-11), 41, 41))


@st.composite
def equal_spacing_grids(draw):
    """Grids of one spacing: odd and even counts, rectangular, off-centre."""
    h = draw(st.floats(1e-3, 1.0))
    nx, ny = draw(st.integers(3, 40)), draw(st.integers(3, 40))
    x_min, y_min = draw(st.floats(-20.0, 20.0)), draw(st.floats(-20.0, 20.0))
    return GridSpec2D(x_min, x_min + (nx - 1) * h, y_min, y_min + (ny - 1) * h, nx, ny)


@st.composite
def scenarios_at(draw):
    """A scenario and a time with |nu| and |r nu| within NU_LIMIT."""
    coeff = st.floats(-5.0, 5.0)
    s = Scenario(
        m=draw(st.floats(0.1, 10.0)),
        r=draw(st.floats(-3.0, 3.0)),
        nu=TimePolynomial([0.0, draw(coeff), draw(coeff)]),
        mu=TimePolynomial([draw(coeff), draw(coeff)]),
    )
    t = draw(st.floats(0.0, 3.0))
    nu = s.nu.value(t)
    assume(abs(nu) <= cf.NU_LIMIT and abs(s.r * nu) <= cf.NU_LIMIT)
    return s, t


def _scale(form: cf.QuadForm, x: np.ndarray, y: np.ndarray) -> float:
    """Bound on every term of ``form`` on the nodes, which sets its rounding."""
    return (abs(form.c_u) + abs(form.c_v)) * float((x * x + y * y).max()) + abs(form.const)


def _tol(scale: float) -> float:
    return 64.0 * np.finfo(float).eps * (1.0 + scale)


def _close_exp(ours: np.ndarray, ref: np.ndarray, scale: float) -> bool:
    """exp of an exponent with rounding tol(scale): relative to the value.

    Below the underflow floor that bohm_from_amplitude refuses, absolute.
    """
    return bool(np.all(np.abs(ours - ref) <= _tol(scale) * np.maximum(np.abs(ref), 1e-300)))


def _close_form(ours: np.ndarray, ref: np.ndarray, scale: float) -> bool:
    """A sum of terms bounded by scale: relative to that bound."""
    return bool(np.all(np.abs(ours - ref) <= _tol(scale)))


@settings(max_examples=150, deadline=None)
@given(
    grid=equal_spacing_grids(),
    case=scenarios_at(),
    coeffs=st.tuples(*[st.floats(-1e3, 1e3)] * 3),
)
def test_mode_lattice_matches_meshgrid(grid, case, coeffs):
    s, t = case
    lattice = verify._ModeLattice(grid)
    x, y = grid.mesh()
    amp, phase = cf.log_amplitude_coeffs(s, t), cf.phase_coeffs(s, t)
    amp_scale, phase_scale = _scale(amp, x, y), _scale(phase, x, y)
    hankel, toeplitz = lattice.views(*lattice.factors(amp))
    ours = hankel * toeplitz
    assert ours.shape == (grid.nx, grid.ny)
    assert _close_exp(ours, np.exp(amp(x, y)), amp_scale)
    ref = np.exp(amp(x, y)) * np.exp(1j * phase(x, y))
    hankel, toeplitz = lattice.views(*lattice.factors(amp, phase))
    assert _close_exp(hankel * toeplitz, ref, max(amp_scale, phase_scale))

    form = cf.QuadForm(*coeffs)
    assert _close_form(lattice.form(form), form(x, y), _scale(form, x, y))


def test_mode_lattice_runs_no_2d_exponential(monkeypatch):
    s = example2()
    grid = GridSpec2D(-3.0, 3.0, -1.0, 2.0, 61, 31)
    sizes = []
    real_exp = np.exp

    def counting_exp(arg, *args, **kwargs):
        sizes.append(np.size(arg))
        return real_exp(arg, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    for residual in RESIDUALS:
        residual(s, 0.5, grid)
    assert sizes and set(sizes) == {grid.nx + grid.ny - 1}


def bitwise_equal(a, b):
    """Same dtype, shape and bits: signs of zero included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def sequential_products(f_terms, g_terms, width):
    # reference: one grid-sized product per term from sliding_window_view,
    # summed left to right (functools.reduce: sum() would start from +0)
    products = [
        sliding_window_view(f, width) * sliding_window_view(g, width)[::-1] for f, g in zip(f_terms, g_terms)
    ]
    return functools.reduce(operator.add, products)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
@pytest.mark.parametrize(
    "nx,ny,scratch_rows",
    [
        (201, 161, None),  # default scratch: 197 rows in blocks of 26 (complex) or 52 (real)
        (41, 29, 7),  # 37 rows in blocks of 7
        (12, 30, 1),
        (30, 12, 37),  # one block larger than the grid
    ],
)
def test_products_accumulate_in_term_order(monkeypatch, dtype, count, nx, ny, scratch_rows):
    rng = np.random.default_rng(nx * 1000 + ny * 10 + count)
    grid = GridSpec2D(0.0, (nx - 1) * 0.1, 0.0, (ny - 1) * 0.1, nx, ny)
    lattice = verify._ModeLattice(grid)
    size, width = nx + ny - 1 - 4 * verify.RING, ny - 4

    def factor(scale):
        values = rng.standard_normal(size) * scale
        if dtype is np.complex128:
            values = values + 1j * rng.standard_normal(size) * scale
        return values

    # magnitudes spread over the terms, so any other summation order rounds
    # differently; at node (0, 0) every product is 0 (-1) = -0 (or -0 + 0j),
    # which a sum started from +0 would lose
    f_terms = [factor(10.0**k) for k in range(count)]
    g_terms = [factor(1.0) for _ in range(count)]
    for f, g in zip(f_terms, g_terms):
        f[0], g[nx - 5] = 0.0, -1.0
    if scratch_rows is not None:
        monkeypatch.setattr(verify, "PRODUCT_SCRATCH_BYTES", scratch_rows * width * np.dtype(dtype).itemsize)
    ours = lattice.products(*zip(f_terms, g_terms))
    ref = sequential_products(f_terms, g_terms, width)
    assert ours.shape == (nx - 4, ny - 4)
    assert bitwise_equal(ours, ref)
    assert np.signbit(ours[0, 0].real)


def test_mode_lattice_views_are_read_only():
    grid = GridSpec2D(-1.0, 1.0, -0.5, 0.5, 21, 11)
    lattice = verify._ModeLattice(grid)
    f, g = lattice.factors(cf.log_amplitude_coeffs(example2(), 0.5), cf.phase_coeffs(example2(), 0.5))
    hankel, toeplitz = lattice.views(f, g)
    assert hankel.shape == toeplitz.shape == (21, 11)
    assert bitwise_equal(hankel, sliding_window_view(f, 11))
    assert bitwise_equal(toeplitz, sliding_window_view(g, 11)[::-1])
    for view in (hankel, toeplitz):
        with pytest.raises(ValueError):
            view[0, 0] = 0.0
    # stacked factors: one view per row of the stack
    hankel, toeplitz = lattice.views(np.stack([f, 2 * f]), np.stack([g, 2 * g]))
    assert hankel.shape == toeplitz.shape == (2, 21, 11)
    assert bitwise_equal(hankel[1], sliding_window_view(2 * f, 11))
    with pytest.raises(ValueError):
        toeplitz[1, 0, 0] = 0.0


def stencil_fields_2d(s, t, grid, dt, v_source):
    # reference: the 2-D residual fields the rank-one products replace.  Each
    # field is sampled through QuadForm.__call__ on the mesh and the 5-point
    # and central stencils act on the 2-D arrays; the Bohm term comes from
    # bohm_from_amplitude.  Returns the fields and, per field, a rounding
    # bound: the samples' relative error, carried through the stencils'
    # coefficients at the local magnitude of the samples
    x, y = grid.mesh()
    inner = (slice(2, -2), slice(2, -2))
    times = (t - dt, t, t + dt)
    amps = [cf.log_amplitude_coeffs(s, at) for at in times]
    phases = [cf.phase_coeffs(s, at) for at in times]
    v = verify.external_quadform(s, t, v_source)
    b = cf.bohm_coeffs(s, t)
    scale = max(_scale(form, x, y) for form in [*amps, *phases, v, b])
    scale = max(scale, (abs(phases[1].c_u) + abs(phases[1].c_v)) * float((np.abs(x) + np.abs(y)).max()))
    # relative error of every sample, and of using hx for hy
    delta = _tol(scale) + abs(1.0 - (grid.hx / grid.hy) ** 2)
    hx, hy, h = grid.hx, grid.hy, min(grid.hx, grid.hy)

    def near(values):
        # largest magnitude among the 5-point neighbours, on the interior
        m = np.abs(values)
        return np.maximum.reduce([m[2:-2, 2:-2], m[3:-1, 2:-2], m[1:-3, 2:-2], m[2:-2, 3:-1], m[2:-2, 1:-3]])

    def lap(f):
        return (f[2:, 1:-1] - 2.0 * f[1:-1, 1:-1] + f[:-2, 1:-1]) / hx**2 + (
            f[1:-1, 2:] - 2.0 * f[1:-1, 1:-1] + f[1:-1, :-2]
        ) / hy**2

    psi = [np.exp(a(x, y)) * np.exp(1j * p(x, y)) for a, p in zip(amps, phases)]
    vv = v(x, y)
    schrod = 1j * (psi[2] - psi[0]) / (2.0 * dt) + np.pad(lap(psi[1]), 1) / (2.0 * s.m) - vv * psi[1]
    big = np.maximum.reduce([near(psi[1]), np.abs(psi[0])[inner], np.abs(psi[2])[inner], np.full_like(vv[inner], 1e-300)])
    schrod_tol = 4.0 * delta * big * (1.0 / dt + 4.0 / (s.m * h * h) + np.abs(vv[inner]) + 1.0)

    amp = [np.exp(a(x, y)) for a in amps]
    a = amp[1]
    a_x = np.zeros_like(a)
    a_y = np.zeros_like(a)
    a_x[1:-1, :] = (a[2:, :] - a[:-2, :]) / (2.0 * hx)
    a_y[:, 1:-1] = (a[:, 2:] - a[:, :-2]) / (2.0 * hy)
    s_x, s_y = phases[1].grad(x, y)
    cont = (amp[2] - amp[0]) / (2.0 * dt) + (s_x * a_x + s_y * a_y) / s.m + phases[1].laplacian * a / (2.0 * s.m)
    big = np.maximum.reduce([near(a), amp[0][inner], amp[2][inner], np.full_like(a[inner], 1e-300)])
    slope = (np.abs(s_x) + np.abs(s_y))[inner]
    cont_tol = 4.0 * delta * big * (1.0 / dt + slope / (s.m * h) + abs(phases[1].laplacian) / s.m + 1.0)

    try:
        fd = bohm_from_amplitude(ScalarField2D(grid=grid, t=t, values=a), s.m).values
    except ValueError:
        bohm = bohm_tol = None  # the amplitude reaches the underflow floor
    else:
        bohm = fd[1:-1, 1:-1] - b(x, y)[inner]
        # neighbours over the centre: -(lap A)/(2 m A) is a sum of such ratios
        ratio = (a[3:-1, 2:-2] + a[1:-3, 2:-2] + a[2:-2, 3:-1] + a[2:-2, 1:-3]) / a[inner]
        bohm_tol = 4.0 * delta * ((ratio + 4.0) / (s.m * h * h) + np.abs(b(x, y)[inner]) + 1.0)
    return (schrod[inner], schrod_tol), (cont[inner], cont_tol), (bohm, bohm_tol)


@settings(max_examples=100, deadline=None)
@given(
    grid=equal_spacing_grids().filter(lambda g: min(g.nx, g.ny) >= 5),
    case=scenarios_at(),
    v_source=st.sampled_from(verify.V_SOURCES),
)
def test_factored_stencils_match_2d_stencils(grid, case, v_source):
    s, t = case
    dt = 1e-4
    assume(math.isclose(grid.hx, grid.hy, rel_tol=1e-12))
    for at in (t - dt, t + dt):
        nu = s.nu.value(at)
        assume(abs(nu) <= cf.NU_LIMIT and abs(s.r * nu) <= cf.NU_LIMIT)
    with warnings.catch_warnings():
        # the 2-D samples may underflow where the factors do not
        warnings.simplefilter("ignore", RuntimeWarning)
        (schrod, schrod_tol), (cont, cont_tol), (bohm, bohm_tol) = stencil_fields_2d(s, t, grid, dt, v_source)
    ours = verify._schrodinger_field(s, t, grid, dt, v_source)
    assert ours.shape == schrod.shape == (grid.nx - 4, grid.ny - 4)
    assert np.all(np.abs(ours - schrod) <= schrod_tol)
    assert np.all(np.abs(verify._continuity_field(s, t, grid, dt) - cont) <= cont_tol)
    if bohm is None:
        with pytest.raises(ValueError, match="underflow"):
            verify._bohm_definition_field(s, t, grid)
    else:
        assert np.all(np.abs(verify._bohm_definition_field(s, t, grid) - bohm) <= bohm_tol)


@pytest.mark.parametrize("residual", [verify.schrodinger_residual, verify.continuity_residual, verify.bohm_definition_residual])
def test_stencil_residuals_need_an_interior(residual):
    s = example1()
    residual(s, 0.5, GridSpec2D(-1.0, 1.0, -1.0, 1.0, 5, 5))
    with pytest.raises(ValueError, match="at least 5 samples"):
        residual(s, 0.5, GridSpec2D(-1.0, 1.0, -0.375, 0.375, 9, 4))


@pytest.mark.parametrize("config", ["verify_example1.json", "verify_example2.json"])
def test_variant_fails_at_every_example_time(config):
    payload = json.loads((CONFIG_DIR / config).read_text())
    s = Scenario.from_json(payload["scenario"])
    for t in payload["times"]:
        grid = verify.residual_grid(s, t)
        good = verify.schrodinger_residual(s, t, grid)
        bad = verify.schrodinger_residual(s, t, grid, v_source="variant")
        assert good.max_abs_residual < 1e-4 < bad.max_abs_residual
        assert bad.max_abs_residual > 100.0 * good.max_abs_residual


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


def diagonal_moments_2d(s, t):
    # reference: the 2-D Simpson sums over the full DIAGONAL_POINTS^2 density
    # on the same nodes, which the mode-factored routine replaces
    sigma_u, sigma_v = cf.spread_sigmas(s, t)
    c, n = verify.DIAGONAL_COVERAGE, verify.DIAGONAL_POINTS
    us = np.linspace(-c * sigma_u, c * sigma_u, n)
    vs = np.linspace(-c * sigma_v, c * sigma_v, n)
    rho = np.exp(2.0 * cf.log_amplitude_coeffs(s, t).modes(us[:, None], vs[None, :]))
    total, uu, vv, _ = verify._simpson_moments(rho, us, vs)
    return total, uu / total, vv / total


@pytest.mark.parametrize("nu", [0.25, 1.0, 9.0, 25.0])
@pytest.mark.parametrize("r", [0.0, 1.0])
def test_diagonal_moments_equal_2d_simpson_sums(r, nu):
    s = Scenario(m=1.0, r=r, nu=TimePolynomial([0, nu]), mu=TimePolynomial([0]))
    for got, ref in zip(verify.diagonal_moments(s, 1.0), diagonal_moments_2d(s, 1.0)):
        assert got == pytest.approx(ref, rel=1e-14, abs=0)


def test_diagonal_moments_build_no_2d_array():
    # the 2001^2 density the factored sums replace took 32 MB
    s = example2()
    verify.diagonal_moments(s, 1.0)
    tracemalloc.start()
    try:
        verify.diagonal_moments(s, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_schrodinger_residual_builds_one_grid_array():
    # the result, |r| (half of it) and a 64 KiB row-block scratch; a grid-sized
    # temporary per term would reach 2
    s = example1()
    grid = verify.residual_grid(s, 0.5)
    assert (grid.nx, grid.ny) == (201, 201)
    verify.schrodinger_residual(s, 0.5, grid)
    tracemalloc.start()
    try:
        verify.schrodinger_residual(s, 0.5, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * (grid.nx - 4) * (grid.ny - 4) * 16


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


# the bracket width 48 bisection steps of [0.05, 6] reach
BISECTION_WIDTH = (6.0 - 0.05) / 2**48


def residual_grid_bisection(s, t, n=201, target=2e-5):
    # reference: the 48-step bisection the secant search replaced
    law = verify._stencil_error_law(s, t)
    lo, hi = 0.05, 6.0
    if law(hi, n) <= target:
        return hi
    if law(lo, n) > target:
        raise ValueError("no feasible extent")
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        if law(mid, n) <= target:
            lo = mid
        else:
            hi = mid
    return lo


# fig1's and fig2's scenarios (examples 1 and 2) at the verify configs'
# times and at the figures' own times that have a feasible grid
@pytest.mark.parametrize("n", [101, 201])
@pytest.mark.parametrize(
    "scenario_fn,t",
    [(example1, t) for t in (0.25, 0.5, 1.0, 0.0)] + [(example2, t) for t in (0.25, 0.5, 1.0, 0.0, 2.0, 3.0)],
)
def test_residual_grid_matches_bisection(monkeypatch, scenario_fn, t, n):
    s = scenario_fn()
    make_law = verify._stencil_error_law
    builds, calls = [], []

    def counted_law(*args):
        builds.append(args)
        law = make_law(*args)

        def counted(*point):
            calls.append(point)
            return law(*point)

        return counted

    monkeypatch.setattr(verify, "_stencil_error_law", counted_law)
    half = verify.residual_grid(s, t, n=n).x_max
    monkeypatch.undo()
    assert builds == [(s, t)]
    assert len(calls) <= 20
    assert abs(half - residual_grid_bisection(s, t, n=n)) <= BISECTION_WIDTH
    # the bracket closed: the returned extent is feasible, one width more is not
    law = verify._stencil_error_law(s, t)
    assert law(half, n) <= 2e-5 < law(half + BISECTION_WIDTH, n)


@pytest.mark.parametrize("root", [0.3, 1.2345, 5.0])
def test_residual_grid_closes_bracket_after_landing_on_root(monkeypatch, root):
    # on an exact power law the first secant step lands on the largest
    # feasible extent itself, up to rounding; the search must still close
    # its bracket rather than creep toward the root
    def power_law(half, n):
        return 2e-5 * (half / root) ** 4

    calls = []

    def counted(*args):
        calls.append(args)
        return power_law(*args)

    monkeypatch.setattr(verify, "_stencil_error_law", lambda s, t: counted)
    half = verify.residual_grid(example1(), 0.5).x_max
    assert len(calls) <= 6
    assert power_law(half, None) <= 2e-5 < power_law(half + BISECTION_WIDTH, None)
    assert abs(half - root) <= BISECTION_WIDTH


def stencil_error_lattice(s, t, half, n):
    # reference: the direct evaluation on the full 33^2 lattice over the
    # extent, with every gradient sampled there, that the law replaces
    h = 2.0 * half / (n - 1)
    xs = np.linspace(-half, half, 33)
    x, y = np.meshgrid(xs, xs, indexing="ij")
    gform, sform = cf.log_amplitude_coeffs(s, t), cf.phase_coeffs(s, t)
    g_x, g_y = gform.grad(x, y)
    g_xx = gform.laplacian / 2.0
    s_x, s_y = sform.grad(x, y)
    s_xx = sform.laplacian / 2.0
    amp = np.exp(gform(x, y))

    def fourth(first, second):
        return np.abs(first**4 + 6.0 * first * first * second + 3.0 * second**2)

    z = g_xx + 1j * s_xx
    psi4 = amp * (fourth(g_x + 1j * s_x, z) + fourth(g_y + 1j * s_y, z))
    p4 = fourth(g_x, g_xx) + fourth(g_y, g_xx)
    a3 = np.abs(s_x) * amp * np.abs(g_x**3 + 3.0 * g_x * g_xx) + np.abs(s_y) * amp * np.abs(g_y**3 + 3.0 * g_y * g_xx)
    return max(
        (h * h / 12.0) * psi4.max() / (2.0 * s.m),
        (h * h / 12.0) * p4.max() / (2.0 * s.m),
        (h * h / 6.0) * a3.max() / s.m,
    )


def test_stencil_error_law_matches_lattice():
    # shipped scenarios (fig1 and fig2 share them), every shipped time, the
    # whole search range of extents
    for s in [example1(), example2()]:
        for t in [0.0, 0.25, 0.5, 1.0, 2.0, 3.0]:
            law = verify._stencil_error_law(s, t)
            for half in np.geomspace(0.05, 6.0, 25):
                for n in [101, 201, 601]:
                    assert law(half, n) == pytest.approx(stencil_error_lattice(s, t, half, n), rel=1e-13, abs=0)


def test_residual_grid_feasible_upper_end_is_exact():
    s = example1()
    law = verify._stencil_error_law(s, 0.0)
    edge = law(6.0, 201)
    assert verify.residual_grid(s, 0.0, target=edge).x_max == 6.0
    below = verify.residual_grid(s, 0.0, target=np.nextafter(edge, 0.0)).x_max
    assert below < 6.0
    assert law(below, 201) <= np.nextafter(edge, 0.0)


def test_residual_grid_infeasible_lower_end_raises():
    # fig1's scenario at t = 2: the smallest extent already misses the target
    s = example1()
    with pytest.raises(ValueError, match="no feasible extent at n = 201 for t = 2"):
        verify.residual_grid(s, 2.0)
    edge = verify._stencil_error_law(s, 2.0)(0.05, 201)
    assert verify.residual_grid(s, 2.0, target=edge).x_max == pytest.approx(0.05, rel=0, abs=BISECTION_WIDTH)
    with pytest.raises(ValueError, match="no feasible extent"):
        verify.residual_grid(s, 2.0, target=np.nextafter(edge, 0.0))


@pytest.mark.parametrize("target", [0.0, -1e-5, float("nan")])
def test_residual_grid_rejects_non_positive_target(target):
    # the search works on ln(model / target)
    with pytest.raises(ValueError, match="target must be positive"):
        verify.residual_grid(example1(), 0.5, target=target)
