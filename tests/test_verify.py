import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from bohm_squeeze import GridSpec2D, ScalarField2D, Scenario, TimePolynomial
from bohm_squeeze import closedform as cf
from bohm_squeeze import cli, verify

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
    u, v = grid.mesh()  # the grid's axes are the modes
    x, y = (u + v) / cf.SQRT2, (u - v) / cf.SQRT2
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


def test_residual_reports_serialize(tmp_path):
    s = example1()
    rep = verify.continuity_residual(s, 0.5, GridSpec2D.square(1.0, 21))
    cli._write_json(tmp_path / "report.json", {"report": rep})
    obj = json.loads((tmp_path / "report.json").read_text())["report"]
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


@st.composite
def mode_grids(draw):
    """Grids on the mode axes with one spacing per axis: odd and even counts, off-centre."""
    hu, hv = draw(st.floats(1e-3, 1.0)), draw(st.floats(1e-3, 1.0))
    nu, nv = draw(st.integers(5, 40)), draw(st.integers(5, 40))
    u_min, v_min = draw(st.floats(-20.0, 20.0)), draw(st.floats(-20.0, 20.0))
    return GridSpec2D(u_min, u_min + (nu - 1) * hu, v_min, v_min + (nv - 1) * hv, nu, nv)


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


def _close_exp(ours: np.ndarray, ref: np.ndarray, exponent: np.ndarray, scale: float) -> bool:
    """Two samples of exp(exponent), each exponent within tol(scale) of the exact one.

    The bound comes from the exponent's own error, relative to the largest
    value either route can reach, not to either route's value; below the
    underflow floor that bohm_from_amplitude refuses, absolute.
    """
    delta = _tol(scale)
    with np.errstate(over="ignore"):  # an infinite bound checks nothing, which is right
        bound = 2.0 * np.expm1(delta) * np.maximum(np.exp(exponent + delta), 1e-300)
    return bool(np.all(np.abs(ours - ref) <= bound))


@settings(max_examples=150, deadline=None)
@given(grid=mode_grids(), case=scenarios_at())
@example(
    # c_v = -6e38 at t = 3: the input on which the x-y lattice and its
    # meshgrid reference rounded x - y apart
    grid=GridSpec2D(1.0, 4.241714080680985, 1.0, 5.862571121021479, 9, 13),
    case=(Scenario(m=1.0, r=0.0, nu=TimePolynomial([0.0, 0.0, 5.0]), mu=TimePolynomial([0.0, 0.0])), 3.0),
)
def test_mode_lattice_matches_meshgrid(grid, case):
    # the outer product of the 1-D factors on the (u, v) lattice against
    # closedform's pointwise A and psi on the meshgrid, at x = (u+v)/sqrt2
    # and y = (u-v)/sqrt2
    s, t = case
    u, v = grid.mesh()
    x, y = (u + v) / cf.SQRT2, (u - v) / cf.SQRT2
    amp, phase = cf.log_amplitude_coeffs(s, t), cf.phase_coeffs(s, t)
    amp_scale, phase_scale = _scale(amp, x, y), _scale(phase, x, y)
    with warnings.catch_warnings():
        # the 2-D samples may underflow where the factors do not
        warnings.simplefilter("ignore", RuntimeWarning)
        ref_amp, ref_psi = cf.amplitude_A(s, x, y, t), cf.wavefunction_psi(s, x, y, t)
        exponent = amp.modes(u, v)
    f, g = verify._factors(grid.xs(), grid.ys(), amp)
    assert f.shape == (grid.nx,) and g.shape == (grid.ny,)
    assert _close_exp(f[:, None] * g[None, :], ref_amp, exponent, amp_scale)
    f, g = verify._factors(grid.xs(), grid.ys(), amp, phase)
    assert _close_exp(f[:, None] * g[None, :], ref_psi, exponent, max(amp_scale, phase_scale))


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
    # one exponential per factor, on its own axis's nodes
    assert sizes and set(sizes) == {grid.nx, grid.ny}


def bitwise_equal(a, b):
    """Same dtype, shape and bits: signs of zero included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_mode_lattice_views_are_read_only(monkeypatch):
    # the stencils read each 1-D factor through views of it and never write
    # to it: with read-only factors every residual field is unchanged
    s, t, dt = example2(), 0.5, 1e-4
    grid = GridSpec2D(-1.0, 1.0, -0.5, 0.5, 21, 11)
    f, _ = verify._factors(grid.xs(), grid.ys(), cf.log_amplitude_coeffs(s, t), cf.phase_coeffs(s, t))
    f.setflags(write=False)
    for view in (verify._inner(f), verify._stencil(f, grid.hx)[0]):
        assert np.shares_memory(view, f) and not view.flags.writeable
        with pytest.raises(ValueError):
            view[0] = 0.0

    def fields():
        return [
            verify._schrodinger_field(s, t, grid, dt, "hj_closure"),
            verify._continuity_field(s, t, grid, dt),
            np.add.outer(*verify._bohm_definition_parts(s, t, grid)),
        ]

    writable = fields()
    real_factors = verify._factors

    def read_only_factors(*args):
        factors = real_factors(*args)
        for factor in factors:
            factor.setflags(write=False)
        return factors

    monkeypatch.setattr(verify, "_factors", read_only_factors)
    for ours, ref in zip(fields(), writable):
        assert bitwise_equal(ours, ref)


def stencil_fields_2d(s, t, grid, dt, v_source):
    # reference: the 2-D residual fields the rank-one products replace.  The
    # grid's axes are u and v; every field is sampled through closedform's
    # pointwise functions at x = (u+v)/sqrt2, y = (u-v)/sqrt2 on the mesh,
    # and the 5-point and central stencils act on the 2-D arrays with each
    # axis's own spacing; the Bohm term comes from bohm_from_amplitude.
    # Returns the fields and, per field, a rounding bound
    u, v = grid.mesh()
    x, y = (u + v) / cf.SQRT2, (u - v) / cf.SQRT2
    inner = (slice(2, -2), slice(2, -2))
    times = (t - dt, t, t + dt)
    amps = [cf.log_amplitude_coeffs(s, at) for at in times]
    phases = [cf.phase_coeffs(s, at) for at in times]
    pot = verify.external_quadform(s, t, v_source)
    b = cf.bohm_coeffs(s, t)
    scale = max(_scale(form, x, y) for form in [*amps, *phases, pot, b])
    scale = max(scale, (abs(phases[1].c_u) + abs(phases[1].c_v)) * float((np.abs(x) + np.abs(y)).max()))
    # both routes compute each exponent within delta of the exact one, so a
    # sample of psi (or A) is within rel of the exact value, which is at most
    # top: a bound from the exponent's own error, not from either route's value
    delta = _tol(scale)
    rel = 2.0 * np.expm1(delta)
    top = [np.exp(form.modes(u, v) + delta) for form in amps]
    hu, hv = grid.hx, grid.hy
    h = min(hu, hv)
    floor = np.full(top[1][inner].shape, 1e-300)

    def near(values):
        # largest value among the 5-point neighbours, on the interior
        return np.maximum.reduce(
            [values[2:-2, 2:-2], values[3:-1, 2:-2], values[1:-3, 2:-2], values[2:-2, 3:-1], values[2:-2, 1:-3]]
        )

    def lap(f):
        return (f[2:, 1:-1] - 2.0 * f[1:-1, 1:-1] + f[:-2, 1:-1]) / hu**2 + (
            f[1:-1, 2:] - 2.0 * f[1:-1, 1:-1] + f[1:-1, :-2]
        ) / hv**2

    big = np.maximum.reduce([near(top[1]), top[0][inner], top[2][inner], floor])
    psi = [cf.wavefunction_psi(s, x, y, at) for at in times]
    vv = pot(x, y)
    schrod = 1j * (psi[2] - psi[0]) / (2.0 * dt) + np.pad(lap(psi[1]), 1) / (2.0 * s.m) - vv * psi[1]
    schrod_tol = 4.0 * rel * big * (1.0 / dt + 4.0 / (s.m * h * h) + np.abs(vv[inner]) + 1.0)

    amp = [cf.amplitude_A(s, x, y, at) for at in times]
    a = amp[1]
    a_u = np.zeros_like(a)
    a_v = np.zeros_like(a)
    a_u[1:-1, :] = (a[2:, :] - a[:-2, :]) / (2.0 * hu)
    a_v[:, 1:-1] = (a[:, 2:] - a[:, :-2]) / (2.0 * hv)
    s_x, s_y = phases[1].grad(x, y)
    s_u, s_v = (s_x + s_y) / cf.SQRT2, (s_x - s_y) / cf.SQRT2
    cont = (amp[2] - amp[0]) / (2.0 * dt) + (s_u * a_u + s_v * a_v) / s.m + phases[1].laplacian * a / (2.0 * s.m)
    slope = (np.abs(s_u) + np.abs(s_v))[inner]
    cont_tol = 4.0 * rel * big * (1.0 / dt + slope / (s.m * h) + abs(phases[1].laplacian) / s.m + 1.0)

    # the routes may disagree on refusing only where the smallest sample
    # is within rounding of the underflow floor
    low = float(a.min())
    near_floor = verify.AMPLITUDE_FLOOR * np.exp(-2.0 * delta) <= low <= verify.AMPLITUDE_FLOOR * np.exp(2.0 * delta)
    try:
        fd = bohm_from_amplitude(ScalarField2D(grid=grid, t=t, values=a), s.m).values
    except ValueError:
        bohm = bohm_tol = None  # the amplitude reaches the underflow floor
    else:
        bohm = fd[1:-1, 1:-1] - cf.bohm_potential(s, x, y, t)[inner]
        # neighbours over the centre: -(lap A)/(2 m A) is a sum of such ratios
        ratio = (a[3:-1, 2:-2] + a[1:-3, 2:-2] + a[2:-2, 3:-1] + a[2:-2, 1:-3]) / a[inner]
        bohm_tol = 4.0 * rel * ((ratio + 4.0) / (s.m * h * h) + np.abs(b(x, y)[inner]) + 1.0)
    return (schrod[inner], schrod_tol), (cont[inner], cont_tol), (bohm, bohm_tol, near_floor)


@settings(max_examples=100, deadline=None)
@given(grid=mode_grids(), case=scenarios_at(), v_source=st.sampled_from(verify.V_SOURCES))
@example(
    # c_v = -6e38 at t = 3, where the x-y lattice's route and a meshgrid
    # rounded x - y apart: on this grid (v >= 1) the amplitude underflows
    # at every node on both routes
    grid=GridSpec2D(1.0, 4.241714080680985, 1.0, 5.862571121021479, 9, 13),
    case=(Scenario(m=1.0, r=0.0, nu=TimePolynomial([0.0, 0.0, 5.0]), mu=TimePolynomial([0.0, 0.0])), 3.0),
    v_source="hj_closure",
)
def test_factored_stencils_match_2d_stencils(grid, case, v_source):
    s, t = case
    dt = 1e-4
    for at in (t - dt, t + dt):
        nu = s.nu.value(at)
        assume(abs(nu) <= cf.NU_LIMIT and abs(s.r * nu) <= cf.NU_LIMIT)
    with warnings.catch_warnings():
        # the 2-D samples may underflow where the factors do not
        warnings.simplefilter("ignore", RuntimeWarning)
        (schrod, schrod_tol), (cont, cont_tol), (bohm, bohm_tol, near_floor) = stencil_fields_2d(
            s, t, grid, dt, v_source
        )
    ours = verify._schrodinger_field(s, t, grid, dt, v_source)
    assert ours.shape == schrod.shape == (grid.nx - 4, grid.ny - 4)
    assert np.all(np.abs(ours - schrod) <= schrod_tol)
    assert np.all(np.abs(verify._continuity_field(s, t, grid, dt) - cont) <= cont_tol)
    try:
        ours = np.add.outer(*verify._bohm_definition_parts(s, t, grid))
    except ValueError as exc:
        assert "underflow" in str(exc) and (bohm is None or near_floor)
    else:
        assert bohm is not None or near_floor
        if bohm is not None:
            assert np.all(np.abs(ours - bohm) <= bohm_tol)


@pytest.mark.parametrize("residual", [verify.schrodinger_residual, verify.continuity_residual, verify.bohm_definition_residual])
def test_stencil_residuals_need_an_interior(residual):
    s = example1()
    residual(s, 0.5, GridSpec2D(-1.0, 1.0, -1.0, 1.0, 5, 5))
    with pytest.raises(ValueError, match="at least 5 samples"):
        residual(s, 0.5, GridSpec2D(-1.0, 1.0, -0.375, 0.375, 9, 4))


# finite 1-D residual parts: mixed signs, signed zeros, subnormals and
# magnitudes near 1e+-300, where the grid's sums and squares overflow
outer_sum_parts = hnp.arrays(
    np.float64,
    st.integers(3, 12),
    elements=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-1e3, 1e3),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300]),
        st.floats(1e299, 1e301).flatmap(lambda x: st.sampled_from([x, -x])),
    ),
)


def grid_statistics(r_u, r_v):
    # reference: the statistics of the whole outer-sum grid, as _report took
    # them before the 1-D reduction
    with np.errstate(over="ignore", invalid="ignore"):
        flat = np.abs(r_u[:, None] + r_v[None, :]).ravel()
        return float(flat.max()), float(np.sqrt(np.mean(flat * flat)))


def outer_sum_report(r_u, r_v):
    grid = GridSpec2D(-1.0, 1.0, -1.0, 1.0, r_u.size, r_v.size)
    with np.errstate(over="ignore", invalid="ignore"):
        return verify._outer_sum_report("bohm_definition", 0.5, r_u, r_v, grid)


@settings(max_examples=300, deadline=None)
@given(r_u=outer_sum_parts, r_v=outer_sum_parts)
def test_outer_sum_report_matches_grid_statistics(r_u, r_v):
    # rounding is monotone, so the grid's extreme elements are the rounded
    # sums of the parts' extremes: the 1-D reduction is exact, bit for bit
    max_abs, rms = grid_statistics(r_u, r_v)
    if not (math.isfinite(max_abs) and math.isfinite(rms)):
        with pytest.raises(ValueError, match="finite"):
            outer_sum_report(r_u, r_v)
        return
    rep = outer_sum_report(r_u, r_v)
    assert rep.max_abs_residual.hex() == max_abs.hex()
    assert rep.rms_residual.hex() == rms.hex()


@settings(max_examples=100, deadline=None)
@given(
    r_u=outer_sum_parts,
    r_v=outer_sum_parts,
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    in_u=st.booleans(),
    at=st.integers(0, 11),
)
def test_outer_sum_report_rejects_non_finite_parts(r_u, r_v, bad, in_u, at):
    part = r_u if in_u else r_v
    part[at % part.size] = bad
    with pytest.raises(ValueError, match="finite"):
        outer_sum_report(r_u, r_v)


@pytest.mark.parametrize(
    "residual", [verify.continuity_residual, verify.hamilton_jacobi_residual, verify.bohm_definition_residual]
)
def test_real_residuals_build_one_grid_array(residual):
    # the field and at most numpy's broadcasting buffers: the abs and the
    # square are taken in place, and the outer sums take their largest value
    # from the 1-D parts.  A second grid-sized array would reach 2
    s = example1()
    grid = verify.residual_grid(s, 0.5)
    residual(s, 0.5, grid)
    tracemalloc.start()
    try:
        residual(s, 0.5, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * grid.nx * grid.ny * 8


@pytest.mark.parametrize("config", ["verify_example1.json", "verify_example2.json"])
def test_variant_fails_at_every_example_time(config):
    payload = json.loads((CONFIG_DIR / config).read_text())
    s = cli._scenario(payload["scenario"])
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
    # the result of the one matrix product and |r| (half of it); a grid-sized
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
    # at DIAGONAL_COVERAGE sigma per axis
    s = example1()
    caps = tuple(verify.DIAGONAL_COVERAGE * sigma for sigma in cf.spread_sigmas(s, 1e-3))
    grid = verify.residual_grid(s, 1e-3, n=401, target=1e-3)
    assert grid.x_max <= caps[0] and grid.y_max <= caps[1]
    grid = verify.residual_grid(s, 1e-3, n=401, target=1.0)
    assert (grid.x_max, grid.y_max) == caps


def bracket(s, t):
    """Each axis's search bracket: from GRID_HALF_MIN to DIAGONAL_COVERAGE sigma."""
    lo = verify.GRID_HALF_MIN
    return [(lo, max(lo, verify.DIAGONAL_COVERAGE * sigma)) for sigma in cf.spread_sigmas(s, t)]


def axis_laws(s, t):
    """(law_u, law_v) of one time as functions law(half, n)."""
    return tuple(verify._stencil_error_law(s, [t]))


def bisection_width(lo, hi):
    # the bracket width 48 bisection steps reach
    return (hi - lo) / 2**48


def residual_grid_bisection(law, lo, hi, n=201, target=1e-5):
    # reference: a 48-step bisection of one axis's bracket
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


def residual_grid_illinois(law, lo, hi, n=201, target=2e-5):
    # reference: one axis's Illinois search, written out apart from the
    # chooser's.  None when even the bracket's lower end is infeasible
    def excess(half):
        return math.log(law(half, n) / (0.5 * target))

    tol = (hi - lo) / 2**verify.GRID_BISECTIONS
    f_hi = excess(hi)
    if f_hi <= 0.0:
        return hi
    f_lo = excess(lo)
    if f_lo > 0.0:
        return None
    kept = 0
    for _ in range(verify.GRID_SECANT_STEPS):
        if hi - lo <= tol:
            break
        x_lo, x_hi = math.log(lo), math.log(hi)
        mid = math.exp(x_lo - f_lo * (x_hi - x_lo) / (f_hi - f_lo))
        mid = min(max(mid, lo + tol / 2), hi - tol / 2)
        f_mid = excess(mid)
        if f_mid <= 0.0:
            lo, f_lo = mid, f_mid
            if kept == 1:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi = mid, f_mid
            if kept == -1:
                f_lo *= 0.5
            kept = -1
    return lo


def serial_halves(s, t, n, target):
    """Each axis's half extent at time t by its own serial search (None where infeasible).

    The search evaluates the node law: the error terms on np.linspace's
    nodes only (see ``stencil_error_law_on_linspace``), so that nothing in
    it is shared with the closed-form law or the chooser's search.
    """
    return [
        residual_grid_illinois(lambda half, n: stencil_error_law_on_linspace(s, t, axis, half, n), lo, hi, n, target)
        for axis, (lo, hi) in zip("uv", bracket(s, t))
    ]


# fig1's and fig2's scenarios (examples 1 and 2) at the verify configs'
# times and at the figures' own times
@pytest.mark.parametrize("n", [101, 201])
@pytest.mark.parametrize(
    "scenario_fn,t",
    [(fn, t) for fn in (example1, example2) for t in (0.25, 0.5, 1.0, 0.0, 2.0, 3.0)],
)
def test_residual_grid_matches_bisection(monkeypatch, scenario_fn, t, n):
    s = scenario_fn()
    make_laws = verify._stencil_error_law
    builds, calls = [], {"u": [], "v": []}

    def counted_laws(*args):
        builds.append(args)

        def counted(axis, law):
            def call(half, n):
                calls[axis].append((half, n))
                return law(half, n)

            return call

        return [counted(axis, law) for axis, law in zip("uv", make_laws(*args))]

    monkeypatch.setattr(verify, "_stencil_error_law", counted_laws)
    grid = verify.residual_grid(s, t, n=n)
    monkeypatch.undo()
    # one law build, for the one time
    assert builds == [(s, [t])]
    assert (grid.nx, grid.ny) == (n, n)
    assert (grid.x_min, grid.y_min) == (-grid.x_max, -grid.y_max)
    for half, law, (lo, hi), axis in zip((grid.x_max, grid.y_max), axis_laws(s, t), bracket(s, t), "uv"):
        assert len(calls[axis]) <= 20
        width = bisection_width(lo, hi)
        assert abs(half - residual_grid_bisection(law, lo, hi, n=n)) <= width
        # the bracket closed: the returned extent is feasible at half the
        # target, one width more is not (or it is the bracket's end)
        assert law(half, n) <= 1e-5
        assert half == hi or law(half + width, n) > 1e-5


@pytest.mark.parametrize("root", [0.3, 1.2345, 5.0])
def test_residual_grid_closes_bracket_after_landing_on_root(monkeypatch, root):
    # on an exact power law the first secant step lands on the largest
    # feasible extent itself, up to rounding; the search must still close
    # its bracket rather than creep toward the root.  At t = 0 both axes
    # search [GRID_HALF_MIN, 8 / sqrt2]
    def power_law(half, n):
        return 1e-5 * (half / root) ** 4

    calls = []

    def counted(half, n):
        # both axes on one count: the budget covers the whole search
        calls.append((half, n))
        return power_law(half, n)

    monkeypatch.setattr(verify, "_stencil_error_law", lambda s, times: [counted, counted])
    grid = verify.residual_grid(example1(), 0.0)
    assert len(calls) <= 12
    (lo, hi), _ = bracket(example1(), 0.0)
    width = bisection_width(lo, hi)
    for half in (grid.x_max, grid.y_max):
        assert power_law(half, None) <= 1e-5 < power_law(half + width, None)
        assert abs(half - root) <= width


def stencil_error_nodes(s, t, axis, half, n):
    # reference: the direct evaluation on the axis's n nodes that the law
    # replaces, with every derivative of the factor e^q by the chain rule
    # (q = c w^2 + const); the other factor sits at its peak e^(const/2)
    h = 2.0 * half / (n - 1)
    w = np.linspace(-half, half, n)
    gform, sform = cf.log_amplitude_coeffs(s, t), cf.phase_coeffs(s, t)
    c_amp, c_phase = (gform.c_u, sform.c_u) if axis == "u" else (gform.c_v, sform.c_v)
    g_w, g_ww = 2.0 * c_amp * w, 2.0 * c_amp
    s_w, s_ww = 2.0 * c_phase * w, 2.0 * c_phase
    amp = np.exp(c_amp * w * w + gform.const)

    def fourth(first, second):
        return np.abs(first**4 + 6.0 * first * first * second + 3.0 * second**2)

    psi4 = amp * fourth(g_w + 1j * s_w, g_ww + 1j * s_ww)
    p4 = fourth(g_w, g_ww)
    a3 = np.abs(s_w) * amp * np.abs(g_w**3 + 3.0 * g_w * g_ww)
    return max(
        (h * h / 12.0) * psi4.max() / (2.0 * s.m),
        (h * h / 12.0) * p4.max() / (2.0 * s.m),
        (h * h / 6.0) * a3.max() / s.m,
    )


def test_stencil_error_law_matches_lattice():
    # shipped scenarios (fig1 and fig2 share them), every shipped time, the
    # whole search range of extents: each axis's law bounds the error on its
    # own nodes, and it is the error's supremum over the extent, which 20001
    # nodes reach to within 1e-5
    fine = 20001
    for s in [example1(), example2()]:
        for t in [0.0, 0.25, 0.5, 1.0, 2.0, 3.0]:
            for axis, law in zip("uv", axis_laws(s, t)):
                for half in np.geomspace(0.05, 6.0, 25):
                    for n in [101, 201, 601]:
                        assert stencil_error_nodes(s, t, axis, half, n) <= law(half, n)
                    supremum = stencil_error_nodes(s, t, axis, half, fine) * ((fine - 1) / 200) ** 2
                    assert law(half, 201) == pytest.approx(supremum, rel=1e-5, abs=0)


def stencil_error_law_on_linspace(s, t, axis, half, n):
    # reference: the node law, the law's three terms on np.linspace's nodes
    # only, one array expression per term
    amp, phase = cf.log_amplitude_coeffs(s, t), cf.phase_coeffs(s, t)
    c_amp, c_phase = (amp.c_u, phase.c_u) if axis == "u" else (amp.c_v, phase.c_v)
    z = 2.0 * complex(c_amp, c_phase)
    w_sq = np.linspace(-half, half, n) ** 2
    x = z * w_sq
    y = x.real
    a = np.exp(c_amp * w_sq + amp.const)
    psi4 = abs(z) ** 2 * float((a * np.abs((x + 6.0) * x + 3.0)).max())
    p4 = z.real**2 * float(np.abs((y + 6.0) * y + 3.0).max())
    a3 = abs(z.imag) * z.real**2 * float((a * w_sq * np.abs(y + 3.0)).max())
    h = 2.0 * half / (n - 1)
    return h * h * max(psi4 / 24.0, p4 / 24.0, a3 / 6.0) / s.m


@settings(max_examples=200, deadline=None)
@given(
    case=scenarios_at(),
    axis=st.sampled_from("uv"),
    half=st.floats(verify.GRID_HALF_MIN, 50.0),
    n=st.integers(2, 200).map(lambda k: 2 * k + 1),
)
@example(case=(example1(), 3.0), axis="v", half=verify.GRID_HALF_MIN, n=201)
@example(case=(example2(), 1.0), axis="u", half=6.0, n=5)
def test_stencil_error_law_bounds_node_law(case, axis, half, n):
    # the law is the error's supremum over the extent, so no node reads more
    s, t = case
    law = axis_laws(s, t)["uv".index(axis)]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        assert law(half, n) >= stencil_error_law_on_linspace(s, t, axis, half, n)


def test_stencil_error_law_bounds_measured_residual():
    # shipped scenarios (fig1 and fig2 share them), every shipped time, each
    # axis's extent halved and doubled in turn so that either law dominates.
    # The laws are leading-order in h: their sum bounds the largest measured
    # stencil residual up to the h^4 terms (1%), and the larger one is reached
    # within a factor of 2.  At 401 points and above, rounding (eps / h^2)
    # takes over on fig1's squeezed axis at t = 3
    for s in [example1(), example2()]:
        for t in [0.0, 0.25, 0.5, 1.0, 2.0, 3.0]:
            law_u, law_v = axis_laws(s, t)
            chosen = verify.residual_grid(s, t)
            for ku, kv in [(1.0, 1.0), (0.5, 1.0), (1.0, 0.5), (2.0, 1.0), (1.0, 2.0)]:
                a_u, a_v = ku * chosen.x_max, kv * chosen.y_max
                for n in [101, 201]:
                    grid = GridSpec2D(-a_u, a_u, -a_v, a_v, n, n)
                    measured = max(
                        verify.schrodinger_residual(s, t, grid).max_abs_residual,
                        verify.continuity_residual(s, t, grid).max_abs_residual,
                        verify.bohm_definition_residual(s, t, grid).max_abs_residual,
                    )
                    predicted = law_u(a_u, n), law_v(a_v, n)
                    assert 0.5 * max(predicted) <= measured <= 1.01 * sum(predicted)


def test_residual_grid_feasible_upper_end_is_exact():
    s = example1()
    (_, hi), _ = bracket(s, 0.0)  # both axes at t = 0
    law_u, law_v = axis_laws(s, 0.0)
    edge = 2.0 * max(law_u(hi, 201), law_v(hi, 201))
    grid = verify.residual_grid(s, 0.0, target=edge)
    assert grid.x_max == grid.y_max == hi
    grid = verify.residual_grid(s, 0.0, target=np.nextafter(edge, 0.0))
    assert grid.x_max < hi and grid.y_max < hi
    assert law_u(grid.x_max, 201) <= np.nextafter(edge, 0.0) / 2.0
    assert law_v(grid.y_max, 201) <= np.nextafter(edge, 0.0) / 2.0


def test_residual_grid_infeasible_lower_end_raises():
    # fig1's scenario at t = 4: even the smallest extent of the squeezed
    # axis misses half the stencil-error target on 201 points
    s = example1()
    with pytest.raises(ValueError, match="no feasible extent at n = 201 for t = 4 on the v axis"):
        verify.residual_grid(s, 4.0)
    lo = verify.GRID_HALF_MIN
    edge = axis_laws(s, 4.0)[1](lo, 201)
    (_, _), (_, hi) = bracket(s, 4.0)
    grid = verify.residual_grid(s, 4.0, target=2.0 * edge)
    assert grid.y_max == pytest.approx(lo, rel=0, abs=bisection_width(lo, hi))
    with pytest.raises(ValueError, match="no feasible extent"):
        verify.residual_grid(s, 4.0, target=np.nextafter(2.0 * edge, 0.0))


@pytest.mark.parametrize("target", [0.0, -1e-5, float("nan")])
def test_residual_grid_rejects_non_positive_target(target):
    # the search works on ln(model / target)
    with pytest.raises(ValueError, match="target must be positive"):
        verify.residual_grid(example1(), 0.5, target=target)


SWEEP_TIMES = [round(0.1 * k, 1) for k in range(31)]


@pytest.mark.parametrize("target", [2e-5, 1e-3])
@pytest.mark.parametrize("n", [101, 201, 401])
@pytest.mark.parametrize("scenario_fn", [example1, example2])
def test_lockstep_grids_match_serial_search(scenario_fn, n, target):
    # fig1's and fig2's scenarios (examples 1 and 2) at t = 0, 0.1, ..., 3:
    # one call over every feasible time (one batched root search) returns,
    # per time, extents within 1e-3 of each axis's node-law search (1.5e-4
    # measured, where an interior maximum falls between nodes) that meet
    # the node law; over every time it raises the first infeasible time's
    # error
    s = scenario_fn()
    expected = {t: serial_halves(s, t, n, target) for t in SWEEP_TIMES}
    feasible = [t for t in SWEEP_TIMES if None not in expected[t]]
    grids = verify.residual_grid(s, feasible, n=n, target=target)
    for t, grid in zip(feasible, grids):
        assert (grid.nx, grid.ny, grid.x_min, grid.y_min) == (n, n, -grid.x_max, -grid.y_max)
        for axis, half, ref in zip("uv", (grid.x_max, grid.y_max), expected[t]):
            assert half == pytest.approx(ref, rel=1e-3, abs=0)
            assert stencil_error_law_on_linspace(s, t, axis, half, n) <= target / 2
    infeasible = [t for t in SWEEP_TIMES if t not in feasible]
    assert infeasible or feasible == SWEEP_TIMES
    if infeasible:
        t = infeasible[0]
        axis = "uv"[expected[t].index(None)]
        with pytest.raises(ValueError, match=f"no feasible extent at n = {n} for t = {t:g} on the {axis} axis"):
            verify.residual_grid(s, SWEEP_TIMES, n=n, target=target)


@pytest.mark.parametrize("config", ["verify_example1", "verify_example2", "fig1", "fig2"])
def test_shipped_grids_match_serial_search(config):
    # the grids verify chooses for the shipped configs' scenarios and times
    # (fig1's and fig2's on "grid": "auto"): within 1e-9 of the node-law search
    raw = json.loads((CONFIG_DIR / f"{config}.json").read_text())
    s = cli._scenario(raw["scenario"])
    for t, grid in zip(raw["times"], verify.residual_grid(s, raw["times"])):
        assert [grid.x_max, grid.y_max] == pytest.approx(serial_halves(s, t, 201, 2e-5), rel=1e-9, abs=0)


@settings(max_examples=100, deadline=None)
@given(case=scenarios_at(), n=st.sampled_from([101, 201, 401]), target=st.sampled_from([2e-5, 1e-3]))
def test_residual_grid_agrees_with_serial_search(case, n, target):
    # any scenario: the feasibility of the node-law search, and extents
    # within 1e-3 of it
    s, t = case
    expected = serial_halves(s, t, n, target)
    if None in expected:
        with pytest.raises(ValueError, match="no feasible extent"):
            verify.residual_grid(s, t, n=n, target=target)
    else:
        grid = verify.residual_grid(s, t, n=n, target=target)
        assert [grid.x_max, grid.y_max] == pytest.approx(expected, rel=1e-3, abs=0)


@settings(max_examples=100, deadline=None)
@given(case=scenarios_at(), n=st.integers(2, 200).map(lambda k: 2 * k + 1), target=st.floats(1e-7, 0.1))
def test_residual_grid_meets_node_law(case, n, target):
    # every extent the chooser returns keeps the error on its nodes within
    # half the target
    s, t = case
    try:
        grid = verify.residual_grid(s, t, n=n, target=target)
    except ValueError:
        assume(False)
    for axis, half in zip("uv", (grid.x_max, grid.y_max)):
        assert stencil_error_law_on_linspace(s, t, axis, half, n) <= target / 2


def test_residual_grid_one_grid_per_time_in_order():
    s = example2()
    times = [1.0, 0.25, 3.0, 0.5]
    grids = verify.residual_grid(s, times)
    assert isinstance(grids, list) and len(grids) == len(times)
    assert grids == [verify.residual_grid(s, t) for t in times]
    assert verify.residual_grid(s, (0.5,)) == [verify.residual_grid(s, 0.5)]
    assert verify.residual_grid(s, []) == []


@pytest.mark.parametrize(
    "times, message",
    [
        ([1.0, 4.0, 100.0], "no feasible extent at n = 201 for t = 4 on the v axis; raise n or target"),
        ([1.0, 100.0, 4.0], "|nu(t)| = 100 (|r nu| = 0) exceeds the supported range 50 at t = 100"),
    ],
)
def test_residual_grid_raises_first_failing_time(times, message):
    # fig1's scenario: t = 4 has no feasible extent, t = 100 is out of
    # nu's range; whichever comes first in the list decides the error
    with pytest.raises(ValueError) as info:
        verify.residual_grid(example1(), times)
    assert str(info.value) == message


@pytest.mark.parametrize("n", [1, 0, -5, 3, 4, 201.0, True])
def test_residual_grid_rejects_bad_sample_count(n):
    # n = 1 divides by zero, n <= 0 indexes nothing, n = 3 or 4 leaves no
    # interior, and a float n makes a float count
    with pytest.raises(ValueError, match=r"integer n >= 5, got"):
        verify.residual_grid(example1(), 0.5, n=n)


def test_residual_grid_smallest_sample_count():
    s = example1()
    grid = verify.residual_grid(s, 0.5, n=np.int64(5))
    assert (grid.nx, grid.ny) == (5, 5)
    rep = verify.schrodinger_residual(s, 0.5, grid)
    assert rep.max_abs_residual < 1e-4


def test_residual_grid_rejects_infinite_target():
    # ln(law / inf) is -inf, and the secant step then takes the log of a NaN
    with pytest.raises(ValueError, match="target must be positive and finite, got inf"):
        verify.residual_grid(example1(), 0.5, target=float("inf"))


def test_residual_grid_rejects_nan_time():
    # nu(nan) is NaN, which Scenario.nu_at rejects
    with pytest.raises(ValueError, match="exceeds the supported range 50 at t = nan"):
        verify.residual_grid(example1(), float("nan"))
