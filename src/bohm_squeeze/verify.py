"""Independent finite-difference verification of the engineered solution.

The closed-form quadruple (A, S, V_B, V) must satisfy four identities:
the Schrodinger equation, the amplitude-transport (continuity) equation,
the Hamilton-Jacobi closure, and the defining relation of the Bohm
potential.  This module checks them with central differences that know
nothing about the closed forms: time derivatives by central differencing
of the analytic fields, Laplacians by 5-point stencils.  Residuals are
reported over an interior region excluding a 2-point boundary ring where
one-sided stencils would degrade the order.

Field sampling: every closed-form field is a function of the mode
u = (x+y)/sqrt2 plus (or, for A and psi, times) a function of the mode
v = (x-y)/sqrt2.  On a grid with one spacing on both axes, u and v at
node (i, j) depend only on i + j and i - j, so each field is a Hankel
view of a 1-D u-factor combined with a Toeplitz view of a 1-D v-factor
(``_ModeLattice``): exponentials run on 2 (nx + ny - 1) points, never on
the nx * ny grid.  The residual checks therefore require hx == hy.

Grid-size guidance: the second-order stencil error scales with the fourth
spatial derivatives of the fields, which for these Gaussian-times-quadratic
forms can be computed exactly.  ``residual_grid`` inverts that error model
to pick the largest square extent keeping the predicted stencil error at a
target, so residual checks stay meaningful (error budget dominated by the
identity under test, not by the stencil).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Literal

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .closedform import (
    SQRT2,
    GridSpec2D,
    QuadForm,
    ScalarField2D,
    Scenario,
    amplitude_A,
    bohm_coeffs,
    external_coeffs,
    external_variant_coeffs,
    kinetic_coeffs,
    log_amplitude_coeffs,
    phase_coeffs,
    phase_rate_coeffs,
    spread_sigmas,
)

__all__ = [
    "V_SOURCES",
    "ResidualReport",
    "external_quadform",
    "bohm_from_amplitude",
    "bohm_definition_residual",
    "continuity_residual",
    "hamilton_jacobi_residual",
    "schrodinger_residual",
    "normalization",
    "quadrature_variances",
    "diagonal_moments",
    "residual_grid",
    "simpson_weights",
    "simpson2d",
]

Equation = Literal["schrodinger", "continuity", "hamilton_jacobi", "bohm_definition"]
VSource = Literal["hj_closure", "closed_form", "variant"]

# Selectable external-potential sources for the residual checks:
#   hj_closure  - V assembled from -S_t - |grad S|^2/(2m) - V_B (the identity
#                 definition; the trusted default),
#   closed_form - the explicit coefficient formula (analytically equal to
#                 hj_closure; exercises the formula path),
#   variant     - the sign-variant transcription, which differs by
#                 (2m + 1) V_B and therefore fails the residual checks by
#                 construction (diagnostic).
V_SOURCES: tuple[VSource, ...] = ("hj_closure", "closed_form", "variant")


@dataclass(frozen=True)
class ResidualReport:
    """Statistics of one residual field."""

    equation: Equation
    t: float
    max_abs_residual: float
    rms_residual: float
    grid: GridSpec2D
    dt: float

    def __post_init__(self):
        if not (
            math.isfinite(self.max_abs_residual)
            and math.isfinite(self.rms_residual)
            and self.max_abs_residual >= 0.0
            and self.rms_residual >= 0.0
        ):
            raise ValueError("residual statistics must be finite and non-negative")

    def to_json(self) -> dict:
        return {
            "equation": self.equation,
            "t": self.t,
            "max_abs_residual": self.max_abs_residual,
            "rms_residual": self.rms_residual,
            "grid": self.grid.to_json(),
            "dt": self.dt,
        }


def _report(equation: Equation, t: float, residual: np.ndarray, grid: GridSpec2D, dt: float) -> ResidualReport:
    flat = np.abs(residual).ravel()
    return ResidualReport(
        equation=equation,
        t=t,
        max_abs_residual=float(flat.max()),
        rms_residual=float(np.sqrt(np.mean(flat * flat))),
        grid=grid,
        dt=dt,
    )


def external_quadform(s: Scenario, t: float, v_source: VSource = "hj_closure") -> QuadForm:
    """External-potential quadratic form from the selected source."""
    if v_source == "closed_form":
        return external_coeffs(s, t)
    if v_source == "variant":
        return external_variant_coeffs(s, t)
    if v_source == "hj_closure":
        zero = QuadForm(0.0, 0.0, 0.0)
        return zero - phase_rate_coeffs(s, t) - kinetic_coeffs(s, t) - bohm_coeffs(s, t)
    raise ValueError(f"unknown v_source {v_source!r}; expected one of {V_SOURCES}")


# ---------------------------------------------------------------------------
# finite-difference checks


def bohm_from_amplitude(field_a: ScalarField2D, mass: float) -> ScalarField2D:
    """Bohm potential -(lap A)/(2 m A) by central second differences.

    Returned on the grid interior (one-point boundary ring dropped, where
    the 5-point Laplacian has no neighbors).  Guards against amplitudes at
    the underflow floor, where the division is meaningless.
    """
    if mass <= 0.0:
        raise ValueError("mass must be positive")
    g = field_a.grid
    if g.nx < 5 or g.ny < 5:
        raise ValueError("need at least 5 samples per axis for an interior Laplacian")
    a = field_a.values
    if float(np.min(a)) < 1e-300:
        raise ValueError("amplitude reaches the underflow floor; shrink the grid extent")
    lap = (
        (a[2:, 1:-1] - 2.0 * a[1:-1, 1:-1] + a[:-2, 1:-1]) / g.hx**2
        + (a[1:-1, 2:] - 2.0 * a[1:-1, 1:-1] + a[1:-1, :-2]) / g.hy**2
    )
    vb = -lap / (2.0 * mass * a[1:-1, 1:-1])
    xs, ys = g.xs(), g.ys()
    inner = GridSpec2D(xs[1], xs[-2], ys[1], ys[-2], g.nx - 2, g.ny - 2)
    return ScalarField2D(grid=inner, t=field_a.t, values=vb)


def _interior(arr: np.ndarray, ring: int = 2) -> np.ndarray:
    return arr[ring:-ring, ring:-ring]


class _ModeLattice:
    """Closed-form fields on a grid of one spacing, from 1-D mode factors.

    With x_i = x_min + i h and y_j = y_min + j h, x_i + y_j depends only on
    i + j and x_i - y_j only on i - j, so the nodes' (u, v) take
    nx + ny - 1 values each.  A field f(u) + g(v) (or f(u) g(v)) on the
    grid is then a Hankel view of f on those u values plus (times) a
    Toeplitz view of g on the v values; ``sliding_window_view`` gives both
    without a copy.
    """

    def __init__(self, grid: GridSpec2D):
        if not math.isclose(grid.hx, grid.hy, rel_tol=1e-12):
            raise ValueError(
                f"residual checks need one grid spacing on both axes, got hx = {grid.hx:.17g} "
                f"and hy = {grid.hy:.17g}"
            )
        n = grid.nx + grid.ny - 1
        self.ny = grid.ny
        # x + y at i + j, and x - y at nx - 1 - i + j (descending, so each
        # Toeplitz row is a contiguous window)
        self.sums = np.linspace(grid.x_min + grid.y_min, grid.x_max + grid.y_max, n)
        self.diffs = np.linspace(grid.x_max - grid.y_min, grid.x_min - grid.y_max, n)
        self.u = self.sums / SQRT2
        self.v = self.diffs / SQRT2

    def _views(self, f: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(nx, ny) views f[i + j] and g[nx - 1 - i + j]."""
        return sliding_window_view(f, self.ny), sliding_window_view(g, self.ny)[::-1]

    def form(self, q: QuadForm) -> np.ndarray:
        """q(x, y) on the grid."""
        f, g = self._views(q.c_u * self.u * self.u + q.const, q.c_v * self.v * self.v)
        return f + g

    def grad(self, q: QuadForm) -> tuple[np.ndarray, np.ndarray]:
        """(dq/dx, dq/dy) on the grid, as ``QuadForm.grad``."""
        f, g = self._views(q.c_u * self.sums, q.c_v * self.diffs)
        return f + g, f - g

    def exp(self, log_amp: QuadForm, phase: QuadForm | None = None) -> np.ndarray:
        """exp(log_amp + i phase) on the grid: one exponential per mode.

        The constant of ``log_amp`` is split evenly between the factors.
        For an amplitude (c_u, c_v <= 0) each factor is then at most
        e^(const/2), so wherever the product is above the underflow floor
        1e-300 both factors are normal numbers, as long as const <= 35.
        """
        fu = log_amp.c_u * self.u * self.u + 0.5 * log_amp.const
        fv = log_amp.c_v * self.v * self.v + 0.5 * log_amp.const
        if phase is not None:
            fu = fu + 1j * (phase.c_u * self.u * self.u + phase.const)
            fv = fv + 1j * (phase.c_v * self.v * self.v)
        f, g = self._views(np.exp(fu), np.exp(fv))
        return f * g


def continuity_residual(s: Scenario, t: float, grid: GridSpec2D, dt: float = 1e-4) -> ResidualReport:
    """Residual of A_t + (S_x A_x + S_y A_y)/m + (S_xx + S_yy) A/(2m) = 0.

    A_t by a central time difference of the closed-form amplitude; A_x, A_y
    by central space differences; the phase derivatives analytically (S is
    quadratic, so S_x = m nud (r x + y) and S_xx = m nud r exactly).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    lattice = _ModeLattice(grid)
    a_now = lattice.exp(log_amplitude_coeffs(s, t))
    a_t = (lattice.exp(log_amplitude_coeffs(s, t + dt)) - lattice.exp(log_amplitude_coeffs(s, t - dt))) / (2.0 * dt)
    a_x = np.empty_like(a_now)
    a_y = np.empty_like(a_now)
    a_x[1:-1, :] = (a_now[2:, :] - a_now[:-2, :]) / (2.0 * grid.hx)
    a_y[:, 1:-1] = (a_now[:, 2:] - a_now[:, :-2]) / (2.0 * grid.hy)
    a_x[0, :] = a_x[-1, :] = 0.0
    a_y[:, 0] = a_y[:, -1] = 0.0
    sform = phase_coeffs(s, t)
    s_x, s_y = lattice.grad(sform)
    s_lap = sform.laplacian
    residual = a_t + (s_x * a_x + s_y * a_y) / s.m + s_lap * a_now / (2.0 * s.m)
    return _report("continuity", t, _interior(residual), grid, dt)


def hamilton_jacobi_residual(
    s: Scenario, t: float, grid: GridSpec2D, v_source: VSource = "closed_form"
) -> ResidualReport:
    """Residual of |grad S|^2/(2m) + V_B + V + S_t = 0, all terms analytic.

    With ``closed_form`` (or ``hj_closure``) this cancels to rounding noise;
    with ``variant`` it leaves exactly (2m + 1) V_B, which is the point of
    that source.
    """
    total = kinetic_coeffs(s, t) + bohm_coeffs(s, t) + external_quadform(s, t, v_source) + phase_rate_coeffs(s, t)
    residual = _ModeLattice(grid).form(total)
    return _report("hamilton_jacobi", t, residual, grid, dt=0.0)


def schrodinger_residual(
    s: Scenario,
    t: float,
    grid: GridSpec2D,
    dt: float = 1e-4,
    v_source: VSource = "hj_closure",
) -> ResidualReport:
    """Residual of i psi_t + lap(psi)/(2m) - V psi = 0.

    psi_t by central time difference of the closed-form wavefunction, the
    Laplacian by the 5-point stencil, V from the selected source.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    lattice = _ModeLattice(grid)

    def psi(at: float) -> np.ndarray:
        return lattice.exp(log_amplitude_coeffs(s, at), phase_coeffs(s, at))

    p_now = psi(t)
    p_t = (psi(t + dt) - psi(t - dt)) / (2.0 * dt)
    lap = np.zeros_like(p_now)
    lap[1:-1, 1:-1] = (
        (p_now[2:, 1:-1] - 2.0 * p_now[1:-1, 1:-1] + p_now[:-2, 1:-1]) / grid.hx**2
        + (p_now[1:-1, 2:] - 2.0 * p_now[1:-1, 1:-1] + p_now[1:-1, :-2]) / grid.hy**2
    )
    v = lattice.form(external_quadform(s, t, v_source))
    residual = 1j * p_t + lap / (2.0 * s.m) - v * p_now
    return _report("schrodinger", t, _interior(residual), grid, dt)


def bohm_definition_residual(s: Scenario, t: float, grid: GridSpec2D) -> ResidualReport:
    """Deviation of the stencil Bohm potential from the closed form."""
    lattice = _ModeLattice(grid)
    fd = bohm_from_amplitude(ScalarField2D(grid=grid, t=t, values=lattice.exp(log_amplitude_coeffs(s, t))), s.m)
    closed = lattice.form(bohm_coeffs(s, t))[1:-1, 1:-1]
    # fd already lost one ring; drop one more for the shared 2-ring policy.
    return _report("bohm_definition", t, _interior(fd.values - closed, ring=1), grid, dt=0.0)


# ---------------------------------------------------------------------------
# quadrature


def simpson_weights(n: int) -> np.ndarray:
    """Composite-Simpson weights (odd n) with unit spacing."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"composite Simpson needs an odd sample count >= 3, got {n}")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def _simpson_moments(rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[float, float, float, float]:
    """Integrals of rho, a^2 rho, b^2 rho and a b rho by 2-D composite Simpson.

    ``rho[i, j]`` is sampled at (a[i], b[j]) on uniform axes of odd length.
    The weights are separable, so each moment is row-by-row dot products
    with 1-D weight vectors (``vecdot``: unlike a BLAS matrix product, its
    last bits do not depend on the BLAS thread count).
    """
    wa = simpson_weights(a.size) * (a[1] - a[0])
    wb = simpson_weights(b.size) * (b[1] - b[0])
    rows = np.vecdot(rho, np.stack([wb, wb * b, wb * b * b])[:, None, :])
    m = np.vecdot(np.stack([wa, wa * a, wa * a * a])[:, None, :], rows)
    return float(m[0, 0]), float(m[2, 0]), float(m[0, 2]), float(m[1, 1])


def _grid_density(s: Scenario, t: float, grid: GridSpec2D) -> np.ndarray:
    a = amplitude_A(s, grid.xs()[:, None], grid.ys()[None, :], t)
    return a * a


def simpson2d(values: np.ndarray, grid: GridSpec2D) -> float:
    """2-D composite Simpson of samples on the grid."""
    return _simpson_moments(values, grid.xs(), grid.ys())[0]


def normalization(s: Scenario, t: float, grid: GridSpec2D) -> float:
    """Total probability on the grid by 2-D composite Simpson.

    Warns when the boundary integrand is not negligible (the grid then
    truncates probability mass and the result will read low).  The caller
    owns the grid: extent must cover the stretched diagonal direction and
    spacing must resolve the squeezed one (see ``auto_grid``).
    """
    rho = _grid_density(s, t, grid)
    edge = float(max(rho[0, :].max(), rho[-1, :].max(), rho[:, 0].max(), rho[:, -1].max()))
    if edge > 1e-10:
        warnings.warn(f"density reaches {edge:.2e} at the grid boundary; extent too small for t = {t:g}", stacklevel=2)
    return simpson2d(rho, grid)


def quadrature_variances(s: Scenario, t: float, grid: GridSpec2D) -> tuple[float, float]:
    """Variances of u = (x+y)/sqrt2 and v = (x-y)/sqrt2 under |psi|^2.

    Exact values: var(u) = exp(2(r+1) nu)/2, var(v) = exp(2(r-1) nu)/2, so
    squeezing shows up as var(v) dropping below the vacuum value 1/2 while
    the product stays exp(4 r nu)/4.

    From cartesian moments, var(u), var(v) = ((<xx> + <yy>)/2 +- <xy>) / norm;
    the squeezed mode's difference cancels to a relative error of about
    eps var(u)/var(v): 7e-13 at r = 0, nu = 2 (1.1e-13 measured).  The
    CLI's variance checks (relative 1e-8) use :func:`diagonal_moments`,
    which does not cancel.
    """
    total, xx, yy, xy = _simpson_moments(_grid_density(s, t, grid), grid.xs(), grid.ys())
    return ((xx + yy) / 2.0 + xy) / total, ((xx + yy) / 2.0 - xy) / total


# half-width of the rotated frame in each mode's sigmas; Simpson samples per axis
DIAGONAL_COVERAGE = 8.0
DIAGONAL_POINTS = 2001


def _mode_moments(c: float, sigma: float) -> tuple[float, float]:
    """1-D Simpson integrals of exp(2 c w^2) and w^2 exp(2 c w^2) over +-coverage sigma."""
    ws = np.linspace(-DIAGONAL_COVERAGE * sigma, DIAGONAL_COVERAGE * sigma, DIAGONAL_POINTS)
    weights = simpson_weights(DIAGONAL_POINTS) * (ws[1] - ws[0])
    m0, m2 = np.vecdot(np.stack([weights, weights * ws * ws]), np.exp(2.0 * c * ws * ws))
    return float(m0), float(m2)


def diagonal_moments(s: Scenario, t: float) -> tuple[float, float, float]:
    """(norm, var_plus, var_minus) by Simpson in rotated coordinates.

    Integrates over the (u, v) = ((x+y)/sqrt2, (x-y)/sqrt2) frame, where
    the density is axis-aligned; the rotation has unit Jacobian, so this is
    the same integral as :func:`normalization` but remains tractable for
    strongly squeezed states whose cartesian bounding box is astronomically
    larger than their support.  ln A comes from its mode coefficients on
    the mode axes, so nothing cancels at any squeeze.

    The density is exp(2 c_u u^2) exp(2 c_v v^2) e^(2 const) and the tensor
    Simpson weights are products, so each 2-D Simpson sum on the
    DIAGONAL_POINTS^2 nodes is exactly a product of two 1-D sums: O(n) work.
    """
    form = log_amplitude_coeffs(s, t)
    sigma_u, sigma_v = spread_sigmas(s, t)
    u0, u2 = _mode_moments(form.c_u, sigma_u)
    v0, v2 = _mode_moments(form.c_v, sigma_v)
    return u0 * v0 * math.exp(2.0 * form.const), u2 / u0, v2 / v0


# ---------------------------------------------------------------------------
# stencil-error model and grid chooser


def _stencil_error_model(s: Scenario, t: float, half: float, n: int) -> float:
    """Predicted worst interior stencil error on [-half, half]^2 with n points.

    ln A and S are quadratic forms, so all derivatives of A and psi are
    exact polynomials-times-Gaussian; the bound below evaluates the exact
    fourth-derivative coefficients on a coarse lattice and applies the
    central-stencil error constants (h^2/12 for second derivatives, h^2/6
    for first).
    """
    h = 2.0 * half / (n - 1)
    xs = np.linspace(-half, half, 33)
    x, y = np.meshgrid(xs, xs, indexing="ij")
    gform = log_amplitude_coeffs(s, t)
    sform = phase_coeffs(s, t)
    g_x, g_y = gform.grad(x, y)
    g_xx = gform.laplacian / 2.0
    s_x, s_y = sform.grad(x, y)
    s_xx = sform.laplacian / 2.0
    amp = np.exp(gform(x, y))

    def fourth(first, second):
        # |d^4/dx^4 e^f| / |e^f| for quadratic f: |f'^4 + 6 f'^2 f'' + 3 f''^2|
        return np.abs(first**4 + 6.0 * first * first * second + 3.0 * second**2)

    wx = g_x + 1j * s_x
    wy = g_y + 1j * s_y
    z = g_xx + 1j * s_xx
    psi4 = amp * (fourth(wx, z) + fourth(wy, z))
    e_schrod = (h * h / 12.0) * float(psi4.max()) / (2.0 * s.m)

    p4 = fourth(g_x, g_xx) + fourth(g_y, g_xx)
    e_bohm = (h * h / 12.0) * float(p4.max()) / (2.0 * s.m)

    a3x = amp * np.abs(g_x**3 + 3.0 * g_x * g_xx)
    a3y = amp * np.abs(g_y**3 + 3.0 * g_y * g_xx)
    e_cont = (h * h / 6.0) * float((np.abs(s_x) * a3x + np.abs(s_y) * a3y).max()) / s.m

    return max(e_schrod, e_bohm, e_cont)


# the grid chooser stops at the bracket width 48 bisection steps of [0.05, 6]
# reach, and takes at most this many secant steps
GRID_HALF_TOL = (6.0 - 0.05) / 2**48
GRID_SECANT_STEPS = 18


def residual_grid(s: Scenario, t: float, n: int = 201, target: float = 2e-5) -> GridSpec2D:
    """Largest square grid whose predicted stencil error stays at ``target``.

    Searches the half extent in [0.05, 6] by regula falsi with the Illinois
    modification: secant steps on ln(model / target) against ln(half),
    where the model is close to a power law.  The model error grows
    monotonically with extent at fixed n (larger h and larger fourth
    derivatives), so the bracket always holds the largest feasible extent.
    Each step lands at least GRID_HALF_TOL / 2 inside the bracket, so once
    the secant has converged the next step closes the bracket to
    GRID_HALF_TOL (about ten model calls in all).  The returned extent is
    always the feasible end of the bracket.
    """
    if not target > 0.0:
        raise ValueError(f"stencil-error target must be positive, got {target!r}")
    lo, hi = 0.05, 6.0

    def excess(half: float) -> float:
        return math.log(_stencil_error_model(s, t, half, n) / target)

    f_hi = excess(hi)
    if f_hi <= 0.0:
        return GridSpec2D.square(hi, n)
    f_lo = excess(lo)
    if f_lo > 0.0:
        raise ValueError(f"no feasible extent at n = {n} for t = {t:g}; raise n or target")
    kept = 0  # +1 after hi was kept, -1 after lo was kept
    for _ in range(GRID_SECANT_STEPS):
        if hi - lo <= GRID_HALF_TOL:
            break
        x_lo, x_hi = math.log(lo), math.log(hi)
        mid = math.exp(x_lo - f_lo * (x_hi - x_lo) / (f_hi - f_lo))
        mid = min(max(mid, lo + GRID_HALF_TOL / 2), hi - GRID_HALF_TOL / 2)
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
    return GridSpec2D.square(lo, n)
