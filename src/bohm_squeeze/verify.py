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
(``_ModeLattice``): exponentials run on nx + ny - 1 points per factor,
never on the nx * ny grid.  The stencils act on those sampled factors.
A node's four neighbours differ from it by one in both indices, so the
5-point Laplacian and the central differences of a product f(u) g(v) are
short sums of products of a neighbour sum or difference of f with one of
g.  Each stencil residual is then a sum of rank-one Hankel-times-Toeplitz
products on the interior: five for the Schrodinger and the continuity
residuals, and for the Bohm definition (sum f / f)(sum g / g) plus the
closed form's two mode terms, each against an all-ones factor.  The
residual checks therefore require hx == hy.

Memory: the Hankel and Toeplitz views are read-only strided arrays over
the stacked 1-D factors (no copy), and ``_ModeLattice.products`` adds the
terms a block of rows at a time through one scratch of at most 64 KiB, so
each stencil residual builds its field in exactly one grid-sized array (the
report then takes |r| into one real array of the same shape).

Grid-size guidance: the second-order stencil error scales with the fourth
spatial derivatives of the fields, which for these Gaussian-times-quadratic
forms can be computed exactly.  ``_stencil_error_law`` sets that error
model up once per scenario and time: on a 33^2 lattice over the extent,
every term is a polynomial in the squared half extent (times the
amplitude), so one evaluation costs a few operations on 545 points.
``residual_grid`` inverts the law to pick the largest square extent
keeping the predicted stencil error at a target, so residual checks stay
meaningful (error budget dominated by the identity under test, not by
the stencil).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .closedform import (
    SQRT2,
    GridSpec2D,
    QuadForm,
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
    max_abs = float(flat.max())
    flat *= flat  # in place: a product would be a second grid-sized temporary
    return ResidualReport(
        equation=equation,
        t=t,
        max_abs_residual=max_abs,
        rms_residual=float(np.sqrt(np.mean(flat))),
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


# boundary ring every stencil residual drops: one-sided stencils would
# degrade the order there
RING = 2

# amplitudes below this make -(lap A)/(2 m A) meaningless
AMPLITUDE_FLOOR = 1e-300

# bytes of the row-block scratch through which _ModeLattice.products adds each term
PRODUCT_SCRATCH_BYTES = 2**16


def _windows(a: np.ndarray, width: int, step: int) -> np.ndarray:
    """Read-only windows of ``width`` along a's last axis, one per row.

    Row r starts at element r (step 1), or at the last window's start
    minus r (step -1).  A strided view of a's memory, which must be
    contiguous: no copy.
    """
    rows = a.shape[-1] - width + 1
    offset = 0 if step > 0 else (rows - 1) * a.itemsize
    shape = (*a.shape[:-1], rows, width)
    strides = (*a.strides[:-1], step * a.itemsize, a.itemsize)
    view = np.ndarray(shape, a.dtype, a, offset, strides)
    view.flags.writeable = False
    return view


class _ModeLattice:
    """Closed-form fields on a grid of one spacing, from 1-D mode factors.

    Node (i, j) has x + y at index s = i + j and x - y at k = nx - 1 - i + j
    of nx + ny - 1 values each, so a field f(u) + g(v) (or f(u) g(v)) is a
    Hankel view of f plus (times) a Toeplitz view of g.  Both are read-only
    strided ``np.ndarray`` views of the factors' own memory: a Hankel row
    steps one element forward, a Toeplitz row one back.  The ring-RING
    interior takes the middle values s, k = 2 RING .. nx + ny - 2 - 2 RING.
    A node's neighbours are (s +- 1, k -+ 1) and (s +- 1, k +- 1), so for
    psi = f(u) g(v)

        h^2 lap psi         = (f[s+1] + f[s-1]) (g[k+1] + g[k-1]) - 4 f[s] g[k]
        2 h (psi_x + psi_y) =  (f[s+1] - f[s-1]) (g[k+1] + g[k-1])
        2 h (psi_x - psi_y) = -(f[s+1] + f[s-1]) (g[k+1] - g[k-1])

    ``products`` sums such rank-one terms into one grid-sized array, a block
    of rows at a time through a scratch of at most PRODUCT_SCRATCH_BYTES, so
    a residual allocates its result and nothing else of grid size.
    """

    def __init__(self, grid: GridSpec2D):
        if not math.isclose(grid.hx, grid.hy, rel_tol=1e-12):
            raise ValueError(
                f"residual checks need one grid spacing on both axes, got hx = {grid.hx:.17g} "
                f"and hy = {grid.hy:.17g}"
            )
        n = grid.nx + grid.ny - 1
        self.nx, self.ny, self.h = grid.nx, grid.ny, grid.hx
        # x + y at s, and x - y at k (descending, so each Toeplitz row is a
        # contiguous window)
        self.sums = np.linspace(grid.x_min + grid.y_min, grid.x_max + grid.y_max, n)
        self.diffs = np.linspace(grid.x_max - grid.y_min, grid.x_min - grid.y_max, n)
        self.u = self.sums / SQRT2
        self.v = self.diffs / SQRT2

    def views(self, f: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Views f[s] and g[k] on the whole grid or on its ring-RING interior.

        The factors' last axis says which: the window width minus the row
        count is ny - nx for both.  Leading axes (a stack of factors) carry
        over to the views.
        """
        width = (f.shape[-1] + 1 + self.ny - self.nx) // 2
        return _windows(f, width, 1), _windows(g, width, -1)

    def form(self, q: QuadForm) -> np.ndarray:
        """q(x, y) on the grid."""
        f, g = self.views(q.c_u * self.u * self.u + q.const, q.c_v * self.v * self.v)
        return f + g

    def factors(self, log_amp: QuadForm, phase: QuadForm | None = None) -> tuple[np.ndarray, np.ndarray]:
        """1-D factors f(u), g(v) of exp(log_amp + i phase): one exponential per mode.

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
        return np.exp(fu), np.exp(fv)

    def inner(self, f: np.ndarray) -> np.ndarray:
        """f at the interior's s (or k) values."""
        return f[2 * RING : f.size - 2 * RING]

    def stencil(self, f: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """f[s], f[s+1] + f[s-1] and f[s+1] - f[s-1] at the interior's s values."""
        up = f[2 * RING + 1 : f.size - 2 * RING + 1]
        down = f[2 * RING - 1 : f.size - 2 * RING - 1]
        return self.inner(f), up + down, up - down

    def products(self, *terms: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Sum over the (f, g) terms of f[s] g[k] on the interior.

        Every element is ((f0 g0 + f1 g1) + f2 g2) + ..., in term order, as
        if each product were a grid of its own.
        """
        hankel, toeplitz = self.views(np.stack([f for f, _ in terms]), np.stack([g for _, g in terms]))
        total = np.empty(hankel.shape[1:], np.result_type(hankel, toeplitz))
        rows, width = total.shape
        block = max(1, PRODUCT_SCRATCH_BYTES // (width * total.itemsize))
        scratch = np.empty((min(block, rows), width), total.dtype)
        for start in range(0, rows, block):
            rows_in = slice(start, start + block)
            out = total[rows_in]
            part = scratch[: out.shape[0]]
            h, t = hankel[:, rows_in], toeplitz[:, rows_in]
            np.multiply(h[0], t[0], out)
            for k in range(1, len(terms)):
                np.multiply(h[k], t[k], part)
                out += part
        return total

    def corner_min(self, f: np.ndarray, g: np.ndarray) -> float:
        """Smallest f[s] g[k] over the grid's four corners."""
        n = f.size
        corners = [(0, self.nx - 1), (self.nx - 1, 0), (self.ny - 1, n - 1), (n - 1, self.ny - 1)]
        return min(float(f[s] * g[k]) for s, k in corners)


def _stencil_lattice(grid: GridSpec2D) -> _ModeLattice:
    lattice = _ModeLattice(grid)
    if min(grid.nx, grid.ny) < 2 * RING + 1:
        raise ValueError(f"need at least {2 * RING + 1} samples per axis for an interior residual")
    return lattice


def _continuity_field(s: Scenario, t: float, grid: GridSpec2D, dt: float) -> np.ndarray:
    """Continuity residual on the interior, from rank-one products of mode factors."""
    lattice = _stencil_lattice(grid)
    f, g = lattice.factors(log_amplitude_coeffs(s, t))
    f_next, g_next = lattice.factors(log_amplitude_coeffs(s, t + dt))
    f_prev, g_prev = lattice.factors(log_amplitude_coeffs(s, t - dt))
    f0, f_sum, f_diff = lattice.stencil(f)
    g0, g_sum, g_diff = lattice.stencil(g)
    sform = phase_coeffs(s, t)
    rate = 1.0 / (2.0 * dt)
    # S_x = S_u + S_v and S_y = S_u - S_v with S_u = c_u (x + y), S_v = c_v (x - y),
    # so S_x A_x + S_y A_y = S_u (A_x + A_y) + S_v (A_x - A_y)
    flux = 1.0 / (2.0 * lattice.h * s.m)
    return lattice.products(
        (rate * lattice.inner(f_next), lattice.inner(g_next)),
        (-rate * lattice.inner(f_prev), lattice.inner(g_prev)),
        (flux * sform.c_u * lattice.inner(lattice.sums) * f_diff, g_sum),
        (-f_sum, flux * sform.c_v * lattice.inner(lattice.diffs) * g_diff),
        (sform.laplacian / (2.0 * s.m) * f0, g0),
    )


def continuity_residual(s: Scenario, t: float, grid: GridSpec2D, dt: float = 1e-4) -> ResidualReport:
    """Residual of A_t + (S_x A_x + S_y A_y)/m + (S_xx + S_yy) A/(2m) = 0.

    A_t by a central time difference of the closed-form amplitude; A_x, A_y
    by central space differences; the phase derivatives analytically (S is
    quadratic, so S_x = m nud (r x + y) and S_xx = m nud r exactly).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    return _report("continuity", t, _continuity_field(s, t, grid, dt), grid, dt)


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


def _schrodinger_field(s: Scenario, t: float, grid: GridSpec2D, dt: float, v_source: VSource) -> np.ndarray:
    """Schrodinger residual on the interior, from rank-one products of mode factors."""
    lattice = _stencil_lattice(grid)

    def psi(at: float) -> tuple[np.ndarray, np.ndarray]:
        return lattice.factors(log_amplitude_coeffs(s, at), phase_coeffs(s, at))

    f, g = psi(t)
    f_next, g_next = psi(t + dt)
    f_prev, g_prev = psi(t - dt)
    f0, f_sum, _ = lattice.stencil(f)
    g0, g_sum, _ = lattice.stencil(g)
    pot = external_quadform(s, t, v_source)
    u, v = lattice.inner(lattice.u), lattice.inner(lattice.v)
    rate = 0.5j / dt
    lap_weight = 1.0 / (2.0 * s.m * lattice.h**2)
    # V = V_u(u) + V_v(v); the stencil's -4 psi joins V_u's term
    return lattice.products(
        (rate * lattice.inner(f_next), lattice.inner(g_next)),
        (-rate * lattice.inner(f_prev), lattice.inner(g_prev)),
        (lap_weight * f_sum, g_sum),
        (-(pot.c_u * u * u + pot.const + 4.0 * lap_weight) * f0, g0),
        (-f0, pot.c_v * v * v * g0),
    )


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
    return _report("schrodinger", t, _schrodinger_field(s, t, grid, dt, v_source), grid, dt)


def _bohm_definition_field(s: Scenario, t: float, grid: GridSpec2D) -> np.ndarray:
    """Stencil minus closed-form Bohm potential on the interior.

    For A = f(u) g(v), h^2 lap A / A is
    ((f[s+1] + f[s-1]) / f[s]) ((g[k+1] + g[k-1]) / g[k]) - 4: one product
    on the grid.  ln A is concave, so A is smallest at a corner and the
    underflow guard reads the corners.
    """
    lattice = _stencil_lattice(grid)
    f, g = lattice.factors(log_amplitude_coeffs(s, t))
    if lattice.corner_min(f, g) < AMPLITUDE_FLOOR:
        raise ValueError("amplitude reaches the underflow floor; shrink the grid extent")
    f0, f_sum, _ = lattice.stencil(f)
    g0, g_sum, _ = lattice.stencil(g)
    b = bohm_coeffs(s, t)
    u, v = lattice.inner(lattice.u), lattice.inner(lattice.v)
    lap_weight = 1.0 / (2.0 * s.m * lattice.h**2)
    # -(lap A)/(2 m A) = -lap_weight (f ratio)(g ratio) + 4 lap_weight; the 4 joins
    # B_u.  B_u and B_v enter against all-ones factors: x 1 is exact and a + (-b) is a - b
    ones = np.ones_like(u)
    return lattice.products(
        (-lap_weight * f_sum / f0, g_sum / g0),
        (-(b.c_u * u * u + b.const - 4.0 * lap_weight), ones),
        (ones, -(b.c_v * v * v)),
    )


def bohm_definition_residual(s: Scenario, t: float, grid: GridSpec2D) -> ResidualReport:
    """Deviation of the stencil Bohm potential from the closed form."""
    return _report("bohm_definition", t, _bohm_definition_field(s, t, grid), grid, dt=0.0)


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


# the error law samples the forms on the unit lattice linspace(-1, 1, LAW_POINTS)^2,
# scaled by the half extent; its nodes are multiples of 1/16, exact in binary
LAW_POINTS = 33


def _stencil_error_law(s: Scenario, t: float) -> Callable[[float, int], float]:
    """Predicted worst interior stencil error on [-half, half]^2 with n points, as law(half, n).

    ln A and S are quadratic forms, so all derivatives of A and psi are
    exact polynomials-times-Gaussian; the bound evaluates the exact
    fourth-derivative coefficients on a LAW_POINTS^2 lattice over the
    extent and applies the central-stencil error constants (h^2/12 for
    second derivatives, h^2/6 for first).  Scaled by ``half``, each
    gradient is ``half`` times its value on the unit lattice, so every term
    is a polynomial in half^2 (times exp(half^2 q_0 + const)) whose
    coefficients are set up here, once.  Every term is even under
    (x, y) -> (-x, -y), which maps row-major node p to LAW_POINTS^2 - 1 - p,
    so the first half of the nodes and the centre give the same maxima.
    """
    gform = log_amplitude_coeffs(s, t)
    sform = phase_coeffs(s, t)
    unit = np.linspace(-1.0, 1.0, LAW_POINTS)
    x, y = (c.ravel()[: (LAW_POINTS * LAW_POINTS + 1) // 2] for c in np.meshgrid(unit, unit, indexing="ij"))
    q0 = gform.c_u * ((x + y) ** 2 / 2.0) + gform.c_v * ((x - y) ** 2 / 2.0)
    # rows: d/dx, d/dy
    g1 = np.stack(gform.grad(x, y))
    s1 = np.stack(sform.grad(x, y))
    g2 = gform.laplacian / 2.0
    w1 = g1 + 1j * s1
    w2 = g2 + 1j * sform.laplacian / 2.0
    # |d^4/dx^4 e^f| / |e^f| for quadratic f with f' = half w1 is
    # |half^4 w1^4 + 6 half^2 w1^2 f'' + 3 f''^2|, and |S'| |d^3/dx^3 A| / A
    # is half^2 |half^2 S' g1^3 + 3 S' g1 g2|: coefficients by powers of half^2
    w1_sq, g1_sq = w1 * w1, g1 * g1
    psi_terms = (w1_sq * w1_sq, 6.0 * w2 * w1_sq, 3.0 * w2 * w2)
    bohm_terms = (g1_sq * g1_sq, 6.0 * g2 * g1_sq, 3.0 * g2 * g2)
    flux_terms = (s1 * g1 * g1_sq, 3.0 * g2 * s1 * g1)

    def law(half: float, n: int) -> float:
        h2 = half * half
        amp = np.exp(h2 * q0 + gform.const)
        c4, c2, c0 = psi_terms
        psi4 = amp * np.abs((h2 * c4 + c2) * h2 + c0).sum(axis=0)
        c4, c2, c0 = bohm_terms
        p4 = np.abs((h2 * c4 + c2) * h2 + c0).sum(axis=0)
        c2, c0 = flux_terms
        a3 = amp * np.abs(h2 * c2 + c0).sum(axis=0)
        h = 2.0 * half / (n - 1)
        e_schrod = (h * h / 12.0) * float(psi4.max()) / (2.0 * s.m)
        e_bohm = (h * h / 12.0) * float(p4.max()) / (2.0 * s.m)
        e_cont = (h * h / 6.0) * h2 * float(a3.max()) / s.m
        return max(e_schrod, e_bohm, e_cont)

    return law


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

    law = _stencil_error_law(s, t)

    def excess(half: float) -> float:
        return math.log(law(half, n) / target)

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
