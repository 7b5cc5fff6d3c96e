"""Independent finite-difference verification of the engineered solution.

The closed-form quadruple (A, S, V_B, V) must satisfy four identities:
the Schrodinger equation, the amplitude-transport (continuity) equation,
the Hamilton-Jacobi closure, and the defining relation of the Bohm
potential.  This module checks them with central differences that know
nothing about the closed forms: time derivatives by central differencing
of the analytic fields, Laplacians by 5-point stencils.  Residuals are
reported over an interior region excluding a 2-point boundary ring where
one-sided stencils would degrade the order.

Residual grids lie on the mode axes: a grid's first axis is
u = (x+y)/sqrt2 and its second is v = (x-y)/sqrt2, each with its own
spacing.  (Density grids, and the quadrature below, stay in x and y.)
Every closed-form field is a function of u plus (or, for A and psi,
times) a function of v, so psi = f(u) g(v) is sampled as two 1-D factors
and no exponential runs on the grid.  The Laplacian is rotation-invariant,
so the 5-point Laplacian on this grid is the 1-D second difference along
each axis: lap psi = f'' g + f g''.  Each stencil residual is then a sum
of at most four rank-one terms, formed by one matrix product F @ G.T of
(n, 4) stacks of 1-D arrays; the Bohm-definition residual and the
Hamilton-Jacobi closure are outer sums r_u[:, None] + r_v[None, :], formed
as the rank-two product [r_u, 1] @ [1, r_v].  An outer sum's largest
absolute value comes from the 1-D parts (rounding is monotone, so its
extreme elements are fl(max r_u + max r_v) and fl(min r_u + min r_v));
only its rms reads the grid.

Grid-size guidance: the second-order stencil error along each axis scales
with that axis's fourth (and, for the continuity flux, third) derivatives
of the factors, which for these Gaussian-times-quadratic forms are exact.
``_stencil_error_law`` bounds it by one 1-D law per axis, in closed form:
each of its three terms is a function of y = Re(z) w^2 (z = q'' of psi's
factor along the axis), and the law is their supremum over the extent,
reached at its end or at an interior maximum (y = -3 for the Bohm
definition, y = -1 and -6 for continuity, the real roots of one quartic
for Schrodinger, all quartics solved by one batched eigvals).
``residual_grid`` picks per axis the largest half extent keeping that
bound at half the target, so residual checks stay meaningful (error
budget dominated by the identity under test, not by the stencil): one
scalar search per axis, time by time.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

import numpy as np

from .closedform import (
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
            raise ValueError(f"{self.equation} residual at t = {self.t:g} must be finite and non-negative")


def _report(
    equation: Equation, t: float, residual: np.ndarray, grid: GridSpec2D, dt: float, max_abs: float | None = None
) -> ResidualReport:
    """Statistics of a residual field that the report may overwrite.

    ``max_abs``, if given, is the field's largest absolute value; then only
    the rms reads the field.
    """
    flat = residual.ravel()
    if max_abs is None:
        # a real field takes its abs in place; a complex one needs a real array
        flat = np.abs(flat, out=flat if flat.dtype.kind == "f" else None)
        max_abs = flat.max()
    flat *= flat
    return ResidualReport(equation, t, float(max_abs), float(np.sqrt(flat.sum() / flat.size)), grid, dt)


def _outer_sum_report(
    equation: Equation, t: float, r_u: np.ndarray, r_v: np.ndarray, grid: GridSpec2D
) -> ResidualReport:
    """Statistics of the field r_u[:, None] + r_v[None, :], its extreme elements from the 1-D parts.

    The field is the rank-two product [r_u, 1] @ [1, r_v]: each element is
    one rounded sum of two exact products, so it equals the broadcast sum
    up to the sign of a zero, which neither statistic reads.
    """
    top, bottom = r_u.max() + r_v.max(), r_u.min() + r_v.min()
    field = _rank_one_sum([r_u, np.ones_like(r_u)], [np.ones_like(r_v), r_v])
    return _report(equation, t, field, grid, 0.0, max(abs(top), abs(bottom)))


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


def _factors(
    u: np.ndarray, v: np.ndarray, log_amp: QuadForm, phase: QuadForm | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """1-D factors f(u), g(v) of exp(log_amp + i phase) on a grid's two axes.

    The constant of ``log_amp`` is split evenly between the factors.
    For an amplitude (c_u, c_v <= 0) each factor is then at most
    e^(const/2), so wherever the product is above the underflow floor
    1e-300 both factors are normal numbers, as long as const <= 35.
    """
    fu = log_amp.c_u * u * u + 0.5 * log_amp.const
    fv = log_amp.c_v * v * v + 0.5 * log_amp.const
    if phase is not None:
        fu = fu + 1j * (phase.c_u * u * u + phase.const)
        fv = fv + 1j * (phase.c_v * v * v)
    return np.exp(fu), np.exp(fv)


def _inner(f: np.ndarray) -> np.ndarray:
    """f on the interior nodes of its axis."""
    return f[RING : f.size - RING]


def _stencil(f: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """f, its central first difference and its second difference on the interior nodes."""
    up, down = f[RING + 1 : f.size - RING + 1], f[RING - 1 : f.size - RING - 1]
    return _inner(f), (up - down) / (2.0 * h), (up - 2.0 * _inner(f) + down) / (h * h)


def _axes(grid: GridSpec2D) -> tuple[np.ndarray, np.ndarray]:
    """u and v at every node of a grid with an interior."""
    if min(grid.nx, grid.ny) < 2 * RING + 1:
        raise ValueError(f"need at least {2 * RING + 1} samples per axis for an interior residual")
    return grid.xs(), grid.ys()


def _rank_one_sum(f_terms: list[np.ndarray], g_terms: list[np.ndarray]) -> np.ndarray:
    """Sum over k of f_terms[k][:, None] * g_terms[k][None, :], as one matrix product."""
    return np.stack(f_terms, axis=1) @ np.stack(g_terms, axis=1).T


def _continuity_field(s: Scenario, t: float, grid: GridSpec2D, dt: float) -> np.ndarray:
    """Continuity residual on the interior, from rank-one products of mode factors."""
    u, v = _axes(grid)
    f_next, g_next = _factors(u, v, log_amplitude_coeffs(s, t + dt))
    f_prev, g_prev = _factors(u, v, log_amplitude_coeffs(s, t - dt))
    f, g = _factors(u, v, log_amplitude_coeffs(s, t))
    f0, f1, _ = _stencil(f, grid.hx)
    g0, g1, _ = _stencil(g, grid.hy)
    sform = phase_coeffs(s, t)
    rate = 1.0 / (2.0 * dt)
    # S_x A_x + S_y A_y = S_u A_u + S_v A_v, with S_u = 2 c_u u and S_v = 2 c_v v;
    # lap S A / (2m) joins the u term
    flux_u = (2.0 * sform.c_u * _inner(u) * f1 + 0.5 * sform.laplacian * f0) / s.m
    return _rank_one_sum(
        [rate * _inner(f_next), -rate * _inner(f_prev), flux_u, f0],
        [_inner(g_next), _inner(g_prev), g0, 2.0 * sform.c_v * _inner(v) * g1 / s.m],
    )


def continuity_residual(s: Scenario, t: float, grid: GridSpec2D, dt: float = 1e-4) -> ResidualReport:
    """Residual of A_t + (S_x A_x + S_y A_y)/m + (S_xx + S_yy) A/(2m) = 0.

    A_t by a central time difference of the closed-form amplitude; the
    gradient term as S_u A_u + S_v A_v, with A_u, A_v by central differences
    along the grid's axes and the phase derivatives analytically (S is
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
    u, v = grid.xs(), grid.ys()
    return _outer_sum_report("hamilton_jacobi", t, total.c_u * u * u + total.const, total.c_v * v * v, grid)


def _schrodinger_field(s: Scenario, t: float, grid: GridSpec2D, dt: float, v_source: VSource) -> np.ndarray:
    """Schrodinger residual on the interior, from rank-one products of mode factors."""
    u, v = _axes(grid)

    def psi(at: float) -> tuple[np.ndarray, np.ndarray]:
        return _factors(u, v, log_amplitude_coeffs(s, at), phase_coeffs(s, at))

    f_next, g_next = psi(t + dt)
    f_prev, g_prev = psi(t - dt)
    f, g = psi(t)
    f0, _, f2 = _stencil(f, grid.hx)
    g0, _, g2 = _stencil(g, grid.hy)
    pot = external_quadform(s, t, v_source)
    rate = 0.5j / dt
    # lap psi = f'' g + f g'' and V = V_u(u) + V_v(v), V's constant in V_u
    u, v = _inner(u), _inner(v)
    r_u = f2 / (2.0 * s.m) - (pot.c_u * u * u + pot.const) * f0
    r_v = g2 / (2.0 * s.m) - pot.c_v * v * v * g0
    return _rank_one_sum(
        [rate * _inner(f_next), -rate * _inner(f_prev), r_u, f0],
        [_inner(g_next), _inner(g_prev), g0, r_v],
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


def _bohm_definition_parts(s: Scenario, t: float, grid: GridSpec2D) -> tuple[np.ndarray, np.ndarray]:
    """Stencil minus closed-form Bohm potential on the interior, as its parts (r_u, r_v).

    For A = f(u) g(v), lap A / A = f''/f + g''/g: the residual is the
    outer sum r_u[:, None] + r_v[None, :] of one 1-D residual per axis.
    ln A is concave, so A is smallest at a corner and the underflow guard
    reads the corners.
    """
    u, v = _axes(grid)
    f, g = _factors(u, v, log_amplitude_coeffs(s, t))
    if min(f[0], f[-1]) * min(g[0], g[-1]) < AMPLITUDE_FLOOR:
        raise ValueError("amplitude reaches the underflow floor; shrink the grid extent")
    f0, _, f2 = _stencil(f, grid.hx)
    g0, _, g2 = _stencil(g, grid.hy)
    b = bohm_coeffs(s, t)
    u, v = _inner(u), _inner(v)
    r_u = -f2 / (2.0 * s.m * f0) - (b.c_u * u * u + b.const)
    r_v = -g2 / (2.0 * s.m * g0) - b.c_v * v * v
    return r_u, r_v


def bohm_definition_residual(s: Scenario, t: float, grid: GridSpec2D) -> ResidualReport:
    """Deviation of the stencil Bohm potential from the closed form."""
    return _outer_sum_report("bohm_definition", t, *_bohm_definition_parts(s, t, grid), grid)


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


# law(half, n): one axis's predicted stencil error on n nodes over [-half, half]
AxisLaw = Callable[[float, int], float]

# relative margin on every law value: its terms take exp and |p| from Python's
# math library, the node law from numpy's, and the two differ by a few ulps
LAW_MARGIN = 1.0 + 2.0**-46


def _stencil_error_law(s: Scenario, times: Sequence[float]) -> list[AxisLaw]:
    """Predicted worst stencil error along the mode axes of each time, one law per axis.

    laws[2k] is the u axis of ``times[k]`` and laws[2k + 1] its v axis.

    On n nodes over [-half, half], spacing h = 2 half / (n - 1), the second
    difference of a factor e^q errs by h^2/12 |d^4 e^q / dw^4| and the
    central first difference by h^2/6 |d^3 e^q / dw^3|.  Along an axis w,
    q = c w^2 + const with q'' = 2 c = z, so with x = z w^2 these are
    exactly |e^q| |z|^2 |x^2 + 6 x + 3| and |e^q| |z|^2 |w| |x + 3|.  The
    Schrodinger error is that of psi's factor over 2m, the Bohm-definition
    error that of A's factor divided by the factor, over 2m, and the
    continuity error that of A's factor times |S_w| / m; the first and
    last are taken at the other factor's peak e^(const/2).

    Each term is a function of y = Re(z) w^2 on [Re(z) half^2, 0] (Re z < 0),
    and the law takes the largest value each reaches there, nodes or not:

    - Bohm definition: Re(z)^2 |y^2 + 6 y + 3|, extremal inside at y = -3;
    - continuity: a multiple of e^(y/2) |y (y + 3)|, at y = -1 and y = -6;
    - Schrodinger: |z|^2 e^(y/2 + const) sqrt(Q), at the real roots of the
      quartic Q + Q' (d/dy e^y Q = e^y (Q + Q')).  With tau = Im z / Re z,
      x = y (1 + i tau), so Q = |x^2 + 6 x + 3|^2
      = (A y^2 + 6 y + 3)^2 + tau^2 (2 y^2 + 6 y)^2 with A = 1 - tau^2, and
      Q + Q' has leading coefficient (1 + tau^2)^2.

    One batched eigvals of the quartics' companion matrices gives every
    axis's roots.  A root's real part is a candidate whatever its imaginary
    part: any point of the interval reads at most the supremum, so an extra
    candidate is harmless, while a real root with a rounded imaginary part
    would be lost.  A law call then evaluates the terms at the interval's
    end and takes the largest candidate inside: O(1) per extent.  The
    supremum bounds every node, so a grid within the law is within the
    law on its nodes; the two differ where an interior maximum falls
    between nodes.

    The law is leading-order in h: it has no eps / h^2 term for the
    rounding of the second difference, so where a strongly squeezed axis
    is sampled finely (fig1's scenario at t = 3 on 401 points and more)
    the measured residual outgrows it.  At the default n = 201 it holds.
    """
    forms = [(log_amplitude_coeffs(s, t), phase_coeffs(s, t)) for t in times]
    axes = [axis for a, p in forms for axis in ((a.c_u, p.c_u, a.const), (a.c_v, p.c_v, a.const))]
    # Q + Q' over its leading coefficient, in g = 1 / (1 + tau^2) = Re(z)^2 / |z|^2,
    # which is 0 where |z| is not finite (such an axis has no feasible extent)
    gs = [a * a / (a * a + b * b) if math.isfinite(b) else 0.0 for a, b, _ in axes]
    companion = np.eye(4, k=-1)[None].repeat(len(axes), 0)
    top_rows = [[4.0 * (1.0 + 3.0 * g), (66.0 + 12.0 * g) * g, 60.0 * (1.0 + g) * g, 45.0 * g * g] for g in gs]
    companion[:, 0] = -np.reshape(top_rows, (-1, 4))
    roots = np.linalg.eigvals(companion).real.tolist()
    return [_axis_law(s.m, *axis, candidates) for axis, candidates in zip(axes, roots)]


def _axis_law(m: float, c_amp: float, c_phase: float, const: float, roots: list[float]) -> AxisLaw:
    """One axis's law, from its ln A and phase coefficients and the real parts of its quartic's roots."""
    z = 2.0 * complex(c_amp, c_phase)  # q'' of psi's factor; its real part is A's
    rho = z.real
    k_psi, k_p, k_a = abs(z) * abs(z), rho * rho, abs(z.imag) * rho * rho
    if not math.isfinite(k_psi):  # a phase curvature past 1e154: no extent is feasible
        return lambda half, n: math.inf

    def terms(w_sq: float) -> float:
        # the three errors at w^2 = w_sq, over h^2 / m, in the node law's order of operations
        x, y = z * w_sq, rho * w_sq
        a = math.exp(c_amp * w_sq + const)
        p = (x + 6.0) * x + 3.0
        return max(
            k_psi * (a * math.hypot(p.real, p.imag)) / 24.0,
            k_p * abs((y + 6.0) * y + 3.0) / 24.0,
            k_a * (a * w_sq * abs(y + 3.0)) / 6.0,
        )

    peaks = [(y, terms(y / rho)) for y in {0.0, -1.0, -3.0, -6.0, *roots} if y <= 0.0]

    def law(half: float, n: int) -> float:
        w_sq = half * half
        end = rho * w_sq
        h = 2.0 * half / (n - 1)
        return h * h * max([terms(w_sq)] + [value for y, value in peaks if y >= end]) / m * LAW_MARGIN

    return law


# each axis's half extent is searched in [GRID_HALF_MIN, DIAGONAL_COVERAGE sigma];
# the search stops at the width GRID_BISECTIONS bisection steps of that bracket
# reach, and takes at most GRID_SECANT_STEPS secant steps
GRID_HALF_MIN = 1e-3
GRID_BISECTIONS = 48
GRID_SECANT_STEPS = 18


def _largest_half(excess: Callable[[float], float], lo: float, hi: float) -> float | None:
    """The feasible end of one axis's bracket [lo, hi] once the search closes it.

    ``excess(half)`` is ln(law / (target / 2)) at that half extent; the
    result is None when even ``lo`` is infeasible.
    """
    tol = (hi - lo) / 2**GRID_BISECTIONS
    f_hi = excess(hi)
    if f_hi <= 0.0:
        return hi
    f_lo = excess(lo)
    if f_lo > 0.0:
        return None
    kept = 0  # +1 after hi was kept, -1 after lo was kept
    for _ in range(GRID_SECANT_STEPS):
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


def residual_grid(
    s: Scenario, t: float | Sequence[float], n: int = 201, target: float = 2e-5
) -> GridSpec2D | list[GridSpec2D]:
    """Largest grid on the mode axes whose predicted stencil error stays at ``target``.

    ``t`` is one time, for one grid, or a sequence of times, for one grid
    per time in order.  Each axis's law gets half the target, and its half
    extent is searched in [GRID_HALF_MIN, DIAGONAL_COVERAGE sigma] (a
    bracket that would end below GRID_HALF_MIN is that one point) by
    regula falsi with the Illinois modification: secant steps on
    ln(law / target) against ln(half), where the law is close to a power
    law.  The law grows monotonically with extent at fixed n (larger h and
    larger fourth derivatives), so the bracket always holds the largest
    feasible extent.  Each step lands at least half the tolerance inside
    the bracket, so once the secant has converged the next step closes the
    bracket to the tolerance (about ten law calls per axis).  The returned
    extent is always the feasible end of the bracket.

    Each axis runs its own search, time by time in order, so the first
    time that fails (out of ``Scenario.nu_at``'s range, or with an axis
    without a feasible extent) raises its error.  One batched root search
    serves the laws of every time before it.
    """
    if not (isinstance(n, numbers.Integral) and n >= 2 * RING + 1):
        raise ValueError(f"residual grid needs an integer n >= {2 * RING + 1}, got {n!r}")
    if not 0.0 < target < math.inf:
        raise ValueError(f"stencil-error target must be positive and finite, got {target!r}")
    single = np.ndim(t) == 0
    times = [t] if single else list(t)
    brackets, failure = [], None
    for at in times:
        try:
            sigmas = spread_sigmas(s, at)
        except ValueError as exc:  # raised once the times before it have their grids
            failure = exc
            break
        brackets += [(GRID_HALF_MIN, max(GRID_HALF_MIN, DIAGONAL_COVERAGE * sigma)) for sigma in sigmas]

    halves, budget = [], 0.5 * target
    for k, (law, (lo, hi)) in enumerate(zip(_stencil_error_law(s, times[: len(brackets) // 2]), brackets)):
        half = _largest_half(lambda half: math.log(law(half, n) / budget), lo, hi)
        if half is None:
            at, axis = times[k // 2], "uv"[k % 2]
            raise ValueError(f"no feasible extent at n = {n} for t = {at:g} on the {axis} axis; raise n or target")
        halves.append(half)
    if failure is not None:
        raise failure
    grids = [GridSpec2D(-a_u, a_u, -a_v, a_v, n, n) for a_u, a_v in zip(halves[::2], halves[1::2])]
    return grids[0] if single else grids
