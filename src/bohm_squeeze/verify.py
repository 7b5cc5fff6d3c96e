"""Independent finite-difference verification of the engineered solution.

The closed-form quadruple (A, S, V_B, V) must satisfy four identities:
the Schrodinger equation, the amplitude-transport (continuity) equation,
the Hamilton-Jacobi closure, and the defining relation of the Bohm
potential.  Three of them are checked with central differences that know
nothing about the closed forms: time derivatives by central differencing
of the analytic fields, Laplacians by 5-point stencils.  The
Hamilton-Jacobi closure has no derivative to difference: it is checked
on the forms themselves, the sum of its four forms evaluated at every
node (``hamilton_jacobi_residual``), where it cancels to rounding.
Residuals are reported over an interior region excluding a 2-point
boundary ring where one-sided stencils would degrade the order.

Residual grids lie on the mode axes: a grid's first axis is
u = (x+y)/sqrt2 and its second is v = (x-y)/sqrt2, each with its own
spacing.  (Density grids stay in x and y, and so does the quadrature
below, which integrates ``closedform.sample_density``'s samples.)
Every closed-form field is a function of u plus (or, for A and psi,
times) a function of v, so psi = f(u) g(v) is sampled as two 1-D factors
and no exponential runs on the grid.  The Laplacian is rotation-invariant,
so the 5-point Laplacian on this grid is the 1-D second difference along
each axis: lap psi = f'' g + f g''.  Each stencil residual is then a sum
of at most four rank-one terms, formed by one matrix product F @ G.T of
(n, 4) stacks of 1-D arrays; the Bohm-definition residual and the
Hamilton-Jacobi closure are outer sums r_u[:, None] + r_v[None, :], and
neither statistic reads the grid: both come from the 1-D parts
(``_outer_sum_report``).

The checks read the scenario's schedules from ``closedform.Schedules``
records: ``residual_grid``, ``diagonal_moments`` and ``check_times`` take
the record of a run's times, ``s.at(times)``, in place of (s, t), and a
record at a float time is a run of one time.  ``TimeSamples`` is the
record the four residual checks read, over a run's times: one
``Scenario.at`` call over the (T, 3) array of times t + dt, t - dt and t,
from which ln A's and the phase's forms, A's and psi's factors, their
stencils and every 1-D term of the four checks are each formed once, as
(T, ...) arrays.  Each check reads its time's row and does only its grid
work: a stencil check forms its field by one matrix product and reduces
it in place, so a pass of all four peaks at its largest field beside the
record's 1-D arrays.

The Bohm-definition check reads ln A's samples, not A's: for a factor
f = e^q, the second difference over the centre is
f''/f = (expm1(q(w+h) - q(w)) + expm1(q(w-h) - q(w))) / h^2, the same
second difference in exact arithmetic.  It never forms f, so no factor
can underflow however far the grid reaches into A's tails, and ln A's
constant cancels.  Only a neighbour-to-centre ratio past the float range
(|q(w+-h) - q(w)| > 709) can break it: its part is then infinite, and
the report refuses it as it refuses any non-finite residual.

``check_times`` is the whole pass over a run's times: a chunk of times
at a time, within RECORD_CHUNK_BYTES, it builds the chunk's
``TimeSamples``, makes one ``diagonal_moments`` call, runs the four
residual checks at each time, holds the moments to the squeezing law,
and returns each time's report entry with one (check, value, tolerance
key) row per check, in report order.  A time's entry and rows are those
of a run of that time alone, bit for bit.  Choosing the grids, judging
the rows against a run's tolerances and writing the report are
``cli``'s.

Grid-size guidance: the second-order stencil error along each axis scales
with that axis's fourth (and, for the continuity flux, third) derivatives
of the factors, which for these Gaussian-times-quadratic forms are exact.
``_stencil_error_law`` bounds it by one 1-D law per axis, in closed form:
each of its three terms is a function of y = Re(z) w^2 (z = q'' of psi's
factor along the axis), and the law is their supremum over the extent,
reached at its end or at an interior maximum (y = -3 for the Bohm
definition, y = -1 and -6 for continuity, the real roots of one quartic
for Schrodinger, every axis's quartic of a run solved by one eigvals
call).  ``residual_grid`` picks per axis the largest half extent keeping
that bound at half the stencil budget, a fifth of the ``residual_max``
the residuals are judged against, so residual checks stay meaningful
(error budget dominated by the identity under test, not by the stencil):
one scalar search per axis and time.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

import numpy as np

from .closedform import (
    NU_LIMIT,
    GridSpec2D,
    QuadForm,
    Scenario,
    Schedules,
    bohm_coeffs,
    external_coeffs,
    external_variant_coeffs,
    kinetic_coeffs,
    log_amplitude_coeffs,
    phase_coeffs,
    phase_rate_coeffs,
    sample_density,
    spread_sigmas,
)

__all__ = [
    "V_SOURCES",
    "ResidualReport",
    "TimeSamples",
    "check_times",
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
VSource = Literal["closed_form", "variant"]

# Selectable external-potential sources for the residual checks:
#   closed_form - the closed-form V that ``density`` writes as
#                 external_potential (the default),
#   variant     - the sign-variant transcription, which differs by
#                 (2m + 1) V_B and therefore fails the residual checks by
#                 construction (diagnostic).
V_SOURCES: tuple[VSource, ...] = ("closed_form", "variant")


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


def _report(equation: Equation, t: float, field: np.ndarray, grid: GridSpec2D, dt: float) -> ResidualReport:
    """Statistics of a residual field, taken in place: the field is overwritten.

    One rule serves real and complex fields: the field's float64 view is
    squared in place, and a complex field adds its imaginary squares into
    its real ones, so no second grid-sized array is made.  The max is the
    square root of the largest square, which is |x| exactly for every
    |x| >= 2^-511; a real field whose every element lies below that reads
    its max through the same underflowing square as its rms.
    """
    squares = field.view(np.float64).ravel()
    squares *= squares
    if field.dtype.kind == "c":
        squares, imag = squares[0::2], squares[1::2]
        squares += imag
    return ResidualReport(equation, t, math.sqrt(squares.max()), float(np.sqrt(squares.sum() / squares.size)), grid, dt)


# the least binary exponent an outer sum's parts are scaled by: 2^1000 stays finite
OUTER_SUM_MIN_EXPONENT = -1000


def _outer_sum_report(
    equation: Equation, t: float, r_u: np.ndarray, r_v: np.ndarray, grid: GridSpec2D
) -> ResidualReport:
    """Statistics of the field r_u[:, None] + r_v[None, :], both from the 1-D parts.

    Rounding is monotone, so the field's extreme elements are
    fl(max r_u + max r_v) and fl(min r_u + min r_v).  Its mean square is
    exactly, for the parts' computed means a and b, with d = r_u - a and
    e = r_v - b,

        mean (r_u[i] + r_v[j])^2 = var d + var e + (a + b + mean d + mean e)^2,

    where mean d and mean e are the means' rounding.  With large opposite
    offsets a + b cancels exactly (Sterbenz), and the rounding terms keep
    the rms within a few ulps.  The rounding of a mean of large parts can
    be as large as their spread, where var d = mean d^2 - (mean d)^2 would
    cancel, so d and e are centred a second time, in place: what mean is
    left then lies far below the spread, and each variance reads as the
    part's mean square, its squares summed by ``math.fsum``: a product sum
    can round each small square's addition the same way, which put one
    large and thirty equal small squares 16 ulps off.  The parts are first
    scaled by a power of two below 1, exactly, so no sum or square
    overflows or underflows.
    """
    top_u, bottom_u, top_v, bottom_v = r_u.max(), r_u.min(), r_v.max(), r_v.min()
    top, bottom = top_u + top_v, bottom_u + bottom_v
    rms = math.nan  # a part or an extreme element past the float range: the report refuses it
    if math.isfinite(top) and math.isfinite(bottom):
        exponent = math.frexp(max(top_u, -bottom_u, top_v, -bottom_v))[1]
        scale = math.ldexp(1.0, -max(exponent, OUTER_SUM_MIN_EXPONENT))
        a, b = r_u * scale, r_v * scale
        mean_a, mean_b = a.sum() / a.size, b.sum() / b.size
        d, e = a - mean_a, b - mean_b
        mean_d, mean_e = d.sum() / d.size, e.sum() / e.size
        d -= mean_d
        e -= mean_e
        square = math.fsum((d * d).tolist()) / d.size + math.fsum((e * e).tolist()) / e.size
        square += ((mean_a + mean_b) + (mean_d + mean_e)) ** 2
        rms = math.sqrt(max(square, 0.0)) / scale
    return ResidualReport(equation, t, float(max(abs(top), abs(bottom))), rms, grid, 0.0)


def external_quadform(now: Schedules, v_source: VSource = "closed_form") -> QuadForm:
    """External-potential quadratic form from the selected source."""
    if v_source == "closed_form":
        return external_coeffs(now)
    if v_source == "variant":
        return external_variant_coeffs(now)
    raise ValueError(f"unknown v_source {v_source!r}; expected one of {V_SOURCES}")


# ---------------------------------------------------------------------------
# finite-difference checks


# boundary ring every stencil residual drops: one-sided stencils would
# degrade the order there
RING = 2


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _inner(f: np.ndarray) -> np.ndarray:
    """f on the interior nodes of its last axis."""
    return f[..., RING : f.shape[-1] - RING]


def _neighbours(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f one node up and one node down from each interior node of its last axis."""
    n = f.shape[-1]
    return f[..., RING + 1 : n - RING + 1], f[..., RING - 1 : n - RING - 1]


def _stencil(f: np.ndarray, h: np.ndarray | float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """f, its central first difference and its second difference on the interior nodes of its last axis."""
    up, down = _neighbours(f)
    return _inner(f), (up - down) / (2.0 * h), (up - 2.0 * _inner(f) + down) / (h * h)


def _relative_second_difference(q: np.ndarray, h: np.ndarray | float) -> np.ndarray:
    """The second difference of e^q over e^q on the interior nodes of its last axis, from q alone.

    (f(w+h) - 2 f(w) + f(w-h)) / f(w) for f = e^q, from the same views as
    ``_stencil``: each neighbour over the centre is e^(q(w+-h) - q(w)).
    """
    up, down = _neighbours(q)
    return (np.expm1(up - _inner(q)) + np.expm1(down - _inner(q))) / (h * h)


def _as_run(now: Schedules) -> Schedules:
    """``now`` as a record over a 1-D array of times: a record at a float time is a run of one time."""
    return Schedules(now.s, *(np.atleast_1d(field) for field in now[1:]))


def _run_grids(grids: GridSpec2D | Sequence[GridSpec2D], count: int) -> list[GridSpec2D]:
    """One grid per time of a run of ``count`` times, all of one shape: one grid serves every time."""
    grids = [grids] * count if isinstance(grids, GridSpec2D) else list(grids)
    if len(grids) != count or len({(grid.nx, grid.ny) for grid in grids}) > 1:
        raise ValueError(f"need one grid per time, all of one shape: got {len(grids)} grids for {count} times")
    return grids


def _mode_factors(amp: QuadForm, phase: QuadForm, u: np.ndarray, v: np.ndarray):
    """ln A's u and v parts (p, q) and psi's u and v factors (f, g) on the nodes u and v.

    ``amp`` and ``phase`` are ln A's and the phase's forms, which broadcast
    against the nodes.  ln A's constant is split evenly between its parts,
    and the phase's constant goes to psi's u factor.
    """
    p, q = amp.c_u * u * u + 0.5 * amp.const, amp.c_v * v * v + 0.5 * amp.const
    return (p, q), (np.exp(p + 1j * (phase.c_u * u * u + phase.const)), np.exp(q + 1j * (phase.c_v * v * v)))


def _time_difference_terms(
    factors: tuple[np.ndarray, np.ndarray], rate: complex, f_terms: list, g_terms: list
) -> tuple[np.ndarray, np.ndarray]:
    """Stacks F and G whose product F[k] @ G[k].T is rate (phi(t + dt) - phi(t - dt)) plus space terms.

    ``factors`` are phi's u and v factors (A's or psi's), rows t + dt and
    t - dt first on their second axis; ``f_terms`` and ``g_terms`` are the
    space terms' u and v factors on the interior.  F is (T, n_u, k) and G
    is (T, n_v, k), C-ordered, so each time's product is one matrix product
    of an (n_u, k) and a transposed (n_v, k) array.
    """
    f, g = factors
    stack_f = np.stack([rate * _inner(f[:, 0]), -rate * _inner(f[:, 1]), *f_terms], axis=-1)
    return stack_f, np.stack([_inner(g[:, 0]), _inner(g[:, 1]), *g_terms], axis=-1)


class TimeSamples:
    """What the four residual checks read at each time of a run, each time on its own grid.

    ``now`` is the scenario's record at the run's times (a record at a
    float time is a run of one time) and ``grids`` one grid for every time
    or one grid per time, all of one shape.  Row k of every array belongs
    to the run's time ``t[k]``, checked on ``grids[k]``.  The record is one
    ``Scenario.at`` call over the (T, 3) array of times t + dt, t - dt and
    t, a column against an axis's nodes; from it ln A's and the phase's
    forms, A's and psi's factors at the three times, their stencils and
    every 1-D term of the four checks are each formed once, as (T, ...)
    arrays.  It keeps only what the checks read, read-only:

    - ``schrodinger_terms`` and ``continuity_terms``: each check's stacks
      (F, G), whose product F[k] @ G[k].T is the time's residual field on
      the interior (``_time_difference_terms``);
    - ``hj_parts`` and ``bohm_parts``: (r_u, r_v), the parts of each outer
      sum, the Hamilton-Jacobi closure's on every node and the Bohm
      definition's on the interior.

    ``v_source`` selects the external potential both Schrodinger and the
    Hamilton-Jacobi closure read.  A grid with fewer than 2 RING + 1 nodes
    on an axis has no interior and is refused, and so is a time whose
    difference reads nu past NU_LIMIT at t + dt or t - dt: the message
    names the run's first such t and the step dt.
    """

    def __init__(
        self,
        now: Schedules,
        grids: GridSpec2D | Sequence[GridSpec2D],
        dt: float = 1e-4,
        v_source: VSource = "closed_form",
    ):
        if not dt > 0.0:
            raise ValueError("dt must be positive")
        run = _as_run(now)
        self.dt, self.t = dt, run.t.tolist()
        self.grids = _run_grids(grids, len(self.t))
        times = np.stack([run.t + dt, run.t - dt, run.t], axis=1)
        try:
            schedules = run.s.at(times[:, :, None])
        except ValueError:
            # ``now`` holds each t in range, so t + dt or t - dt lies past it, by Scenario.at's rule
            t = self.t[np.argmax(np.abs(run.s.nu.value(times)).max(axis=1) * max(1.0, abs(run.s.r)) > NU_LIMIT)]
            raise ValueError(
                f"at t = {t:g} the time difference's step dt = {dt:g} reaches past the supported range {NU_LIMIT:g}"
            ) from None
        if min(self.grids[0].nx, self.grids[0].ny) < 2 * RING + 1:
            raise ValueError(f"need at least {2 * RING + 1} samples per axis for an interior residual")
        # a term past the float range is left to the report of the check that
        # reads it, which refuses it, so forming it raises no warning
        with np.errstate(over="ignore", invalid="ignore"):
            m, now = schedules.s.m, Schedules(schedules.s, *(field[:, 2] for field in schedules[1:]))  # at t: (T, 1)
            # each time's axes on its rows, and their spacings as (T, 1) columns
            u, v = np.stack([grid.xs() for grid in self.grids]), np.stack([grid.ys() for grid in self.grids])
            hx, hy = np.array([[grid.hx] for grid in self.grids]), np.array([[grid.hy] for grid in self.grids])
            phase = phase_coeffs(schedules)
            (p, q), (f, g) = _mode_factors(log_amplitude_coeffs(schedules), phase, u[:, None], v[:, None])
            u_in, v_in = _inner(u), _inner(v)

            # Schrodinger: lap psi = f'' g + f g'' and V = V_u(u) + V_v(v), V's constant in V_u
            (f0, _, f2), (g0, _, g2) = _stencil(f[:, 2], hx), _stencil(g[:, 2], hy)
            pot = external_quadform(now, v_source)
            r_u = f2 / (2.0 * m) - (pot.c_u * u_in * u_in + pot.const) * f0
            r_v = g2 / (2.0 * m) - pot.c_v * v_in * v_in * g0
            self.schrodinger_terms = _time_difference_terms((f, g), 0.5j / dt, [r_u, f0], [g0, r_v])

            # continuity: S_x A_x + S_y A_y = S_u A_u + S_v A_v, with S_u = 2 c_u u and
            # S_v = 2 c_v v, the phase's form at t; lap S A / (2m) joins the u term
            f, g = np.exp(p), np.exp(q)
            (f0, f1, _), (g0, g1, _) = _stencil(f[:, 2], hx), _stencil(g[:, 2], hy)
            flux_u = (2.0 * phase.c_u[:, 2] * u_in * f1 + 0.5 * phase.laplacian[:, 2] * f0) / m
            flux_v = 2.0 * phase.c_v[:, 2] * v_in * g1 / m
            self.continuity_terms = _time_difference_terms((f, g), 0.5 / dt, [flux_u, f0], [g0, flux_v])

            # the outer sums; for A = f(u) g(v), lap A / A = f''/f + g''/g, each from ln A at t
            b = bohm_coeffs(now)
            total = kinetic_coeffs(now) + b + pot + phase_rate_coeffs(now)
            self.hj_parts = total.c_u * u * u + total.const, total.c_v * v * v
            self.bohm_parts = (
                -_relative_second_difference(p[:, 2], hx) / (2.0 * m) - (b.c_u * u_in * u_in + b.const),
                -_relative_second_difference(q[:, 2], hy) / (2.0 * m) - b.c_v * v_in * v_in,
            )
        _read_only(*self.schrodinger_terms, *self.continuity_terms, *self.hj_parts, *self.bohm_parts)


def _field(terms: tuple[np.ndarray, np.ndarray], row: int) -> np.ndarray:
    """A stencil check's field on the interior at the record's time ``row``: one product of its stacks."""
    f, g = terms
    return f[row] @ g[row].T


def schrodinger_residual(at: TimeSamples, row: int = 0) -> ResidualReport:
    """Residual of i psi_t + lap(psi)/(2m) - V psi = 0 at the record's time ``row``.

    psi_t by central time difference of the closed-form wavefunction, the
    Laplacian by the 5-point stencil, V from the record's source.
    """
    return _report("schrodinger", at.t[row], _field(at.schrodinger_terms, row), at.grids[row], at.dt)


def continuity_residual(at: TimeSamples, row: int = 0) -> ResidualReport:
    """Residual of A_t + (S_x A_x + S_y A_y)/m + (S_xx + S_yy) A/(2m) = 0 at the record's time ``row``.

    A_t by a central time difference of the closed-form amplitude; the
    gradient term as S_u A_u + S_v A_v, with A_u, A_v by central differences
    along the grid's axes and the phase derivatives analytically (S is
    quadratic, so S_x = m nud (r x + y) and S_xx = m nud r exactly).
    """
    return _report("continuity", at.t[row], _field(at.continuity_terms, row), at.grids[row], at.dt)


def hamilton_jacobi_residual(at: TimeSamples, row: int = 0) -> ResidualReport:
    """Residual of |grad S|^2/(2m) + V_B + V + S_t = 0 at the record's time ``row``, all terms analytic.

    With ``closed_form`` this cancels to rounding noise, so it checks the
    closed-form V that ``density`` writes against the phase and amplitude
    forms; with ``variant`` it leaves exactly (2m + 1) V_B, which is the
    point of that source.
    """
    r_u, r_v = at.hj_parts
    return _outer_sum_report("hamilton_jacobi", at.t[row], r_u[row], r_v[row], at.grids[row])


def bohm_definition_residual(at: TimeSamples, row: int = 0) -> ResidualReport:
    """Deviation of the stencil Bohm potential from the closed form at the record's time ``row``.

    For A = f(u) g(v), lap A / A = f''/f + g''/g: the residual is the
    outer sum r_u[:, None] + r_v[None, :] of one 1-D residual per axis,
    each ratio taken from ln A's samples at t.
    """
    r_u, r_v = at.bohm_parts
    return _outer_sum_report("bohm_definition", at.t[row], r_u[row], r_v[row], at.grids[row])


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
    with 1-D weight vectors (``vecdot``: on rows this short, unlike a BLAS
    matrix product, its bits do not depend on the BLAS thread count; on a
    row of a million elements they do).
    """
    wa = simpson_weights(a.size) * (a[1] - a[0])
    wb = simpson_weights(b.size) * (b[1] - b[0])
    rows = np.vecdot(rho, np.stack([wb, wb * b, wb * b * b])[:, None, :])
    m = np.vecdot(np.stack([wa, wa * a, wa * a * a])[:, None, :], rows)
    return float(m[0, 0]), float(m[2, 0]), float(m[0, 2]), float(m[1, 1])


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
    rho = sample_density(s, grid, t).values
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
    total, xx, yy, xy = _simpson_moments(sample_density(s, grid, t).values, grid.xs(), grid.ys())
    return ((xx + yy) / 2.0 + xy) / total, ((xx + yy) / 2.0 - xy) / total


# half-width of the rotated frame in each mode's sigmas; Simpson samples per axis
DIAGONAL_COVERAGE = 8.0
DIAGONAL_POINTS = 2001


def _run_sigmas(run: Schedules) -> list[tuple[float, float]]:
    """(sigma_u, sigma_v) at each time of a run, as ``spread_sigmas`` takes them at that time alone."""
    return [spread_sigmas(run._replace(nu=nu)) for nu in run.nu.tolist()]


def diagonal_moments(now: Schedules) -> tuple:
    """(norm, var_plus, var_minus) by Simpson in rotated coordinates, at each time of ``now``.

    Integrates over the (u, v) = ((x+y)/sqrt2, (x-y)/sqrt2) frame, where
    the density is axis-aligned; the rotation has unit Jacobian, so this is
    the same integral as :func:`normalization` but remains tractable for
    strongly squeezed states whose cartesian bounding box is astronomically
    larger than their support.  ln A comes from its mode coefficients on
    the mode axes, so nothing cancels at any squeeze.

    The density is exp(2 c_u u^2) exp(2 c_v v^2) e^(2 const) and the tensor
    Simpson weights are products, so each 2-D Simpson sum on the
    DIAGONAL_POINTS^2 nodes is exactly a product of two 1-D sums: O(n) work.
    Each mode of each time gets its own axis of DIAGONAL_POINTS nodes over
    +-DIAGONAL_COVERAGE sigma, and every axis's integrals of exp(2 c w^2)
    and w^2 exp(2 c w^2) come from one exp and one ``vecdot`` over all of
    them.  A record at a float time gives one triple of floats; a run's
    record gives a triple of lists, one entry per time.
    """
    run = _as_run(now)
    form = log_amplitude_coeffs(run)
    # np.linspace(-half, half, DIAGONAL_POINTS) on each mode's row, in linspace's arithmetic
    half = DIAGONAL_COVERAGE * np.reshape(_run_sigmas(run), (-1, 2, 1))
    ws = np.arange(DIAGONAL_POINTS) * ((half + half) / (DIAGONAL_POINTS - 1)) - half  # (T, 2, points)
    ws[..., -1:] = half
    # the weights of both integrands, and the density exp(2 c w^2), each formed in place
    weights = np.empty((2, *ws.shape))
    np.multiply(simpson_weights(DIAGONAL_POINTS), ws[..., 1:2] - ws[..., :1], out=weights[0])
    np.multiply(weights[0], ws, out=weights[1])
    weights[1] *= ws
    density = (2.0 * np.stack([form.c_u, form.c_v], axis=-1)[..., None]) * ws
    density *= ws
    m0, m2 = np.vecdot(weights, np.exp(density, out=density))
    (u0, v0), (u2, v2) = m0.T.tolist(), m2.T.tolist()
    norm = [a * b * math.exp(2.0 * const) for a, b, const in zip(u0, v0, form.const.tolist())]
    moments = norm, [a / b for a, b in zip(u2, u0)], [a / b for a, b in zip(v2, v0)]
    return moments if np.ndim(now.t) else tuple(values[0] for values in moments)


# ---------------------------------------------------------------------------
# a run's checks


# (check, value, tolerance key): the value is judged against the tolerance
# under that key of the run's tolerances
CheckRow = tuple[str, float, str]

# bytes one chunk of a run's times may take in ``check_times``: its record,
# with the temporaries that build it, and its moment pass
RECORD_CHUNK_BYTES = 1 << 21


def _time_bytes(grid: GridSpec2D) -> int:
    """Bytes one time takes in a chunk: 256 per node of its axes, 128 per point of its moment pass."""
    return 256 * (grid.nx + grid.ny) + 128 * DIAGONAL_POINTS


def check_times(
    now: Schedules, grids: GridSpec2D | Sequence[GridSpec2D], v_source: VSource = "closed_form"
) -> list[tuple[dict, list[CheckRow]]]:
    """Every check at each time of ``now``: per time, its report entry and its rows, in report order.

    ``now`` is the record of a run's times (a record at a float time is a
    run of one) and ``grids`` one grid for every time or one per time, all
    of one shape.  The run is checked a chunk of consecutive times at a
    time, as many as RECORD_CHUNK_BYTES holds and one at least: each chunk
    makes one ``diagonal_moments`` call and builds one ``TimeSamples``, and
    the four residual checks read each time's row of the record.
    A time's entry and rows are bit for bit those of a run of that time
    alone.  The norm and the mode variances are held to the squeezing law
    var(v) = exp(2(r-1) nu)/2 and var(u) var(v) = exp(4 r nu)/4, each
    relative to its law's value.  The Hamilton-Jacobi closure is analytic
    and has a tolerance of its own (``hj_max``); the three stencil
    residuals share ``residual_max``.
    """
    run = _as_run(now)
    grids = _run_grids(grids, run.t.size)
    size = max(1, RECORD_CHUNK_BYTES // _time_bytes(grids[0])) if grids else 1
    results = []
    for first in range(0, len(grids), size):
        span = slice(first, first + size)
        chunk = Schedules(run.s, *(field[span] for field in run[1:]))
        moments = zip(*diagonal_moments(chunk))
        at = TimeSamples(chunk, grids[span], v_source=v_source)
        for row, (nu, (norm, var_plus, var_minus)) in enumerate(zip(chunk.nu.tolist(), moments)):
            reports = [
                schrodinger_residual(at, row),
                continuity_residual(at, row),
                hamilton_jacobi_residual(at, row),
                bohm_definition_residual(at, row),
            ]
            var_minus_expected = math.exp(2.0 * (run.s.r - 1.0) * nu) / 2.0
            product_expected = math.exp(4.0 * run.s.r * nu) / 4.0
            rows = [
                (rep.equation, rep.max_abs_residual, "hj_max" if rep.equation == "hamilton_jacobi" else "residual_max")
                for rep in reports
            ]
            rows += [
                ("normalization", abs(norm - 1.0), "normalization"),
                ("variance", abs(var_minus - var_minus_expected) / var_minus_expected, "variance"),
                (
                    "variance_product",
                    abs(var_plus * var_minus - product_expected) / product_expected,
                    "variance_product",
                ),
            ]
            entry = {
                "t": at.t[row],
                "reports": reports,
                "normalization": norm,
                "var_plus": var_plus,
                "var_minus": var_minus,
                "var_minus_expected": var_minus_expected,
                "variance_product_expected": product_expected,
            }
            results.append((entry, rows))
    return results


# ---------------------------------------------------------------------------
# stencil-error model and grid chooser


# law(half, n): one axis's predicted stencil error on n nodes over [-half, half]
AxisLaw = Callable[[float, int], float]

# relative margin on every law value: its terms take exp and |p| from Python's
# math library, the node law from numpy's, and the two differ by a few ulps
LAW_MARGIN = 1.0 + 2.0**-46

# smallest law / budget the search takes the log of: a law that underflows
# to 0 is feasible, and ln 0 would make the secant step NaN
LAW_FLOOR = math.ulp(0.0)


def _stencil_error_law(run: Schedules) -> list[tuple[AxisLaw, AxisLaw]]:
    """Predicted worst stencil error along the u and v mode axes at each time of a run, one law per axis.

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

    One eigvals of the run's companion matrices, two per time, gives their
    quartics' roots.  A root's real part is a candidate whatever its
    imaginary part: any point of the interval reads at most the supremum,
    so an extra candidate is harmless, while a real root with a rounded
    imaginary part would be lost.  A law call then evaluates the terms at the interval's
    end and takes the largest candidate inside: O(1) per extent.  The
    supremum bounds every node, so a grid within the law is within the
    law on its nodes; the two differ where an interior maximum falls
    between nodes.

    The law is leading-order in h: it has no eps / h^2 term for the
    rounding of the second difference, so where a strongly squeezed axis
    is sampled finely the measured residual outgrows it.  At the default
    n = 201 it holds.  On fig1's scenario at t = 3, on the chosen grid
    with the v half extent halved and 401 nodes per axis, the law is
    3.1e-6: the Bohm-definition residual, taken from ln A, is 2.1e-6, and
    the Schrodinger residual is 5.9e-6.  With both extents halved, 201
    nodes on u and 801 on v, the law is 1.7e-6 and the two residuals are
    7.0e-6 and 1.9e-5: the missing rounding term is psi's stencil's.
    """
    # the law's search runs on Python floats, not numpy scalars
    amp, phase = log_amplitude_coeffs(run), phase_coeffs(run)
    u_axes = zip(amp.c_u.tolist(), phase.c_u.tolist(), amp.const.tolist())
    v_axes = zip(amp.c_v.tolist(), phase.c_v.tolist(), amp.const.tolist())
    axes = [axis for pair in zip(u_axes, v_axes) for axis in pair]  # u then v for each time
    # Q + Q' over its leading coefficient, in g = 1 / (1 + tau^2) = Re(z)^2 / |z|^2,
    # which is 0 where |z| is not finite (such an axis has no feasible extent)
    gs = [a * a / (a * a + b * b) if math.isfinite(b) else 0.0 for a, b, _ in axes]
    companion = np.eye(4, k=-1)[None].repeat(len(axes), 0)
    top_rows = [[4.0 * (1.0 + 3.0 * g), (66.0 + 12.0 * g) * g, 60.0 * (1.0 + g) * g, 45.0 * g * g] for g in gs]
    companion[:, 0] = -np.reshape(top_rows, (-1, 4))
    roots = np.linalg.eigvals(companion).real.tolist()
    laws = [_axis_law(run.s.m, *axis, candidates) for axis, candidates in zip(axes, roots)]
    return list(zip(laws[::2], laws[1::2]))


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
# reach, and takes at most GRID_SECANT_STEPS secant steps.  The stencil error
# may take residual_max / GRID_BUDGET_DIVISOR, half of it per axis
GRID_HALF_MIN = 1e-3
GRID_BISECTIONS = 48
GRID_SECANT_STEPS = 18
GRID_BUDGET_DIVISOR = 5


def _largest_half(excess: Callable[[float], float], lo: float, hi: float) -> float | None:
    """The feasible end of one axis's bracket [lo, hi] once the search closes it.

    ``excess(half)`` is ln(law / budget) at that half extent, the budget
    being the axis's half of the stencil budget; the result is None when
    even ``lo`` is infeasible.
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


def residual_grid(now: Schedules, residual_max: float, n: int = 201) -> GridSpec2D | list[GridSpec2D]:
    """Largest grid on the mode axes at each time of ``now`` whose predicted stencil error fits its budget.

    A record at a float time gives one grid; a run's record gives one grid
    per time, in its order, from one ``_stencil_error_law`` call.  The
    stencil budget is residual_max / GRID_BUDGET_DIVISOR, and each
    axis's law gets half of it.  Its half extent is searched in
    [GRID_HALF_MIN, DIAGONAL_COVERAGE sigma] (a bracket that would end
    below GRID_HALF_MIN is that one point) by regula falsi with the
    Illinois modification: secant steps on ln(law / budget) against
    ln(half), where the law is close to a power law.  The law grows
    monotonically with extent at fixed n (larger h and larger fourth
    derivatives), so the bracket always holds the largest feasible extent.
    Each step lands at least half the tolerance inside the bracket, so
    once the secant has converged the next step closes the bracket to the
    tolerance (about ten law calls per axis).  The returned extent is
    always the feasible end of the bracket.  A law that underflows to 0
    is feasible (see LAW_FLOOR).  Where even GRID_HALF_MIN misses the
    budget, the ``ValueError`` names residual_max, the first such time and
    the axis; a residual_max whose budget is not positive and finite (from
    NaN, 0 or inf to values so small that the budget rounds to 0) is
    refused before any law is divided by it.
    """
    if not (isinstance(n, numbers.Integral) and n >= 2 * RING + 1):
        raise ValueError(f"residual grid needs an integer n >= {2 * RING + 1}, got {n!r}")
    budget = 0.5 * (residual_max / GRID_BUDGET_DIVISOR)
    if not 0.0 < budget < math.inf:
        raise ValueError(f"residual_max must leave a positive, finite stencil budget, got {residual_max!r}")
    run = _as_run(now)
    grids = []
    for t, laws, sigmas in zip(run.t.tolist(), _stencil_error_law(run), _run_sigmas(run)):
        halves = []
        for axis, law, sigma in zip("uv", laws, sigmas):
            hi = max(GRID_HALF_MIN, DIAGONAL_COVERAGE * sigma)
            half = _largest_half(lambda half: math.log(max(law(half, n) / budget, LAW_FLOOR)), GRID_HALF_MIN, hi)
            if half is None:
                where = f"at n = {n} for t = {t:g} on the {axis} axis"
                raise ValueError(f"no feasible extent {where} under residual_max = {residual_max:g}")
            halves.append(half)
        a_u, a_v = halves
        grids.append(GridSpec2D(-a_u, a_u, -a_v, a_v, n, n))
    return grids if np.ndim(now.t) else grids[0]
