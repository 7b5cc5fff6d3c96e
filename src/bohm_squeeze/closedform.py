"""Closed-form wavefunction, Bohm potential and external potential.

All analytic objects here are quadratic forms with time-dependent
coefficients, because the engineered state is Gaussian with the quadratic
phase S = m*nud*[r*(x^2+y^2)/2 + x*y] + mu(t).  Each form is diagonal in
the modes u = (x+y)/sqrt2 and v = (x-y)/sqrt2 (Schumaker & Caves 1985), so
``QuadForm`` holds it as c_u*u^2 + c_v*v^2 + const.  With
e+- = exp(-2 (r +- 1) nu) and the upper sign for u, the coefficients are

    form      c_u, c_v                                        const
    S         m nu' (r+-1)/2                                  mu
    S_t       m nu'' (r+-1)/2                                 mu'
    ln A      -e+-/2                                          -r nu - ln sqrt(pi)
    V_B       -e+-^2/(2m)                                     (e+ + e-)/(2m)
    kinetic   m nu'^2 (r+-1)^2/2                              0
    V         -m (r+-1)^2 nu'^2/2 - m (r+-1) nu''/2 + e+-^2/(2m)
                                                              -(e+ + e-)/(2m) - mu'
    variant   as V, with -e+-^2 in place of +e+-^2/(2m)       (e+ + e-) - mu'

Every coefficient is one exponential per mode, computed straight from nu:
nothing cancels, however strong the squeeze.  Working with coefficients
keeps the Hamilton-Jacobi closure exact and makes level-curve
classification a two-liner.

``Scenario`` and ``GridSpec2D`` check their own invariants (a positive
mass, nu(0) = 0, ordered grid extents); reading them from a config and
writing them into a report is ``cli``'s business.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Union

import numpy as np

from .timefns import TimePolynomial

__all__ = [
    "NU_LIMIT",
    "Scenario",
    "GridSpec2D",
    "ScalarField2D",
    "QuadForm",
    "ConicClass",
    "phase_coeffs",
    "phase_rate_coeffs",
    "log_amplitude_coeffs",
    "bohm_coeffs",
    "external_coeffs",
    "external_variant_coeffs",
    "phase_S",
    "amplitude_A",
    "wavefunction_psi",
    "bohm_potential",
    "external_potential",
    "external_potential_variant",
    "classify_level_curves_bohm",
    "classify_level_curves_external",
    "spread_sigmas",
    "auto_grid",
    "sample_density",
    "sample_bohm",
    "sample_external",
]

SQRT_PI = math.sqrt(math.pi)
SQRT2 = math.sqrt(2.0)

# exp(4 (|nu| + |r nu|)) overflows float64 near |nu| + |r nu| ~ 177; refuse
# far before that so failures are explicit instead of silent infinities.
NU_LIMIT = 50.0

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class Scenario:
    """Full parameter set: mass m > 0, mix parameter r, schedules nu and mu.

    ``nu`` must vanish at t = 0 (the amplitude evolution starts from the
    ground-state product, which forces a zero squeeze at the initial time).
    """

    m: float
    r: float
    nu: TimePolynomial
    mu: TimePolynomial

    def __post_init__(self):
        if not (self.m > 0.0) or not math.isfinite(self.m):
            raise ValueError(f"mass must be positive and finite, got {self.m}")
        if not math.isfinite(self.r):
            raise ValueError(f"mix parameter r must be finite, got {self.r}")
        if not self.nu.starts_at_zero:
            raise ValueError(
                "squeeze schedule nu must satisfy nu(0) = 0; "
                f"got constant coefficient {self.nu.coeffs[0]}"
            )

    def nu_at(self, t: float) -> float:
        """nu(t), range-checked against the hyperbolic overflow limit.

        Both |nu| and |r nu| are bounded: the potentials carry factors up
        to exp(4|nu| + 4|r nu|) (and exp(10|r nu|) in the level-curve
        discriminant), all finite in float64 under this limit.  A NaN
        fails both bounds.
        """
        nu = self.nu.value(t)
        if not (abs(nu) <= NU_LIMIT and abs(self.r * nu) <= NU_LIMIT):
            raise ValueError(
                f"|nu(t)| = {abs(nu):g} (|r nu| = {abs(self.r * nu):g}) exceeds the "
                f"supported range {NU_LIMIT:g} at t = {t:g}"
            )
        return nu


@dataclass(frozen=True)
class GridSpec2D:
    """Uniform rectangular sampling grid."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("grid extents must satisfy x_max > x_min and y_max > y_min")
        if self.nx < 3 or self.ny < 3:
            raise ValueError("grids need at least 3 samples per axis for interior stencils")

    @property
    def hx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def hy(self) -> float:
        return (self.y_max - self.y_min) / (self.ny - 1)

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def ys(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.ny)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid with shape (nx, ny); index [ix, iy]."""
        return np.meshgrid(self.xs(), self.ys(), indexing="ij")

    @classmethod
    def square(cls, half_extent: float, n: int) -> "GridSpec2D":
        return cls(-half_extent, half_extent, -half_extent, half_extent, n, n)


@dataclass(frozen=True)
class ScalarField2D:
    """Real field sampled on a grid at a fixed time."""

    grid: GridSpec2D
    t: float
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.nx, self.grid.ny):
            raise ValueError(f"field shape {v.shape} does not match grid ({self.grid.nx}, {self.grid.ny})")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"field at t = {self.t:g} contains non-finite values")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class QuadForm:
    """Centered quadratic form c_u*u^2 + c_v*v^2 + const on the diagonal modes.

    u = (x+y)/sqrt2 and v = (x-y)/sqrt2; calls in (x, y) rotate first.
    """

    c_u: float
    c_v: float
    const: float

    def modes(self, u: ArrayLike, v: ArrayLike) -> ArrayLike:
        return self.c_u * u * u + self.c_v * v * v + self.const

    def __call__(self, x: ArrayLike, y: ArrayLike) -> ArrayLike:
        return self.modes((x + y) / SQRT2, (x - y) / SQRT2)

    def grad(self, x: ArrayLike, y: ArrayLike) -> tuple[ArrayLike, ArrayLike]:
        """(d/dx, d/dy) = ((d/du + d/dv), (d/du - d/dv)) / sqrt2."""
        du = self.c_u * (x + y)
        dv = self.c_v * (x - y)
        return du + dv, du - dv

    @property
    def laplacian(self) -> float:
        return 2.0 * (self.c_u + self.c_v)

    def __add__(self, other: "QuadForm") -> "QuadForm":
        return QuadForm(self.c_u + other.c_u, self.c_v + other.c_v, self.const + other.const)

    def __sub__(self, other: "QuadForm") -> "QuadForm":
        return QuadForm(self.c_u - other.c_u, self.c_v - other.c_v, self.const - other.const)

    def scaled(self, f: float) -> "QuadForm":
        return QuadForm(f * self.c_u, f * self.c_v, f * self.const)


Classification = Literal["ellipse", "parabola-degenerate", "hyperbola", "degenerate-lines"]


@dataclass(frozen=True)
class ConicClass:
    """Quadratic-form invariants of one level curve, plus its conic type.

    ``discriminant`` is the determinant of the full 3x3 matrix of the conic
    written as  level - potential = 0  (no linear terms arise here), and
    ``minor33`` is the determinant of its leading 2x2 block.  For the
    centered forms of this module: minor33 = c_u * c_v, an exact product,
    and discriminant = (level - const) * minor33.
    """

    discriminant: float
    minor33: float
    classification: Classification


def _classify(minor33: float, discriminant: float) -> Classification:
    # Exact sign tests: coefficients at degenerate instants (for example
    # t = 0) come out as exact floating-point zeros.
    if minor33 > 0.0:
        return "ellipse" if discriminant != 0.0 else "degenerate-lines"
    if minor33 < 0.0:
        return "hyperbola" if discriminant != 0.0 else "degenerate-lines"
    return "parabola-degenerate"


def conic_of_level_curve(form: QuadForm, level: float) -> ConicClass:
    minor33 = form.c_u * form.c_v
    discriminant = (level - form.const) * minor33
    return ConicClass(discriminant=discriminant, minor33=minor33, classification=_classify(minor33, discriminant))


# ---------------------------------------------------------------------------
# coefficient layer


def _mode_decays(s: Scenario, nu: float) -> tuple[float, float]:
    """(e+, e-) = exp(-2 (r +- 1) nu) = (1/(2 var u), 1/(2 var v))."""
    return math.exp(-2.0 * (s.r + 1.0) * nu), math.exp(-2.0 * (s.r - 1.0) * nu)


def phase_coeffs(s: Scenario, t: float) -> QuadForm:
    """Quadratic form of the phase S at time t."""
    k = s.m * s.nu.d1(t) / 2.0
    return QuadForm(c_u=k * (s.r + 1.0), c_v=k * (s.r - 1.0), const=s.mu.value(t))


def phase_rate_coeffs(s: Scenario, t: float) -> QuadForm:
    """Quadratic form of dS/dt at time t."""
    k = s.m * s.nu.d2(t) / 2.0
    return QuadForm(c_u=k * (s.r + 1.0), c_v=k * (s.r - 1.0), const=s.mu.d1(t))


def log_amplitude_coeffs(s: Scenario, t: float) -> QuadForm:
    """Quadratic form of ln A at time t (see module docstring)."""
    nu = s.nu_at(t)
    e_u, e_v = _mode_decays(s, nu)
    return QuadForm(c_u=-e_u / 2.0, c_v=-e_v / 2.0, const=-s.r * nu - math.log(SQRT_PI))


def bohm_coeffs(s: Scenario, t: float) -> QuadForm:
    """Quadratic form of the Bohm potential -(lap A)/(2 m A)."""
    e_u, e_v = _mode_decays(s, s.nu_at(t))
    return QuadForm(c_u=-e_u * e_u / (2.0 * s.m), c_v=-e_v * e_v / (2.0 * s.m), const=(e_u + e_v) / (2.0 * s.m))


def kinetic_coeffs(s: Scenario, t: float) -> QuadForm:
    """Quadratic form of |grad S|^2 / (2m)."""
    nud = s.nu.d1(t)
    k = s.m * nud * nud / 2.0
    return QuadForm(c_u=k * (s.r + 1.0) * (s.r + 1.0), c_v=k * (s.r - 1.0) * (s.r - 1.0), const=0.0)


def _flow(s: Scenario, t: float, w: float) -> float:
    """-S_t - |grad S|^2/(2m) on the mode of weight w = r +- 1."""
    nud = s.nu.d1(t)
    return -s.m * w * w * nud * nud / 2.0 - s.m * w * s.nu.d2(t) / 2.0


def external_coeffs(s: Scenario, t: float) -> QuadForm:
    """External potential making the engineered state an exact solution.

    Obtained by clearing V from the Hamilton-Jacobi identity
    V = -S_t - |grad S|^2/(2m) - V_B; all three parts are quadratic forms,
    so the closure residual vanishes identically (see tests).
    """
    e_u, e_v = _mode_decays(s, s.nu_at(t))
    two_m = 2.0 * s.m
    return QuadForm(
        c_u=_flow(s, t, s.r + 1.0) + e_u * e_u / two_m,
        c_v=_flow(s, t, s.r - 1.0) + e_v * e_v / two_m,
        const=-(e_u + e_v) / two_m - s.mu.d1(t),
    )


def external_variant_coeffs(s: Scenario, t: float) -> QuadForm:
    """Sign-variant transcription of the external potential.

    Identical to :func:`external_coeffs` except that the Bohm terms enter
    as -e+-^2 and +(e+ + e-), that is as +2m V_B instead of -V_B.  The
    difference from the consistent form is exactly (2m + 1) * V_B, so this
    variant violates the Hamilton-Jacobi identity; it is kept as a
    deliberately wrong source for the residual diagnostics (see ``verify``
    and the ``v_source`` config option).
    """
    e_u, e_v = _mode_decays(s, s.nu_at(t))
    return QuadForm(
        c_u=_flow(s, t, s.r + 1.0) - e_u * e_u,
        c_v=_flow(s, t, s.r - 1.0) - e_v * e_v,
        const=e_u + e_v - s.mu.d1(t),
    )


# ---------------------------------------------------------------------------
# pointwise evaluation


def phase_S(s: Scenario, x: ArrayLike, y: ArrayLike, t: float) -> ArrayLike:
    """Phase S(x, y, t) of the engineered wavefunction."""
    return phase_coeffs(s, t)(x, y)


def amplitude_A(s: Scenario, x: ArrayLike, y: ArrayLike, t: float) -> ArrayLike:
    """Amplitude A(x, y, t); strictly positive Gaussian."""
    return np.exp(log_amplitude_coeffs(s, t)(x, y))


def wavefunction_psi(s: Scenario, x: ArrayLike, y: ArrayLike, t: float) -> ArrayLike:
    """psi = A * exp(i S)."""
    return amplitude_A(s, x, y, t) * np.exp(1j * phase_S(s, x, y, t))


def bohm_potential(s: Scenario, x: ArrayLike, y: ArrayLike, t: float) -> ArrayLike:
    """Bohm potential V_B(x, y, t)."""
    return bohm_coeffs(s, t)(x, y)


def external_potential(s: Scenario, x: ArrayLike, y: ArrayLike, t: float) -> ArrayLike:
    """External potential V(x, y, t) from the Hamilton-Jacobi closure."""
    return external_coeffs(s, t)(x, y)


def external_potential_variant(s: Scenario, x: ArrayLike, y: ArrayLike, t: float) -> ArrayLike:
    """Sign-variant external potential (fails the Hamilton-Jacobi identity)."""
    return external_variant_coeffs(s, t)(x, y)


def classify_level_curves_bohm(s: Scenario, t: float) -> ConicClass:
    """Conic type of the Bohm-potential level curve through V_B = 0.

    minor33 = c_u c_v = exp(-8 r nu)/(4 m^2) > 0 and the discriminant
    -(e+ + e-) minor33/(2m) < 0 for every scenario and time, so the
    classification is always "ellipse".
    """
    return conic_of_level_curve(bohm_coeffs(s, t), level=0.0)


def classify_level_curves_external(s: Scenario, t: float, level: float = 0.0) -> ConicClass:
    """Conic type of the external-potential level curve V = level.

    Unlike the Bohm potential, any type can occur here, including
    degenerate ones.
    """
    return conic_of_level_curve(external_coeffs(s, t), level=level)


# ---------------------------------------------------------------------------
# grid helpers


def spread_sigmas(s: Scenario, t: float) -> tuple[float, float]:
    """Standard deviations of the diagonal modes u=(x+y)/sqrt2, v=(x-y)/sqrt2.

    |psi|^2 factorizes exactly into Gaussians in u and v with
    var(u) = exp(2(r+1) nu)/2 and var(v) = exp(2(r-1) nu)/2.
    """
    nu = s.nu_at(t)
    return math.exp((s.r + 1.0) * nu) / SQRT2, math.exp((s.r - 1.0) * nu) / SQRT2


# auto_grid: half width in marginal sigmas, samples per sigma of the
# narrowest mode, and the fewest and most samples per axis
AUTO_COVERAGE = 7.5
AUTO_POINTS_PER_SIGMA = 2.0
AUTO_N_MIN = 61
AUTO_N_CAP = 1401


def auto_grid(s: Scenario, t: float) -> GridSpec2D:
    """Square grid adapted to the state at time t.

    The density along any grid edge x = L peaks at exp(-L^2 / (2 sigma_x^2))
    with sigma_x^2 = (sigma_u^2 + sigma_v^2)/2 (the marginal variance), so
    the half width is ``AUTO_COVERAGE * sigma_x``; the spacing resolves the
    narrowest diagonal mode with ``AUTO_POINTS_PER_SIGMA`` samples per
    sigma.  Sample counts are odd so composite Simpson applies directly.

    Raises when the required resolution exceeds ``AUTO_N_CAP``: a severely
    squeezed state on a huge domain cannot be represented on a desk-scale
    cartesian grid, and an explicit grid (or the rotated-frame moments in
    ``verify``) must be used instead.
    """
    sigma_u, sigma_v = spread_sigmas(s, t)
    half = AUTO_COVERAGE * math.sqrt((sigma_u**2 + sigma_v**2) / 2.0)
    h = min(sigma_u, sigma_v, 1.0 / SQRT2) / AUTO_POINTS_PER_SIGMA
    n = int(math.ceil(2.0 * half / h)) + 1
    n = max(n, AUTO_N_MIN)
    if n % 2 == 0:
        n += 1
    if n > AUTO_N_CAP:
        raise ValueError(
            f"auto grid at t = {t:g} needs {n} points per axis (cap {AUTO_N_CAP}); "
            "supply an explicit grid for this time"
        )
    return GridSpec2D.square(half, n)


def sample_density(s: Scenario, grid: GridSpec2D, t: float) -> ScalarField2D:
    """|psi|^2 = A^2 on the grid."""
    x, y = grid.mesh()
    a = amplitude_A(s, x, y, t)
    return ScalarField2D(grid=grid, t=t, values=a * a)


def sample_bohm(s: Scenario, grid: GridSpec2D, t: float) -> ScalarField2D:
    x, y = grid.mesh()
    return ScalarField2D(grid=grid, t=t, values=bohm_potential(s, x, y, t))


def sample_external(s: Scenario, grid: GridSpec2D, t: float) -> ScalarField2D:
    x, y = grid.mesh()
    return ScalarField2D(grid=grid, t=t, values=external_potential(s, x, y, t))
