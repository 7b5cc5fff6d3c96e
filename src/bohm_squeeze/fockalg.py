"""Truncated two-mode Fock-space operator algebra, stored by sectors.

A finite-dimensional oracle for the operator identities behind the
engineered amplitude: the pair-creation squeeze exp[nu (a+ b+ - a b)]
both directly and in the normally-ordered factored form

    exp(f1 a+ b+) exp(f2 (a a+ + b+ b)) exp(f3 a b),
    f1 = tanh nu, f2 = -ln cosh nu, f3 = -tanh nu,

plus a Runge-Kutta oracle for the function system defining (f1, f2, f3).
Only the direct route is exponentiated, from the spectrum of each
sector's Jacobi matrix; the factored route is built from closed-form
elements (its outer factors are terminating series, its middle one
diagonal), so the two routes share no algorithm.

Sector structure: every generator here changes n_a and n_b together
(a+ b+, a b) or not at all (a a+, b+ b), so it conserves d = n_a - n_b.
On the truncated space n_a, n_b <= n_max each operator is therefore
block-diagonal in the 2 n_max + 1 sectors d = -n_max .. n_max, and sector
d holds the n_max + 1 - |d| states |j + max(d, 0), j + max(-d, 0)>,
j = min(n_a, n_b).  Operators are built sector by sector and never
assembled as (n_max + 1)^2-square matrices.  One operator takes
(2 n_max + 1)(n_max + 1)^2 doubles; ``N_MAX_LIMIT`` keeps that within
64 MiB.

Truncation note: the squeeze generator pumps occupation upward, so rows
and columns near the truncation edge of the *direct* exponential are
unreliable; comparisons should restrict to an interior block chosen well
below n_max.  The factored product has no truncation error on interior
blocks, because its raising/lowering paths never touch the edge, but it
is limited by cancellation: its sector-0 element (L, L) is the
alternating sum over k of C(L, k)^2 (f1 f3)^(L-k) e^(f2 (2k+1)), whose
largest term at nu = 0.5 is 3.8e8 at level 40 and 4.9e18 at level 80.
Rounding leaves an error of a few eps times that term (1e-7 at level
40; at level 80 the element comes out -1520 against 0.035).  The
squeeze takes |L, L> to occupation <a+ a> = L cosh 2nu + sinh^2 nu, so a
safe interior level L keeps that within n_max / 2: at n_max = 24 this
gives L = 11, 10, 7, 4, 2 for nu = 0.1, 0.25, 0.5, 0.75, 1.0 and interior
distances below 1e-10, while L = 12 at nu = 1 is off by 0.49.

The direct exponential is taken on the sectors d >= 0 only: the
generator's blocks for d and -d are equal element for element, because
sqrt((n_a+1)(n_b+1)) is symmetric in the two modes, and the sectors d < 0
are filled by mirroring.  Each sector's generator is i times a real
symmetric tridiagonal (Jacobi) matrix up to a diagonal similarity, so one
batched eigendecomposition gives the exponential.  Its +-lambda eigenvalue
pairs are symmetric only to rounding, so the result drifts off orthogonal
as |nu| grows: max |U^T U - I| follows (norm 2^-52)^2, norm the generator's
1-norm (measured at up to 1.93 times that law below the guard, at n_max =
4, 24 and 80).  Once twice the law passes ``DIRECT_DEFECT_BOUND`` (|nu| about
4.5e9 at n_max = 4, 6.8e8 at n_max = 24) the route raises
``ConvergenceError``.  The factored route is not mirror-symmetric (a a+ is
0 at n_a = n_max, b+ b is not 0 at n_b = n_max) and is built on every
sector.

The RK4 oracle takes its step count from its error law: on this system
its global error is about 1.2e-3 h^4 (at nu = 1: 6.9e-13 at 200 steps,
4.3e-14 at 400, 1.0e-15 at 1000), so a step h <= 1e-3 keeps it at the
rounding floor.  ``ode_steps`` gives min(2000, max(100, ceil(|nu| / 1e-3)))
steps; from |nu| = 2 on that is the 2000 steps every nu once took.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "N_MAX_LIMIT",
    "ConvergenceError",
    "FockSpaceSpec",
    "FockOperator",
    "DisentangleFunctions",
    "two_mode_squeeze_direct",
    "two_mode_squeeze_factored",
    "interior_block",
    "vacuum_column",
    "ode_steps",
    "disentangle_ode_oracle",
    "disentangle_closed_form",
]

# Largest n_max whose sector storage, (2 n_max + 1)(n_max + 1)^2 doubles,
# fits in 64 MiB.
N_MAX_LIMIT = 160

# Largest orthogonality defect max |U^T U - I| the direct route may predict
# for its own result (see ``two_mode_squeeze_direct``).
DIRECT_DEFECT_BOUND = 1e-10

# The RK4 oracle's step-size bound and step-count range (see ``ode_steps``).
ODE_MAX_STEP = 1e-3
ODE_MIN_STEPS = 100
ODE_MAX_STEPS = 2000


class ConvergenceError(RuntimeError):
    """A matrix exponential or the RK4 oracle could not reach a checked result."""


@dataclass(frozen=True)
class FockSpaceSpec:
    """Single-mode truncation n_max; 2 n_max + 1 sectors of n_max + 1 states or fewer."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if self.n_max > N_MAX_LIMIT:
            raise ValueError(f"n_max {self.n_max} exceeds the sector-storage bound {N_MAX_LIMIT}")

    @property
    def sector_shape(self) -> tuple[int, int, int]:
        """Shape of one operator's storage: (sectors, n_max + 1, n_max + 1)."""
        return (2 * self.n_max + 1, self.n_max + 1, self.n_max + 1)


@dataclass(frozen=True)
class FockOperator:
    """Operator conserving n_a - n_b on the truncated two-mode space.

    ``entries[d + n_max, i, j]`` is <state i| op |state j> in sector
    d = n_a - n_b, states numbered by min(n_a, n_b).  Sector d has
    n_max + 1 - |d| states; the rows and columns padding it to n_max + 1
    are not states and hold the identity.
    """

    spec: FockSpaceSpec
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries)
        if e.shape != self.spec.sector_shape:
            raise ValueError(f"operator shape {e.shape} does not match sectors {self.spec.sector_shape}")
        object.__setattr__(self, "entries", e)


def _sector_levels(n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n_a, n_b, present) at position j of sector d, shape (2 n_max + 1, n_max + 1).

    ``present`` is False on the padding positions j > n_max - |d|.
    """
    d = np.arange(-n_max, n_max + 1)[:, None]
    j = np.arange(n_max + 1)
    return j + np.maximum(d, 0), j + np.maximum(-d, 0), j <= n_max - np.abs(d)


def two_mode_squeeze_direct(nu: float, spec: FockSpaceSpec) -> FockOperator:
    """exp[nu (a+ b+ - a b)] on the truncated space, from each sector's Jacobi spectrum.

    The generator is real antisymmetric, so the result is real orthogonal;
    interior matrix elements converge to the untruncated values as n_max
    grows, while elements near the truncation edge carry reflection error.
    In sector d the generator is G = B - B^T with B = a+ b+ sub-diagonal,
    <n_a+1, n_b+1| a+ b+ |n_a, n_b> = sqrt((n_a+1)(n_b+1)); P = diag(i^j)
    gives P G P^-1 = i J with J = B + B^T, and with J = W diag(lam) W^T

        exp(nu G)_jk = Re(i^(k-j)) C_jk - Im(i^(k-j)) S_jk,
        C = I - Z Z^T,  Z = W diag(sqrt 2 sin(nu lam / 2)),
        S = W diag(sin(nu lam)) W^T.

    nu = 0 gives the identity exactly, and so do the padding rows and
    columns, whose eigenvalues are exactly 0.  Sector d = n_max holds one
    state and a zero generator, so its block is the identity; sectors
    d < 0 are copies of d > 0 (see the module docstring).  The lower half
    of the result is scratch space until the copy fills it, so the route
    peaks at about 1.5 operators.

    Raises ``ConvergenceError`` once 2 (norm 2^-52)^2 passes
    ``DIRECT_DEFECT_BOUND``, norm being the generator's 1-norm, |nu| times
    its largest column sum: the phases nu lam carry |nu| times the
    eigenvalues' rounding, and the result's orthogonality defect grows as
    the square of that.
    """
    n_max = spec.n_max
    n_a, n_b, present = (levels[n_max:-1] for levels in _sector_levels(n_max))
    coupling = np.where(present[:, 1:], np.sqrt((n_a[:, :-1] + 1.0) * (n_b[:, :-1] + 1.0)), 0.0)
    jacobi = np.zeros((n_max, n_max + 1, n_max + 1))
    j = np.arange(n_max + 1)
    jacobi[:, j[1:], j[:-1]] = coupling
    jacobi[:, j[:-1], j[1:]] = coupling
    norm = abs(nu) * float(jacobi.sum(axis=-2).max())  # a Python float: inf, not a warning, past 1e308
    drift = norm * 2.0**-52
    defect = 2.0 * drift * drift
    if not defect <= DIRECT_DEFECT_BOUND:
        raise ConvergenceError(
            f"generator 1-norm {norm:.3e} predicts an orthogonality defect {defect:.1e} "
            f"above {DIRECT_DEFECT_BOUND:.0e}"
        )
    lam, w = np.linalg.eigh(jacobi)
    del jacobi
    phase = nu * lam
    # Re and Im of i^(k - j), by (k - j) mod 4
    offset = (j - j[:, None]) % 4
    re, im = np.array([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])[:, offset]

    out = np.empty(spec.sector_shape)
    scratch, upper = out[:n_max], out[n_max:-1]
    np.multiply(w, np.sin(phase)[:, None, :], out=scratch)
    np.matmul(scratch, w.swapaxes(1, 2), out=upper)  # S
    upper *= -im
    w *= math.sqrt(2.0) * np.sin(0.5 * phase)[:, None, :]  # Z
    np.matmul(w, w.swapaxes(1, 2), out=scratch)  # I - C
    scratch *= re
    upper -= scratch
    upper[:, j, j] += 1.0
    out[-1] = np.eye(n_max + 1)
    out[:n_max] = out[:n_max:-1]
    return FockOperator(spec, out)


def _pair_exponential(f: float, n_max: int) -> np.ndarray:
    """exp(f a+ b+) per sector, from its closed-form elements.

    a+ b+ raises position j to j + 1 within a sector, so the series
    terminates and the exponential is lower-triangular with

        <j + k| exp(f a+ b+) |j> = f^k / k! sqrt((n_a + k)! (n_b + k)! / (n_a! n_b!))

    at (n_a, n_b) of position j (Truax 1985).  Each sub-diagonal k follows
    from sub-diagonal k - 1 by one factor f sqrt(n_a n_b) / k, read at the
    row, so every element is a product of k roundings.  f = 0 gives the
    identity exactly, and padding rows and columns hold the identity.
    """
    n_a, n_b, present = _sector_levels(n_max)
    out = np.zeros((2 * n_max + 1, n_max + 1, n_max + 1))
    j = np.arange(n_max + 1)
    out[:, j, j] = 1.0
    # <j| a+ b+ |j - 1> at position j; 0 on padding, so no path leaves the sector
    raise_into = np.where(present, np.sqrt(n_a * n_b), 0.0)
    column = np.ones(out.shape[:2])
    for k in range(1, n_max + 1):
        column = column[:, :-1] * raise_into[:, k:] / k * f
        out[:, j[k:], j[:-k]] = column
    return out


def two_mode_squeeze_factored(nu: float, spec: FockSpaceSpec) -> FockOperator:
    """Factored form exp(f1 a+ b+) exp(f2 (a a+ + b+ b)) exp(f3 a b).

    Every factor is built from closed-form elements, with no matrix
    exponential: the raising factor by ``_pair_exponential``, the lowering
    factor as the transpose of that at f3, and the diagonal middle factor
    elementwise.  Only the direct route is exponentiated, so the two stay
    independent.  The middle generator is the literal product a a+ (not
    a+ a + 1): on the truncated space the two differ only at the top level
    n_a = n_max, where a a+ is 0, and the discrepancy never reaches
    interior blocks because the middle factor is diagonal.

    The product is free of truncation error on interior blocks, not of
    rounding: each element is an alternating sum whose terms grow much
    larger than the result at high levels (see the module docstring:
    at nu = 0.5 the largest sector-0 term is 3.8e8 at level 40 and 4.9e18
    at level 80), and the error is a few eps times the largest term.
    """
    f = disentangle_closed_form(nu)
    n_a, n_b, present = _sector_levels(spec.n_max)
    number = np.where(present, np.where(n_a < spec.n_max, n_a + 1, 0) + n_b, 0)
    raising = _pair_exponential(f.f1, spec.n_max)
    lowering = _pair_exponential(f.f3, spec.n_max).swapaxes(1, 2)
    with np.errstate(over="ignore"):  # f2 * number is -inf near |nu| ~ 1e308, where the factor tends to 0
        middle = np.exp(f.f2 * number)
    lowering *= middle[:, :, None]  # in place: the product's peak is three operators
    return FockOperator(spec, raising @ lowering)


def interior_block(op: FockOperator, level: int) -> np.ndarray:
    """Block over basis states with n_a <= level and n_b <= level, by sector.

    Shape (2 level + 1, level + 1, level + 1), laid out like
    ``FockOperator.entries`` for sectors |d| <= level and zero off the
    block, so differences and Frobenius norms equal those of the dense
    sub-matrix.
    """
    n_max = op.spec.n_max
    if level > n_max:
        raise ValueError(f"interior level {level} exceeds n_max {n_max}")
    # n_a, n_b <= level exactly at the states of the space truncated at level
    _, _, inside = _sector_levels(level)
    block = op.entries[n_max - level : n_max + level + 1, : level + 1, : level + 1]
    return np.where(inside[:, :, None] & inside[:, None, :], block, 0.0)


def vacuum_column(op: FockOperator) -> np.ndarray:
    """<n_a, n_b| op |0, 0> as an (n_max+1, n_max+1) array.

    |0, 0> lies in sector 0, so only the diagonal n_a = n_b can be nonzero.
    """
    return np.diag(op.entries[op.spec.n_max, :, 0])


@dataclass(frozen=True)
class DisentangleFunctions:
    """Values of the three factorization functions at one nu."""

    f1: float
    f2: float
    f3: float


def disentangle_closed_form(nu: float) -> DisentangleFunctions:
    # cosh overflows past |nu| ~ 710; from |nu| = 20 on, ln cosh nu equals
    # |nu| - ln 2 to double precision
    log_cosh = math.log(math.cosh(nu)) if abs(nu) <= 20.0 else abs(nu) - math.log(2.0)
    return DisentangleFunctions(math.tanh(nu), -log_cosh, -math.tanh(nu))


def ode_steps(nu_end: float) -> int:
    """RK4 step count for ``disentangle_ode_oracle`` from the step-size bound.

    min(2000, max(100, ceil(|nu_end| / 1e-3))): steps of at most 1e-3, where
    the oracle's global error, about 1.2e-3 h^4, is below rounding; at
    least the oracle's 100 steps; and never more than 2000, the count every
    nu once took.  100 at nu = 0.1, 1000 at nu = 1, 2000 from |nu| = 2 on.
    """
    span = abs(nu_end) / ODE_MAX_STEP
    if span >= ODE_MAX_STEPS:  # also where span overflows to inf
        return ODE_MAX_STEPS
    return max(ODE_MIN_STEPS, math.ceil(span))


def disentangle_ode_oracle(nu_end: float, steps: int, *, local_tol: float = 1e-9) -> DisentangleFunctions:
    """Integrate the factorization system from (0, 0, 0) to nu_end.

    The defining relations
        1 = f1' - 2 f1 f2' + f1^2 f3' e^{-2 f2}
        0 = f2' - f1 f3' e^{-2 f2}
       -1 = f3' e^{-2 f2}
    are triangular in the derivatives; solving them once gives the explicit
    system f3' = -e^{2 f2}, f2' = -f1, f1' = 1 - f1^2 integrated here with
    classical RK4.  Each step is checked against two half steps; the step
    count must keep that estimate below ``local_tol``.  The full step and
    the first half step share their start-point stage, so a step costs 11
    evaluations of the right-hand side, not 12.  ``ode_steps`` gives the
    step count that keeps the global error at rounding.

    A stage exponential that overflows, an estimate that is not a number
    and a result that is not finite all raise ``ConvergenceError``: steps
    that long cannot be checked (from |nu_end| ~ 2e4 at 2000 steps).
    """
    if steps < ODE_MIN_STEPS:
        raise ValueError(f"need at least {ODE_MIN_STEPS} integration steps")
    h = nu_end / steps
    f1 = f2 = f3 = 0.0
    try:
        for _ in range(steps):
            # the start-point stage is shared by the full step and the first half step
            a1 = 1.0 - f1 * f1
            a3 = -math.exp(2.0 * f2)
            full = _rk4_step(f1, f2, f3, a1, a3, h)
            m1, m2, m3 = _rk4_step(f1, f2, f3, a1, a3, h / 2.0)
            half = _rk4_step(m1, m2, m3, 1.0 - m1 * m1, -math.exp(2.0 * m2), h / 2.0)
            e1, e2, e3 = abs(full[0] - half[0]), abs(full[1] - half[1]), abs(full[2] - half[2])
            # compared one by one: max() drops a NaN that is not its first argument
            if not (e1 <= local_tol and e2 <= local_tol and e3 <= local_tol):
                err = math.nan if math.isnan(e1 + e2 + e3) else max(e1, e2, e3)
                raise ConvergenceError(
                    f"local error estimate {err:.3e} exceeds {local_tol:.0e}; increase steps"
                )
            # Keep the two-half-step value: one extra order of local accuracy.
            f1, f2, f3 = half
    except OverflowError:
        raise ConvergenceError(f"stage exponential overflows with step size {h:.3e}; increase steps") from None
    if not (math.isfinite(f1) and math.isfinite(f2) and math.isfinite(f3)):
        raise ConvergenceError(f"result ({f1}, {f2}, {f3}) is not finite; increase steps")
    return DisentangleFunctions(f1, f2, f3)


def _rk4_step(
    f1: float, f2: float, f3: float, a1: float, a3: float, h: float
) -> tuple[float, float, float]:
    """One classical RK4 step of f1' = 1 - f1^2, f2' = -f1, f3' = -e^{2 f2}.

    (a1, a3) is the start-point stage of f1 and f3.  f2 needs no
    evaluation: its slope at each stage is minus that stage's f1 point,
    which is subtracted directly.
    """
    q = 0.5 * h
    x1, x2, x3 = f1 + q * a1, f2 - q * f1, f3 + q * a3
    b1, b3 = 1.0 - x1 * x1, -math.exp(2.0 * x2)
    y1, y2, y3 = f1 + q * b1, f2 - q * x1, f3 + q * b3
    c1, c3 = 1.0 - y1 * y1, -math.exp(2.0 * y2)
    z1, z2, z3 = f1 + h * c1, f2 - h * y1, f3 + h * c3
    d1, d3 = 1.0 - z1 * z1, -math.exp(2.0 * z2)
    s = h / 6.0
    return (
        f1 + s * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
        f2 - s * (f1 + 2.0 * x1 + 2.0 * y1 + z1),
        f3 + s * (a3 + 2.0 * b3 + 2.0 * c3 + d3),
    )
