"""Truncated two-mode Fock-space operator algebra, stored by sectors.

An oracle for the operator identity behind the engineered amplitude,

    exp[nu (a+ b+ - a b)] = exp(f1 a+ b+) exp(f2 (a a+ + b+ b)) exp(f3 a b),
    f1 = tanh nu, f2 = -ln cosh nu, f3 = -tanh nu,

by two routes that share no algorithm: ``two_mode_squeeze_direct``
exponentiates the generator from each sector's Jacobi spectrum, and
``two_mode_squeeze_factored`` multiplies factors built from closed-form
elements.  ``disentangle_ode_oracle`` integrates the function system that
defines (f1, f2, f3), in ``ode_steps`` steps.

Sector layout: every generator here changes n_a and n_b together or not at
all, so it conserves d = n_a - n_b.  On the space n_a, n_b <= n_max an
operator is block-diagonal in the 2 n_max + 1 sectors d = -n_max .. n_max.
Position j of sector d is the state |j + max(d, 0), j + max(-d, 0)> when
j <= n_max - |d| (``_present``) and padding otherwise.  ``FockOperator``
stores the blocks, never the (n_max + 1)^2-square matrix, and
``N_MAX_LIMIT`` keeps one operator within 64 MiB.  What a route needs at
every nu is computed once per truncation and cached read-only on the
``FockSpaceSpec``.

Compression: given a ``level``, both routes compute only the block on the
states n_a, n_b <= level and return it as an operator on
``FockSpaceSpec(level)``, the identity on its padding (``_pad_identity``);
``interior_block`` cuts the same block out of an operator, with zeros on
its padding, and ``zero_padding`` zeroes an operator's own padding in
place.

Limits: the squeeze takes |L, L> to occupation L cosh 2nu + sinh^2 nu, so
the direct route's elements near n_max carry truncation error, and an
interior level L is safe while that occupation stays within n_max / 2.
The factored route has no truncation error on interior blocks, but its
elements are alternating sums whose terms outgrow the result at high
levels, so cancellation limits it (``two_mode_squeeze_factored``).  The
direct route's rounding grows with |nu| until its guard raises
``ConvergenceError`` (``two_mode_squeeze_direct``).
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "N_MAX_LIMIT",
    "ConvergenceError",
    "FockSpaceSpec",
    "FockOperator",
    "DisentangleFunctions",
    "two_mode_squeeze_direct",
    "two_mode_squeeze_factored",
    "interior_block",
    "zero_padding",
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

# Largest temporary, in bytes, the direct route forms Z Z^T in.
DIRECT_CHUNK_BYTES = 1 << 20

# The ODE oracle's step-size bound and step-count range (see ``ode_steps``).
ODE_MAX_STEP = 5e-3
ODE_MIN_STEPS = 20
ODE_MAX_STEPS = 2000

# Dormand & Prince (1980) 5(4) pair: row i holds the coefficients a_(i+2, j)
# of stage i + 2 (the system is autonomous, so the nodes c_i are not
# needed); the last row is the 5th-order weights b_j, so the last stage
# sits at the step's result.
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# b_j - b*_j, the 5th- minus the embedded 4th-order weights of all 7 stages
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


class ConvergenceError(RuntimeError):
    """A matrix exponential or the ODE oracle could not reach a checked result."""


@dataclass(frozen=True)
class FockSpaceSpec:
    """Single-mode truncation n_max >= 0; 2 n_max + 1 sectors of n_max + 1 states or fewer."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 0:
            raise ValueError("n_max must be at least 0")
        if self.n_max > N_MAX_LIMIT:
            raise ValueError(f"n_max {self.n_max} exceeds the sector-storage bound {N_MAX_LIMIT}")

    @property
    def sector_shape(self) -> tuple[int, int, int]:
        """Shape of one operator's storage: (sectors, n_max + 1, n_max + 1)."""
        return (2 * self.n_max + 1, self.n_max + 1, self.n_max + 1)

    @cached_property
    def _pair_table(self) -> np.ndarray:
        """exp(a+ b+) on the sectors d = 0 .. n_max, shape (n_max + 1, n_max + 1, n_max + 1).

        Element (j + k, j) of sector d is prod_(i <= k) sqrt(n_a n_b) / i,
        read along the path from j, which is sqrt(C(n_a + k, k) C(n_b + k, k))
        at the column's (n_a, n_b) = (j + d, j).  With row r = j + k that is
        sqrt(C(r + d, j + d) C(r, j)): a binomial block shifted down the
        diagonal by d, times one block shared by every sector, both zero
        above the diagonal.  The binomials are exact integers from Pascal's
        triangle, each rounded once, then one product and one square root,
        so every element is within 1.25 eps of exact, whatever k.  Padding
        holds the identity.  Sector -d equals sector d, the elements being
        symmetric in n_a and n_b.  Half an operator.
        """
        n_max, n = self.n_max, self.n_max + 1
        rows, row = [], [1]
        for _ in range(n):
            rows.append(row + [0] * (n - len(row)))
            row = [a + b for a, b in zip([0, *row], [*row, 0])]
        # C(m, k) for m, k <= n_max, zero up to 2 n_max: a row past n_max
        # is a padding row of the sector that reads it
        binomial = np.zeros((2 * n_max + 1, 2 * n_max + 1))
        binomial[:n, :n] = rows
        # windows[i, j, r, c] = binomial[i + r, j + c]; its diagonal i = j = d
        # is the block C(r + d, c + d) of sector d
        shifted = np.moveaxis(np.diagonal(sliding_window_view(binomial, (n, n))), -1, 0)
        table = shifted * binomial[:n, :n]
        np.sqrt(table, out=table)
        table.reshape(n, n * n)[:, :: n + 1] = 1.0
        table.flags.writeable = False
        return table

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray, float, np.ndarray, np.ndarray]:
        """(lam, W, column_sum, re, im): the nu-independent half of the direct route.

        J = W diag(lam) W^T for the Jacobi matrix J = B + B^T of each sector
        d = 0 .. n_max - 1, B the a+ b+ sub-diagonal; column_sum is J's
        largest column sum, and (re, im) are Re and Im of i^(k - j) by
        (k - j) mod 4.  One batched eigendecomposition; W holds n_max
        (n_max + 1)^2 doubles, half an operator.
        """
        n_max, n = self.n_max, self.n_max + 1
        # <j| a+ b+ |j - 1> = sqrt(n_a n_b) at (n_a, n_b) = (j + d, j), 0 on padding
        d, j = np.arange(n_max)[:, None], np.arange(1, n)
        coupling = np.where(_present(n_max)[n_max:-1, 1:], np.sqrt((j + d) * j), 0.0)
        jacobi = np.zeros((n_max, n * n))
        jacobi[:, n :: n + 1] = coupling  # sub-diagonal
        jacobi[:, 1 :: n + 1] = coupling  # super-diagonal
        jacobi = jacobi.reshape(n_max, n, n)
        column_sum = float(jacobi.sum(axis=-2).max(initial=0.0))
        lam, w = np.linalg.eigh(jacobi)
        j = np.arange(n)
        masks = np.array([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])[:, (j - j[:, None]) % 4]
        for a in (lam, w, masks):
            a.flags.writeable = False
        return lam, w, column_sum, masks[0], masks[1]


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


def _present(level: int) -> np.ndarray:
    """Whether position j of sector d is a state, j <= level - |d|; shape (2 level + 1, level + 1)."""
    return np.arange(level + 1) <= level - np.abs(np.arange(-level, level + 1))[:, None]


def _compression_level(spec: FockSpaceSpec, level: int | None) -> int:
    """``level``, n_max when None; a level outside [0, n_max] raises ``ValueError``."""
    level = spec.n_max if level is None else level
    if not 0 <= level <= spec.n_max:
        raise ValueError(f"interior level {level} is outside [0, {spec.n_max}]")
    return level


def _fill_padding(out: np.ndarray, value: float | np.ndarray) -> np.ndarray:
    """``out``, the sectors of a level, with ``value`` on their padding rows and columns (in place)."""
    inside = _present(len(out) // 2)
    np.copyto(out, value, where=~(inside[:, :, None] & inside[:, None, :]))
    return out


def _pad_identity(out: np.ndarray) -> FockOperator:
    """``out``, the sectors of a level, as an operator: the identity on their padding."""
    level = len(out) // 2
    return FockOperator(FockSpaceSpec(level), _fill_padding(out, np.eye(level + 1)))


def two_mode_squeeze_direct(nu: float, spec: FockSpaceSpec, *, level: int | None = None) -> FockOperator:
    """exp[nu (a+ b+ - a b)] on the truncated space, from each sector's Jacobi spectrum.

    The generator is real antisymmetric, so the result is real orthogonal;
    interior elements converge to the untruncated values as n_max grows,
    while elements near the truncation edge carry reflection error.  In
    sector d the generator is G = B - B^T with B = a+ b+ sub-diagonal,
    <n_a+1, n_b+1| a+ b+ |n_a, n_b> = sqrt((n_a+1)(n_b+1)); P = diag(i^j)
    gives P G P^-1 = i J with J = B + B^T, and with J = W diag(lam) W^T

        exp(nu G)_jk = Re(i^(k-j)) C_jk - Im(i^(k-j)) S_jk,
        C = I - Z Z^T,  Z = W diag(sqrt 2 sin(nu lam / 2)),
        S = W diag(sin(nu lam)) W^T.

    nu = 0 gives the identity exactly, and so do the padding rows and
    columns, whose eigenvalues are exactly 0.  Sector d = n_max holds one
    state and a zero generator, so its block is the identity.  G's blocks
    for d and -d are equal, sqrt((n_a+1)(n_b+1)) being symmetric in the
    two modes, so the sectors d < 0 are copies of d > 0.

    ``level`` (default n_max) compresses the result: element (j, k) needs
    only rows j and k of W, so a level takes rows <= level of W on the
    sectors 0 .. level.  The block agrees with the full operator's to a
    few eps (3.1 eps of the largest element at most at n_max = 24 and
    60), not bitwise.

    lam and W come from ``FockSpaceSpec._spectrum``.  The products are
    formed a few sectors at a time, each chunk of scaled rows of W taking
    at most ``DIRECT_CHUNK_BYTES``, so a call peaks at its result and
    about 3 MiB beside W.

    Raises ``ConvergenceError`` once 2 (norm 2^-52)^2 passes
    ``DIRECT_DEFECT_BOUND``, norm being the generator's 1-norm, |nu| times
    its largest column sum: the phases nu lam carry |nu| times the
    eigenvalues' rounding, so the result drifts off orthogonal, max
    |U^T U - I| growing as (norm 2^-52)^2.  The guard trips from |nu|
    about 4.5e9 at n_max = 4 and 6.8e8 at n_max = 24.
    """
    level = _compression_level(spec, level)
    n_max, n = spec.n_max, level + 1
    lam, w, column_sum, re, im = spec._spectrum
    norm = abs(nu) * column_sum  # a Python float: inf, not a warning, past 1e308
    drift = norm * 2.0**-52
    defect = 2.0 * drift * drift
    if not defect <= DIRECT_DEFECT_BOUND:
        raise ConvergenceError(
            f"generator 1-norm {norm:.3e} predicts an orthogonality defect {defect:.1e} "
            f"above {DIRECT_DEFECT_BOUND:.0e}"
        )
    sectors = min(n, n_max)  # d = 0 .. level, less the one-state sector d = n_max
    w = w[:sectors, :n]
    re, im = re[:n, :n], im[:n, :n]
    phase = nu * lam[:sectors]
    sin_phase = np.sin(phase)[:, None, :]
    half_sin = math.sqrt(2.0) * np.sin(0.5 * phase)[:, None, :]

    out = np.empty((2 * level + 1, n, n))
    upper = out[level : level + sectors]
    chunk = max(1, DIRECT_CHUNK_BYTES // (8 * n * (n_max + 1)))
    for s in range(0, sectors, chunk):
        rows, block = w[s : s + chunk], upper[s : s + chunk]
        np.matmul(rows * sin_phase[s : s + chunk], rows.swapaxes(1, 2), out=block)  # S
        block *= -im
        z = rows * half_sin[s : s + chunk]
        zzt = z @ z.swapaxes(1, 2)  # I - C
        zzt *= re
        block -= zzt
    upper.reshape(sectors, n * n)[:, :: n + 1] += 1.0
    out[level + sectors :] = np.eye(n)
    out[:level] = out[:level:-1]
    return _pad_identity(out)


def _pair_powers(f: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(m^k, e k) at row i and column j of an n x n block, k = max(i - j, 0), f = m 2^e.

    f^k = m^k 2^(e k) with the mantissa and exponent of ``math.frexp``.
    |m| >= 1/2 keeps m^k a normal number for k <= N_MAX_LIMIT, so an
    element whose f^k would underflow (past k ~ 102 at f = 1e-3) but whose
    table value lifts it back keeps its digits.
    """
    mantissa, exponent = math.frexp(f)
    k = np.arange(n, dtype=np.int32)[:, None] - np.arange(n, dtype=np.int32)
    np.maximum(k, 0, out=k)
    # n powers, not n^2: pow of a negative base takes ten times as long;
    # int32, since np.ldexp is several times slower on int64
    return (mantissa ** np.arange(n))[k], exponent * k


def _scale_pair_table(table: np.ndarray, powers: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """``table`` times f^k in place, f^k given by ``_pair_powers``: exp(f a+ b+) per sector.

    a+ b+ raises position j to j + 1 within a sector, so the series
    terminates and the exponential is lower-triangular with

        <j + k| exp(f a+ b+) |j> = f^k / k! sqrt((n_a + k)! (n_b + k)! / (n_a! n_b!))

    at (n_a, n_b) of position j (Truax 1985): the ``_pair_table`` element
    times f^k, taken as m^k 2^(e k).  That adds three roundings to the
    table's four, whatever k: a power (within an ulp), one product and the
    subnormal rounding of 2^(e k), which is exact on normal numbers.  So
    every normal element is within about 3 eps of exact (1.53 eps at
    most measured at n_max = 160 against 40-digit mpmath, for f = 0.46,
    -0.76 and 1e-3).  f = 0 gives the identity exactly, and the table's
    padding stays the identity.
    """
    power, exponent = powers
    table *= power
    return np.ldexp(table, exponent, out=table)


def two_mode_squeeze_factored(nu: float, spec: FockSpaceSpec, *, level: int | None = None) -> FockOperator:
    """Factored form exp(f1 a+ b+) exp(f2 (a a+ + b+ b)) exp(f3 a b).

    Every factor is built from closed-form elements, with no matrix
    exponential: the raising factor as ``_scale_pair_table`` at f1, the
    lowering factor as the transpose of that at f3, each a power scaling
    of the truncation's ``_pair_table``, and the diagonal middle factor
    elementwise.  The middle generator is the literal product a a+ (not
    a+ a + 1): on the truncated space the two differ only at n_a = n_max,
    where a a+ is 0, and the discrepancy never reaches interior blocks
    because the middle factor is diagonal.  That zero also breaks the
    mirror symmetry of sectors d and -d, so the product is formed on every
    sector.

    ``level`` (default n_max) compresses the result as the product of the
    factors' leading (level + 1)^2 corners.  That is exact: the raising
    factor is lower- and the lowering factor upper-triangular in the
    position, so element (j, k) sums over positions i <= min(j, k) only,
    and at n_max <= 24 the block is bitwise the full operator's.

    The factors and their batched product are formed a few sectors at a
    time, straight into the result; a chunk of one factor takes at most
    ``DIRECT_CHUNK_BYTES``, so a call peaks at the result plus one chunk of
    each factor beside the table.

    The product is free of truncation error on interior blocks, not of
    rounding: sector 0's element (L, L) is the alternating sum over k of
    C(L, k)^2 (f1 f3)^(L-k) e^(f2 (2k+1)), and its error is a few eps times
    the largest term.  At nu = 0.5 that term is 3.8e8 at level 40 (an
    error near 1e-7) and 4.9e18 at level 80, where the element comes out
    -1520 against 0.035.
    """
    level = _compression_level(spec, level)
    f = disentangle_closed_form(nu)
    n_max, n = spec.n_max, level + 1
    mirror = np.abs(np.arange(-level, n))  # |d|, the table sector of each sector
    # a a+ + b+ b = n_a + n_b + 1 = |d| + 2 j + 1 at position j of sector d
    number = mirror[:, None] + np.arange(1, 2 * n, 2)
    if level == n_max:  # a a+ is 0 at n_a = n_max, position n_max - d of sector d >= 0
        d = np.arange(n)
        number[level + d, n_max - d] -= n
    with np.errstate(over="ignore"):  # f2 * number is -inf near |nu| ~ 1e308, where the factor tends to 0
        middle = np.exp(f.f2 * number)
    table = spec._pair_table
    raising_powers = _pair_powers(f.f1, n)
    lowering_powers = [a.T.copy() for a in _pair_powers(f.f3, n)]
    out = np.empty((2 * level + 1, n, n))
    chunk = max(1, DIRECT_CHUNK_BYTES // (8 * n * n))
    for s in range(0, 2 * level + 1, chunk):
        factor = table[mirror[s : s + chunk], :n, :n]
        # both factors row-major: numpy's batched product takes 2.5 times
        # as long with a transposed operand (n_max = 24)
        lower = _scale_pair_table(factor.swapaxes(1, 2).copy(), lowering_powers)
        _scale_pair_table(factor, raising_powers)
        factor *= middle[s : s + chunk, None, :]
        np.matmul(factor, lower, out=out[s : s + chunk])
        del factor, lower  # before the next chunk's: one chunk of each at a time
    return _pad_identity(out)


def interior_block(op: FockOperator, level: int) -> np.ndarray:
    """Block over basis states with n_a <= level and n_b <= level, by sector.

    Shape (2 level + 1, level + 1, level + 1), laid out like
    ``FockOperator.entries`` for sectors |d| <= level and zero off the
    block, so differences and Frobenius norms equal those of the dense
    sub-matrix.
    """
    level = _compression_level(op.spec, level)
    n_max = op.spec.n_max
    # n_a, n_b <= level exactly at the states of the space truncated at level
    return _fill_padding(op.entries[n_max - level : n_max + level + 1, : level + 1, : level + 1].copy(), 0.0)


def zero_padding(op: FockOperator) -> np.ndarray:
    """``op``'s entries with their padding zeroed in place: ``interior_block(op, op.spec.n_max)`` without a copy.

    ``op`` then no longer holds the identity on its padding.
    """
    return _fill_padding(op.entries, 0.0)


def vacuum_column(op: FockOperator) -> np.ndarray:
    """<n_a, n_b| op |0, 0> as an (n_max+1, n_max+1) array.

    |0, 0> lies in sector 0, so only the diagonal n_a = n_b can be nonzero.
    The array is built with ``np.diag`` from sector 0's column, so its
    off-diagonal elements are zero by construction: the sector layout
    stores no element that could put weight there, and ``fock``'s
    ``vacuum_offdiag_max`` reads 0 whatever the routes compute.
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
    """Step count for ``disentangle_ode_oracle`` from the step-size bound.

    min(2000, max(20, ceil(|nu_end| / 5e-3))): steps of at most 5e-3, where
    the oracle's global error, at most about 5e-4 h^5, is below rounding; at
    least the oracle's 20 steps; and never more than 2000.  20 at nu = 0.1,
    200 at nu = 1, 2000 from |nu| = 10 on.  At the cap the local check
    holds up to |nu_end| ~ 106.67 (the result is then off the closed forms
    by 1.8e-10 at 106) and fails past it.  A NaN nu_end raises
    ``ValueError``.
    """
    if math.isnan(nu_end):
        raise ValueError(f"nu must be a number, got {nu_end}")
    span = abs(nu_end) / ODE_MAX_STEP
    if span >= ODE_MAX_STEPS:  # also where span overflows to inf
        return ODE_MAX_STEPS
    return max(ODE_MIN_STEPS, math.ceil(span))


def disentangle_ode_oracle(
    nu_end: float, steps: int | Sequence[int], *, local_tol: float = 1e-9
) -> DisentangleFunctions | list[DisentangleFunctions | ConvergenceError]:
    """Integrate the factorization system from (0, 0, 0) to nu_end.

    The defining relations
        1 = f1' - 2 f1 f2' + f1^2 f3' e^{-2 f2}
        0 = f2' - f1 f3' e^{-2 f2}
       -1 = f3' e^{-2 f2}
    are triangular in the derivatives; solving them once gives the explicit
    system f3' = -e^{2 f2}, f2' = -f1, f1' = 1 - f1^2 integrated here with
    the Dormand-Prince 5(4) pair (``_DP_A``) in ``steps`` equal steps,
    keeping the 5th-order solution.  The pair is first-same-as-last: its
    last stage is the right-hand side at the step's result, and serves as
    the next step's first stage, so a step costs 6 evaluations of
    (1 - f1^2, -e^{2 f2}); f2' needs none, its slope at each stage being
    minus that stage's f1 point.  Each step is checked: the difference to
    the embedded 4th-order solution (``_DP_E``) must be at most
    ``local_tol`` in every component.  ``ode_steps`` gives the step count
    that keeps the global error at rounding.

    A stage exponential that overflows, an estimate that is not a number
    and a result that is not finite all raise ``ConvergenceError``: steps
    that long cannot be checked (from |nu_end| ~ 9.1e3 at 2000 steps).

    ``steps`` may also be a sequence of step counts.  Then one pass of
    max(steps) steps h = nu_end / max(steps) is integrated, and the list
    returned holds, for each count in order, the state after that many
    steps, or the ``ConvergenceError`` that count meets: the error of a
    step at or before it, or its own state's finiteness check.  The steps
    depend only on the bits of h, so each entry is bitwise what a call
    with (count h, count) gives when count h / count is h again.
    """
    single = isinstance(steps, numbers.Integral)
    counts = [steps] if single else list(steps)
    if min(counts) < ODE_MIN_STEPS:
        raise ValueError(f"need at least {ODE_MIN_STEPS} integration steps")
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (a61, a62, a63, a64, a65), b = _DP_A
    b1, _, b3, b4, b5, b6 = b
    e1, _, e3, e4, e5, e6, e7 = _DP_E
    h = nu_end / max(counts)
    f1 = f2 = f3 = 0.0
    states, done, error = {}, 0, None
    try:
        # stage i has the point (y_i, z_i) of (f1, f2) and the slopes
        # (k_i, -y_i, m_i) of (f1, f2, f3); no slope depends on f3, so its
        # stage points are never formed
        k1, m1 = 1.0 - f1 * f1, -math.exp(2.0 * f2)
        for stop in sorted(set(counts)):
            for _ in range(stop - done):
                y2 = f1 + h * (a21 * k1)
                z2 = f2 - h * (a21 * f1)
                k2, m2 = 1.0 - y2 * y2, -math.exp(2.0 * z2)
                y3 = f1 + h * (a31 * k1 + a32 * k2)
                z3 = f2 - h * (a31 * f1 + a32 * y2)
                k3, m3 = 1.0 - y3 * y3, -math.exp(2.0 * z3)
                y4 = f1 + h * (a41 * k1 + a42 * k2 + a43 * k3)
                z4 = f2 - h * (a41 * f1 + a42 * y2 + a43 * y3)
                k4, m4 = 1.0 - y4 * y4, -math.exp(2.0 * z4)
                y5 = f1 + h * (a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4)
                z5 = f2 - h * (a51 * f1 + a52 * y2 + a53 * y3 + a54 * y4)
                k5, m5 = 1.0 - y5 * y5, -math.exp(2.0 * z5)
                y6 = f1 + h * (a61 * k1 + a62 * k2 + a63 * k3 + a64 * k4 + a65 * k5)
                z6 = f2 - h * (a61 * f1 + a62 * y2 + a63 * y3 + a64 * y4 + a65 * y5)
                k6, m6 = 1.0 - y6 * y6, -math.exp(2.0 * z6)
                # the 5th-order result is the last stage's point (b2 = 0)
                y7 = f1 + h * (b1 * k1 + b3 * k3 + b4 * k4 + b5 * k5 + b6 * k6)
                z7 = f2 - h * (b1 * f1 + b3 * y3 + b4 * y4 + b5 * y5 + b6 * y6)
                g7 = f3 + h * (b1 * m1 + b3 * m3 + b4 * m4 + b5 * m5 + b6 * m6)
                k7, m7 = 1.0 - y7 * y7, -math.exp(2.0 * z7)
                d1 = abs(h * (e1 * k1 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6 + e7 * k7))
                d2 = abs(h * (e1 * f1 + e3 * y3 + e4 * y4 + e5 * y5 + e6 * y6 + e7 * y7))
                d3 = abs(h * (e1 * m1 + e3 * m3 + e4 * m4 + e5 * m5 + e6 * m6 + e7 * m7))
                # compared one by one: max() drops a NaN that is not its first argument
                if not (d1 <= local_tol and d2 <= local_tol and d3 <= local_tol):
                    err = math.nan if math.isnan(d1 + d2 + d3) else max(d1, d2, d3)
                    raise ConvergenceError(
                        f"local error estimate {err:.3e} exceeds {local_tol:.0e}; increase steps"
                    )
                f1, f2, f3, k1, m1 = y7, z7, g7, k7, m7
            done = stop
            states[stop] = (
                DisentangleFunctions(f1, f2, f3)
                if math.isfinite(f1) and math.isfinite(f2) and math.isfinite(f3)
                else ConvergenceError(f"result ({f1}, {f2}, {f3}) is not finite; increase steps")
            )
    except OverflowError:
        error = ConvergenceError(f"stage exponential overflows with step size {h:.3e}; increase steps")
    except ConvergenceError as exc:
        error = exc
    results = [states.get(count, error) for count in counts]
    if not single:
        return results
    (result,) = results
    if isinstance(result, ConvergenceError):
        raise result
    return result
