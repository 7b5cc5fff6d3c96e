"""Truncated two-mode Fock-space operator algebra, stored by sectors.

An oracle for the operator identity behind the engineered amplitude,

    exp[nu (a+ b+ - a b)] = exp(f1 a+ b+) exp(f2 (a a+ + b+ b)) exp(f3 a b),
    f1 = tanh nu, f2 = -ln cosh nu, f3 = -tanh nu,

by two routes that share no algorithm: ``two_mode_squeeze_direct``
exponentiates the generator from the singular value decomposition of each
sector's odd-by-even block, and ``two_mode_squeeze_factored`` multiplies
factors built from closed-form elements.  Both take a float nu or a run of
them, each operator of a run bitwise what its nu alone gives.
``disentangle_ode_oracle`` integrates the function system that defines
(f1, f2, f3): one pass with step-size control serves every nu, each nu
branching off it to land on its own value.  ``disentangle_ode_fixed``
integrates it to one nu in equal, checked steps.

Sector layout: every generator here changes n_a and n_b together or not at
all, so it conserves d = n_a - n_b.  On the space n_a, n_b <= n_max an
operator is block-diagonal in the 2 n_max + 1 sectors d = -n_max .. n_max.
Position j of sector d is the state |j + max(d, 0), j + max(-d, 0)> when
j <= n_max - |d| (``_present``) and padding otherwise.  ``FockOperator``
stores the blocks, never the (n_max + 1)^2-square matrix, and
``N_MAX_LIMIT`` keeps one operator within 64 MiB.  Every generator's
elements are symmetric in n_a and n_b, so sector -d equals sector d: both
routes form the sectors d >= 0 only, and ``_finish`` mirrors them to
d < 0.  What a route needs at every nu is computed once per truncation and
cached read-only on the ``FockSpaceSpec``.

Compression: given a ``level``, both routes compute only the block on the
states n_a, n_b <= level and return it as an operator on
``FockSpaceSpec(level)``, the identity on its padding (``_finish``);
``interior_block`` cuts the same block out of an operator, with zeros on
its padding.

Limits: the squeeze takes |L, L> to occupation L cosh 2nu + sinh^2 nu, so
the direct route's elements near n_max carry truncation error, and an
interior level L is safe while that occupation stays within n_max / 2.
The factored route has no truncation error on any state, but its
elements are alternating sums whose terms outgrow the result at high
levels, so cancellation limits it (``two_mode_squeeze_factored``).  The
direct route's rounding grows with |nu| until its guard raises
``ConvergenceError`` (``_check_direct``).

``check_squeezes`` is the whole pass over a run's squeeze values: both
routes on the interior block of level n_max // 2, for as many nu per call
as one chunk holds, the vacuum column against its closed form and the ODE
oracle against ``disentangle_closed_form``, giving each nu's report entry
with one (check, value, tolerance key) row per measurement.  Its norms are
reductions that call no BLAS, and the direct route's products are half a
sector's size, so no report depends on the BLAS thread count (checked at
one and two threads up to n_max = 160).  Judging the rows against a
tolerance and writing the report are ``cli``'s.
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
    "vacuum_column",
    "disentangle_ode_oracle",
    "disentangle_ode_fixed",
    "disentangle_closed_form",
    "check_squeezes",
]

# Largest n_max whose sector storage, (2 n_max + 1)(n_max + 1)^2 doubles,
# fits in 64 MiB.
N_MAX_LIMIT = 160

# Largest orthogonality defect max |U^T U - I| the direct route may predict
# for its own result (see ``two_mode_squeeze_direct``).
DIRECT_DEFECT_BOUND = 1e-10

# Largest chunk, in bytes, of the scaled singular vectors the direct route
# forms at once, and of one factor of the factored route; ``check_squeezes``
# gives each route as many nu a call as a result of this size holds.
DIRECT_CHUNK_BYTES = 1 << 20

# The ODE oracle's error tolerance, absolute and relative alike; the bound
# on each component's local error estimate in ``disentangle_ode_fixed``;
# the oracle's step budget, the step attempts, rejected ones included, that
# the path to one nu may take; and its largest step.  Once tanh saturates,
# f1' = 1 - f1^2 has the Jacobian -2, and the pair is stable for steps up
# to 3.307 / 2 = 1.653 there, so the cap sits just inside the step the
# controller holds anyway (see ``disentangle_ode_oracle``).
ODE_TOL = 1e-14
ODE_FIXED_STEP_TOL = 1e-9
ODE_BUDGET = 10_000
ODE_STEP_CAP = 1.6


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
        above the diagonal.  The binomials are exact integers from
        ``math.comb``, each rounded once, then one product and one square
        root, so every element is within 1.25 eps of exact, whatever k.
        Padding holds the identity.  Sector -d equals sector d, the
        elements being symmetric in n_a and n_b.  Half an operator.
        """
        n_max, n = self.n_max, self.n_max + 1
        # C(m, k) for m, k <= n_max, zero up to 2 n_max: a row past n_max
        # is a padding row of the sector that reads it
        binomial = np.zeros((2 * n_max + 1, 2 * n_max + 1))
        binomial[:n, :n] = [[math.comb(m, k) for k in range(n)] for m in range(n)]
        # windows[i, j, r, c] = binomial[i + r, j + c]; its diagonal i = j = d
        # is the block C(r + d, c + d) of sector d
        shifted = np.moveaxis(np.diagonal(sliding_window_view(binomial, (n, n))), -1, 0)
        table = shifted * binomial[:n, :n]
        np.sqrt(table, out=table)
        table.reshape(n, n * n)[:, :: n + 1] = 1.0
        table.flags.writeable = False
        return table

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(sigma, U, V): the nu-independent half of the direct route.

        K = U diag(sigma) V^T for the odd-by-even block K = G[odd, even] of
        the generator G = B - B^T of each sector d = 0 .. n_max, B the
        a+ b+ sub-diagonal: rows are the odd positions 1, 3, .. and columns
        the even ones 0, 2, .., shape (n_max + 1) // 2 by n_max // 2 + 1.
        Padding positions have no coupling, so K holds exact zeros there,
        and sector n_max, one state, is all zeros (0 x 1 at n_max = 0).  One
        batched SVD; U and V hold about n_max (n_max + 1)^2 / 2 doubles, a
        quarter of an operator.
        """
        n_max, n = self.n_max, self.n_max + 1
        # <j| a+ b+ |j - 1> = sqrt(n_a n_b) at (n_a, n_b) = (j + d, j), 0 on padding
        d, j = np.arange(n)[:, None], np.arange(1, n)
        coupling = np.where(_present(n_max)[n_max:, 1:], np.sqrt((j + d) * j), 0.0)
        # G[2i + 1, 2i] = c_(2i + 1) and G[2i + 1, 2i + 2] = -c_(2i + 2)
        odd, even = n // 2, (n + 1) // 2
        block = np.zeros((n, odd * even))
        block[:, :: even + 1] = coupling[:, ::2]
        block[:, 1 :: even + 1] = -coupling[:, 1::2]
        u, sigma, vt = np.linalg.svd(block.reshape(n, odd, even), full_matrices=False)
        v = np.ascontiguousarray(vt.swapaxes(1, 2))  # rows by position, like U's
        for a in (sigma, u, v):
            a.flags.writeable = False
        return sigma, u, v


@dataclass(frozen=True)
class FockOperator:
    """Operator conserving n_a - n_b on the truncated two-mode space, or a run of them.

    ``entries[d + n_max, i, j]`` is <state i| op |state j> in sector
    d = n_a - n_b, states numbered by min(n_a, n_b).  Sector d has
    n_max + 1 - |d| states; the rows and columns padding it to n_max + 1
    are not states and hold the identity.  A route called with a sequence
    of nu gives one operator per nu, stacked on a leading axis.
    """

    spec: FockSpaceSpec
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries)
        if e.ndim not in (3, 4) or e.shape[-3:] != self.spec.sector_shape:
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
    inside = _present(out.shape[-3] // 2)
    np.copyto(out, value, where=~(inside[:, :, None] & inside[:, None, :]))
    return out


def _finish(out: np.ndarray, nu: float | Sequence[float]) -> FockOperator:
    """The operator in ``out``, a route's sectors of a level per nu, of which those with d >= 0 are formed.

    Writes sector -d as a copy of sector d and the identity on the
    padding, in place; a float ``nu`` drops the leading nu axis.
    """
    level = out.shape[-3] // 2
    out[:, :level] = out[:, :level:-1]
    return FockOperator(FockSpaceSpec(level), _fill_padding(out if np.ndim(nu) else out[0], np.eye(level + 1)))


def _check_direct(nu: float, n_max: int) -> None:
    """Raise ``ConvergenceError`` where the direct route's predicted orthogonality defect at nu passes its bound.

    The phases nu sigma carry |nu| times the singular values' rounding, so
    the route's result X drifts off orthogonal, max |X^T X - I| growing as
    (norm 2^-52)^2, norm being the generator's 1-norm: |nu| times its
    largest column sum, 2 n_max - 1 exactly (column n_max - 1 of sector 0,
    whose couplings are n_max - 1 and n_max; 0 at n_max = 0).  The guard
    raises once 2 (norm 2^-52)^2 passes ``DIRECT_DEFECT_BOUND``: from |nu|
    about 4.5e9 at n_max = 4 and 6.8e8 at n_max = 24, and never for a
    finite nu at n_max = 0.  It reads no spectrum.
    """
    norm = abs(nu) * max(2 * n_max - 1, 0)  # a Python float: inf, not a warning, past 1e308
    drift = norm * 2.0**-52
    defect = 2.0 * drift * drift
    if not defect <= DIRECT_DEFECT_BOUND:
        raise ConvergenceError(
            f"generator 1-norm {norm:.3e} predicts an orthogonality defect {defect:.1e} "
            f"above {DIRECT_DEFECT_BOUND:.0e}"
        )


def two_mode_squeeze_direct(
    nu: float | Sequence[float], spec: FockSpaceSpec, *, level: int | None = None
) -> FockOperator:
    """exp[nu (a+ b+ - a b)] on the truncated space, from the SVD of each sector's odd-by-even generator block.

    The generator is real antisymmetric, so the result is real orthogonal;
    interior elements converge to the untruncated values as n_max grows,
    while elements near the truncation edge carry reflection error.  In
    sector d the generator is G = B - B^T with B = a+ b+ sub-diagonal,
    <n_a+1, n_b+1| a+ b+ |n_a, n_b> = sqrt((n_a+1)(n_b+1)).  G moves the
    position by one, so it couples even positions only to odd ones, and
    with K = G[odd, even] = U diag(sigma) V^T (the Jordan-Wielandt
    pairing; Golub & Kahan 1965) the parity blocks of exp(nu G) are

        EE = I - Z_E Z_E^T,  Z_E = V diag(sqrt 2 sin(nu sigma / 2)),
        OO = I - Z_O Z_O^T,  Z_O = U diag(sqrt 2 sin(nu sigma / 2)),
        OE = U diag(sin(nu sigma)) V^T,  EO = -OE^T,

    products of half the size of the sector's.  The route is independent
    of the factored one: it shares neither its closed-form elements nor
    its products, only the generator's couplings.  nu = 0 gives the
    identity exactly.  Padding positions are uncoupled, so their rows and
    columns of K are exact zeros and add no phase; ``_finish`` writes the
    identity there, and copies the sectors d > 0 to d < 0, G's blocks for
    d and -d being equal.  Sector d = n_max holds one state and an
    all-zero block, whose singular values 0 give exactly the identity.
    Against scipy's expm the result agrees within 2.9e-14 on the dense
    space at n_max <= 8, 1.7e-13 per sector at n_max = 24 and 60, and
    3.8e-14 on the level-80 block at n_max = 160.

    ``nu`` is a float or a 1-D sequence; for a sequence the entries carry a
    leading nu axis, and each slice is bitwise the result of a call with
    its nu alone.

    ``level`` (default n_max) compresses the result: element (j, k) needs
    only rows j and k of U and V, so a level takes the rows of positions
    <= level on the sectors 0 .. level.  The block agrees with the full
    operator's to a few eps (3.1 eps of the largest element at most at
    n_max = 24 and 60), not bitwise.

    sigma, U and V come from ``FockSpaceSpec._spectrum``.  The products
    are formed for a few (nu, sector) pairs at a time, each chunk of
    scaled rows of U and V taking at most ``DIRECT_CHUNK_BYTES``, so a call
    peaks at its result and a few MiB beside U and V.

    Raises ``ConvergenceError`` for the first nu that ``_check_direct``
    refuses, before the spectrum is read.
    """
    level = _compression_level(spec, level)
    values = np.atleast_1d(np.asarray(nu, dtype=float))  # a float is a run of one
    for x in values.tolist():
        _check_direct(x, spec.n_max)
    n = level + 1
    # the sectors d = 0 .. level, and the rows of the odd positions 1, 3, ..
    # <= level and of the even ones 0, 2, ..
    sigma, u, v = spec._spectrum
    sigma, u, v = sigma[:n], u[:n, : n // 2], v[:n, : (n + 1) // 2]
    eye_odd, eye_even = np.eye(n // 2), np.eye((n + 1) // 2)

    out = np.empty((len(values), 2 * level + 1, n, n))
    upper = out[:, level:]
    # blocks of (nu, sector) pairs, as many as DIRECT_CHUNK_BYTES takes and at
    # least one: every sector of several nu, or some sectors of one nu.  A
    # pair of no bytes (n_max = 0) counts as one byte
    pairs = max(1, DIRECT_CHUNK_BYTES // max(8 * n * sigma.shape[-1], 1))
    nu_step, sector_step = max(1, pairs // n), min(pairs, n)
    for k in range(0, len(values), nu_step):
        for s in range(0, n, sector_step):
            ks, ss = slice(k, k + nu_step), slice(s, s + sector_step)
            phase = values[ks, None, None] * sigma[ss]
            sin_phase = np.sin(phase)[..., None, :]
            half_sin = math.sqrt(2.0) * np.sin(0.5 * phase)[..., None, :]
            block, rows_odd, rows_even = upper[ks, ss], u[ss], v[ss]
            z = rows_even * half_sin
            np.subtract(eye_even, z @ z.swapaxes(-1, -2), out=block[..., ::2, ::2])
            z = rows_odd * half_sin
            np.subtract(eye_odd, z @ z.swapaxes(-1, -2), out=block[..., 1::2, 1::2])
            odd_even = (rows_odd * sin_phase) @ rows_even.swapaxes(-1, -2)
            block[..., 1::2, ::2] = odd_even
            np.negative(odd_even.swapaxes(-1, -2), out=block[..., ::2, 1::2])
            del z, odd_even  # before the next chunk's
    return _finish(out, nu)


def _pair_powers(f: float | np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(m^k, e k) at row i and column j of an n x n block, k = max(i - j, 0), f = m 2^e.

    f^k = m^k 2^(e k) with the mantissa and exponent of ``np.frexp``.
    |m| >= 1/2 keeps m^k a normal number for k <= N_MAX_LIMIT, so an
    element whose f^k would underflow (past k ~ 102 at f = 1e-3) but whose
    table value lifts it back keeps its digits.  An array of f gives a
    block per f, on a leading axis.
    """
    mantissa, exponent = np.frexp(f)
    k = np.arange(n, dtype=np.int32)[:, None] - np.arange(n, dtype=np.int32)
    np.maximum(k, 0, out=k)
    # n powers, not n^2: pow of a negative base takes ten times as long;
    # int32, since np.ldexp is several times slower on int64
    return (mantissa[..., None] ** np.arange(n))[..., k], exponent[..., None, None] * k


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


def two_mode_squeeze_factored(
    nu: float | Sequence[float], spec: FockSpaceSpec, *, level: int | None = None
) -> FockOperator:
    """Factored form exp(f1 a+ b+) exp(f2 (a a+ + b+ b)) exp(f3 a b).

    Every factor is built from closed-form elements, with no matrix
    exponential: the raising factor as ``_scale_pair_table`` at f1, the
    lowering factor as the transpose of that at f3, each a power scaling
    of the truncation's ``_pair_table``, and the diagonal middle factor
    elementwise.  The middle generator is the number operator
    n_a + n_b + 1 = d + 2 j + 1, which a a+ + b+ b is on the untruncated
    space (the truncated product a a+ would be 0 at n_a = n_max).  The
    raising factor is lower- and the lowering factor upper-triangular in
    the position, so element (j, k) sums over positions i <= min(j, k)
    only, all of them states where each factor holds its untruncated
    elements: the product has no truncation error on any state.  Its
    elements are symmetric in n_a and n_b, so only the sectors d >= 0 are
    formed, and ``_finish`` mirrors them.

    ``level`` (default n_max) compresses the result as the product of the
    factors' leading (level + 1)^2 corners.  That is exact, by the same
    triangular sums, and at n_max <= 24 the block is bitwise the full
    operator's.

    ``nu`` is a float or a 1-D sequence, as for
    ``two_mode_squeeze_direct``: the closed forms, powers and middle
    factors of a run are formed at once, and each slice is bitwise the
    result of a call with its nu alone.  The factors and their batched
    product are formed one nu and a few sectors at a time, straight into
    the result; a chunk of one factor takes at most ``DIRECT_CHUNK_BYTES``,
    so a call peaks at the result plus one chunk of each factor beside the
    table.  A chunk of several nu would hold an operator per nu in each
    factor, and at n_max = 24 read slower than one nu a chunk.

    The product is free of truncation error, not of rounding: sector 0's
    element (L, L) is the alternating sum over k of
    C(L, k)^2 (f1 f3)^(L-k) e^(f2 (2k+1)), and its error is a few eps times
    the largest term.  At nu = 0.5 that term is 3.8e8 at level 40 (an
    error near 1e-7) and 4.9e18 at level 80, where the element comes out
    -1520 against 0.035.
    """
    level = _compression_level(spec, level)
    values = np.atleast_1d(np.asarray(nu, dtype=float))
    f1, f2, f3 = np.array([(f.f1, f.f2, f.f3) for f in map(disentangle_closed_form, values.tolist())]).reshape(-1, 3).T
    n = level + 1
    # n_a + n_b + 1 = d + 2 j + 1 at position j of sector d >= 0
    number = np.arange(n)[:, None] + np.arange(1, 2 * n, 2)
    with np.errstate(over="ignore"):  # f2 * number is -inf near |nu| ~ 1e308, where the factor tends to 0
        middle = np.exp(f2[:, None, None] * number)
    table = spec._pair_table[:n, :n, :n]
    raising = _pair_powers(f1, n)
    lowering = [a.swapaxes(-1, -2).copy() for a in _pair_powers(f3, n)]
    out = np.empty((len(values), 2 * level + 1, n, n))
    chunk = max(1, DIRECT_CHUNK_BYTES // (8 * n * n))
    for k in range(len(values)):
        for s in range(0, n, chunk):
            factor = table[s : s + chunk].copy()
            # both factors row-major: numpy's batched product takes 2.5 times
            # as long with a transposed operand (n_max = 24)
            lower = _scale_pair_table(factor.swapaxes(1, 2).copy(), [a[k] for a in lowering])
            _scale_pair_table(factor, [a[k] for a in raising])
            factor *= middle[k, s : s + chunk, None, :]
            np.matmul(factor, lower, out=out[k, level + s : level + s + chunk])
            del factor, lower  # before the next chunk's: one chunk of each at a time
    return _finish(out, nu)


def interior_block(op: FockOperator, level: int) -> np.ndarray:
    """Block over basis states with n_a <= level and n_b <= level, by sector, for the operator of one nu.

    Shape (2 level + 1, level + 1, level + 1), laid out like
    ``FockOperator.entries`` for sectors |d| <= level and zero off the
    block, so differences and Frobenius norms equal those of the dense
    sub-matrix.
    """
    level = _compression_level(op.spec, level)
    n_max = op.spec.n_max
    # n_a, n_b <= level exactly at the states of the space truncated at level
    return _fill_padding(op.entries[n_max - level : n_max + level + 1, : level + 1, : level + 1].copy(), 0.0)


def vacuum_column(op: FockOperator) -> np.ndarray:
    """<n_a, n_b| op |0, 0> as an (n_max+1, n_max+1) array, for the operator of one nu.

    |0, 0> lies in sector 0, so only the diagonal n_a = n_b can be nonzero.
    The array is built with ``np.diag`` from sector 0's column, so its
    off-diagonal elements are zero by construction: the sector layout
    stores no element that could put weight there.  ``check_squeezes``
    reads sector 0's column itself and reports ``vacuum_offdiag_max`` as
    the 0.0 this makes it.
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


def _dp_step(f1: float, f2: float, f3: float, k1: float, m1: float, h: float) -> tuple[float, ...]:
    """One Dormand & Prince (1980) 5(4) step of size h from (f1, f2, f3).

    The system f1' = 1 - f1^2, f2' = -f1, f3' = -e^{2 f2} is autonomous,
    so the nodes c_i are not needed; the coefficients a_ij, b_j and
    b_j - b*_j stand in the sums as literals, which Python folds into
    constants.  Stage i has the point (y_i, z_i) of (f1, f2) and the slopes
    (k_i, -y_i, m_i); no slope depends on f3, so its stage points are never
    formed.  The pair is first-same-as-last: (k1, m1) are the slopes at
    (f1, f2), and the last stage sits at the 5th-order result, so its
    slopes (k7, m7) serve the next step and a step costs 6 evaluations of
    (1 - f1^2, -e^{2 f2}).  Returns (y7, z7, g7, k7, m7, dz, d1, d2, d3):
    the result, its slopes, f2's decrement dz (z7 = f2 - dz) and the
    magnitude of the difference to the embedded 4th-order result in each
    component.  A stage exponential past the float range raises
    ``OverflowError``.
    """
    y2 = f1 + h * (1 / 5 * k1)
    z2 = f2 - h * (1 / 5 * f1)
    k2, m2 = 1.0 - y2 * y2, -math.exp(2.0 * z2)
    y3 = f1 + h * (3 / 40 * k1 + 9 / 40 * k2)
    z3 = f2 - h * (3 / 40 * f1 + 9 / 40 * y2)
    k3, m3 = 1.0 - y3 * y3, -math.exp(2.0 * z3)
    y4 = f1 + h * (44 / 45 * k1 + -56 / 15 * k2 + 32 / 9 * k3)
    z4 = f2 - h * (44 / 45 * f1 + -56 / 15 * y2 + 32 / 9 * y3)
    k4, m4 = 1.0 - y4 * y4, -math.exp(2.0 * z4)
    y5 = f1 + h * (19372 / 6561 * k1 + -25360 / 2187 * k2 + 64448 / 6561 * k3 + -212 / 729 * k4)
    z5 = f2 - h * (19372 / 6561 * f1 + -25360 / 2187 * y2 + 64448 / 6561 * y3 + -212 / 729 * y4)
    k5, m5 = 1.0 - y5 * y5, -math.exp(2.0 * z5)
    y6 = f1 + h * (9017 / 3168 * k1 + -355 / 33 * k2 + 46732 / 5247 * k3 + 49 / 176 * k4 + -5103 / 18656 * k5)
    z6 = f2 - h * (9017 / 3168 * f1 + -355 / 33 * y2 + 46732 / 5247 * y3 + 49 / 176 * y4 + -5103 / 18656 * y5)
    k6, m6 = 1.0 - y6 * y6, -math.exp(2.0 * z6)
    # the 5th-order weights b_j, b2 = 0
    y7 = f1 + h * (35 / 384 * k1 + 500 / 1113 * k3 + 125 / 192 * k4 + -2187 / 6784 * k5 + 11 / 84 * k6)
    dz = h * (35 / 384 * f1 + 500 / 1113 * y3 + 125 / 192 * y4 + -2187 / 6784 * y5 + 11 / 84 * y6)
    z7 = f2 - dz
    g7 = f3 + h * (35 / 384 * m1 + 500 / 1113 * m3 + 125 / 192 * m4 + -2187 / 6784 * m5 + 11 / 84 * m6)
    k7, m7 = 1.0 - y7 * y7, -math.exp(2.0 * z7)
    # b_j - b*_j, e2 = 0
    d1 = h * (71 / 57600 * k1 + -71 / 16695 * k3 + 71 / 1920 * k4 + -17253 / 339200 * k5 + 22 / 525 * k6 + -1 / 40 * k7)
    d2 = h * (71 / 57600 * f1 + -71 / 16695 * y3 + 71 / 1920 * y4 + -17253 / 339200 * y5 + 22 / 525 * y6 + -1 / 40 * y7)
    d3 = h * (71 / 57600 * m1 + -71 / 16695 * m3 + 71 / 1920 * m4 + -17253 / 339200 * m5 + 22 / 525 * m6 + -1 / 40 * m7)
    return y7, z7, g7, k7, m7, dz, abs(d1), abs(d2), abs(d3)


def _walk(walk: list, target: float, land: bool) -> None:
    """Controlled steps of ``walk`` toward |nu| = ``target``, in place.

    ``walk`` is [x, f1, f2, c2, f3, k1, m1, h, attempts]: the point x
    reached and the state there, f2 + c2 being f2 with its rounding summed
    apart, the next step h to try and the step attempts spent.  Without
    ``land`` the walk stops before the first step that would reach target;
    with it, that step is cut to land on target, where x becomes target
    exactly, and a step cut short is retried like any other.  Either way it
    stops once the attempts left, even at steps of ``ODE_STEP_CAP``, cannot
    cover the distance to target: at once for a target that far, else when
    ``ODE_BUDGET`` attempts are spent.
    """
    x, f1, f2, c2, f3, k1, m1, h, attempts = walk
    while 0.0 < target - x <= (ODE_BUDGET - attempts) * ODE_STEP_CAP:
        h = (x + h) - x  # x + h is then exact: x sums the steps taken without rounding
        cut = x + h >= target
        if cut:
            if not land:
                break
            h = target - x
        attempts += 1
        try:
            y, z, g, k, m, dz, d1, d2, d3 = _dp_step(f1, f2, f3, k1, m1, h)
            # root mean square over the components of the error in units of
            # atol + rtol |new|: NaN or inf where a stage blew up
            err = math.hypot(d1 / (1.0 + abs(y)), d2 / (1.0 + abs(z)), d3 / (1.0 + abs(g))) / (3**0.5 * ODE_TOL)
        except OverflowError:
            err = math.inf
        if err <= 1.0:
            # the rounding of f2 - dz, kept (Kahan's compensated summation:
            # exact once f2 outgrows the step's dz)
            c2 += (f2 - z) - dz
            x, f1, f2, f3, k1, m1 = target if cut else x + h, y, z, g, k, m
            # Hairer, Norsett & Wanner, Solving ODEs I, II.4: safety 0.9,
            # the step changed by a factor from 0.2 to 5
            fac = min(5.0, 0.9 * err**-0.2) if err else 5.0
        else:
            fac = max(0.2, 0.9 * err**-0.2)  # NaN and inf give 0.2
        h = min(h * fac, ODE_STEP_CAP)
    walk[:] = x, f1, f2, c2, f3, k1, m1, h, attempts


def disentangle_ode_oracle(nu_values: Sequence[float]) -> list[DisentangleFunctions | ConvergenceError]:
    """Integrate the factorization system from (0, 0, 0) to each nu.

    The defining relations
        1 = f1' - 2 f1 f2' + f1^2 f3' e^{-2 f2}
        0 = f2' - f1 f3' e^{-2 f2}
       -1 = f3' e^{-2 f2}
    are triangular in the derivatives; solving them once gives the explicit
    system f3' = -e^{2 f2}, f2' = -f1, f1' = 1 - f1^2 integrated here with
    the Dormand-Prince 5(4) pair (``_dp_step``), keeping the 5th-order
    solution.

    The list returned holds each nu's (f1, f2, f3) or the
    ``ConvergenceError`` it meets.  One pass in |nu| with the standard
    step-size controller (``_walk``, tolerance ``ODE_TOL``) serves every
    nu: it starts from the step ODE_TOL^(1/5), and where its next step
    would reach or pass a |nu| it branches off, with that step cut to land
    on |nu|, and goes on from the branch point.  The pass does not depend
    on the nu it serves, so each entry is bitwise what a call with that nu
    alone gives.  The system is symmetric, f1 and f3 odd and f2 even in nu,
    and so is the arithmetic: a negative nu takes the mirror of |nu|'s
    result, which is bitwise what a pass with negative steps gives.  f2
    grows like -|nu|, and its sum is compensated, so it stays within an ulp
    or so of the closed form out to the pass's reach.

    The path to one nu, the pass's attempts up to the branch and the
    landing's, rejected ones included, may take ``ODE_BUDGET`` attempts;
    a nu it does not reach gets an error that names the budget.  Steps are
    at most ``ODE_STEP_CAP``, where the saturated f1 holds them anyway, so
    the budget reaches |nu| of about 1.5e4, and a nu that not even steps of
    the cap could reach fails without an attempt.  A NaN nu raises
    ``ValueError``.
    """
    if any(math.isnan(nu) for nu in nu_values):
        raise ValueError("nu must be a number")
    main = [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, -1.0, ODE_TOL**0.2, 0]
    reached = {}
    for target in sorted({abs(nu) for nu in nu_values}):
        _walk(main, target, land=False)
        branch = list(main)
        _walk(branch, target, land=True)
        if branch[0] == target:
            _, f1, f2, c2, f3, *_ = branch
            # the mirror first: at 0, nu = 0.0 and -0.0 share the key
            reached[-target] = DisentangleFunctions(-f1, f2 + c2, -f3)
            reached[target] = DisentangleFunctions(f1, f2 + c2, f3)
        else:
            error = ConvergenceError(f"|nu| = {target:.6g} lies past the step budget of {ODE_BUDGET} attempts")
            reached[target] = reached[-target] = error
    return [reached[nu] for nu in nu_values]


def disentangle_ode_fixed(nu: float, steps: int) -> DisentangleFunctions:
    """Integrate the system of ``disentangle_ode_oracle`` to nu in ``steps`` equal steps.

    Each step is checked: the difference to the embedded 4th-order
    solution must be at most ``ODE_FIXED_STEP_TOL`` in every component.
    A stage exponential that overflows, an estimate that is not a number
    and a result that is not finite all raise ``ConvergenceError``; a NaN
    nu and a step count that is not an integer of at least one raise
    ``ValueError``.
    """
    if math.isnan(nu):
        raise ValueError("nu must be a number")
    if not (isinstance(steps, numbers.Integral) and steps >= 1):
        raise ValueError(f"need an integer count of at least one integration step, got {steps!r}")
    h = nu / steps
    f1, f2, f3, k1, m1 = 0.0, 0.0, 0.0, 1.0, -1.0
    try:
        for _ in range(steps):
            f1, f2, f3, k1, m1, _, d1, d2, d3 = _dp_step(f1, f2, f3, k1, m1, h)
            if not (d1 <= ODE_FIXED_STEP_TOL and d2 <= ODE_FIXED_STEP_TOL and d3 <= ODE_FIXED_STEP_TOL):
                # compared one by one: max() drops a NaN that is not its first argument
                err = math.nan if math.isnan(d1 + d2 + d3) else max(d1, d2, d3)
                message = f"local error estimate {err:.3e} exceeds {ODE_FIXED_STEP_TOL:.0e}; increase steps"
                raise ConvergenceError(message)
    except OverflowError:
        raise ConvergenceError(f"stage exponential overflows with step size {h:.3e}; increase steps") from None
    if not (math.isfinite(f1) and math.isfinite(f2) and math.isfinite(f3)):
        raise ConvergenceError(f"result ({f1}, {f2}, {f3}) is not finite; increase steps")
    return DisentangleFunctions(f1, f2, f3)


# ---------------------------------------------------------------------------
# one run's checks


def _frobenius(x: np.ndarray) -> float:
    """Frobenius norm of a contiguous array, by a reduction with no BLAS call and no temporary of its size.

    A BLAS dot product's sum, as in ``np.linalg.norm``, takes an order
    that depends on the BLAS thread count.
    """
    flat = x.reshape(-1)
    return math.sqrt(float(np.einsum("i,i->", flat, flat)))


def _squeeze_rows(nu_values: Sequence[float], spec: FockSpaceSpec) -> list[list[tuple[str, float, str]]]:
    """The two rows of ``check_squeezes`` at each nu, from both routes compressed to the interior.

    A function of its own, so that neither route's result outlives its
    run of nu.
    """
    half = spec.n_max // 2
    direct = two_mode_squeeze_direct(nu_values, spec, level=half).entries
    # both routes pad with the identity: the difference is zero off the block
    diffs = two_mode_squeeze_factored(nu_values, spec, level=half).entries
    diffs -= direct
    # the direct result is the block, zero off it, once its padding is cleared:
    # no copy of it is made
    _fill_padding(direct, 0.0)
    rows = []
    for nu, block, diff in zip(nu_values, direct, diffs):
        with np.errstate(over="ignore"):  # cosh is inf past |nu| ~ 710, where the column tends to 0
            exact = np.tanh(nu) ** np.arange(half + 1) / np.cosh(nu)
        vac_err = float(np.max(np.abs(block[half, :, 0] - exact)))  # sector 0's column 0
        distance = _frobenius(diff) / _frobenius(block)
        rows.append(
            [("factorization_interior_rel", distance, "tolerance"), ("vacuum_column_max_err", vac_err, "tolerance")]
        )
    return rows


def check_squeezes(nu_values: Sequence[float], n_max: int) -> list[tuple[dict, list[tuple[str, float, str]]]]:
    """Every check at each nu: its report entry and its (check, value, tolerance key) rows.

    The rows compare both routes on the interior block of level
    n_max // 2, which is all either route computes (its ``level``), so no
    array the size of a whole operator is built per nu:
    ``factorization_interior_rel``, the Frobenius norm of factored minus
    direct relative to the direct block's, and ``vacuum_column_max_err``,
    the direct vacuum column's largest error against tanh^n nu / cosh nu.
    Both are judged against the run's ``tolerance``.  The entry holds
    them, and ``vacuum_offdiag_max``, 0.0 by the sector layout
    (``vacuum_column``); a nu the direct route's guard refuses gets an
    ``error`` message instead, and no rows.

    The guard is judged per nu first, from the generator's exact 1-norm
    (``_check_direct``), with no spectrum: the direct route builds that
    once per run, inside its first call, and not at all when the guard
    refuses every nu.  The other nu go to the routes in
    runs of as many as ``DIRECT_CHUNK_BYTES`` of one route's result holds,
    and at least one: up to 31 nu a call at n_max = 24, one at a time from
    n_max = 80 on.  Each entry is bitwise what a run of its nu alone gives,
    each route's slices being so and each norm taken per nu.

    One ``disentangle_ode_oracle`` call integrates every nu, each entry
    bitwise what a run of its nu alone gives.  ``ode_max_dev`` is the
    largest deviation of (f1, f2, f3) from ``disentangle_closed_form``; a
    nu the oracle does not reach within its step budget gets an
    ``ode_error`` message instead.
    """
    spec, half = FockSpaceSpec(n_max), n_max // 2
    entries: list[dict] = [{"nu": nu, "interior_level": half} for nu in nu_values]
    rows: list[list[tuple[str, float, str]]] = [[] for _ in nu_values]
    passed = []
    for k, nu in enumerate(nu_values):
        try:
            _check_direct(nu, n_max)
            passed.append(k)
        except ConvergenceError as exc:
            entries[k]["error"] = str(exc)
    per_call = max(1, DIRECT_CHUNK_BYTES // (8 * (2 * half + 1) * (half + 1) ** 2))
    for s in range(0, len(passed), per_call):
        run = passed[s : s + per_call]
        for k, measured in zip(run, _squeeze_rows([nu_values[k] for k in run], spec)):
            rows[k] = measured
            entries[k].update({name: value for name, value, _ in measured}, vacuum_offdiag_max=0.0)
    for nu, entry, ode in zip(nu_values, entries, disentangle_ode_oracle(nu_values)):
        if isinstance(ode, ConvergenceError):
            entry["ode_error"] = str(ode)
        else:
            closed = disentangle_closed_form(nu)
            entry["ode_max_dev"] = max(abs(ode.f1 - closed.f1), abs(ode.f2 - closed.f2), abs(ode.f3 - closed.f3))
    return list(zip(entries, rows))
