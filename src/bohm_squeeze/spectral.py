"""Hermite-function machinery and entanglement diagnostics.

Provides the orthonormal oscillator eigenfunctions phi_n, the entangled
bilinear series sum_n tanh^n(nu) phi_n(x) phi_n(y) / cosh(nu), its closed
form (the bilinear generating function of the Hermite functions), and the
Schmidt spectrum lambda_n = (1 - tanh^2 nu) tanh^{2n} nu of the reduced
single-mode state together with its entanglement entropy.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SchmidtSpectrum",
    "hermite_phi_table",
    "series_amplitude_r0",
    "mehler_closed",
    "schmidt_spectrum",
    "entanglement_entropy",
    "entropy_terms",
    "entropy_closed_form",
]

# Fewest Schmidt terms ``entropy_terms`` gives, and so ``entropy`` sums, per value
ENTROPY_TERMS = 600

# Largest share of the entropy that the Schmidt terms past the summed ones
# may carry: half of the 1e-12 the sum is held to, the other half left for
# the rounding of the sum and of tanh^2 nu
ENTROPY_OMITTED_TOL = 5e-13

# Most Schmidt terms ``entropy_terms`` asks for (0.8 MB of eigenvalues);
# they reach |nu| <= 4.75
ENTROPY_TERMS_MAX = 100_000


def hermite_phi_table(n: int, eta) -> np.ndarray:
    """phi_0 .. phi_n at eta, stacked along axis 0.

    Uses the normalized three-term recurrence
    phi_{k+1} = eta*sqrt(2/(k+1))*phi_k - sqrt(k/(k+1))*phi_{k-1},
    which keeps every value O(1) and avoids the 2^n n! overflow of the
    raw Hermite polynomials.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    eta = np.asarray(eta, dtype=float)
    out = np.empty((n + 1,) + eta.shape, dtype=float)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * eta * eta)
    if n >= 1:
        out[1] = math.sqrt(2.0) * eta * out[0]
    for k in range(1, n):
        out[k + 1] = eta * math.sqrt(2.0 / (k + 1)) * out[k] - math.sqrt(k / (k + 1.0)) * out[k - 1]
    return out


def series_amplitude_r0(x, y, nu: float, N: int):
    """Partial sum through order N of the entangled amplitude at r = 0:

        (1/cosh nu) * sum_{n=0}^{N} tanh^n(nu) phi_n(x) phi_n(y)

    The tail beyond N is O(tanh^{N+1} nu), so N = 60 reaches ~1e-12 for
    nu <= 0.5 but only ~5e-9 for nu = 1; push N up when chasing tighter
    agreement at strong squeezing.  Since |phi_n| <= pi^-1/4 everywhere
    (Indritz), the tail is bounded pointwise by

        pi^-1/2 tanh^{N+1}(nu) / ((1 - tanh nu) cosh nu),

    so the smallest N with that bound below a tolerance is a safe choice
    (N = 86 for 1e-10 at nu = 1).
    """
    if N < 0:
        raise ValueError("N must be non-negative")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    phx = hermite_phi_table(N, x)
    phy = hermite_phi_table(N, y)
    weights = np.tanh(nu) ** np.arange(N + 1)
    acc = np.tensordot(weights, phx * phy, axes=(0, 0)) / np.cosh(nu)
    return float(acc) if acc.ndim == 0 else acc


def mehler_closed(x, y, rho: float):
    """Closed form of the bilinear Hermite-function series:

        sum_n rho^n phi_n(x) phi_n(y)
          = (1/sqrt(pi)) exp[-(x^2+y^2)/2
                             - (rho^2 (x^2+y^2) - 2 rho x y)/(1 - rho^2)]

    valid for |rho| < 1.  With rho = tanh(nu) and the 1/cosh(nu) prefactor
    absorbed (1/sqrt(1-rho^2) = cosh nu), this equals the r = 0 amplitude.
    """
    if abs(rho) >= 1.0:
        raise ValueError(f"|rho| must be < 1 for the kernel to converge, got {rho}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s = x * x + y * y
    value = np.exp(-s / 2.0 - (rho * rho * s - 2.0 * rho * x * y) / (1.0 - rho * rho)) / math.sqrt(math.pi)
    return float(value) if value.ndim == 0 else value


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Leading Schmidt coefficients of the reduced state, plus tail mass.

    lambdas[n] = (1 - tanh^2 nu) tanh^{2n} nu for n < N and
    tail_mass = tanh^{2N} nu, so sum(lambdas) + tail_mass = 1 exactly
    (geometric series).
    """

    nu: float
    lambdas: np.ndarray
    tail_mass: float


def schmidt_spectrum(nu: float, N: int) -> SchmidtSpectrum:
    """First N Schmidt eigenvalues of the reduced single-mode state."""
    if N < 1:
        raise ValueError("need at least one retained eigenvalue")
    q = math.tanh(nu) ** 2
    lambdas = (1.0 - q) * q ** np.arange(N)
    return SchmidtSpectrum(nu=float(nu), lambdas=lambdas, tail_mass=q**N)


def _omitted_entropy(q: float, terms: int) -> float:
    """Entropy of the Schmidt terms past the first N = ``terms``: q^N [-ln(1 - q) - ln q (N + q/(1 - q))].

    q = tanh^2 nu, with 0 <= q < 1; the value falls as N grows, and reads 0 at q = 0.
    """
    return q**terms * (-math.log1p(-q) - math.log(q) * (terms + q / (1.0 - q))) if q else 0.0


def _omits_little(nu: float, terms: int) -> bool:
    """Whether the Schmidt terms past the first ``terms`` carry at most ENTROPY_OMITTED_TOL of the entropy.

    Where tanh^2 nu rounds to 1 (|nu| past about 19) no term count is enough.
    """
    q = math.tanh(nu) ** 2
    return q < 1.0 and _omitted_entropy(q, terms) <= ENTROPY_OMITTED_TOL * entropy_closed_form(nu)


def _reach(terms: int) -> float:
    """The largest |nu| whose entropy ``terms`` Schmidt terms hold to ENTROPY_OMITTED_TOL, by bisection."""
    lo, hi = 0.0, 20.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _omits_little(mid, terms) else (lo, mid)
    return lo


def entropy_terms(nu: float) -> int:
    """The count of Schmidt terms ``entropy`` sums at nu: ENTROPY_TERMS, or more where they omit too much.

    More is the least count whose omitted entropy is at most
    ENTROPY_OMITTED_TOL of the entropy.  The omitted entropy falls as the
    count grows, so a binary search (``bisect``) over the counts
    ENTROPY_TERMS .. ENTROPY_TERMS_MAX finds it, in 17 evaluations: 600
    terms up to |nu| = 2.18, 621 at nu = 2.2.  Callers take the count from
    here alone.  Where even ENTROPY_TERMS_MAX terms omit more, raises,
    naming their reach in |nu|.
    """
    if not _omits_little(nu, ENTROPY_TERMS_MAX):
        reach = _reach(ENTROPY_TERMS_MAX)
        raise ValueError(
            f"|nu| = {abs(nu):g} needs more than {ENTROPY_TERMS_MAX} Schmidt terms, which reach |nu| <= {reach:.3g}"
        )
    q, allowed = math.tanh(nu) ** 2, ENTROPY_OMITTED_TOL * entropy_closed_form(nu)
    # a count's index in 0 .. ENTROPY_TERMS_MAX is the count
    return bisect.bisect_left(
        range(ENTROPY_TERMS_MAX + 1), True, lo=ENTROPY_TERMS, key=lambda n: _omitted_entropy(q, n) <= allowed
    )


def entanglement_entropy(spec: SchmidtSpectrum) -> float:
    """Von Neumann entropy -sum lambda_n ln lambda_n, in nats.

    Requires the entropy of the terms past the retained N,
    q^N [-ln(1 - q) - ln q (N + q/(1 - q))] with q = tanh^2 nu, to be at
    most ENTROPY_OMITTED_TOL of the whole; raises otherwise, since the sum
    would silently miss it, naming the reach of N terms in |nu|.
    ``entropy_terms`` gives the N ``entropy`` sums.  The tail mass q^N alone
    understates what is left out, by about 32 times near 600 terms' reach.

    Each ln lambda_n is taken as ln(1 - q) + n ln q, not as the log of
    lambda_n: at small |nu|, lambda_0 = 1 - q rounds to within an ulp of
    1, and ln of the rounded value would carry its rounding error, which
    at nu = 1e-8 is 0.3% of the entropy.  An underflowed lambda_n keeps a
    finite log and adds 0.
    """
    terms = len(spec.lambdas)
    if not _omits_little(spec.nu, terms):
        reach = _reach(terms)
        raise ValueError(
            f"{terms} Schmidt terms hold the entropy to {ENTROPY_OMITTED_TOL:g} at |nu| <= {reach:.3g} only"
        )
    q = math.tanh(spec.nu) ** 2
    log_lams = math.log1p(-q) + np.arange(terms) * math.log(q) if q else np.zeros(terms)
    return float(-np.sum(spec.lambdas * log_lams)) + 0.0  # +0.0 folds -0.0 away


def entropy_closed_form(nu: float) -> float:
    """Analytic entropy cosh^2 nu ln cosh^2 nu - sinh^2 nu ln sinh^2 nu.

    With s = sinh^2 nu this equals ln(1 + s) + s ln(1 + 1/s), a sum of two
    positive terms; the difference of the two products loses every digit
    as nu grows.  For s < 1, ln(1 + 1/s) is taken as ln(1 + s) - ln s, so
    that 1/s cannot overflow.
    """
    # sinh^2 overflows past |nu| ~ 355; from |nu| = 20 on, the entropy equals
    # 2|nu| - 2 ln 2 + 1 to double precision (the error is O(e^(-4|nu|)))
    if abs(nu) > 20.0:
        return 2.0 * abs(nu) - 2.0 * math.log(2.0) + 1.0
    s2 = math.sinh(nu) ** 2
    if s2 == 0.0:
        return 0.0
    return math.log1p(s2) + s2 * (math.log1p(1.0 / s2) if s2 >= 1.0 else math.log1p(s2) - math.log(s2))
