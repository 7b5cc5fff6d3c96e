"""Hermite-function machinery and entanglement diagnostics.

Provides the orthonormal oscillator eigenfunctions phi_n, the entangled
bilinear series sum_n tanh^n(nu) phi_n(x) phi_n(y) / cosh(nu), its closed
form (the bilinear generating function of the Hermite functions), and the
Schmidt spectrum lambda_n = (1 - tanh^2 nu) tanh^{2n} nu of the reduced
single-mode state together with its entanglement entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "N_MAX_DEFAULT",
    "SchmidtSpectrum",
    "hermite_phi",
    "hermite_phi_table",
    "series_amplitude_r0",
    "mehler_closed",
    "schmidt_spectrum",
    "entanglement_entropy",
    "entropy_closed_form",
]

# Hard ceiling on the recurrence order; the normalized recurrence is stable
# far beyond this, the cap just catches runaway callers.
N_MAX_DEFAULT = 512


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


def hermite_phi(n: int, eta):
    """Normalized oscillator eigenfunction phi_n(eta)."""
    if n > N_MAX_DEFAULT:
        raise ValueError(f"order {n} exceeds the supported maximum {N_MAX_DEFAULT}")
    table = hermite_phi_table(n, eta)
    value = table[n]
    return float(value) if np.ndim(eta) == 0 else value


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


def entanglement_entropy(spec: SchmidtSpectrum, *, tail_tol: float = 1e-12) -> float:
    """Von Neumann entropy -sum lambda_n ln lambda_n, in nats.

    Requires the truncated tail to be negligible; raises otherwise since
    the summed entropy would silently miss the tail contribution.
    """
    if spec.tail_mass >= tail_tol:
        raise ValueError(
            f"tail mass {spec.tail_mass:.3e} >= {tail_tol:.0e}; retain more eigenvalues"
        )
    lams = spec.lambdas[spec.lambdas > 0.0]
    return float(-np.sum(lams * np.log(lams))) + 0.0  # +0.0 folds -0.0 away


def entropy_closed_form(nu: float) -> float:
    """Analytic entropy cosh^2 nu ln cosh^2 nu - sinh^2 nu ln sinh^2 nu."""
    c2 = math.cosh(nu) ** 2
    s2 = math.sinh(nu) ** 2
    if s2 == 0.0:
        return 0.0
    return c2 * math.log(c2) - s2 * math.log(s2)
