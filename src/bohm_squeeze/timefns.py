"""Polynomial time profiles for the squeeze schedule and the global phase.

The wavefunction engineering is parameterized by two scalar functions of
time: the squeeze schedule ``nu(t)`` and the global phase offset ``mu(t)``.
Only polynomials are supported, so first and second derivatives are exact
(no numerical differentiation enters the closed-form layer).  Configs
and reports spell a polynomial ``{"coeffs": [c0, c1, ...]}``; that format
is ``cli``'s, which parses and writes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["TimePolynomial"]


@dataclass(frozen=True)
class TimePolynomial:
    """Real polynomial c0 + c1*t + ... + cd*t^d with exact derivatives.

    Immutable; safe to share across threads.
    """

    coeffs: tuple[float, ...]

    def __init__(self, coeffs: Sequence[float]):
        cs = tuple(float(c) for c in coeffs)
        if not cs:
            cs = (0.0,)
        object.__setattr__(self, "coeffs", cs)

    def value(self, t: float) -> float:
        """Evaluate the polynomial at ``t`` (Horner)."""
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def d1(self, t: float) -> float:
        """First derivative at ``t``."""
        acc = 0.0
        for k in range(len(self.coeffs) - 1, 0, -1):
            acc = acc * t + k * self.coeffs[k]
        return acc

    def d2(self, t: float) -> float:
        """Second derivative at ``t``."""
        acc = 0.0
        for k in range(len(self.coeffs) - 1, 1, -1):
            acc = acc * t + k * (k - 1) * self.coeffs[k]
        return acc

    def __call__(self, t: float) -> float:
        return self.value(t)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def starts_at_zero(self) -> bool:
        """True when the constant coefficient vanishes (required of nu)."""
        return self.coeffs[0] == 0.0
