"""Polynomial time profiles for the squeeze schedule and the global phase.

The wavefunction engineering is parameterized by two scalar functions of
time: the squeeze schedule ``nu(t)`` and the global phase offset ``mu(t)``.
Only polynomials are supported, so first and second derivatives are exact
(no numerical differentiation enters the closed-form layer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["TimePolynomial", "finite_number"]


def finite_number(value: object, what: str) -> float:
    """A JSON number as a float; refuses true/false, strings and non-finite values."""
    try:
        # JSON true/false load as bool, a subclass of int
        ok = isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an integer literal beyond the float range
        ok = False
    if not ok:
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


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

    def to_json(self) -> dict:
        return {"coeffs": list(self.coeffs)}

    @classmethod
    def from_json(cls, obj: dict) -> "TimePolynomial":
        if not isinstance(obj, dict) or "coeffs" not in obj:
            raise ValueError("time polynomial must be given as {'coeffs': [c0, c1, ...]}")
        coeffs = obj["coeffs"]
        if not isinstance(coeffs, (list, tuple)):
            raise ValueError("polynomial coefficients must be a list of numbers")
        return cls([finite_number(c, "polynomial coefficient") for c in coeffs])
