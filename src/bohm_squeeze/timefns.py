"""Polynomial time profiles for the squeeze schedule and the global phase.

The wavefunction engineering is parameterized by two scalar functions of
time: the squeeze schedule ``nu(t)`` and the global phase offset ``mu(t)``.
Only polynomials are supported, so first and second derivatives are exact
(no numerical differentiation enters the closed-form layer).  Each
evaluates at a float or elementwise over an array of times.  Configs
and reports spell a polynomial ``{"coeffs": [c0, c1, ...]}``; that format
is ``cli``'s, which parses and writes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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

    def _derivative(self, t, order: int):
        """The ``order``-th derivative at ``t`` by Horner's rule, as that of t^k is perm(k, order) t^(k - order).

        ``t`` is a float or an array; an array gets an array of its shape,
        even where the derivative vanishes identically.
        """
        acc = np.zeros(t.shape) if isinstance(t, np.ndarray) else 0.0
        for k in range(len(self.coeffs) - 1, order - 1, -1):
            acc = acc * t + math.perm(k, order) * self.coeffs[k]
        return acc

    def value(self, t):
        """Evaluate the polynomial at ``t`` (Horner)."""
        return self._derivative(t, 0)

    def d1(self, t):
        """First derivative at ``t``."""
        return self._derivative(t, 1)

    def d2(self, t):
        """Second derivative at ``t``."""
        return self._derivative(t, 2)

    @property
    def starts_at_zero(self) -> bool:
        """True when the constant coefficient vanishes (required of nu)."""
        return self.coeffs[0] == 0.0
