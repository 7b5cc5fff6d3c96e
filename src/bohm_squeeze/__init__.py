"""Engineering and verification of two-mode squeezed vacuum-like states.

The state is fixed by a quadratic phase ansatz with polynomial time
profiles; its amplitude, Bohm potential and confining external potential
then have closed forms (``closedform``).  Independent machinery validates
every step: a Hermite-series route to the same amplitude (``spectral``),
a truncated Fock-space operator oracle for the factorized evolution
operator (``fockalg``) and finite-difference residuals of the defining
PDEs (``verify``).  The ``cli`` module batches all of it from JSON
configs.
"""

from .closedform import (
    ConicClass,
    GridSpec2D,
    ScalarField2D,
    Scenario,
    amplitude_A,
    bohm_potential,
    classify_level_curves_bohm,
    classify_level_curves_external,
    external_potential,
    phase_S,
    wavefunction_psi,
)
from .timefns import TimePolynomial

__version__ = "0.1.0"

__all__ = [
    "ConicClass",
    "GridSpec2D",
    "ScalarField2D",
    "Scenario",
    "TimePolynomial",
    "amplitude_A",
    "bohm_potential",
    "classify_level_curves_bohm",
    "classify_level_curves_external",
    "external_potential",
    "phase_S",
    "wavefunction_psi",
    "__version__",
]
