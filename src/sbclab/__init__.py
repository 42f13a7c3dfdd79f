"""Tools for S-balanced configurations of the Newtonian n-body problem.

The package computes balance residuals and restricted second variations
(core), solves and classifies collinear balanced configurations along a
coordinate axis (collinear), searches for general balanced configurations
and continues them in the weight parameter (solver), carries the exact
Morse/Poincare counting machinery (morse), integrates the weighted ascent
flow with its collinearity-angle diagnostics (flow), and lifts planar
balanced configurations to relative equilibria in R^4 (equilibria).
"""

from .core import (
    Configuration,
    InertiaTriple,
    Spectrum,
    gradient,
    hessian,
    inertia_indices,
    normalize,
    potential,
    sbc_residual,
    tangent_basis,
)
from .equilibria import (
    PeriodicityReport,
    RelativeEquilibriumOrbit,
    classify_periodicity,
    lift,
    newton_residual,
)
from .flow import (
    FlowTrajectory,
    Lyapunov45Report,
    collinearity_angle,
    integrate_flow,
    lyapunov_45_check,
    tilted_line_seed,
)
from .morse import (
    EULER_MASCHERONI,
    BettiTable,
    BoundsReport,
    MorseCheckResult,
    PoincareTable,
    XiTable,
    betti_quotient,
    bounds_general,
    bounds_main1,
    coefficient_identity_suite,
    iterated_log_integral,
    morse_inequality_check,
    poincare_coeffs,
    xi_coeffs,
)
from .solver import (
    Census,
    SBCSolution,
    SearchFailure,
    census,
    continue_in_s,
    find_critical_point,
)

__all__ = [
    "Configuration",
    "InertiaTriple",
    "Spectrum",
    "gradient",
    "hessian",
    "inertia_indices",
    "normalize",
    "potential",
    "sbc_residual",
    "tangent_basis",
    "EULER_MASCHERONI",
    "BettiTable",
    "BoundsReport",
    "MorseCheckResult",
    "PoincareTable",
    "XiTable",
    "betti_quotient",
    "bounds_general",
    "bounds_main1",
    "coefficient_identity_suite",
    "iterated_log_integral",
    "morse_inequality_check",
    "poincare_coeffs",
    "xi_coeffs",
    "Census",
    "SBCSolution",
    "SearchFailure",
    "census",
    "continue_in_s",
    "find_critical_point",
    "FlowTrajectory",
    "Lyapunov45Report",
    "collinearity_angle",
    "integrate_flow",
    "lyapunov_45_check",
    "tilted_line_seed",
    "PeriodicityReport",
    "RelativeEquilibriumOrbit",
    "classify_periodicity",
    "lift",
    "newton_residual",
]

__version__ = "0.1.0"
