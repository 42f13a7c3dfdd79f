"""Exception types shared across the package.

Validation problems raise plain ValueError; everything numerical or
structural gets a named class so callers can tell failure modes apart.
"""

from __future__ import annotations


class SbcLabError(Exception):
    """Base class for all package-specific errors."""


class CollisionError(SbcLabError):
    """Two bodies are closer than the collision guard allows."""


class NotCriticalError(SbcLabError):
    """An operation that requires a critical point got a non-critical one."""


class NotPlanarError(SbcLabError):
    """A planar (d = 2) configuration was required."""


class SpectrumAnomalyError(SbcLabError):
    """An eigenvalue structure did not match what theory guarantees."""


class NoConvergence(SbcLabError):
    """An iterative solve ran out of iterations or stalled."""


class UnsupportedCase(SbcLabError):
    """The requested case has no implemented closed form."""


class IdentityViolation(SbcLabError):
    """An exact combinatorial identity failed to hold."""


class QuadratureBudgetExceeded(SbcLabError):
    """Adaptive quadrature could not reach the requested tolerance."""


class DegenerateCensus(SbcLabError):
    """A census contains degenerate critical points (nullity > 0)."""


class BranchLost(SbcLabError):
    """Parameter continuation lost its solution branch."""


class StepUnderflow(SbcLabError):
    """An adaptive integrator pushed the step size below its floor."""
