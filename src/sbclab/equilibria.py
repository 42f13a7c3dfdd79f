"""Rigid two-plane rotations generated by planar balanced configurations.

A planar configuration balanced for diag(s, 1) spins into an exact
n-body solution in R^4: the first planar coordinate rotates in the
(1,2)-plane at omega_1 = sqrt(lambda s), the second in the (3,4)-plane at
omega_2 = sqrt(lambda).  The motion is periodic precisely when the
frequency ratio omega_1/omega_2 = sqrt(s) is rational, otherwise the
orbit fills a torus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import TOL_RES, _evaluate, _gradient_of, _pairs, _residual_norm
from .errors import NotPlanarError
from .solver import SBCSolution

RATIONAL_TOL = 1e-13
MAX_DENOMINATOR = 10**6
RESIDUAL_BLOCK = 1000  # time samples per batched evaluation in newton_residual


@dataclass(frozen=True)
class RelativeEquilibriumOrbit:
    """Closed-form rigid rotation of a planar balanced configuration."""

    base: SBCSolution
    s: float
    lam: float
    omega: tuple[float, float]

    @property
    def masses(self) -> np.ndarray:
        return self.base.config.masses

    def _columns(self):
        q = self.base.config.q
        return q[:, 0], q[:, 1]

    def positions(self, t) -> np.ndarray:
        """Positions at time t, shape (n, 4); for an array of T times, (T, n, 4)."""
        x, y = self._columns()
        w1, w2 = self.omega
        t = np.asarray(t, dtype=float)[..., None]
        return np.stack(
            (
                x * np.cos(w1 * t),
                x * np.sin(w1 * t),
                y * np.cos(w2 * t),
                y * np.sin(w2 * t),
            ),
            axis=-1,
        )

    def accelerations(self, t) -> np.ndarray:
        """Accelerations, shaped as positions(t)."""
        return self.positions(t) * self._spin

    @property
    def _spin(self) -> np.ndarray:
        """Acceleration over position in each column: -omega_1^2 twice, then -omega_2^2 twice."""
        w1, w2 = self.omega
        return np.repeat((-(w1**2), -(w2**2)), 2)


def lift(base: SBCSolution) -> RelativeEquilibriumOrbit:
    """Spin a planar diag(s, 1)-balanced configuration up to an R^4 orbit.

    The base must be genuinely planar and balanced: the residual is
    recomputed here rather than trusted from the record.  s is the first
    weight of the base's spectrum.  s = 1 is the degenerate central case
    (both planes rotate at the same rate); s < 1 is rejected since the
    weights are ordered.
    """
    config = base.config
    if config.d != 2:
        raise NotPlanarError(f"lift needs a planar base, got d = {config.d}")
    weights = base.spectrum.s
    if len(weights) != 2 or weights[1] != 1.0:
        raise ValueError(f"base spectrum must be (s, 1), got {weights}")
    s = weights[0]
    if s < 1.0:
        raise ValueError("the first weight must satisfy s >= 1")

    c, *_, u, lam, a = _evaluate(config, base.spectrum)
    resid = _residual_norm(a, c)
    if resid > TOL_RES * u:
        raise ValueError(
            f"base is not balanced: residual {resid:.3e} exceeds {TOL_RES * u:.3e}"
        )
    return RelativeEquilibriumOrbit(
        base=base,
        s=float(s),
        lam=float(lam),
        omega=(math.sqrt(lam * s), math.sqrt(lam)),
    )


def newton_residual(orbit: RelativeEquilibriumOrbit, times) -> float:
    """Worst relative defect of Newton's equations along the orbit.

    Evaluates ||qddot(t) - M^{-1} grad U(q(t))|| / ||M^{-1} grad U(q(t))||
    with the acceleration taken from the closed-form rotation (never a
    finite difference), at each of the times, an array of samples, in
    batches of RESIDUAL_BLOCK, each from one positions call (the
    accelerations are those positions times _spin). Raises ValueError when
    times is a scalar or empty.
    """
    if np.ndim(times) == 0 or np.size(times) == 0:
        raise ValueError("newton_residual needs an array of at least one time sample")
    times = np.asarray(times, dtype=float).ravel()
    masses = orbit.masses
    mm = np.outer(masses, masses)
    worst = 0.0
    for start in range(0, times.size, RESIDUAL_BLOCK):
        t = times[start:start + RESIDUAL_BLOCK]
        q = orbit.positions(t)
        field = _gradient_of(mm, *_pairs(q)) / masses[:, None]
        defect = q * orbit._spin - field
        ratio = np.linalg.norm(defect, axis=(1, 2)) / np.linalg.norm(field, axis=(1, 2))
        worst = max(worst, float(ratio.max()))
    return worst


@dataclass(frozen=True)
class PeriodicityReport:
    kind: str  # "periodic" | "quasi_periodic"
    ratio: float
    best_fraction: Fraction
    mismatch: float
    period: float | None
    closure: float | None


def classify_periodicity(orbit: RelativeEquilibriumOrbit) -> PeriodicityReport:
    """Decide periodic vs quasi-periodic from the frequency ratio.

    The ratio omega_1/omega_2 = sqrt(s) is tested against its best
    rational approximation p/q with q <= MAX_DENOMINATOR (continued
    fractions via Fraction.limit_denominator).  Within RATIONAL_TOL the
    orbit closes after T = 2 pi q / omega_2 — q full turns of the slow
    plane and p of the fast one — and the closure defect ||q(T) - q(0)||
    is reported; otherwise the motion is quasi-periodic.

    Note the criterion is rationality of sqrt(s), not of s: s = 2 is
    rational yet gives ratio sqrt(2), hence a quasi-periodic orbit.
    """
    w1, w2 = orbit.omega
    ratio = w1 / w2
    best = Fraction(ratio).limit_denominator(MAX_DENOMINATOR)
    mismatch = abs(ratio - float(best))
    if mismatch > RATIONAL_TOL:
        return PeriodicityReport(
            kind="quasi_periodic",
            ratio=ratio,
            best_fraction=best,
            mismatch=mismatch,
            period=None,
            closure=None,
        )
    period = 2.0 * math.pi * best.denominator / w2
    closure = float(
        np.linalg.norm(orbit.positions(period) - orbit.positions(0.0))
    )
    return PeriodicityReport(
        kind="periodic",
        ratio=ratio,
        best_fraction=best,
        mismatch=mismatch,
        period=period,
        closure=closure,
    )
