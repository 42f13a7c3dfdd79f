"""Weighted ascent flow on the S-sphere and the collinearity-angle check.

The field is

    dq/dt = S_M^{-1} grad U(q) + U(q) q,

which is tangent to {I_S = 1} (the two terms' radial parts cancel through
the homogeneity identity <grad U, q> = -U) and increases U along
trajectories, stalling exactly at the balanced configurations.  Near the
first coordinate axis the collinearity angle decreases along the flow, and
the axis-collinear set attracts everything that starts within 45 degrees
of it; lyapunov_45_check measures that statement on a batch of seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Configuration,
    Spectrum,
    _gradient_of,
    _pair_indices,
    _pairs,
    _pairwise,
    _potential_of,
)
from .errors import NoConvergence, StepUnderflow

THETA_ATTRACTOR = 0.1  # degrees; "reached the collinear set" threshold
QDOT_CONVERGED = 1e-10
COLLISION_STOP = 1e-4  # flow collision guard, relative to the coordinate scale
H_INIT = 1e-3          # first trial step of the integrator
MAX_STEPS = 200_000    # accepted steps before integrate_flow gives up
ATOL = 1e-9            # absolute error tolerance of each integrator step
RTOL = 1e-9            # relative error tolerance of each integrator step
SLACK = 1e-9           # angle increase (degrees) lyapunov_45_check forgives

# Cash-Karp embedded Runge-Kutta 5(4) tableau
_CK_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (3 / 10, -9 / 10, 6 / 5),
    (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
    (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
)
_CK_B5 = (37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771)
_CK_B4 = (2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4)


def collinearity_angle(config: Configuration) -> float:
    """Angle in degrees between the closest pair line and the first axis.

    theta(q) = min over pairs i<j of arccos |<u_ij, e1>| with u_ij the unit
    separation vector; 0 means every pair line is along the first axis, 90
    means some pair is orthogonal to it.
    """
    if config.d < 2:
        raise ValueError("the collinearity angle needs at least two axes")
    return _theta_of(*_pairwise(config))


def _theta_of(diff: np.ndarray, r: np.ndarray) -> float:
    """collinearity_angle read from one pair pass (diff, r)."""
    iu = _pair_indices(r.shape[0])
    cosines = np.abs(diff[iu][:, 0]) / r[iu]
    best = float(np.max(np.clip(cosines, -1.0, 1.0)))
    return math.degrees(math.acos(best))


def _flow_rhs(q: np.ndarray, masses: np.ndarray, s: np.ndarray):
    """Field value and potential on raw arrays, with the pair pass (diff, r)
    they were read from, for the guards and samples taken at the same point."""
    diff, r = _pairs(q)
    u = _potential_of(masses, r)
    qdot = _gradient_of(masses, diff, r) / (masses[:, None] * s) + u * q
    return qdot, u, diff, r


@dataclass(frozen=True)
class FlowTrajectory:
    """Sampled ascent-flow run: one row per accepted integrator step."""

    times: np.ndarray
    states: tuple[Configuration, ...]
    theta: np.ndarray
    potential: np.ndarray
    min_sep: np.ndarray
    stop_reason: str  # "time" | "converged" | "collision" | "theta_target"

    def __len__(self) -> int:
        return len(self.states)


def integrate_flow(
    q0: Configuration,
    spectrum: Spectrum,
    t_final: float,
    theta_stop: float | None = None,
) -> FlowTrajectory:
    """Adaptive embedded Runge-Kutta run of the ascent field.

    Steps with the Cash-Karp 5(4) pair under the error tolerances ATOL and
    RTOL, re-projects onto I_S = 1 after every accepted step, and stops at
    t_final, at the collision guard, at convergence |dq/dt| < 1e-10, or —
    when theta_stop is given — once the collinearity angle falls below it.
    Reaching none of these within MAX_STEPS accepted steps raises
    NoConvergence.

    The field grows like 1/r^2 as a pair separation r shrinks, so a
    trajectory headed into collision forces the step size to zero before
    r gets anywhere near core.DELTA_COL.  The guard therefore fires at
    min_sep < COLLISION_STOP * scale (well above the error controller's
    resolution limit), keeping the last safe sample as the endpoint; a
    step-size underflow while pinched is reported the same way.  Underflow
    away from any near-collision raises StepUnderflow.  A t_final that is
    not finite and positive raises ValueError.
    """
    if not (math.isfinite(t_final) and t_final > 0.0):
        raise ValueError("t_final must be finite and positive")
    masses = q0.masses
    s = spectrum.array
    if spectrum.d != q0.d:
        raise ValueError("spectrum dimension does not match the configuration")

    def project(q: np.ndarray) -> np.ndarray:
        w = masses[:, None] * s[None, :]
        i_s = float(np.sum(w * q * q))
        return q / math.sqrt(i_s)

    q = project(q0.q - (masses @ q0.q / masses.sum())[None, :])

    times = [0.0]
    states = [Configuration(q, masses)]
    thetas = [collinearity_angle(states[0])]  # the guarded collision check
    qdot, u0, _, r = _flow_rhs(q, masses, s)  # the field at q: each attempt's k[0]
    potentials = [u0]
    seps = [float(r.min())]

    def finish(reason: str) -> FlowTrajectory:
        return FlowTrajectory(
            times=np.array(times),
            states=tuple(states),
            theta=np.array(thetas),
            potential=np.array(potentials),
            min_sep=np.array(seps),
            stop_reason=reason,
        )

    if float(np.linalg.norm(qdot)) < QDOT_CONVERGED:
        return finish("converged")
    if theta_stop is not None and thetas[0] < theta_stop:
        return finish("theta_target")

    t = 0.0
    h = min(H_INIT, t_final)
    h_floor = 1e-14 * max(1.0, t_final)

    def pinched() -> bool:
        return seps[-1] < 10.0 * COLLISION_STOP * float(np.max(np.abs(q)))

    for _ in range(MAX_STEPS):
        if t >= t_final:
            return finish("time")
        h = min(h, t_final - t)

        k = [qdot]
        for stage in range(1, 6):
            qs = q + h * sum(a * ki for a, ki in zip(_CK_A[stage], k))
            if not np.all(np.isfinite(qs)):
                break
            ks, _, _, r = _flow_rhs(qs, masses, s)
            if r.min() <= 0.0:  # two bodies coincide: the field is not finite
                break
            k.append(ks)
        err = math.inf
        if len(k) == 6:  # every stage passed the guard
            q5 = q + h * sum(b * ki for b, ki in zip(_CK_B5, k))
            q4 = q + h * sum(b * ki for b, ki in zip(_CK_B4, k))
            err_vec = (q5 - q4).ravel()
            scale_flat = ATOL + RTOL * np.maximum(np.abs(q).ravel(), np.abs(q5).ravel())
            err = float(np.sqrt(np.mean((err_vec / scale_flat) ** 2)))
        if err > 1.0 or not math.isfinite(err):
            h *= 0.25 if not math.isfinite(err) else max(0.2, 0.9 * err**-0.25)
            if h < h_floor:
                if pinched():
                    return finish("collision")
                raise StepUnderflow(f"step size fell below {h_floor:g} at t = {t:g}")
            continue

        # accepted: project back onto the sphere and sample
        t += h
        q = project(q5)
        h *= min(5.0, max(0.2, 0.9 * err**-0.2)) if err > 0.0 else 5.0

        qdot, u, diff, r = _flow_rhs(q, masses, s)
        sep = float(r.min())
        if sep < COLLISION_STOP * float(np.max(np.abs(q))):
            return finish("collision")

        times.append(t)
        states.append(Configuration(q, masses))
        thetas.append(_theta_of(diff, r))
        potentials.append(u)
        seps.append(sep)

        if float(np.linalg.norm(qdot)) < QDOT_CONVERGED:
            return finish("converged")
        if theta_stop is not None and thetas[-1] < theta_stop:
            return finish("theta_target")

    raise NoConvergence(f"no stop condition met within {MAX_STEPS} accepted steps")


def steer_to_angle(config: Configuration, theta_degrees: float) -> Configuration:
    """Rescale the transverse coordinates to hit an exact collinearity angle.

    Scaling every coordinate beyond the first by c multiplies the tangent
    of every pair angle by c, so the minimizing pair is preserved and the
    angle maps exactly: c = tan(target) / tan(current).
    """
    if not (0.0 < theta_degrees < 90.0):
        raise ValueError("target angle must lie in (0, 90) degrees")
    theta_now = collinearity_angle(config)
    if theta_now == 0.0 or theta_now >= 90.0:
        raise ValueError("seed angle must lie strictly between 0 and 90 degrees")
    c = math.tan(math.radians(theta_degrees)) / math.tan(math.radians(theta_now))
    q = config.q.copy()
    q[:, 1:] *= c
    return Configuration(q, config.masses)


def tilted_line_seed(theta_degrees: float, phi: float = 0.0) -> Configuration:
    """Three equal masses on a line through the origin, tilted off axis 1.

    Bodies sit at u, 0, -u with u = (cos t, sin t cos phi, sin t sin phi),
    t = theta_degrees.  The reflection symmetry (q1, q2, q3) ->
    (-q3, -q2, -q1) is preserved by the ascent field, so the three bodies
    stay on a common line for all time and every pair angle equals the
    line's angle to axis 1.  With weights diag(s, 1, 1) the line's angle
    obeys d/dt log tan(theta) = -(5/4)(1 - 1/s) / |q_1|^3, strictly
    negative whenever s > 1, so these seeds descend monotonically to the
    axis with no collision (the middle body pins min_sep = |q_1| > 0).
    """
    if not (0.0 < theta_degrees < 90.0):
        raise ValueError("tilt must lie in (0, 90) degrees")
    t = math.radians(theta_degrees)
    u = np.array([math.cos(t), math.sin(t) * math.cos(phi), math.sin(t) * math.sin(phi)])
    q = np.stack([u, np.zeros(3), -u])
    return Configuration(q, np.ones(3))


@dataclass(frozen=True)
class SeedOutcome:
    index: int
    status: str  # "checked" | "already_collinear" | "rejected"
    theta_start: float
    theta_end: float | None
    monotone: bool | None
    worst_increase: float | None
    stop_reason: str | None


@dataclass(frozen=True)
class Lyapunov45Report:
    outcomes: tuple[SeedOutcome, ...]
    checked: int
    monotone: int
    reached_attractor: int
    collisions: int

    @property
    def all_monotone(self) -> bool:
        return self.monotone == self.checked


def lyapunov_45_check(seeds, spectrum: Spectrum, t_final: float = 200.0) -> Lyapunov45Report:
    """Angle-monotonicity audit over a batch of seeds with theta in (0, 45].

    Integrates each admissible seed until the angle drops below
    THETA_ATTRACTOR (attractor reached) or a collision stop, and asserts the
    sampled angle decreases at every step up to SLACK.  Seeds exactly on
    the axis are flagged "already_collinear", seeds beyond 45 degrees are
    flagged "rejected"; neither kind is integrated.  Everything is reported
    as data — no exceptions for failed monotonicity.
    """
    outcomes: list[SeedOutcome] = []
    checked = monotone_count = attractor = collisions = 0
    for i, seed in enumerate(seeds):
        theta0 = collinearity_angle(seed)
        if theta0 == 0.0:
            outcomes.append(
                SeedOutcome(i, "already_collinear", theta0, None, None, None, None)
            )
            continue
        if theta0 > 45.0:
            outcomes.append(
                SeedOutcome(i, "rejected", theta0, None, None, None, None)
            )
            continue

        traj = integrate_flow(seed, spectrum, t_final, theta_stop=THETA_ATTRACTOR)
        diffs = np.diff(traj.theta)
        worst = float(diffs.max()) if len(diffs) else 0.0
        is_monotone = bool(len(diffs) == 0 or worst < SLACK)
        checked += 1
        monotone_count += int(is_monotone)
        attractor += int(traj.stop_reason == "theta_target")
        collisions += int(traj.stop_reason == "collision")
        outcomes.append(
            SeedOutcome(
                i,
                "checked",
                theta0,
                float(traj.theta[-1]),
                is_monotone,
                worst,
                traj.stop_reason,
            )
        )
    return Lyapunov45Report(
        outcomes=tuple(outcomes),
        checked=checked,
        monotone=monotone_count,
        reached_attractor=attractor,
        collisions=collisions,
    )
