"""Weighted ascent flow on the S-sphere and the collinearity-angle check.

The field is

    dq/dt = S_M^{-1} grad U(q) + U(q) q,

which is tangent to {I_S = 1} (the two terms' radial parts cancel through
the homogeneity identity <grad U, q> = -U) and increases U along
trajectories, stalling exactly at the balanced configurations.  Near the
first coordinate axis the collinearity angle decreases along the flow, and
the axis-collinear set attracts everything that starts within 45 degrees
of it; lyapunov_45_check measures that statement on a batch of seeds.

There is one integrator, _flow_lanes: it steps a (B, n, d) stack of starts
in lockstep, and each lane ends bitwise as its one-lane run.
integrate_flow is its one-lane call with no angle stop; lyapunov_45_check
runs its seeds as stacks of up to STACK_LANES lanes that stop at
THETA_ATTRACTOR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Configuration,
    Spectrum,
    _constants,
    _Constants,
    _gradient_of,
    _pair_indices,
    _pairs,
    _pairwise,
    _potential_of,
)
from .errors import CollisionError, NoConvergence, StepUnderflow

THETA_ATTRACTOR = 0.1  # degrees; "reached the collinear set" threshold
QDOT_CONVERGED = 1e-10
COLLISION_STOP = 1e-4  # flow collision guard, relative to the coordinate scale
H_INIT = 1e-3          # first trial step of the integrator
MAX_STEPS = 200_000    # accepted steps per run before the integrator gives up
ATOL = 1e-9            # absolute error tolerance of each integrator step
RTOL = 1e-9            # relative error tolerance of each integrator step
SLACK = 1e-9           # angle increase (degrees) lyapunov_45_check forgives
STACK_LANES = 256      # seeds per lockstep stack of lyapunov_45_check: bounds its memory

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
    diff, r = _pairwise(config)
    return _theta_of(diff[None], r[None])[0]


def _theta_of(diff: np.ndarray, r: np.ndarray) -> list[float]:
    """collinearity_angle of each lane of a (B, n, d) stack, read from its
    pair pass (diff, r).  Each angle comes from math.acos: np.arccos on a
    stack can differ from it in the last bits."""
    iu = _pair_indices(r.shape[-1])
    cosines = np.abs(diff[:, iu[0], iu[1], 0]) / r[:, iu[0], iu[1]]
    best = np.clip(cosines, -1.0, 1.0).max(axis=1)
    return [math.degrees(math.acos(c)) for c in best.tolist()]


def _flow_rhs(q: np.ndarray, c: _Constants):
    """Field value and potential on raw (..., n, d) arrays, with the pair
    pass (diff, r) they were read from, for the guards and samples taken at
    the same point; c holds the problem's constants (core._constants)."""
    diff, r = _pairs(q)
    u = _potential_of(c.mm, r)
    qdot = _gradient_of(c.mm, diff, r) / c.W + np.asarray(u)[..., None, None] * q
    return qdot, u, diff, r


def _project(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Each (n, d) configuration of q scaled onto I_S = 1; w = m_i s_k."""
    return q / np.sqrt(np.sum(w * q * q, axis=(-2, -1)))[..., None, None]


def _check_horizon(t_final: float) -> None:
    if not (math.isfinite(t_final) and t_final > 0.0):
        raise ValueError("t_final must be finite and positive")


@dataclass(frozen=True)
class FlowTrajectory:
    """Sampled ascent-flow run: one row per accepted integrator step."""

    times: np.ndarray
    states: tuple[Configuration, ...]
    theta: np.ndarray
    potential: np.ndarray
    min_sep: np.ndarray
    stop_reason: str  # "time" | "converged" | "collision"

    def __len__(self) -> int:
        return len(self.states)


class _Lane:
    """One lane of _flow_lanes: its samples (the columns of a FlowTrajectory,
    states as raw arrays) and its end, a stop reason or the error it raised."""

    __slots__ = ("times", "states", "theta", "potential", "min_sep", "end")

    def __init__(self):
        self.times, self.states, self.theta, self.potential, self.min_sep = [], [], [], [], []
        self.end: str | Exception | None = None


def _flow_lanes(
    starts: np.ndarray,
    masses: np.ndarray,
    spectrum: Spectrum,
    t_final: float,
    theta_stop: float | None,
) -> list[_Lane]:
    """The integrator: Cash-Karp runs of the ascent field from a (B, n, d)
    stack of starts with shared masses, stepped in lockstep.

    Every attempt takes one step on each live lane at once: five stage
    fields and, where the step is accepted, the field at the new point.
    Each lane keeps its own t, step size, accepted-step count and samples,
    and leaves the live mask at its own stop or error, as integrate_flow
    describes for one start; a lane also stops at "theta_target" once its
    collinearity angle falls below theta_stop, unless that is None.  Every
    operation is elementwise or a reduction over one lane, so each lane
    ends bitwise as its one-lane run.  t_final is checked by the callers.
    """
    if spectrum.d != starts.shape[-1]:
        raise ValueError("spectrum dimension does not match the configuration")
    c = _constants(masses, spectrum.array)
    q = _project(np.stack([q0 - (masses @ q0 / masses.sum())[None, :] for q0 in starts]), c.W)
    lanes = [_Lane() for _ in q]
    theta0 = []
    for lane, qb in zip(lanes, q):
        try:  # the guarded collision check of each start
            theta0.append(collinearity_angle(Configuration(qb, masses)))
        except (ValueError, CollisionError) as exc:
            theta0.append(None)
            lane.end = exc
    live = np.array([lane.end is None for lane in lanes])
    t = np.zeros(len(q))
    h = np.full(len(q), min(H_INIT, t_final))
    h_floor = 1e-14 * max(1.0, t_final)
    accepted = np.zeros(len(q), dtype=int)

    def retire(b: int, end: str | Exception) -> None:
        lanes[b].end = end
        live[b] = False

    def sample(b: int, theta: float, speed: float) -> None:
        lane = lanes[b]
        lane.times.append(t[b])
        lane.states.append(q[b].copy())
        lane.theta.append(theta)
        lane.potential.append(u[b])
        lane.min_sep.append(sep[b])
        if speed < QDOT_CONVERGED:
            retire(b, "converged")
        elif theta_stop is not None and theta < theta_stop:
            retire(b, "theta_target")

    # a stage that is not finite, or has coincident bodies, fails its own
    # lane only; the others never read its values
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        qdot, u, _, r = _flow_rhs(q, c)  # the field at q: each attempt's k[0]
        sep, scale = r.min(axis=(1, 2)), np.abs(q).max(axis=(1, 2))
        speeds = np.linalg.norm(qdot, axis=(1, 2))
        for b in np.flatnonzero(live).tolist():
            sample(b, theta0[b], speeds[b])

        while True:
            idx = np.flatnonzero(live)
            for b in idx[t[idx] >= t_final].tolist():
                retire(b, "time")
            for b in idx[(t[idx] < t_final) & (accepted[idx] == MAX_STEPS)].tolist():
                retire(b, NoConvergence(f"no stop condition met within {MAX_STEPS} accepted steps"))
            idx = np.flatnonzero(live)
            if not len(idx):
                return lanes
            h[idx] = np.minimum(h[idx], t_final - t[idx])

            qa, hb = q[idx], h[idx, None, None]
            k = [qdot[idx]]
            ok = np.ones(len(idx), dtype=bool)
            for stage in range(1, 6):
                qs = qa + hb * sum(a * ki for a, ki in zip(_CK_A[stage], k))
                ks, _, _, r = _flow_rhs(qs, c)
                ok &= np.isfinite(qs).all(axis=(1, 2)) & ~(r.min(axis=(1, 2)) <= 0.0)
                k.append(ks)
            q5 = qa + hb * sum(a * ki for a, ki in zip(_CK_B5, k))
            q4 = qa + hb * sum(a * ki for a, ki in zip(_CK_B4, k))
            flat = (len(idx), -1)
            scale_flat = ATOL + RTOL * np.maximum(np.abs(qa).reshape(flat), np.abs(q5).reshape(flat))
            err = np.sqrt(np.mean(((q5 - q4).reshape(flat) / scale_flat) ** 2, axis=1))
            err[~ok] = np.inf

            rejected = ~(err <= 1.0)
            rej = idx[rejected]
            h[rej] *= [0.25 if not math.isfinite(e) else max(0.2, 0.9 * e**-0.25)
                       for e in err[rejected].tolist()]
            for b in rej[h[rej] < h_floor].tolist():
                if sep[b] < 10.0 * COLLISION_STOP * scale[b]:  # pinched
                    retire(b, "collision")
                else:
                    retire(b, StepUnderflow(f"step size fell below {h_floor:g} at t = {t[b]:g}"))

            # accepted: project back onto the sphere and sample
            acc = idx[~rejected]
            if not len(acc):
                continue
            t[acc] += h[acc]
            h[acc] *= [min(5.0, max(0.2, 0.9 * e**-0.2)) if e > 0.0 else 5.0
                       for e in err[~rejected].tolist()]
            accepted[acc] += 1
            q[acc] = _project(q5[~rejected], c.W)
            qdot[acc], u[acc], diff, r = _flow_rhs(q[acc], c)
            sep[acc], scale[acc] = r.min(axis=(1, 2)), np.abs(q[acc]).max(axis=(1, 2))
            thetas = _theta_of(diff, r)
            speeds = np.linalg.norm(qdot[acc], axis=(1, 2))
            for j, b in enumerate(acc.tolist()):
                if sep[b] < COLLISION_STOP * scale[b]:
                    retire(b, "collision")
                else:
                    sample(b, thetas[j], speeds[j])


def integrate_flow(q0: Configuration, spectrum: Spectrum, t_final: float) -> FlowTrajectory:
    """Adaptive embedded Runge-Kutta run of the ascent field.

    Steps with the Cash-Karp 5(4) pair under the error tolerances ATOL and
    RTOL, re-projects onto I_S = 1 after every accepted step, and stops at
    t_final, at the collision guard, or at convergence |dq/dt| < 1e-10.
    Reaching none of these within MAX_STEPS accepted steps (rejected
    attempts are not counted) raises NoConvergence.

    The field grows like 1/r^2 as a pair separation r shrinks, so a
    trajectory headed into collision forces the step size to zero before
    r gets anywhere near core.DELTA_COL.  The guard therefore fires at
    min_sep < COLLISION_STOP * scale (well above the error controller's
    resolution limit), keeping the last safe sample as the endpoint; a
    step-size underflow while pinched is reported the same way.  Underflow
    away from any near-collision raises StepUnderflow.  A t_final that is
    not finite and positive raises ValueError.

    This is the one-lane call of the lockstep integrator that
    lyapunov_45_check runs on stacks of seeds.
    """
    _check_horizon(t_final)
    (lane,) = _flow_lanes(q0.q[None], q0.masses, spectrum, t_final, None)
    if isinstance(lane.end, Exception):
        raise lane.end
    return FlowTrajectory(
        times=np.array(lane.times),
        states=tuple(Configuration(q, q0.masses) for q in lane.states),
        theta=np.array(lane.theta),
        potential=np.array(lane.potential),
        min_sep=np.array(lane.min_sep),
        stop_reason=lane.end,
    )


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

    Consecutive admissible seeds with the same masses and shape run as one
    lockstep stack of up to STACK_LANES lanes, each lane bitwise its own
    one-lane run.  Errors come out as from one run per seed in
    order: the first seed that fails, in reading its start angle or in its
    run, raises its error.  A t_final that is not finite and positive
    raises ValueError before any seed is read.
    """
    _check_horizon(t_final)
    outcomes: list[SeedOutcome | None] = []
    stack: list[tuple[int, Configuration, float]] = []  # admissible seeds not yet run

    def run_stack() -> None:
        lanes = _flow_lanes(np.stack([seed.q for _, seed, _ in stack]), stack[0][1].masses,
                            spectrum, t_final, THETA_ATTRACTOR)
        for (i, _, theta0), lane in zip(stack, lanes):
            if isinstance(lane.end, Exception):
                raise lane.end
            diffs = np.diff(lane.theta)
            worst = float(diffs.max()) if len(diffs) else 0.0
            is_monotone = bool(len(diffs) == 0 or worst < SLACK)
            outcomes[i] = SeedOutcome(
                i, "checked", theta0, lane.theta[-1], is_monotone, worst, lane.end
            )
        stack.clear()

    for i, (seed, theta0) in enumerate(_start_angles(seeds)):
        if isinstance(theta0, Exception):  # the seeds before this one come first
            if stack:
                run_stack()
            raise theta0
        if theta0 == 0.0 or theta0 > 45.0:
            status = "already_collinear" if theta0 == 0.0 else "rejected"
            outcomes.append(SeedOutcome(i, status, theta0, None, None, None, None))
            continue
        if stack and (len(stack) == STACK_LANES or seed.q.shape != stack[0][1].q.shape
                      or not np.array_equal(seed.masses, stack[0][1].masses)):
            run_stack()
        outcomes.append(None)
        stack.append((i, seed, theta0))
    if stack:
        run_stack()
    checked = [o for o in outcomes if o.status == "checked"]
    return Lyapunov45Report(
        outcomes=tuple(outcomes),
        checked=len(checked),
        monotone=sum(o.monotone for o in checked),
        reached_attractor=sum(o.stop_reason == "theta_target" for o in checked),
        collisions=sum(o.stop_reason == "collision" for o in checked),
    )


def _start_angles(seeds):
    """(seed, collinearity angle) for each seed in order, ending with
    (None, error) where reading a seed or its angle raises."""
    try:
        for seed in seeds:
            yield seed, collinearity_angle(seed)
    except Exception as exc:
        yield None, exc
