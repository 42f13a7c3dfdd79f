"""Ascent-flow integration and the collinearity-angle monotonicity checks."""

import math

import numpy as np
import pytest

from sbclab import core, flow
from sbclab.collinear import moulton_solve
from sbclab.core import (
    Configuration,
    Spectrum,
    _inertia_s,
    gradient,
    potential,
)
from sbclab.errors import CollisionError, NoConvergence, StepUnderflow
from sbclab.flow import (
    FlowTrajectory,
    SeedOutcome,
    collinearity_angle,
    integrate_flow,
    lyapunov_45_check,
    tilted_line_seed,
    _flow_rhs,
)

from oracles import steer_to_angle, weight_vector

S3 = Spectrum((2.0, 1.0, 1.0))
M3 = np.ones(3)


def _config(q):
    return Configuration(np.asarray(q, dtype=float), np.ones(len(q)))


def _one_lane(config, spectrum, t_final, theta_stop):
    """One start run alone through the lockstep kernel, stopping once its
    angle falls below theta_stop as lyapunov_45_check's lanes do; the lane's
    error is raised."""
    (lane,) = flow._flow_lanes(config.q[None], config.masses, spectrum, t_final, theta_stop)
    if isinstance(lane.end, Exception):
        raise lane.end
    return lane


# ---------------------------------------------------------------------------
# collinearity angle


def test_angle_zero_on_axis():
    cfg = _config([[-1.0, 0, 0], [0.2, 0, 0], [0.8, 0, 0]])
    assert collinearity_angle(cfg) == 0.0


def test_angle_45_for_diagonal_minimizing_pair():
    # pair (1,2) along (1,1,0) gives 45 degrees; the other pairs are steeper
    cfg = _config([[0, 0, 0], [1, 1, 0], [0.1, 3, 0]])
    assert collinearity_angle(cfg) == pytest.approx(45.0, abs=1e-12)


def test_angle_90_when_every_pair_transverse():
    cfg = _config([[0, -1, 0], [0, 0.3, 0], [0, 1, 0]])
    assert collinearity_angle(cfg) == pytest.approx(90.0)


def test_angle_is_min_over_pairs():
    cfg = _config([[0, 0, 0], [1, math.tan(math.radians(10)), 0],
                   [-1, 2, 0]])
    assert collinearity_angle(cfg) == pytest.approx(10.0, abs=1e-9)


def test_angle_planar_config():
    cfg = Configuration(np.array([[0.0, 0.0], [1.0, 1.0]]), np.ones(2))
    assert collinearity_angle(cfg) == pytest.approx(45.0)


def test_angle_rejects_collision_and_d1():
    near = _config([[0, 0, 0], [1e-12, 0, 0], [1, 0, 0]])
    with pytest.raises(CollisionError):
        collinearity_angle(near)
    with pytest.raises(ValueError):
        collinearity_angle(Configuration(np.array([[0.0], [1.0]]), np.ones(2)))


# ---------------------------------------------------------------------------
# seed steering


def test_steer_hits_target_exactly():
    rng = np.random.default_rng(3)
    for target in (5.0, 30.0, 44.9):
        cfg = Configuration(rng.standard_normal((4, 3)), np.ones(4))
        out = steer_to_angle(cfg, target)
        assert collinearity_angle(out) == pytest.approx(target, abs=1e-9)


def test_steer_scales_transverse_axes_only():
    cfg = _config([[0, 0, 0], [1, 1, 0], [0.1, 3, 0]])
    out = steer_to_angle(cfg, 20.0)
    assert np.allclose(out.q[:, 0], cfg.q[:, 0])
    ratio = math.tan(math.radians(20.0)) / math.tan(math.radians(45.0))
    assert np.allclose(out.q[:, 1:], cfg.q[:, 1:] * ratio)


def test_steer_validates_inputs():
    cfg = _config([[0, 0, 0], [1, 1, 0], [0.1, 3, 0]])
    with pytest.raises(ValueError):
        steer_to_angle(cfg, 0.0)
    with pytest.raises(ValueError):
        steer_to_angle(cfg, 90.0)
    axis = _config([[-1, 0, 0], [0, 0, 0], [1, 0, 0]])
    with pytest.raises(ValueError):
        steer_to_angle(axis, 30.0)


# ---------------------------------------------------------------------------
# integration basics


def test_flow_rhs_matches_gradient():
    rng = np.random.default_rng(5)
    for _ in range(10):
        q = rng.standard_normal((4, 3))
        cfg = Configuration(q, np.ones(4))
        qdot, u = _flow_rhs(cfg.q, core._constants(cfg.masses, S3.array))[:2]
        expected = gradient(cfg) / (cfg.masses[:, None] * S3.array[None, :])
        expected += potential(cfg) * cfg.q
        assert u == pytest.approx(potential(cfg), rel=1e-14)
        assert np.allclose(qdot, expected, atol=1e-13)


def test_balanced_point_is_stationary():
    rec = moulton_solve(M3, (1, 2, 3), 1, S3)
    traj = integrate_flow(rec.config, S3, 10.0)
    assert traj.stop_reason == "converged"
    assert np.max(np.abs(traj.states[-1].q - rec.config.q)) < 1e-8


def test_trajectory_invariants_over_t50():
    rng = np.random.default_rng(12)
    seed = tilted_line_seed(35.0, 0.7)
    traj = integrate_flow(seed, S3, 50.0)
    assert isinstance(traj, FlowTrajectory)
    assert np.all(np.diff(traj.times) > 0)
    for state in traj.states:
        assert abs(_inertia_s(state.q, weight_vector(state, S3)) - 1.0) < 1e-9
    # retained samples stay clear of the collision guard
    scales = np.array([s.scale for s in traj.states])
    assert np.all(traj.min_sep > 1e-8 * scales)
    # the field ascends the potential
    assert np.all(np.diff(traj.potential) > -1e-9 * traj.potential[:-1])
    # theta and potential columns agree with recomputation from states
    k = len(traj) // 2
    assert traj.theta[k] == pytest.approx(collinearity_angle(traj.states[k]))
    assert traj.potential[k] == pytest.approx(potential(traj.states[k]), rel=1e-13)


def test_flow_field_is_evaluated_once_per_point(monkeypatch):
    """Each attempt's first stage reuses the field at its start point, so no
    point is evaluated twice, after an accepted step or a rejected one."""
    points = []

    def recording_rhs(q, c):
        points.append(q.tobytes())
        return _flow_rhs(q, c)

    monkeypatch.setattr(flow, "_flow_rhs", recording_rhs)
    q = np.array([[-0.5, 0.02, 0.0], [-0.44, -0.02, 0.01], [0.9, 0.0, -0.01]])
    traj = integrate_flow(Configuration(q, M3), S3, 50.0)
    # one field at the start and six per accepted step, plus rejected attempts
    assert len(points) > 1 + 6 * (len(traj) - 1)
    assert len(set(points)) == len(points)


def test_flow_reads_one_pair_pass_per_evaluated_point(monkeypatch):
    """The stage guard, min_sep and theta read the pair pass of the field
    evaluation at their point; only the start's guarded collision check
    makes a pass of its own."""
    counts = {"pairs": 0, "rhs": 0}

    def counting(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(core, "_pairs", counting("pairs", core._pairs))
    monkeypatch.setattr(flow, "_pairs", counting("pairs", flow._pairs))
    monkeypatch.setattr(flow, "_flow_rhs", counting("rhs", flow._flow_rhs))
    for theta, phi in ((40.0, 0.3), (20.0, 1.1), (5.0, 2.0)):
        counts.update(pairs=0, rhs=0)
        lane = _one_lane(tilted_line_seed(theta, phi), S3, 50.0, 0.1)
        assert len(lane.times) > 10
        assert counts["pairs"] <= counts["rhs"] + 1


def test_axis_line_is_flow_invariant():
    # non-balanced spacings on axis 1: the state moves, but stays on the axis
    q = np.zeros((3, 3))
    q[:, 0] = (-1.1, 0.25, 0.85)
    traj = integrate_flow(Configuration(q, M3), S3, 0.5)
    assert len(traj) > 3
    for state in traj.states:
        assert np.max(np.abs(state.q[:, 1:])) <= 1e-10


def test_reflection_equivariance():
    seed = tilted_line_seed(25.0, 0.9)
    flip = np.array([1.0, 1.0, -1.0])
    mirrored = Configuration(seed.q * flip[None, :], seed.masses)
    a = integrate_flow(seed, S3, 5.0)
    b = integrate_flow(mirrored, S3, 5.0)
    assert len(a) == len(b)
    assert np.allclose(a.times, b.times, rtol=0, atol=1e-12)
    for sa, sb in zip(a.states, b.states):
        assert np.max(np.abs(sa.q * flip[None, :] - sb.q)) < 1e-9


def test_theta_stop_terminates_at_target():
    lane = _one_lane(tilted_line_seed(20.0, 0.0), S3, 100.0, 0.1)
    assert lane.end == "theta_target"
    assert lane.theta[-1] < 0.1
    assert lane.theta[-2] >= 0.1


def test_collision_stop_keeps_last_safe_state():
    # a pinched pair rams together under the ascent field
    q = np.array([[-0.5, 0.02, 0.0], [-0.44, -0.02, 0.01], [0.9, 0.0, -0.01]])
    traj = integrate_flow(Configuration(q, M3), S3, 50.0)
    assert traj.stop_reason == "collision"
    scales = np.array([s.scale for s in traj.states])
    assert np.all(traj.min_sep > 1e-8 * scales)
    assert np.all(np.isfinite(traj.states[-1].q))


def test_step_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(flow, "MAX_STEPS", 5)
    with pytest.raises(NoConvergence):
        integrate_flow(tilted_line_seed(30.0, 0.0), S3, 1000.0)


def test_step_budget_counts_accepted_steps_only(monkeypatch):
    # with a first step of 1.0 the controller rejects attempts on the way to
    # T = 0.5, which takes 20 accepted steps; a budget of 20 is enough
    monkeypatch.setattr(flow, "H_INIT", 1.0)
    rhs_calls = []

    def counting(q, c):
        rhs_calls.append(q)
        return _flow_rhs(q, c)

    monkeypatch.setattr(flow, "_flow_rhs", counting)
    monkeypatch.setattr(flow, "MAX_STEPS", 20)
    traj = integrate_flow(tilted_line_seed(30.0, 0.0), S3, 0.5)
    assert traj.stop_reason == "time"
    assert len(traj) - 1 == 20
    # one field at the start, five per attempt and one per accepted step
    attempts = (len(rhs_calls) - 1 - 20) // 5
    assert attempts > 20  # some were rejected
    monkeypatch.setattr(flow, "MAX_STEPS", 19)
    with pytest.raises(NoConvergence, match="within 19 accepted steps"):
        integrate_flow(tilted_line_seed(30.0, 0.0), S3, 0.5)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        integrate_flow(tilted_line_seed(30.0, 0.0), S3, 0.0)
    with pytest.raises(ValueError):
        integrate_flow(tilted_line_seed(30.0, 0.0), Spectrum((2.0, 1.0)), 1.0)
    for t_final in (math.nan, math.inf):
        with pytest.raises(ValueError):
            integrate_flow(tilted_line_seed(30.0, 0.0), S3, t_final)
        with pytest.raises(ValueError):
            lyapunov_45_check([tilted_line_seed(30.0, 0.0)], S3, t_final=t_final)


# ---------------------------------------------------------------------------
# tilted-line seeds and the 45-degree batch


def test_tilted_line_seed_geometry():
    for theta in (1.0, 30.0, 45.0, 80.0):
        seed = tilted_line_seed(theta, 1.3)
        assert collinearity_angle(seed) == pytest.approx(theta, abs=1e-9)
        # reflection-symmetric line through the origin
        assert np.allclose(seed.q[1], 0.0)
        assert np.allclose(seed.q[0], -seed.q[2])
    with pytest.raises(ValueError):
        tilted_line_seed(0.0)
    with pytest.raises(ValueError):
        tilted_line_seed(90.0)


def test_line_angle_decays_at_predicted_rate():
    # within the symmetric family: d/dt log tan(theta) = -(5/4)(1 - 1/s)/|q1|^3
    seed = tilted_line_seed(30.0, 0.4)
    traj = integrate_flow(seed, S3, 0.02)
    r = np.linalg.norm(traj.states[0].q[0])
    predicted = -(5.0 / 4.0) * (1.0 - 0.5) / r**3
    log_tan = np.log(np.tan(np.radians(traj.theta)))
    measured = (log_tan[-1] - log_tan[0]) / (traj.times[-1] - traj.times[0])
    assert measured == pytest.approx(predicted, rel=5e-2)


def _batch_seeds():
    rng = np.random.default_rng(11)
    seeds = [tilted_line_seed(45.0, 0.0)]
    seeds += [tilted_line_seed(rng.uniform(0.5, 45.0), rng.uniform(0, 2 * math.pi))
              for _ in range(24)]
    return seeds


def _rising_seed():
    """A seed whose minimal pair angle rises on the way to the axis."""
    base = moulton_solve(M3, (1, 2, 3), 1, S3).config
    q = base.q.copy()
    q[:, 1:] += 0.2 * np.random.default_rng(4).standard_normal((3, 2))
    return steer_to_angle(Configuration(q, M3), 20.0)


def test_45_batch_monotone_to_attractor():
    report = lyapunov_45_check(_batch_seeds(), S3)
    assert report.checked == 25
    assert report.all_monotone
    assert report.reached_attractor == 25
    assert report.collisions == 0
    for out in report.outcomes:
        assert out.status == "checked"
        assert out.stop_reason == "theta_target"
        assert out.theta_end < 0.1
        assert out.worst_increase < 1e-9


def test_min_angle_can_rise_when_another_pair_leaves_the_cone():
    # Regression for a measured property of the ascent field: the minimal
    # pair angle is NOT monotone when some other pair starts far outside
    # the 45-degree cone (independently confirmed against scipy's RK45 at
    # tolerance 1e-12).  The checker must flag this rather than hide it.
    seed = _rising_seed()
    rises = np.diff(_one_lane(seed, S3, 200.0, 0.1).theta)
    assert rises.max() > 0.1  # macroscopic, far beyond integrator noise
    report = lyapunov_45_check([seed], S3)
    (out,) = report.outcomes
    assert out.status == "checked"
    assert out.monotone is False
    assert not report.all_monotone


def test_check_flags_collinear_and_rejected_seeds():
    axis = _config([[-1, 0, 0], [0, 0, 0], [1, 0, 0]])
    steep = tilted_line_seed(60.0, 0.0)
    good = tilted_line_seed(10.0, 0.0)
    report = lyapunov_45_check([axis, steep, good], S3)
    statuses = [o.status for o in report.outcomes]
    assert statuses == ["already_collinear", "rejected", "checked"]
    assert report.checked == 1
    assert report.reached_attractor == 1


# ---------------------------------------------------------------------------
# lockstep lanes


def _one_run_per_seed(seeds, spectrum, t_final=200.0):
    """The check's outcomes built from a one-lane run of each seed."""
    outcomes = []
    for i, seed in enumerate(seeds):
        theta0 = collinearity_angle(seed)
        if theta0 == 0.0 or theta0 > 45.0:
            status = "already_collinear" if theta0 == 0.0 else "rejected"
            outcomes.append(SeedOutcome(i, status, theta0, None, None, None, None))
            continue
        lane = _one_lane(seed, spectrum, t_final, flow.THETA_ATTRACTOR)
        diffs = np.diff(lane.theta)
        worst = float(diffs.max()) if len(diffs) else 0.0
        outcomes.append(SeedOutcome(i, "checked", theta0, float(lane.theta[-1]),
                                    bool(len(diffs) == 0 or worst < flow.SLACK), worst,
                                    lane.end))
    return tuple(outcomes)


def test_batch_outcomes_equal_one_run_per_seed(monkeypatch):
    axis = _config([[-1, 0, 0], [0, 0, 0], [1, 0, 0]])
    heavy = steer_to_angle(Configuration(np.random.default_rng(6).standard_normal((3, 3)),
                                         np.array([1.0, 2.0, 1.5])), 30.0)
    four = steer_to_angle(_config(np.random.default_rng(7).standard_normal((4, 3))), 25.0)
    seeds = _batch_seeds() + [_rising_seed(), axis, tilted_line_seed(60.0, 0.4), heavy, four,
                              tilted_line_seed(12.0, 2.5)]
    expected = _one_run_per_seed(seeds, S3)
    assert [o.status for o in expected[25:]] == [
        "checked", "already_collinear", "rejected", "checked", "checked", "checked"]
    assert expected[25].monotone is False
    for lanes in (flow.STACK_LANES, 4):  # one stack, then stacks cut at 4 lanes
        monkeypatch.setattr(flow, "STACK_LANES", lanes)
        report = lyapunov_45_check(iter(seeds), S3)
        assert report.outcomes == expected
        checked = [o for o in expected if o.status == "checked"]
        assert report.checked == len(checked) == 29
        assert report.monotone == sum(o.monotone for o in checked) == 27
        assert report.reached_attractor == sum(o.stop_reason == "theta_target" for o in checked)
        assert report.collisions == sum(o.stop_reason == "collision" for o in checked) == 1


def _assert_lanes_are_their_one_lane_runs(starts, masses, spectrum, t_final, theta_stop):
    configs = [Configuration(q, masses) for q in starts]
    lanes = flow._flow_lanes(np.stack([c.q for c in configs]), masses, spectrum, t_final,
                             theta_stop)
    assert len(lanes) == len(configs)
    for config, lane in zip(configs, lanes):
        single = _one_lane(config, spectrum, t_final, theta_stop)
        assert lane.end == single.end
        for column in ("times", "states", "theta", "potential", "min_sep"):
            ours, alone = (np.array(getattr(x, column)) for x in (lane, single))
            assert ours.tobytes() == alone.tobytes()
    return [lane.end for lane in lanes]


def test_lanes_are_bitwise_their_one_lane_runs_n3():
    pinched = [[-0.5, 0.02, 0.0], [-0.44, -0.02, 0.01], [0.9, 0.0, -0.01]]
    balanced = moulton_solve(M3, (1, 2, 3), 1, S3).config.q
    on_axis = [[-1.1, 0, 0], [0.25, 0, 0], [0.85, 0, 0]]
    starts = [pinched, tilted_line_seed(40.0, 0.3).q, tilted_line_seed(3.0, 1.0).q,
              balanced, on_axis]
    ends = _assert_lanes_are_their_one_lane_runs(starts, M3, S3, 2.0, None)
    assert ends == ["collision", "time", "time", "converged", "collision"]
    ends = _assert_lanes_are_their_one_lane_runs(starts, M3, S3, 2.0, 0.1)
    assert ends == ["theta_target", "theta_target", "theta_target", "converged", "theta_target"]


def test_lanes_are_bitwise_their_one_lane_runs_n4():
    masses = np.array([1.0, 2.0, 1.5, 0.5])
    starts = np.random.default_rng(8).standard_normal((12, 4, 3))
    ends = _assert_lanes_are_their_one_lane_runs(starts, masses, Spectrum((3.0, 1.5, 1.0)),
                                                 0.01, 1.0)
    assert {"time", "theta_target", "collision"} <= set(ends)


def _first_error(seeds, spectrum):
    for seed in seeds:
        try:
            collinearity_angle(seed)
            _one_lane(seed, spectrum, 200.0, flow.THETA_ATTRACTOR)
        except Exception as exc:
            return exc
    return None


def test_batch_raises_the_first_failing_seeds_error(monkeypatch):
    """The error of the lowest-index failing seed comes out, as from one run
    per seed in order, even when a later lane of the stack fails first."""
    monkeypatch.setattr(flow, "MAX_STEPS", 5)
    rhs = _flow_rhs

    def poisoned(q, c):  # no finite field where body 1 leaves the (x, y) plane
        qdot, u, diff, r = rhs(q, c)
        return np.where((np.abs(q[..., 0, 2]) > 0.1)[..., None, None], np.nan, qdot), u, diff, r

    monkeypatch.setattr(flow, "_flow_rhs", poisoned)
    axis = _config([[-1, 0, 0], [0, 0, 0], [1, 0, 0]])
    collided = _config([[0, 0, 0], [1e-12, 0, 0], [1, 0.5, 0]])
    underflow = tilted_line_seed(40.0, math.pi / 2)  # about 20 rejected attempts
    budget = tilted_line_seed(40.0, 0.0)  # out of steps after 5 attempts
    cases = [
        ([axis, budget, collided], NoConvergence),
        ([axis, collided, budget], CollisionError),
        ([underflow, budget], StepUnderflow),
        ([budget, underflow, collided], NoConvergence),
    ]
    for seeds, kind in cases:
        serial = _first_error(seeds, S3)
        assert type(serial) is kind
        with pytest.raises(kind) as caught:
            lyapunov_45_check(seeds, S3)
        assert str(caught.value) == str(serial)


def test_batch_rejects_bad_t_final_before_reading_seeds():
    def unread():
        raise AssertionError("a seed was read")
        yield

    for t_final in (0.0, -1.0, math.nan, math.inf):
        for seeds in ([], [tilted_line_seed(60.0, 0.0)], unread()):
            with pytest.raises(ValueError, match="t_final"):
                lyapunov_45_check(seeds, S3, t_final=t_final)
