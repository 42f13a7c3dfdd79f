"""Tests for the critical-point search, census, and weight continuation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from sbclab import core, solver
from sbclab.collinear import moulton_solve
from sbclab.core import (
    Configuration,
    Spectrum,
    _inertia_s,
    gradient,
    inertia_indices,
    normalize,
    potential,
    sbc_residual,
)
from sbclab.errors import BranchLost, NoConvergence
from sbclab.morse import index_counts, morse_inequality_check
from sbclab.solver import (
    Census,
    SBCSolution,
    SearchFailure,
    census,
    classify_support,
    continue_in_s,
    find_critical_point,
    mass_norm_distance,
)

from oracles import (
    catalogue_wide_closure,
    central_residual,
    random_configuration,
    serial_descend,
    weight_vector,
)


def equilateral(side: float = 1.0) -> np.ndarray:
    h = side * math.sqrt(3.0) / 2.0
    return np.array([[0.0, 2 * h / 3], [-side / 2, -h / 3], [side / 2, -h / 3]])


def pair_distances(config: Configuration) -> np.ndarray:
    q = config.q
    iu = np.triu_indices(config.n, k=1)
    diff = q[iu[0]] - q[iu[1]]
    return np.sqrt((diff * diff).sum(axis=1))


# ---------------------------------------------------------------------------
# find_critical_point


def test_converges_to_equilateral_cc():
    rng = np.random.default_rng(3)
    q0 = equilateral() + 0.02 * rng.standard_normal((3, 2))
    sol = find_critical_point(Configuration(q0, np.ones(3)), Spectrum.identity(2))
    assert isinstance(sol, SBCSolution)
    assert tuple(sol.triple) == (0, 1, 2)  # null direction = rotation
    assert sol.classification == "full-dimensional"
    assert sol.is_cc
    r = pair_distances(sol.config)
    assert np.max(r) - np.min(r) < 1e-10  # equilateral shape recovered


def test_converges_to_moulton_point():
    spec = Spectrum.planar(1.7)
    rec = moulton_solve(np.ones(3), (1, 2, 3), 1, spec)
    rng = np.random.default_rng(8)
    q0 = rec.config.q + 1e-3 * rng.standard_normal((3, 2))
    sol = find_critical_point(Configuration(q0, np.ones(3)), spec)
    assert isinstance(sol, SBCSolution)
    assert mass_norm_distance(sol.config, rec.config) < 1e-10
    assert sol.classification == "collinear(axis=1)"
    assert tuple(sol.triple) == (2, 0, 1)
    assert sol.is_cc  # collinear balanced points are rescaled central ones
    assert sol.lam == pytest.approx(rec.lam, rel=1e-9)


def test_random_starts_land_on_known_types():
    spec = Spectrum.planar(1.5)
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(20):
        q0 = rng.standard_normal((3, 2))
        sol = find_critical_point(Configuration(q0, np.ones(3)), spec)
        assert isinstance(sol, SBCSolution)
        kind = sol.classification.split("(")[0]
        seen.add(kind)
        if kind == "collinear":
            assert sol.is_cc
        else:
            # non-collinear solutions are isosceles, never equilateral,
            # and never central
            assert sol.classification == "full-dimensional"
            assert not sol.is_cc
            r = np.sort(pair_distances(sol.config))
            gaps = [r[1] - r[0], r[2] - r[1]]
            assert min(gaps) < 1e-9
            assert r[2] - r[0] > 1e-3
    assert "collinear" in seen and "full-dimensional" in seen


def test_solution_satisfies_constraints():
    spec = Spectrum.planar(1.5)
    rng = np.random.default_rng(17)
    sol = find_critical_point(
        Configuration(rng.standard_normal((4, 2)), np.ones(4)), spec
    )
    assert isinstance(sol, SBCSolution)
    assert _inertia_s(sol.config.q, weight_vector(sol.config, spec)) == pytest.approx(
        1.0, abs=1e-12
    )
    u = potential(sol.config)
    assert sol.residual_norm < 1e-10 * u
    assert np.linalg.norm(sbc_residual(sol.config, spec)[0]) == pytest.approx(
        sol.residual_norm, abs=1e-13
    )


def test_failure_collision():
    q0 = np.array([[0.0, 0.0], [3e-10, 0.0], [1.0, 0.0], [0.0, 1.0]])
    out = find_critical_point(
        Configuration(q0, np.ones(4)), Spectrum.planar(1.5)
    )
    assert isinstance(out, SearchFailure)
    assert out.cause == "collision"
    assert out.iterations == 0


def test_each_iterate_builds_one_restricted_hessian(monkeypatch):
    # trial points of the line search are judged by their residual alone
    builds = []
    original = solver._restricted_hessian_any

    def counting(*args, **kwargs):
        builds.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "_restricted_hessian_any", counting)
    monkeypatch.setattr(solver, "MAX_ITER", 3)
    rng = np.random.default_rng(2)
    out = find_critical_point(
        Configuration(rng.standard_normal((3, 2)), np.ones(3)), Spectrum.planar(1.5)
    )
    assert isinstance(out, SearchFailure)
    assert out.iterations == 3
    assert len(builds) == 3


def test_solve_makes_one_pair_pass_per_evaluated_point(monkeypatch):
    """The start and every trial point get one frame pair pass
    (core._evaluate_x), each on its own x; an accepted trial's pass also
    feeds its restricted Hessian, so no iterate is paired again.  The
    returned solution's point q = K x gets one more frame pass, at x' =
    _frame_of(q), and no position pass (core._pairs) is made, counted
    through core's and solver's names."""
    calls = {"pairs": 0, "frame": [], "models": []}
    pairs, evaluate_x = core._pairs, core._evaluate_x
    build = core._restricted_hessian_any

    def counting_pairs(q):
        calls["pairs"] += 1
        return pairs(q)

    def recording_evaluate_x(x, c):
        calls["frame"].append(x)
        return evaluate_x(x, c)

    def recording_build(x, *args):
        calls["models"].append(x)
        return build(x, *args)

    for module in (core, solver):
        monkeypatch.setattr(module, "_pairs", counting_pairs)
        monkeypatch.setattr(module, "_evaluate_x", recording_evaluate_x)
    monkeypatch.setattr(solver, "_restricted_hessian_any", recording_build)
    rng = np.random.default_rng(3)
    q0 = equilateral() + 0.2 * rng.standard_normal((3, 2))
    sol = find_critical_point(Configuration(q0, np.ones(3)), Spectrum.planar(1.5))
    assert isinstance(sol, SBCSolution)
    (*points, row), models = calls["frame"], calls["models"]
    assert len(points) > 3
    assert len({x.tobytes() for x in points}) == len(points)
    assert all(any(m is x for x in points) for m in models)
    assert calls["pairs"] == 0
    c = core._constants(np.ones(3), Spectrum.planar(1.5).array)
    assert sol.config.q.tobytes() == (c.K @ models[-1]).reshape(3, 2).tobytes()
    assert row.tobytes() == core._frame_of(sol.config.q, c).tobytes()


def test_failure_max_iter(monkeypatch):
    monkeypatch.setattr(solver, "MAX_ITER", 2)
    rng = np.random.default_rng(2)
    out = find_critical_point(
        Configuration(rng.standard_normal((3, 2)), np.ones(3)), Spectrum.planar(1.5)
    )
    assert isinstance(out, SearchFailure)
    assert out.cause == "max_iter"


def test_failure_stalled(monkeypatch):
    """An iterate whose 30 trials are all rejected ends the solve as
    "stalled", after that iterate, not as "max_iter"; here every trial's
    frame pass reports a collision."""
    evaluate_x, points = solver._evaluate_x, []

    def colliding_trials(x, c):
        points.append(x)
        *values, collided = evaluate_x(x, c)
        return (*values, collided or len(points) > 1)

    monkeypatch.setattr(solver, "_evaluate_x", colliding_trials)
    rng = np.random.default_rng(2)
    out = find_critical_point(
        Configuration(rng.standard_normal((3, 2)), np.ones(3)), Spectrum.planar(1.5)
    )
    assert isinstance(out, SearchFailure)
    assert (out.cause, out.iterations) == ("stalled", 1)
    assert len(points) == 31


def test_classify_support_variants():
    m = np.ones(3)
    line = np.array([[-1.0, 0.0, 0.0], [0.2, 0.0, 0.0], [0.8, 0.0, 0.0]])
    assert classify_support(Configuration(line, m)) == "collinear(axis=1)"
    assert (
        classify_support(Configuration(line[:, [1, 0, 2]], m))
        == "collinear(axis=2)"
    )
    plane = np.zeros((3, 3))
    plane[:, 0] = line[:, 0]
    plane[1, 2] = 0.5
    assert classify_support(Configuration(plane, m)) == "planar(axes=1,3)"
    full = np.array([[1.0, 0.1, 0.2], [-0.3, 0.7, -0.1], [0.1, -0.4, 0.6]])
    assert classify_support(Configuration(full, m)) == "full-dimensional"


def test_central_residual_zero_at_cc():
    """The oracle's central residual vanishes at the equilateral triangle and
    not at a stretched one, and the solver's stacked central test agrees
    with it lane by lane."""
    m = np.ones(3)
    cfg = Configuration(equilateral(), m)
    assert central_residual(cfg) < 1e-13 * potential(cfg)
    stretched = Configuration(equilateral() * np.array([1.4, 1.0]), m)
    assert central_residual(stretched) > 0.1
    q = np.array([cfg.q, stretched.q])
    g = np.array([gradient(cfg), gradient(stretched)])
    u = np.array([potential(cfg), potential(stretched)])
    assert solver._central(q, m, g, u).tolist() == [True, False]


# ---------------------------------------------------------------------------
# census


@pytest.fixture(scope="module")
def census_15():
    return census(np.ones(3), Spectrum.planar(1.5), 150, seed=3)


def test_census_counts_three_bodies(census_15):
    c = census_15
    collinear = [s for s in c.solutions if s.classification.startswith("collinear")]
    noncol = [s for s in c.solutions if not s.classification.startswith("collinear")]
    assert len(collinear) == 12
    assert len(noncol) >= 2
    assert len(c.solutions) >= 14
    assert not c.symmetry_caveat and c.orbit_count is None
    assert set(c.failures) == {"collision", "max_iter", "stalled"}


def test_census_solution_invariants(census_15):
    for sol in census_15.solutions:
        u = potential(sol.config)
        assert sol.residual_norm < 1e-10 * u
        i_s = _inertia_s(sol.config.q, weight_vector(sol.config, census_15.spectrum))
        assert abs(i_s - 1.0) < 1e-12
        assert sol.classification == classify_support(sol.config)
        if sol.classification.startswith("collinear"):
            assert sol.is_cc
        else:
            # the first-axis-dominance hypothesis: non-collinear solutions
            # are never central; their central residual is O(1), not noise
            assert not sol.is_cc
            assert central_residual(sol.config) > 1e-3


def test_solutions_classified_from_their_own_evaluation(census_15):
    # the solver reuses the converged point's (grad U, U, lambda); the
    # public functions evaluating afresh must give the same record.  A
    # collinear balanced point is central by structure, whatever its
    # central residual after the solve.
    for sol in census_15.solutions:
        cfg = sol.config
        if sol.classification.startswith("collinear"):
            assert sol.is_cc
        else:
            assert sol.is_cc == (central_residual(cfg) < 1e-10 * potential(cfg))
        assert sol.triple == inertia_indices(cfg, census_15.spectrum)


def test_census_dedup_separation(census_15):
    sols = census_15.solutions
    for i in range(len(sols)):
        for j in range(i + 1, len(sols)):
            assert mass_norm_distance(sols[i].config, sols[j].config) >= 1e-6


def test_census_deterministic(monkeypatch):
    monkeypatch.setattr(solver, "_saddle_seeds", lambda *args: [])
    kwargs = dict(n_restarts=40, seed=9)
    a = census(np.ones(3), Spectrum.planar(1.5), **kwargs)
    b = census(np.ones(3), Spectrum.planar(1.5), **kwargs)
    assert len(a.solutions) == len(b.solutions)
    for x, y in zip(a.solutions, b.solutions):
        assert np.array_equal(x.config.q, y.config.q)


def test_census_monotone_in_restarts(monkeypatch):
    monkeypatch.setattr(solver, "_saddle_seeds", lambda *args: [])
    small = census(np.ones(3), Spectrum.planar(1.5), 30, seed=5)
    large = census(np.ones(3), Spectrum.planar(1.5), 90, seed=5)
    assert len(large.solutions) >= len(small.solutions)
    for sol in small.solutions:
        assert any(
            mass_norm_distance(sol.config, other.config) < 1e-9
            for other in large.solutions
        )


def test_census_reflection_closure(census_15):
    # flipping the second axis of any solution and re-converging must land
    # on a census member: the catalogue is closed under axis reflections
    spec = census_15.spectrum
    for sol in census_15.solutions[:12]:
        flipped = sol.config.q.copy()
        flipped[:, 1] *= -1.0
        out = find_critical_point(Configuration(flipped, sol.config.masses), spec)
        assert isinstance(out, SBCSolution)
        assert any(
            mass_norm_distance(out.config, other.config) < 1e-6
            for other in census_15.solutions
        )


def test_census_saddle_seeds_complete_without_restarts():
    c = census(np.ones(3), Spectrum.planar(1.5), 0, seed=1)
    kinds = {}
    for sol in c.solutions:
        kinds.setdefault(tuple(sol.triple), []).append(sol)
    assert len(kinds.get((2, 0, 1), [])) == 6
    assert len(kinds.get((1, 0, 2), [])) == 18
    assert len(kinds.get((0, 0, 3), [])) == 12
    assert c.restarts == 0 and c.extra_seeds > 0


def test_census_identity_weights_orbit_count():
    c = census(np.ones(3), Spectrum.identity(2), 60, seed=11)
    assert c.symmetry_caveat
    # the five classical orbit classes: three collinear (one per middle
    # body) and the two equilateral orientations
    assert c.orbit_count == 5
    assert all(s.is_cc for s in c.solutions)


def test_census_validates_arguments():
    with pytest.raises(ValueError):
        census(np.ones(3), Spectrum.planar(1.5), -1, seed=0)
    with pytest.raises(ValueError):
        census(np.ones(3), Spectrum.planar(1.5), 5, seed=-2)


# ---------------------------------------------------------------------------
# continuation


def collinear_second_axis_solution(s1: float) -> SBCSolution:
    spec = Spectrum.planar(s1)
    rec = moulton_solve(np.ones(3), (1, 2, 3), 2, spec)
    sol = find_critical_point(rec.config, spec)
    assert isinstance(sol, SBCSolution)
    return sol


def test_continue_identity_path():
    sol = collinear_second_axis_solution(1.5)
    path = [Spectrum.planar(1.5)] * 3
    fam = continue_in_s(sol, path)
    assert len(fam) == 3
    for member in fam:
        assert member.spectrum.s == sol.spectrum.s
        assert tuple(member.triple) == tuple(sol.triple)
        assert mass_norm_distance(member.config, sol.config) < 1e-9


def test_continue_minimum_family_keeps_index_zero():
    c = census(np.ones(3), Spectrum.planar(1.2), 0, seed=1)
    minimum = next(s for s in c.solutions if s.triple.index == 0)
    path = [Spectrum.planar(round(1.2 + 0.1 * k, 10)) for k in range(1, 12)]
    fam = continue_in_s(minimum, path)
    assert len(fam) == 11
    assert all(m.triple.index == 0 and m.triple.nullity == 0 for m in fam)
    assert fam[-1].spectrum.s[0] == pytest.approx(2.3)
    assert not fam[-1].classification.startswith("collinear")


def test_continue_across_degeneracy_localizes_threshold():
    sol = collinear_second_axis_solution(1.5)
    assert tuple(sol.triple) == (1, 0, 2)
    path = [Spectrum.planar(x) for x in (2.0, 2.39, 2.41)]
    fam = continue_in_s(sol, path)
    last = fam[-1]
    assert last.triple.nullity >= 1
    assert abs(last.spectrum.s[0] - 2.4) < 1e-4
    assert all(m.triple.nullity == 0 for m in fam[:-1])
    # flavor of the degenerate point: index already dropped to zero
    assert tuple(last.triple) == (0, 1, 2)


def test_continue_requires_nondegenerate_start():
    sol = find_critical_point(
        Configuration(equilateral(), np.ones(3)), Spectrum.identity(2)
    )
    assert isinstance(sol, SBCSolution)
    assert sol.triple.nullity == 1
    with pytest.raises(ValueError):
        continue_in_s(sol, [Spectrum.identity(2)])


def test_continue_branch_lost_on_hopeless_budget(monkeypatch):
    # a non-collinear family genuinely deforms with s (unlike the
    # second-axis collinear one, which is critical for every s_1), so a
    # one-iteration budget cannot track it across a long parameter leg
    c = census(np.ones(3), Spectrum.planar(1.2), 0, seed=1)
    minimum = next(s for s in c.solutions if s.triple.index == 0)
    monkeypatch.setattr(solver, "MAX_ITER", 1)
    with pytest.raises(BranchLost):
        continue_in_s(minimum, [Spectrum.planar(2.0)])


# ---------------------------------------------------------------------------
# saddle-seed descent, dedup and object churn


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("d", [2, 3])
def test_descend_lanes_walk_as_if_alone(n, d):
    """Each lane of the lockstep walk, a stack of unit frame coordinates,
    ends bitwise where a 1-lane call and the serial try/except walk end;
    a colliding start (all bodies at one point for n = 2) stays put."""
    rng = np.random.default_rng(10 * n + d)
    m = 1.0 + 2.0 * rng.random(n)
    spectrum = Spectrum((2.5, 1.5, 1.0)[-d:])
    c = core._constants(m, spectrum.array)
    line = moulton_solve(m, tuple(range(1, n + 1)), 1, spectrum).config.q
    pushed = [line + 0.05 * rng.standard_normal((n, d)) for _ in range(4)]
    pushed += [random_configuration(rng, n, d, masses=m).q for _ in range(4)]
    starts = [core._frame_of(normalize(Configuration(q, m), spectrum).q, c) for q in pushed]
    collided = pushed[0].copy()
    collided[1] = collided[0]  # for n = 2 a translation, whose x is 0
    starts = np.array(starts + [core._frame_of(collided, c) if n > 2 else 0.0 * starts[0]])

    ends = solver._descend(starts, c)
    assert ends.shape == starts.shape
    assert np.array_equal(ends[-1], starts[-1])
    for start, end in zip(starts[:-1], ends[:-1]):
        assert not np.array_equal(start, end)
        assert np.array_equal(solver._descend(start[None], c)[0], end)
        assert np.array_equal(serial_descend(start, c), end)


# (n, d) cases: n 3-5 and d 1-4 each covered
TANGENT_MOVE_CASES = [(3, 1), (3, 2), (3, 3), (3, 4), (4, 1), (4, 2), (4, 3), (5, 2), (5, 4)]


@pytest.mark.parametrize("n, d", TANGENT_MOVE_CASES)
def test_tangent_moves_need_no_centre_of_mass_test(monkeypatch, n, d):
    """Every point that the saddle seeding and a solve move to is a frame
    point, and core._recentre leaves its q = K x untouched: the pushes that
    _saddle_seeds walks, every move of its walks (solver._descend), and the
    start and every trial of solves from off-centre starts and a colliding
    one.  (test_every_frame_point_is_centred is the property for any x;
    these are the points the program builds.)"""
    rng = np.random.default_rng(2300 + 10 * n + d)
    m = np.exp(rng.uniform(math.log(0.1), math.log(10.0), n))
    spec = Spectrum(tuple(sorted(1.0 + 2.0 * rng.random(d), reverse=True)))
    c = core._constants(m, spec.array)
    starts = [Configuration(rng.standard_normal((n, d)) + 10.0 ** rng.uniform(0, 6)
                            * rng.standard_normal(d), m) for _ in range(5)]
    colliding = rng.standard_normal((n, d))
    colliding[1] = colliding[0]
    starts.append(Configuration(colliding, m))
    points, walks = [], []
    evaluate_x, descend = solver._evaluate_x, solver._descend

    def recording_evaluate_x(x, c):
        points.append(np.atleast_2d(x))
        return evaluate_x(x, c)

    def recording_descend(pushed, c):
        walks.append(pushed)
        return descend(pushed, c)

    monkeypatch.setattr(solver, "_evaluate_x", recording_evaluate_x)
    monkeypatch.setattr(solver, "_descend", recording_descend)
    solver._saddle_seeds(c, spec)
    outcomes = [find_critical_point(start, spec) for start in starts]
    assert len(walks) == (d > 1)  # a line has no downhill mode
    assert any(isinstance(out, SBCSolution) for out in outcomes)
    assert outcomes[-1] == SearchFailure("collision", 0, math.inf)
    q = (np.concatenate(points) @ c.K.T).reshape(-1, n, d)
    assert len(q) > 5 * (len(walks[0]) if walks else 1)
    assert np.array_equal(core._recentre(q, m, c.m_sum), q, equal_nan=True)


def test_saddle_pushes_stay_on_their_invariant_axes(monkeypatch):
    """Each saddle push is exactly zero on the columns of x.reshape(n - 1, d)
    (the axes) that neither its collinear point nor its mode occupies, and
    so is the walk's end, in x and in q = K x; with no random restart,
    n = 3 equal masses with S = diag(4, 3, 2, 1) then give the complete
    144-point catalogue, which passes morse-check."""
    walks = []
    descend = solver._descend

    def recording_descend(starts, c):
        ends = descend(starts, c)
        walks.append((starts, ends, c.K))
        return ends

    monkeypatch.setattr(solver, "_descend", recording_descend)
    result = census(np.ones(3), Spectrum((4.0, 3.0, 2.0, 1.0)), 0, seed=0)
    (starts, ends, K), = walks
    dead = np.all(starts.reshape(-1, 2, 4) == 0.0, axis=1)  # (walk, axis): exactly zero
    assert dead.sum(axis=1).min() >= 2  # a line and one mode leave two axes
    assert np.all(ends.reshape(-1, 2, 4)[np.repeat(dead[:, None, :], 2, axis=1)] == 0.0)
    q = (ends @ K.T).reshape(-1, 3, 4)
    assert np.all(q[np.repeat(dead[:, None, :], 3, axis=1)] == 0.0)
    assert len(result.q) == 144
    check = morse_inequality_check(index_counts(result.triple), 3, 4)
    assert check.divisible and check.nonnegative


@pytest.mark.parametrize("masses, s", [
    ((1.0, 1.0, 1.0), (1.5, 1.0)),
    ((1.0, 2.0, 3.0), (4.0, 3.0, 2.0, 1.0)),
    ((1.0, 1.0, 1.0, 1.0), (3.0, 2.0, 1.0)),
])
def test_saddle_seeds_do_not_depend_on_eigenvector_signs(monkeypatch, masses, s):
    """Each downhill mode's sign is fixed before its pushes, so an eigh
    that negates its eigenvectors leaves every saddle seed bitwise as it
    was: the + and - walks of a mode do not swap with the model's rounding."""
    m, spec = np.array(masses), Spectrum(s)
    c = core._constants(m, spec.array)
    seeds = solver._saddle_seeds(c, spec)
    assert any(solver._occupied(seed.q).sum() > 1 for seed in seeds)  # modes were pushed
    plain = [seed.q.tobytes() for seed in seeds]
    eigh = np.linalg.eigh

    def negated(a):
        evals, evecs = eigh(a)
        return evals, -evecs

    monkeypatch.setattr(np.linalg, "eigh", negated)
    assert [seed.q.tobytes() for seed in solver._saddle_seeds(c, spec)] == plain


def _kept_by_closed(args: tuple) -> tuple[list[int], np.ndarray]:
    """What solver._closed(*args) lists: the outcome index of each new find,
    in order, and the kept images other than the finds themselves, read
    from its one stacked _frame_of call.  Polishes are stubbed to fail:
    only the images that they would replace are left out of the rows."""
    outcomes = args[0]
    frame_of, stacked = solver._frame_of, []

    def spy(q, c):
        stacked.append(q)
        return frame_of(q, c)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_frame_of", spy)
        mp.setattr(solver, "find_critical_point", lambda *a: SearchFailure("max_iter", 1, 1.0))
        rows = solver._closed(*args)[0]
    index = {id(out.config.q): k for k, out in enumerate(outcomes) if isinstance(out, SBCSolution)}
    assert len(stacked) == 1
    return [index[id(row[0])] for row in rows if id(row[0]) in index], stacked[0]


def test_census_dedup_keeps_what_a_distance_loop_keeps(monkeypatch):
    rng = np.random.default_rng(8)
    m = np.array([1.0, 2.0, 3.0])
    spectrum = Spectrum.planar(1.5)

    def unit_shift():  # centre of mass 0 and mass norm 1
        e = rng.standard_normal((3, 2))
        e -= m @ e / m.sum()
        return e / math.sqrt(float(np.sum(m[:, None] * e * e)))

    base = [Configuration(rng.standard_normal((3, 2)), m) for _ in range(5)]
    configs = base + [
        Configuration(c.q + f * solver.DEDUP_TOL * unit_shift(), m)
        for c in base
        for f in (0.5, 0.9, 1.1, 2.0)
    ]
    outcomes = []
    for k in rng.permutation(len(configs)):
        outcomes.append(SBCSolution(configs[k], spectrum, 1.0, 0.0, (0, 0, 1), "", False))
        if k % 3 == 0:
            outcomes.append(SearchFailure("max_iter", 120, 1.0))
    expected: list[SBCSolution] = []
    for out in outcomes:
        if isinstance(out, SBCSolution) and all(
            mass_norm_distance(out.config, k.config) >= solver.DEDUP_TOL for k in expected
        ):
            expected.append(out)

    # the dedup step of the closure: under the trivial group no images;
    # the distance blocks may hold one row, a few, or all of them
    trivial = (np.ones((1, 2)), np.arange(3)[None])
    blocks = (1, 7, solver.DISTANCE_BLOCK)
    for block in blocks:
        monkeypatch.setattr(solver, "DISTANCE_BLOCK", block)
        kept, failures, polishes = solver._closed(
            outcomes, core._constants(m, spectrum.array), trivial, spectrum)
        assert [id(row[0]) for row in kept] == [id(s.config.q) for s in expected]
        assert failures["max_iter"] == len(outcomes) - len(configs)
        assert polishes == 0
    assert len(base) < len(expected) < len(configs)

    # under the axis reflections the self-block alone drops repeated images.
    # Flipping axis 2 moves the nearly collinear point `flat` by
    # 0.9 DEDUP_TOL, so that image is dropped; `past` lies 0.3 DEDUP_TOL
    # beyond it and 1.2 DEDUP_TOL from `flat`, so it is a new find whose
    # flipped image, 0.3 DEDUP_TOL from `flat`, is kept.  Checking images
    # against the list would drop that image: the two rules differ only for
    # such a find, between DEDUP_TOL and 2 DEDUP_TOL from the list.
    group = core.symmetry_group(m, 2)

    def dist(a, b):
        return math.sqrt(float(np.sum(m[:, None] * (a - b) ** 2)))

    y = base[0].q[:, 1] / dist(base[0].q[:, 1:], 0.0) * solver.DEDUP_TOL
    flat, past = base[0].q.copy(), base[0].q.copy()
    flat[:, 1], past[:, 1] = 0.45 * y, -0.75 * y
    for k, q in ((3, flat), (4, past)):
        outcomes.insert(k, SBCSolution(Configuration(q, m), spectrum, 1.0, 0.0, (0, 0, 1), "", False))

    finds, listed, images = [], [], []
    for k, out in enumerate(outcomes):
        if isinstance(out, SBCSolution) and all(
            dist(out.config.q, p) >= solver.DEDUP_TOL for p in listed
        ):
            orbit: list[np.ndarray] = []
            for image in core._images(out.config.q, group):
                if all(dist(image, p) >= solver.DEDUP_TOL for p in orbit):
                    orbit.append(image)
            finds.append(k)
            listed += orbit
            images += orbit[1:]
    assert len(images) < 3 * len(finds)
    c = core._constants(m, spectrum.array)
    for block in blocks:
        monkeypatch.setattr(solver, "DISTANCE_BLOCK", block)
        kept_finds, kept_images = _kept_by_closed((outcomes, c, group, spectrum))
        assert kept_finds == finds
        assert np.array_equal(kept_images, np.array(images))
    wide = catalogue_wide_closure(outcomes, m, group, solver.DEDUP_TOL)
    assert [k for k, _ in wide] == finds
    assert sum(len(imgs) - 1 for _, imgs in wide) < len(images)


def test_census_builds_few_configurations_and_walks_once(monkeypatch):
    """A Configuration for each start and each returned solution, not for
    each accepted Newton iterate or trial point, and one lockstep descent
    for the saddle walks of the two orbit representatives (one collinear
    record per axis), which are starts too.  Neither the 48 collinear
    records nor the closure images build one."""
    counts = {"built": 0, "descents": 0}
    post_init, descend = Configuration.__post_init__, solver._descend

    def counting_post_init(self):
        counts["built"] += 1
        post_init(self)

    def counting_descend(*args, **kwargs):
        counts["descents"] += 1
        return descend(*args, **kwargs)

    monkeypatch.setattr(Configuration, "__post_init__", counting_post_init)
    monkeypatch.setattr(solver, "_descend", counting_descend)
    c = census(np.ones(4), Spectrum((1.5, 1.0)), 8, 7)
    solves = c.restarts + c.extra_seeds
    assert solves == 20
    assert counts["descents"] == 1
    assert counts["built"] <= 2 * solves
    assert len(c.q) == 192


def test_census_is_a_read_only_column_store(monkeypatch):
    """The catalogue is one read-only (N, n, d) stack with columns of the
    Python scalars the report writes; solutions rebuilds each row bitwise,
    and the census itself builds at most two Configurations per solve (its
    start and its solution), however many closure images it lists."""
    built = []
    post_init = Configuration.__post_init__

    def counting_post_init(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(Configuration, "__post_init__", counting_post_init)
    c = census(np.ones(5), Spectrum.planar(1.5), 2, 1)
    assert len(built) <= 2 * (c.restarts + c.extra_seeds)
    assert c.q.shape == (len(c.q), 5, 2) and len(c.q) > 2 * len(built)
    assert not c.q.flags.writeable
    with pytest.raises(ValueError):
        c.q[0, 0, 0] = 1.0
    columns = c.lam, c.residual, c.triple, c.classification, c.is_cc
    assert all(len(column) == len(c.q) for column in columns)
    for kind, column in zip((float, float, core.InertiaTriple, str, bool), columns):
        assert {type(value) for value in column} == {kind}
    assert all(type(k) is int for t in c.triple for k in t)
    solutions = c.solutions
    assert len(solutions) == len(c.q)
    for k, sol in enumerate(solutions):
        assert sol.config.q.tobytes() == c.q[k].tobytes()
        assert sol.config.masses.tolist() == list(c.masses)
        assert sol.spectrum == c.spectrum
        row = sol.lam, sol.residual_norm, sol.triple, sol.classification, sol.is_cc
        assert row == tuple(column[k] for column in columns)


def _census_bits(c: Census) -> tuple:
    """Every field of a census, q as bytes and floats by repr, so equal
    tuples mean bitwise equal catalogues."""
    columns = c.lam, c.residual, c.triple, c.classification, c.is_cc
    rest = c.restarts, c.seed, c.failures, c.masses, c.spectrum, c.extra_seeds
    return c.q.shape, c.q.tobytes(), repr(columns), repr(rest), c.symmetry_caveat, c.orbit_count


def _outcome_bits(out) -> tuple:
    """Every field of a solve's outcome, bitwise (see _census_bits)."""
    if isinstance(out, SearchFailure):
        return (repr(out),)
    row = out.spectrum, out.lam, out.residual_norm, out.triple, out.classification, out.is_cc
    return out.config.q.tobytes(), out.config.masses.tobytes(), repr(row)


@pytest.mark.parametrize("s, restarts, seed", [
    ((1.5, 1.0), 20, 1), ((1.5, 1.0), 20, 7), ((4.0, 3.0, 2.0, 1.0), 0, 0),
])
def test_census_is_bitwise_deterministic_and_rebuilds_through_configuration(s, restarts, seed):
    """Two censuses of one problem in one process are bitwise equal, and row
    i is bitwise solutions[i] rebuilt through Configuration: the same point,
    and evaluated again through the public sbc_residual and inertia_indices,
    the same lambda, |G| (np.linalg.norm, as a solve takes it, for a find
    and for an image alike) and triple."""
    _assert_census_rebuilds((1.0,) * 3, Spectrum(s), restarts, seed)


@pytest.mark.parametrize("masses, s", [
    pytest.param((1.0, 1.0), (1.0, 1.0), id="n2-d2"),
    pytest.param((1.0, 3.0), (2.0, 2.0, 1.0), id="n2-d3"),
])
def test_two_body_census_rows_rebuild_through_configuration(masses, s):
    """As for three bodies: at n = 2, where the images' lambda and |G| come
    from one stacked evaluation of all of them, every row still equals
    sbc_residual at its point, bit for bit."""
    _assert_census_rebuilds(masses, Spectrum(s), 10, 3)


def _assert_census_rebuilds(masses, spec: Spectrum, restarts: int, seed: int) -> None:
    """Two runs of census(masses, spec, restarts, seed) are bitwise equal,
    and every row equals its point rebuilt through Configuration and
    evaluated by sbc_residual and inertia_indices, bit for bit."""
    a, b = (census(np.array(masses), spec, restarts, seed) for _ in range(2))
    assert _census_bits(a) == _census_bits(b)
    for k, sol in enumerate(a.solutions):
        config = Configuration(a.q[k], np.array(a.masses))
        assert config.q.tobytes() == a.q[k].tobytes() == sol.config.q.tobytes()
        G, lam = sbc_residual(config, spec)
        assert lam == a.lam[k] == sol.lam
        assert a.residual[k] == sol.residual_norm == float(np.linalg.norm(G))
        assert inertia_indices(config, spec) == a.triple[k] == sol.triple


LEAK_PROBLEMS = (
    (np.ones(3), Spectrum((1.5, 1.0))),
    (np.array([1.0, 2.0, 3.0]), Spectrum((3.0, 1.0))),
    (np.ones(4), Spectrum((4.0, 3.0, 2.0, 1.0))),
)


def test_constants_never_leak_between_problems():
    """Solves and censuses of different masses and spectra, interleaved in
    a new order, give every outcome bitwise as when each problem ran on its
    own, so nothing of one problem's constants reaches the next.  A
    continuation path, whose spectrum changes at every step, is bitwise the
    same between other problems' solves, and each of its members is the
    solve from the member before at its own spectrum."""
    rng = np.random.default_rng(22)
    starts = [Configuration(rng.standard_normal((len(m), spec.d)), m) for m, spec in LEAK_PROBLEMS]

    def run(k):
        m, spec = LEAK_PROBLEMS[k]
        return (_outcome_bits(find_critical_point(starts[k], spec)),
                _census_bits(census(m, spec, 2, seed=11 + k)))

    alone = [run(k) for k in range(len(LEAK_PROBLEMS))]
    assert len(set(alone)) == len(LEAK_PROBLEMS)
    for k in (2, 0, 1, 0, 2, 1):
        assert run(k) == alone[k]

    minimum = next(s for s in census(np.ones(3), Spectrum.planar(1.2), 0, seed=1).solutions
                   if s.triple.index == 0)
    path = [Spectrum.planar(x) for x in (1.3, 1.45, 1.6)]
    family = [_outcome_bits(out) for out in continue_in_s(minimum, path)]
    run(2)
    assert [_outcome_bits(out) for out in continue_in_s(minimum, path)] == family
    run(1)
    members = [minimum, *continue_in_s(minimum, path)]
    for before, member in zip(members, members[1:]):
        assert _outcome_bits(find_critical_point(before.config, member.spectrum)) == \
            _outcome_bits(member)


@pytest.mark.parametrize("c", [1e-5, 1e5])
def test_census_of_scaled_masses_is_the_unit_catalogue_rescaled(c):
    """Multiplying every mass by c scales the balanced points on I_S = 1 by
    1/sqrt(c): equal masses c give the unit-mass catalogue as a set, after
    rescaling by sqrt(c), with random restarts and from the saddle seeds
    alone (their descent steps along a / U, which does not scale).  (The
    gate |G| < TOL_RES * U is not scale-free, so far larger or smaller c
    do not.)"""
    for n, s, restarts, seed in ((3, (1.5, 1.0), 20, 1), (3, (1.5, 1.0), 0, 0),
                                 (4, (1.5, 1.0), 0, 0), (3, (3.0, 2.0, 1.0), 3, 0)):
        spec, m = Spectrum(s), np.ones(n)
        unit = census(m, spec, restarts, seed)
        scaled = census(np.full(n, c), spec, restarts, seed)
        assert len(scaled.q) == len(unit.q) > 0
        rescaled = scaled.q * math.sqrt(c)
        assert _nearest(rescaled, unit.q, m).max() < solver.DEDUP_TOL
        assert _nearest(unit.q, rescaled, m).max() < solver.DEDUP_TOL


def test_saddle_seeds_propagate_programming_errors(monkeypatch):
    def broken(*args):
        raise TypeError("a bug, not a numerical failure")

    monkeypatch.setattr(solver, "enumerate_csbc", broken)
    with pytest.raises(TypeError):
        census(np.ones(3), Spectrum.planar(1.5), 1, seed=0)


def test_saddle_seeds_skip_a_failed_enumeration(monkeypatch):
    def failing(*args):
        raise NoConvergence("gap Newton stalled")

    monkeypatch.setattr(solver, "enumerate_csbc", failing)
    c = census(np.ones(3), Spectrum.planar(1.5), 1, seed=0)
    assert c.extra_seeds == 0 and c.restarts == 1


# ---------------------------------------------------------------------------
# symmetry closure and representative seeding

CLOSURE_CASES = {
    # name: (masses, S, restarts, seed)
    "n4-s1.5": ((1.0,) * 4, (1.5, 1.0), 8, 7),
    "n4-s4.0": ((1.0,) * 4, (4.0, 1.0), 100, 1000),
    "n4-s5.0": ((1.0,) * 4, (5.0, 1.0), 100, 1000),
    "n3-d3": ((1.0, 2.0, 3.0), (2.5, 1.5, 1.0), 200, 5003),
}
# repeated weights, and four axes, for the closure's dedup alone
DEDUP_CASES = {
    "n2-s1,1": ((1.0,) * 2, (1.0, 1.0), 10, 3),
    "n4-s1,1": ((1.0,) * 4, (1.0, 1.0), 10, 11),
    "n3-d4": ((1.0,) * 3, (4.0, 3.0, 2.0, 1.0), 20, 1000),
}


@pytest.fixture(scope="module")
def closure_census():
    """The census of a CLOSURE_CASES or DEDUP_CASES entry, seeded from the
    orbit representatives or from every collinear record; each computed
    once.  run.inputs holds the arguments of each run's _closed call."""
    runs: dict = {}

    def run(case: str, every_record: bool = False) -> Census:
        key = case, every_record
        if key not in runs:
            masses, s, restarts, seed = {**CLOSURE_CASES, **DEDUP_CASES}[case]
            closed = solver._closed

            def capturing(*args):
                run.inputs[key] = args
                return closed(*args)

            with pytest.MonkeyPatch.context() as mp:
                if every_record:
                    mp.setattr(solver, "_representatives", lambda cat, m: list(range(len(cat.q))))
                mp.setattr(solver, "_closed", capturing)
                runs[key] = census(np.array(masses), Spectrum(s), restarts, seed)
        return runs[key]

    run.inputs = {}
    return run


def _stack(c: Census) -> np.ndarray:
    return np.array([sol.config.q for sol in c.solutions])


def _nearest(points: np.ndarray, catalogue: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Mass-norm distance from each point to its nearest catalogue entry."""
    diff = points[:, None] - catalogue[None]
    return np.sqrt(np.einsum("abij,i,abij->ab", diff, m, diff)).min(axis=1)


@pytest.mark.parametrize("case, count", [("n4-s1.5", 192), ("n4-s4.0", 240), ("n4-s5.0", 192)])
def test_census_is_closed_and_passes_morse_check(closure_census, case, count):
    c = closure_census(case)
    m = np.array(c.masses)
    assert len(c.solutions) == count
    qs = _stack(c)
    for images in core._images(qs, core.symmetry_group(m, 2)).swapaxes(0, 1):
        assert _nearest(images, qs, m).max() < solver.DEDUP_TOL
    counts: dict[int, int] = {}
    for sol in c.solutions:
        counts[sol.triple.index] = counts.get(sol.triple.index, 0) + 1
    assert morse_inequality_check(counts, 4, 2).ok
    for sol in c.solutions:
        assert sol.residual_norm < core.TOL_RES * potential(sol.config)


def test_census_closed_under_reflections_in_three_dimensions(closure_census):
    c = closure_census("n3-d3")
    m = np.array(c.masses)
    qs = _stack(c)
    for signs in core.symmetry_group(m, 3)[0]:
        assert _nearest(qs * signs, qs, m).max() < solver.DEDUP_TOL
    assert len(c.solutions) == 50


@pytest.mark.parametrize("case", sorted(CLOSURE_CASES))
def test_representative_seeding_finds_what_every_record_finds(closure_census, case):
    reps, full = closure_census(case), closure_census(case, every_record=True)
    assert reps.restarts + reps.extra_seeds < full.restarts + full.extra_seeds
    m = np.array(reps.masses)
    assert len(reps.solutions) == len(full.solutions)
    assert _nearest(_stack(reps), _stack(full), m).max() < solver.DEDUP_TOL
    assert _nearest(_stack(full), _stack(reps), m).max() < solver.DEDUP_TOL


@pytest.mark.parametrize("case", sorted(CLOSURE_CASES) + sorted(DEDUP_CASES))
def test_closure_keeps_what_the_catalogue_wide_rule_keeps(closure_census, case):
    """Checking only a find against the list, and its images against each
    other, keeps the points that checking the images against the list too
    kept, in the same order."""
    closure_census(case)
    args = closure_census.inputs[case, False]
    outcomes, c, group, _ = args
    reference = catalogue_wide_closure(outcomes, c.m, group, solver.DEDUP_TOL)
    finds, images = _kept_by_closed(args)
    assert finds == [k for k, _ in reference]
    assert np.array_equal(images, np.concatenate([imgs[1:] for _, imgs in reference]))
    assert len(images) > len(finds)


def test_closure_compares_no_image_with_the_catalogue(monkeypatch):
    """Every distance block of a census is one find against the list so far
    or one orbit's images against themselves."""
    near, calls = solver._near, []

    def spy(a, b, w):
        calls.append((a, b))
        return near(a, b, w)

    monkeypatch.setattr(solver, "_near", spy)
    c = census(np.ones(4), Spectrum((1.5, 1.0)), 8, 7)
    g = len(core.symmetry_group(np.ones(4), 2)[0])
    rows = [(a, b) for a, b in calls if a is not b]  # a find against the list
    blocks = [a for a, b in calls if a is b]
    assert all(a.shape == (1, 8) for a, _ in rows)
    assert all(a.shape == (g, 8) for a in blocks)
    listed = [len(b) for _, b in rows]
    assert listed == sorted(listed) and listed[-1] <= len(c.q)
    assert 0 < len(blocks) < len(rows)


def test_closed_census_order_is_deterministic_and_starts_with_the_first_find():
    m, spec = np.ones(3), Spectrum.planar(1.5)
    a = census(m, spec, 6, seed=4)
    b = census(m, spec, 6, seed=4)
    assert np.array_equal(_stack(a), _stack(b))
    assert [s.triple for s in a.solutions] == [s.triple for s in b.solutions]
    c = core._constants(m, spec.array)
    first = find_critical_point(solver._sample_start(np.random.default_rng(4 ^ 0), c), spec)
    assert isinstance(first, SBCSolution)
    assert np.array_equal(a.solutions[0].config.q, first.config.q)
    assert a.solutions[0].lam == first.lam


def test_an_image_over_the_gate_is_polished_and_counted(monkeypatch):
    """With no saddle seeds the closure's image evaluation is the one
    stacked _evaluate_x call in solver (solves evaluate one x at a time);
    its lane 0 is pushed over the gate."""
    spec = Spectrum.planar(1.5)
    monkeypatch.setattr(solver, "_saddle_seeds", lambda *args: [])
    reference = census(np.ones(3), spec, 4, seed=2)

    evaluate_x, solves = solver._evaluate_x, []
    find = solver.find_critical_point

    def spoiled(x, c):
        diff, r, pw, gx, u, lam, a, collided = evaluate_x(x, c)
        if x.ndim == 2:
            a = a.copy()
            a[0] += 1e-3
        return diff, r, pw, gx, u, lam, a, collided

    def counting(*args, **kwargs):
        solves.append(args[0])
        return find(*args, **kwargs)

    monkeypatch.setattr(solver, "_evaluate_x", spoiled)
    monkeypatch.setattr(solver, "find_critical_point", counting)
    c = census(np.ones(3), spec, 4, seed=2)
    assert c.extra_seeds == 1
    assert len(solves) == c.restarts + c.extra_seeds
    assert len(c.solutions) == len(reference.solutions)
    assert np.allclose(_stack(c), _stack(reference), atol=1e-9)
    for sol in c.solutions:
        assert sol.residual_norm < core.TOL_RES * potential(sol.config)


# ---------------------------------------------------------------------------
# helpers


def test_mass_norm_distance_basics():
    rng = np.random.default_rng(0)
    q = rng.standard_normal((3, 2))
    m = np.array([1.0, 2.0, 3.0])
    a = Configuration(q, m)
    assert mass_norm_distance(a, a) == 0.0
    b = Configuration(q + 0.1, m)  # uniform shift is re-centered away
    assert mass_norm_distance(a, b) < 1e-12
