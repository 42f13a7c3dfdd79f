"""Two-plane rotation lifts: Newton verification and periodicity."""

import math
from fractions import Fraction

import numpy as np
import pytest

from sbclab.collinear import moulton_solve
from sbclab.core import Configuration, Spectrum, inertia_indices, potential
from sbclab import equilibria
from sbclab.errors import NotPlanarError
from sbclab.equilibria import (
    RelativeEquilibriumOrbit,
    classify_periodicity,
    lift,
    newton_residual,
)
from sbclab.solver import Census, SBCSolution, census

from oracles import loop_newton_residual

M3 = np.ones(3)


@pytest.fixture(scope="module")
def census_s4() -> Census:
    return census(M3, Spectrum.planar(4.0), n_restarts=60, seed=5)


@pytest.fixture(scope="module")
def orbit_s4(census_s4) -> RelativeEquilibriumOrbit:
    return lift(census_s4.solutions[0])


def _fake_solution(config, spectrum) -> SBCSolution:
    """Assemble a solution record without the solver's convergence gate."""
    return SBCSolution(
        config=config,
        spectrum=spectrum,
        lam=potential(config),
        residual_norm=math.inf,
        triple=None,
        classification="synthetic",
        is_cc=False,
    )


# ---------------------------------------------------------------------------
# lift


def test_lift_frequencies_and_embedding(census_s4):
    for sol in census_s4.solutions:
        orb = lift(sol)
        w1, w2 = orb.omega
        assert w1 > w2 > 0
        assert w1 / w2 == pytest.approx(2.0, abs=1e-12)  # sqrt(4)
        assert w2 == pytest.approx(math.sqrt(orb.lam), abs=1e-15)
        q0 = orb.positions(0.0)
        assert np.array_equal(q0[:, [0, 2]], sol.config.q)
        assert np.allclose(q0[:, 1], 0.0)
        assert np.allclose(q0[:, 3], 0.0)


def test_lift_validates_spectrum_and_balance(census_s4):
    good = census_s4.solutions[0]
    rec = moulton_solve(M3, (1, 2, 3), 1, Spectrum((2.0, 1.0, 1.0)))
    spatial = _fake_solution(rec.config, Spectrum((2.0, 1.0, 1.0)))
    with pytest.raises(NotPlanarError):
        lift(spatial)

    q = good.config.q.copy()
    q[0, 0] += 0.1
    q -= q.mean(axis=0)
    crooked = _fake_solution(Configuration(q, M3), good.spectrum)
    with pytest.raises(ValueError):
        lift(crooked)

    wrong_weights = _fake_solution(good.config, Spectrum((4.0, 2.0)))
    with pytest.raises(ValueError):
        lift(wrong_weights)


def test_weight_ordering_blocks_sub_unit_s():
    # the weight tuple is nonincreasing by construction, so a planar (s, 1)
    # spectrum with s < 1 cannot even be built; the lift never sees one
    with pytest.raises(ValueError):
        Spectrum((0.5, 1.0))


# ---------------------------------------------------------------------------
# orbit kinematics


def _velocities(orbit, t, h=1e-4):
    """Central difference of the closed-form positions."""
    return (orbit.positions(t + h) - orbit.positions(t - h)) / (2 * h)


def test_accelerations_differentiate_positions(orbit_s4):
    h = 1e-4
    for t in (0.0, 0.37, 4.2):
        p = orbit_s4.positions
        a_fd = (p(t + h) - 2.0 * p(t) + p(t - h)) / h**2
        assert np.allclose(orbit_s4.accelerations(t), a_fd, atol=1e-6)


def test_conserved_quantities_along_orbit(orbit_s4):
    m = orbit_s4.masses
    w4 = np.array([orbit_s4.s, orbit_s4.s, 1.0, 1.0])
    u0 = i0 = None
    l1_0 = l2_0 = None
    for t in np.linspace(0.0, 20.0, 200):
        q = orbit_s4.positions(t)
        v = _velocities(orbit_s4, t)
        u = potential(Configuration(q, m))
        i_s = float(np.sum(m[:, None] * w4[None, :] * q * q))
        i_plain = float(np.sum(m[:, None] * q * q))
        l1 = float(np.sum(m * (q[:, 0] * v[:, 1] - q[:, 1] * v[:, 0])))
        l2 = float(np.sum(m * (q[:, 2] * v[:, 3] - q[:, 3] * v[:, 2])))
        if u0 is None:
            u0, i0, l1_0, l2_0 = u, (i_s, i_plain), l1, l2
            assert i_s == pytest.approx(1.0, abs=1e-12)
        assert u == pytest.approx(u0, rel=1e-10)
        assert i_s == pytest.approx(i0[0], abs=1e-10)
        assert i_plain == pytest.approx(i0[1], abs=1e-10)
        assert l1 == pytest.approx(l1_0, abs=1e-10)
        assert l2 == pytest.approx(l2_0, abs=1e-10)


# ---------------------------------------------------------------------------
# Newton residual


def test_residual_small_for_every_census_solution(census_s4):
    for sol in census_s4.solutions:
        assert newton_residual(lift(sol), np.linspace(0.0, 20.0, 200)) < 1e-8


def test_residual_accepts_explicit_times_and_shifts(orbit_s4):
    r0 = newton_residual(orbit_s4, np.linspace(0.0, 20.0, 300))
    r_shift = newton_residual(orbit_s4, np.linspace(5.0, 25.0, 300))
    assert r0 < 1e-8
    assert r_shift < 1e-8


def test_positions_and_accelerations_accept_time_arrays(orbit_s4):
    times = np.linspace(-3.0, 17.0, 41)
    q = orbit_s4.positions(times)
    a = orbit_s4.accelerations(times)
    assert q.shape == a.shape == (41, 3, 4)
    for k, t in enumerate(times):
        assert np.array_equal(q[k], orbit_s4.positions(float(t)))
        assert np.array_equal(a[k], orbit_s4.accelerations(float(t)))


def test_residual_blocks_match_per_sample_loop(orbit_s4):
    # 2500 samples span three evaluation blocks
    times = np.linspace(0.0, 20.0, 2500)
    ref = loop_newton_residual(orbit_s4, times)
    assert abs(newton_residual(orbit_s4, times) - ref) <= 1e-15
    explicit = np.random.default_rng(8).uniform(-10.0, 50.0, 1700)
    ref = loop_newton_residual(orbit_s4, explicit)
    assert abs(newton_residual(orbit_s4, explicit) - ref) <= 1e-15


def test_residual_makes_one_positions_call_per_block(orbit_s4, monkeypatch):
    """Each block's accelerations are its positions times _spin, bitwise
    accelerations(t) as the per-plane in-place products give it, so
    newton_residual makes one positions call per RESIDUAL_BLOCK samples."""
    times = np.linspace(0.0, 20.0, 2 * equilibria.RESIDUAL_BLOCK + 37)
    w1, w2 = orbit_s4.omega
    expected = orbit_s4.positions(times)
    expected[..., :2] *= -(w1**2)
    expected[..., 2:] *= -(w2**2)
    assert orbit_s4.accelerations(times).tobytes() == expected.tobytes()

    sizes = []
    positions = RelativeEquilibriumOrbit.positions

    def spy(self, t):
        sizes.append(np.size(t))
        return positions(self, t)

    monkeypatch.setattr(RelativeEquilibriumOrbit, "positions", spy)
    newton_residual(orbit_s4, times)
    assert sizes == [equilibria.RESIDUAL_BLOCK, equilibria.RESIDUAL_BLOCK, 37]


def test_residual_rejects_empty_time_set(orbit_s4):
    with pytest.raises(ValueError):
        newton_residual(orbit_s4, np.linspace(0.0, 20.0, 0))
    with pytest.raises(ValueError):
        newton_residual(orbit_s4, np.array([]))


def test_residual_rejects_a_sample_count(orbit_s4):
    # a scalar is not read as one sample at that time
    with pytest.raises(ValueError):
        newton_residual(orbit_s4, 200)


def test_residual_negative_control(census_s4):
    good = census_s4.solutions[0]
    worst_prev = newton_residual(lift(good), np.linspace(0.0, 20.0, 50))
    for eps in (1e-3, 1e-1):
        q = good.config.q.copy()
        q[0, 0] += eps
        q -= (M3 @ q / M3.sum())[None, :]
        fake = _fake_solution(Configuration(q, M3), good.spectrum)
        orb = RelativeEquilibriumOrbit(
            base=fake, s=4.0, lam=good.lam, omega=lift(good).omega
        )
        r = newton_residual(orb, np.linspace(0.0, 20.0, 50))
        assert r > worst_prev * 10
        worst_prev = r
    assert worst_prev > 0.01  # O(1) defect for an O(0.1) perturbation


def test_collinear_bases_rotate_in_a_single_plane(census_s4):
    collinear = [s for s in census_s4.solutions if s.classification.startswith("collinear")]
    on_fast = [s for s in collinear if np.max(np.abs(s.config.q[:, 1])) < 1e-10]
    on_slow = [s for s in collinear if np.max(np.abs(s.config.q[:, 0])) < 1e-10]
    # lines along the weighted axis spin at omega_1; lines along the unit
    # axis are plain collinear central configurations and spin at omega_2
    assert on_fast and on_slow
    for sol, dead in ((on_fast[0], slice(2, 4)), (on_slow[0], slice(0, 2))):
        orb = lift(sol)
        for t in (0.0, 1.3, 7.7):
            assert np.max(np.abs(orb.positions(t)[:, dead])) < 1e-14
        assert newton_residual(orb, np.linspace(0.0, 20.0, 100)) < 1e-8


def test_s_equal_one_recovers_single_frequency():
    # equilateral triangle: an exact central configuration for equal masses
    ang = np.array([0.0, 2 * math.pi / 3, 4 * math.pi / 3])
    q = np.column_stack((np.cos(ang), np.sin(ang)))
    q -= q.mean(axis=0)
    spec = Spectrum.identity(2)
    cfg = Configuration(q / math.sqrt(3.0), M3)
    base = SBCSolution(
        config=cfg,
        spectrum=spec,
        lam=potential(cfg),
        residual_norm=0.0,
        triple=inertia_indices(cfg, spec),
        classification="full-dimensional",
        is_cc=True,
    )
    orb = lift(base)
    assert orb.omega[0] == pytest.approx(orb.omega[1], abs=1e-15)
    assert newton_residual(orb, np.linspace(0.0, 20.0, 100)) < 1e-10
    rep = classify_periodicity(orb)
    assert rep.kind == "periodic"
    assert rep.best_fraction == Fraction(1, 1)
    assert rep.closure < 1e-12


# ---------------------------------------------------------------------------
# periodicity


def test_s4_periodic_with_slow_plane_period(orbit_s4):
    rep = classify_periodicity(orbit_s4)
    assert rep.kind == "periodic"
    assert rep.best_fraction == Fraction(2, 1)
    assert rep.period == pytest.approx(2 * math.pi / orbit_s4.omega[1], rel=1e-15)
    assert rep.closure < 1e-6


def test_s_nine_quarters_gives_three_halves():
    c = census(M3, Spectrum.planar(2.25), n_restarts=0, seed=2)
    orb = lift(c.solutions[0])
    rep = classify_periodicity(orb)
    assert rep.kind == "periodic"
    assert rep.best_fraction == Fraction(3, 2)
    assert rep.period == pytest.approx(4 * math.pi / orb.omega[1], rel=1e-14)
    assert rep.closure < 1e-6


def test_s2_quasi_periodic_from_sqrt2():
    c = census(M3, Spectrum.planar(2.0), n_restarts=0, seed=2)
    orb = lift(c.solutions[0])
    rep = classify_periodicity(orb)
    assert rep.kind == "quasi_periodic"
    assert rep.period is None and rep.closure is None
    # best sqrt(2) convergent under the denominator cap, and its gap is
    # comfortably above the rationality tolerance
    assert rep.best_fraction == Fraction(665857, 470832)
    assert 1e-13 < rep.mismatch < 1e-11


def test_isosceles_family_quasi_periodic():
    c = census(M3, Spectrum.planar(1.5), n_restarts=0, seed=1)
    noncol = [s for s in c.solutions if not s.classification.startswith("collinear")]
    assert noncol
    rep = classify_periodicity(lift(noncol[0]))
    assert rep.kind == "quasi_periodic"


def test_rational_tol_widening_flips_classification(monkeypatch):
    c = census(M3, Spectrum.planar(2.0), n_restarts=0, seed=2)
    orb = lift(c.solutions[0])
    monkeypatch.setattr(equilibria, "RATIONAL_TOL", 1e-9)
    rep = classify_periodicity(orb)
    assert rep.kind == "periodic"  # sqrt(2) convergent accepted under a loose tol
    assert rep.closure < 1e-3  # and the orbit nearly closes after 470832 turns
