"""Unit tests for the geometry / residual / second-variation layer."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbclab import core, solver
from sbclab.collinear import degeneracy_thresholds, enumerate_csbc, moulton_solve
from sbclab.core import (
    Configuration,
    Spectrum,
    _complement,
    _constants,
    _critical_models,
    _evaluate_x,
    _frame_of,
    _gradient_of,
    _images,
    _inertia_s,
    _normalize_q,
    _pairs,
    _potential_of,
    _residual_norm,
    _restricted_hessian_any,
    gradient,
    hessian,
    inertia_indices,
    normalize,
    potential,
    sbc_residual,
    symmetry_group,
    tangent_basis,
)
from sbclab.equilibria import lift
from sbclab.errors import CollisionError, NotCriticalError

from oracles import (
    ambient_balance_hessian,
    fd_gradient,
    fd_hessian,
    gram_schmidt_tangent_basis,
    loop_hessian,
    moment_of_inertia,
    random_configuration,
    sum_potential_of,
    symmetric_euler_positions,
    weight_vector,
)


def equilateral(masses=(1.0, 1.0, 1.0)) -> Configuration:
    q = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    return Configuration(q, np.array(masses, dtype=float))


def euler_on_axis(axis: int, d: int, scale: float = 1.0) -> Configuration:
    """Equal-mass collinear central configuration placed on a coordinate axis."""
    x = symmetric_euler_positions() * scale
    q = np.zeros((3, d))
    q[:, axis] = x
    return Configuration(q, np.ones(3))


# ---------------------------------------------------------------------------
# construction and validation


def test_configuration_recenters_mass_centre():
    q = np.array([[1.0, 2.0], [3.0, -1.0], [0.0, 0.5]])
    m = np.array([1.0, 2.0, 3.0])
    cfg = Configuration(q, m)
    com = m @ cfg.q / m.sum()
    assert np.linalg.norm(com) < 1e-12 * cfg.scale


@pytest.mark.parametrize(
    "q,m",
    [
        (np.zeros((1, 2)), np.ones(1)),
        (np.zeros((3, 2, 1)), np.ones(3)),
        (np.zeros((2, 2)), np.array([1.0, -1.0])),
        (np.zeros((2, 2)), np.ones(3)),
        (np.array([[np.nan, 0.0], [1.0, 0.0]]), np.ones(2)),
    ],
)
def test_configuration_rejects_bad_input(q, m):
    with pytest.raises(ValueError):
        Configuration(q, m)


def test_every_entry_point_taking_masses_refuses_bad_ones():
    """census, enumerate_csbc, moulton_solve, degeneracy_thresholds and
    Configuration all check masses through core.mass_vector, so a zero,
    negative, NaN or infinite mass, or a single body, is refused before any
    sampling or solve. The message is matched because numpy's LinAlgError is
    a ValueError too; a NaN mass or a single body used to hang census in its
    start sampler."""
    spec = Spectrum((1.5, 1.0))
    entry_points = (
        lambda m: solver.census(m, spec, 2, 0),
        lambda m: enumerate_csbc(m, spec),
        lambda m: moulton_solve(m, (1, 2, 3), 1, spec),
        degeneracy_thresholds,
        lambda m: Configuration(np.eye(3, 2), m),
    )
    lo, hi = core.MASS_RANGE
    for bad in (0.0, -1.0, math.nan, math.inf,
                np.nextafter(lo, 0.0), np.nextafter(hi, math.inf), 1e300):
        for call in entry_points:
            with pytest.raises(ValueError, match="finite positive"):
                call(np.array([1.0, bad, 1.0]))
    for call in entry_points[:2]:
        with pytest.raises(ValueError, match="two or more"):
            call(np.ones(1))


@pytest.mark.parametrize("s", [(1.5, 1.0), (3.0, 2.0, 1.0)])
def test_masses_at_the_ends_of_their_range_run_without_warnings(s):
    """Masses at either end of core.MASS_RANGE, alone or mixed, give a
    census with solutions and no floating-point warning, with warnings
    raised as errors (masses of 1e300 overflowed in m_i m_j and in the
    collinear gap system before the range was checked)."""
    lo, hi = core.MASS_RANGE
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in ([lo, hi, lo], [hi, lo, hi], [lo] * 3, [hi] * 3):
            result = solver.census(np.array(m), Spectrum(s), 3, 0)
            assert len(result.q) > 0 and result.failures == {"collision": 0, "max_iter": 0, "stalled": 0}


def test_spectrum_validation():
    Spectrum((2.0, 1.0))
    Spectrum((1.0, 1.0))
    with pytest.raises(ValueError):
        Spectrum((1.0, 2.0))
    with pytest.raises(ValueError):
        Spectrum((2.0, -1.0))
    assert Spectrum.planar(2.0).s == (2.0, 1.0)
    assert Spectrum.identity(3).s == (1.0, 1.0, 1.0)


def test_collision_guard():
    q = np.array([[0.0, 0.0], [1e-10, 0.0], [1.0, 1.0]])
    with pytest.raises(CollisionError):
        sbc_residual(Configuration(q, np.ones(3)), Spectrum.identity(2))
    with pytest.raises(CollisionError):
        potential(Configuration(q, np.ones(3)))


def test_every_evaluating_wrapper_raises_the_collision_guard():
    """potential, gradient, hessian, sbc_residual, inertia_indices and
    equilibria.lift raise the guard's CollisionError with all bodies at the
    origin and at a near collision; tangent_basis and normalize, which
    evaluate no potential, refuse q = 0 with their ValueError and accept
    the near collision (sbc_residual, inertia_indices and lift raised a bare
    ZeroDivisionError at q = 0)."""
    spec = Spectrum.planar(1.5)
    evaluating = (potential, gradient, hessian,
                  lambda cfg: sbc_residual(cfg, spec),
                  lambda cfg: inertia_indices(cfg, spec),
                  lambda cfg: lift(solver.SBCSolution(cfg, spec, 1.0, 0.0, (0, 0, 3), "", False)))
    near = np.array([[0.0, 0.0], [1e-10, 0.0], [1.0, 1.0]])
    for q, message in ((np.zeros((3, 2)), "all bodies coincide at the origin"),
                       (near, "minimum separation 1.000e-10")):
        cfg = Configuration(q, np.ones(3))
        for wrapper in evaluating:
            with pytest.raises(CollisionError, match=message):
                wrapper(cfg)
    zero = Configuration(np.zeros((3, 2)), np.ones(3))
    with pytest.raises(ValueError, match="constraints are dependent"):
        tangent_basis(zero, spec)
    with pytest.raises(ValueError, match="I_S = 0"):
        normalize(zero, spec)
    close = Configuration(near, np.ones(3))
    assert tangent_basis(close, spec).shape == (6, 3)
    assert normalize(close, spec).q.shape == (3, 2)


# ---------------------------------------------------------------------------
# potential / gradient / hessian values and identities


def test_potential_two_bodies():
    cfg = Configuration(np.array([[-1.0, 0.0], [1.0, 0.0]]), np.ones(2))
    assert potential(cfg) == pytest.approx(0.5, rel=1e-15)


def test_potential_equilateral():
    assert potential(equilateral()) == pytest.approx(3.0, rel=1e-14)


def test_potential_symmetric_euler():
    cfg = euler_on_axis(0, 2)
    a = 1.0 / math.sqrt(2.0)
    assert potential(cfg) == pytest.approx(5.0 / (2.0 * a), rel=1e-14)


def test_potential_homogeneity():
    rng = np.random.default_rng(11)
    cfg = random_configuration(rng, 4, 3)
    c = 1.7
    scaled = Configuration(c * cfg.q, cfg.masses)
    assert potential(scaled) == pytest.approx(potential(cfg) / c, rel=1e-13)
    assert np.allclose(gradient(scaled), gradient(cfg) / c**2, rtol=1e-12)


def test_euler_identity():
    rng = np.random.default_rng(7)
    for _ in range(5):
        cfg = random_configuration(rng, 4, 2)
        lhs = float(np.sum(gradient(cfg) * cfg.q))
        assert lhs == pytest.approx(-potential(cfg), rel=1e-12)


# masses at both ends of core.MASS_RANGE and between: the frame's W K has
# entries sqrt(m_i s_k) over ten decades
MASS_ENDS = (1e-5, 1.0, 1e5)


@pytest.mark.parametrize("n,d,masses", [
    pytest.param(3, 2, None, id="3-2"),
    pytest.param(4, 2, None, id="4-2"),
    pytest.param(3, 3, None, id="3-3"),
    pytest.param(3, 3, MASS_ENDS, id="3-3-mass-ends"),
])
def test_gradient_matches_finite_differences(n, d, masses):
    rng = np.random.default_rng(100 * n + d)
    for _ in range(5):
        cfg = random_configuration(rng, n, d, masses=masses and np.array(masses))
        g = gradient(cfg)
        ref = fd_gradient(cfg)
        assert np.linalg.norm(g - ref) <= 1e-6 * np.linalg.norm(ref)


@pytest.mark.parametrize("n,d", [(3, 2), (4, 2), (3, 3)])
def test_hessian_matches_finite_differences(n, d):
    rng = np.random.default_rng(200 * n + d)
    for _ in range(5):
        cfg = random_configuration(rng, n, d)
        H = hessian(cfg)
        ref = fd_hessian(cfg)
        assert np.linalg.norm(H - ref) <= 1e-6 * np.linalg.norm(ref)


def test_hessian_symmetry_and_translation_rows():
    rng = np.random.default_rng(3)
    cfg = random_configuration(rng, 4, 3)
    H = hessian(cfg)
    assert np.allclose(H, H.T, atol=1e-12 * np.linalg.norm(H))
    # a uniform translation of all bodies is in the kernel
    n, d = cfg.n, cfg.d
    for k in range(d):
        t = np.zeros((n, d))
        t[:, k] = 1.0
        assert np.linalg.norm(H @ t.ravel()) < 1e-10 * np.linalg.norm(H)


@pytest.mark.parametrize("n,d,masses", [
    pytest.param(n, d, None, id=f"{n}-{d}") for n in range(2, 7) for d in range(1, 5)
] + [pytest.param(3, 3, MASS_ENDS, id="3-3-mass-ends")])
def test_hessian_matches_pairwise_loop(n, d, masses):
    rng = np.random.default_rng(300 * n + d)
    for _ in range(3):
        cfg = random_configuration(rng, n, d, masses=masses and np.array(masses))
        H = hessian(cfg)
        ref = loop_hessian(cfg)
        assert np.linalg.norm(H - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.array_equal(H, H.T)


def test_pairs_convention():
    q = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
    diff, r = _pairs(q)
    assert np.array_equal(diff[0, 1], [3.0, 4.0])
    assert np.array_equal(diff[1, 0], [-3.0, -4.0])
    assert r[0, 1] == 5.0 and r[0, 2] == 1.0
    assert np.all(np.diag(r) == np.inf)


@pytest.mark.parametrize("n,d", [(2, 1), (3, 2), (5, 2), (5, 3), (6, 4)])
def test_pairs_batch_matches_each_slice_bitwise(n, d):
    """The stacked pair kernel, potential and gradient give each slice's
    own values bit for bit, and those of the public potential and gradient
    (one frame pass) within 1e-13 (unequal masses)."""
    rng = np.random.default_rng(40 * n + d)
    m = 1.0 + rng.random(n)
    configs = [Configuration(rng.standard_normal((n, d)), m) for _ in range(6)]
    q = np.array([cfg.q for cfg in configs]).reshape(2, 3, n, d)
    mm = np.outer(m, m)
    diff, r = _pairs(q)
    assert diff.shape == (2, 3, n, n, d) and r.shape == (2, 3, n, n)
    u = _potential_of(mm, r)
    g = _gradient_of(mm, diff, r)
    for a in range(2):
        for b in range(3):
            cfg = configs[3 * a + b]
            d1, r1 = _pairs(q[a, b])
            assert np.array_equal(diff[a, b], d1)
            assert np.array_equal(r[a, b], r1)
            assert np.all(np.diag(r[a, b]) == np.inf)
            g1 = _gradient_of(mm, d1, r1)
            assert np.array_equal(g[a, b], g1)
            assert u[a, b] == _potential_of(mm, r1)
            assert np.allclose(g1, gradient(cfg), rtol=0.0, atol=1e-13 * np.abs(g1).max())
            assert u[a, b] == pytest.approx(potential(cfg), rel=1e-13)


@pytest.mark.parametrize("n", range(2, 8))
def test_potential_of_bits_do_not_depend_on_the_stack(n):
    rng = np.random.default_rng(70 + n)
    m = 1.0 + 2.0 * rng.random(n)
    r = _pairs(rng.standard_normal((240, n, 3)))[1]
    each = np.array([_potential_of(np.outer(m, m), r[b]) for b in range(240)])
    for size in (1, 7, 240):
        stacked = [_potential_of(np.outer(m, m), r[a : a + size]) for a in range(0, 240, size)]
        assert np.array_equal(np.concatenate(stacked), each)
    if n <= 4:  # at most six pairs: the old .sum formula has the same bits
        assert np.array_equal(each, [sum_potential_of(m, r[b]) for b in range(240)])
        assert np.array_equal(sum_potential_of(m, r), each)


def test_gradient_equivariance():
    rng = np.random.default_rng(4)
    cfg = random_configuration(rng, 4, 2)
    g = gradient(cfg)
    # permuting bodies permutes gradient rows
    perm = np.array([2, 0, 3, 1])
    cfg_p = Configuration(cfg.q[perm], cfg.masses[perm])
    assert np.allclose(gradient(cfg_p), g[perm], rtol=1e-13)
    # reflecting an axis flips the corresponding gradient column
    refl = cfg.q.copy()
    refl[:, 1] *= -1.0
    g_r = gradient(Configuration(refl, cfg.masses))
    assert np.allclose(g_r[:, 0], g[:, 0], rtol=1e-13)
    assert np.allclose(g_r[:, 1], -g[:, 1], rtol=1e-13)


def test_collinear_hessian_block_structure():
    # on-axis pairs contribute (m_i m_j / r^3) diag(-2, 1, ..., 1)
    cfg = Configuration(np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), np.ones(2))
    H = hessian(cfg)
    r3 = 8.0
    expected = np.diag([-2.0, 1.0, 1.0]) / r3
    assert np.allclose(H[:3, 3:], expected, atol=1e-15)


# ---------------------------------------------------------------------------
# inertia, residual, normalization


def test_moments_of_inertia():
    cfg = euler_on_axis(0, 2)
    assert moment_of_inertia(cfg) == pytest.approx(1.0, rel=1e-14)
    s = np.array([3.0, 1.0])
    assert _inertia_s(cfg.q, weight_vector(cfg, Spectrum(s))) == pytest.approx(3.0, rel=1e-14)
    on_e2 = euler_on_axis(1, 2)
    assert _inertia_s(on_e2.q, weight_vector(on_e2, Spectrum(s))) == pytest.approx(1.0, rel=1e-14)


def test_weight_vector_layout():
    """The kernels' weight vector is the flattened diagonal of S x M, and W
    its (n, d) layout; the frame K is weighted-orthonormal, K^T diag(w) K =
    I, and translation-free, every column's mass sum zero on every axis."""
    c = _constants(np.array([2.0, 5.0]), Spectrum((4.0, 3.0, 1.0)).array)
    assert np.array_equal(c.w, [8.0, 6.0, 2.0, 20.0, 15.0, 5.0])
    assert np.array_equal(c.W, [[8.0, 6.0, 2.0], [20.0, 15.0, 5.0]])
    rng = np.random.default_rng(24)
    for n, d in [(2, 3), (2, 1), (3, 2), (5, 4), (7, 3)]:
        m = 10.0 ** rng.uniform(-3, 3, n)
        s = np.sort(1.0 + 3.0 * rng.random(d))[::-1]
        c = _constants(m, s)
        assert c.K.shape == (n * d, (n - 1) * d)
        assert np.allclose(c.K.T @ (c.w[:, None] * c.K), np.eye((n - 1) * d), rtol=0.0, atol=1e-14)
        mass_sums = np.einsum("i,ikc->kc", m, c.K.reshape(n, d, -1))
        assert np.max(np.abs(mass_sums)) < 1e-14 * np.max(np.abs(m[:, None] * c.K.reshape(n, -1)))


def test_constants_are_built_once_per_masses_and_weights_and_read_only():
    """Equal (m, s) give the very same _Constants, whatever arrays hold
    them; its arrays are read-only and alias none of the caller's."""
    m, s = np.array([1.0, 2.0, 3.0]), np.array([4.0, 3.0, 1.0])
    c = _constants(m, s)
    assert _constants(m.copy(), np.array([4.0, 3.0, 1.0])) is c
    assert _constants(m, s[:2]) is not c
    m[0] = s[0] = 9.0  # the caller's arrays stay the caller's
    assert c.m[0] == 1.0 and c.s[0] == 4.0
    arrays = [a for a in c if isinstance(a, np.ndarray)]
    assert len(arrays) == len(c) - 1  # every field but m_sum
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 0.0


def test_residual_vanishes_at_equilateral_for_identity_weights():
    for masses in [(1.0, 1.0, 1.0), (1.0, 2.0, 3.0)]:
        cfg = normalize(equilateral(masses), Spectrum.identity(2))
        G, lam = sbc_residual(cfg, Spectrum.identity(2))
        u = potential(cfg)
        assert np.linalg.norm(G) < 1e-13 * u
        assert lam == pytest.approx(u, rel=1e-12)


def test_residual_vanishes_for_rescaled_collinear_family():
    # a collinear central configuration on axis j, shrunk by 1/sqrt(s_j),
    # balances the weighted equation exactly
    s1 = 2.0
    spec = Spectrum((s1, 1.0))
    on_e1 = euler_on_axis(0, 2, scale=1.0 / math.sqrt(s1))
    assert np.linalg.norm(sbc_residual(on_e1, spec)[0]) < 1e-13 * potential(on_e1)
    assert _inertia_s(on_e1.q, weight_vector(on_e1, spec)) == pytest.approx(1.0, rel=1e-13)
    on_e2 = euler_on_axis(1, 2)
    assert np.linalg.norm(sbc_residual(on_e2, spec)[0]) < 1e-13 * potential(on_e2)


def test_normalize_puts_config_on_weighted_sphere():
    rng = np.random.default_rng(5)
    cfg = random_configuration(rng, 3, 2)
    spec = Spectrum((2.5, 1.0))
    out = normalize(cfg, spec)
    assert _inertia_s(out.q, weight_vector(out, spec)) == pytest.approx(1.0, rel=1e-14)


def test_normalize_matches_the_raw_array_path_bitwise():
    """normalize tests the centre of mass once (in Configuration), where
    _normalize_q, which the solver starts from, tests it before and after
    the rescaling; on a constructed configuration both give the same bits."""
    rng = np.random.default_rng(21)
    for k in range(600):
        n, d = 2 + k % 5, 1 + k % 3
        q = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3)
        if k % 4 == 0:
            q[:, 1:] = 0.0  # collinear on the first axis
        cfg = Configuration(q + rng.standard_normal(d), 0.5 + 2.0 * rng.random(n))
        spec = Spectrum(tuple(sorted(1.0 + 2.0 * rng.random(d), reverse=True)))
        raw, bad = _normalize_q(cfg.q, _constants(cfg.masses, spec.array))
        assert not bad
        assert np.array_equal(normalize(cfg, spec).q, raw)
    with pytest.raises(ValueError, match="I_S = 0"):
        normalize(Configuration(np.zeros((3, 2)), np.ones(3)), Spectrum.identity(2))


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(st.integers(2, 5), st.integers(1, 4)).flatmap(lambda nd: st.tuples(
        st.lists(st.floats(1e-3, 1e3), min_size=nd[0], max_size=nd[0]),
        st.lists(st.floats(0.25, 4.0), min_size=nd[1], max_size=nd[1]),
        st.integers(1, 9),
        st.integers(0, 2**32 - 1),
    ))
)
def test_inertia_s_lanes_equal_the_one_point_call(case):
    """I_S of a (K, n, d) stack is, lane by lane, bitwise I_S of that lane
    alone, a Python float, for n = 2..5 and d = 1..4."""
    masses, s, lanes, seed = case
    c = _constants(np.array(masses), np.array(sorted(s, reverse=True)))
    q = np.random.default_rng(seed).standard_normal((lanes, len(masses), len(s)))
    stacked = _inertia_s(q, c.w)
    assert stacked.shape == (lanes,)
    for k in range(lanes):
        one = _inertia_s(q[k], c.w)
        assert type(one) is float and one == stacked[k]


def test_normalize_q_lanes_equal_the_one_point_path():
    """_normalize_q is one expression for a point and a stack: each lane of
    a stack is bitwise its own call, off-centre lanes included, and bad
    marks a NaN, all bodies at the origin and an I_S that overflows, in
    either form."""
    rng = np.random.default_rng(23)
    c = _constants(np.array([0.5, 1.0, 2.0, 3.0]), np.array([2.0, 1.5, 1.0]))
    q = rng.standard_normal((6, 4, 3))
    q[1, 2, 0] = np.nan
    q[2] = 0.0
    q[3] *= 1e160
    q[4] += 1e3 * rng.standard_normal(3)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scaled, bad = _normalize_q(q, c)
        lanes = [_normalize_q(lane, c) for lane in q]
    assert bad.tolist() == [False, True, True, True, False, False]
    for k, (one, one_bad) in enumerate(lanes):
        assert not one_bad.shape and one_bad == bad[k]
        if not one_bad:
            assert np.array_equal(one, scaled[k])
            assert _inertia_s(one, c.w) == pytest.approx(1.0, rel=1e-14)


# ---------------------------------------------------------------------------
# tangent basis and restricted second variation


def _collinear_point(masses, spec: Spectrum, axis: int) -> Configuration:
    """One enumerate_csbc record: the collinear balanced point of the
    reversed ordering on a coordinate axis, where the canonical vectors
    along that axis are dependent on the constraints."""
    ordering = tuple(range(len(masses), 0, -1))
    return moulton_solve(masses, ordering, axis, spec).config


@pytest.mark.parametrize(
    "n,d,collinear",
    [
        pytest.param(3, 2, False, id="3-2"),
        pytest.param(4, 2, False, id="4-2"),
        pytest.param(3, 3, False, id="3-3"),
        pytest.param(5, 3, False, id="5-3"),
        pytest.param(4, 3, True, id="collinear-4-3"),
    ],
)
def test_tangent_basis_properties(n, d, collinear):
    rng = np.random.default_rng(10 * n + d)
    cfg = random_configuration(rng, n, d)
    spec = Spectrum(tuple(sorted(1.0 + rng.random(d), reverse=True)))
    if collinear:
        cfg = _collinear_point(cfg.masses, spec, axis=2)
    V = tangent_basis(cfg, spec)
    k = d * (n - 1) - 1
    assert V.shape == (n * d, k)
    w = weight_vector(cfg, spec)
    gram = V.T @ (w[:, None] * V)
    assert np.allclose(gram, np.eye(k), atol=1e-10)
    cols = V.T.reshape(k, n, d)
    # translation-free and tangent to the weighted sphere
    assert np.max(np.abs(np.einsum("i,cik->ck", cfg.masses, cols))) < 1e-10
    radial = (w * cfg.q.ravel()) @ V
    assert np.max(np.abs(radial)) < 1e-10


def _weighted_point(rng, n: int, d: int):
    """Random point on the I_S = 1 sphere, unequal masses, random weights."""
    cfg = random_configuration(rng, n, d, masses=0.5 + 2.0 * rng.random(n))
    spec = Spectrum(tuple(sorted(1.0 + 2.0 * rng.random(d), reverse=True)))
    return normalize(cfg, spec), spec


def _model(cfg, spec):
    """_restricted_hessian_any at cfg's frame coordinates from their own
    frame pair pass: (A, V, y) with V = K P."""
    c = _constants(cfg.masses, spec.array)
    x = _frame_of(cfg.q, c)
    diff, r, pw, gx, _, lam, _, _ = _evaluate_x(x, c)
    A, P, y = _restricted_hessian_any(x, c, diff, r, pw, gx, lam)
    return A, c.K @ P, y


def _one_model(cfg, spec):
    """_critical_models at the single point cfg: (U, lam, |G|, A, P, x)."""
    return _critical_models(cfg.q, _constants(cfg.masses, spec.array))


def _assert_same_tangent_space(cfg, spec):
    """Householder basis against the Gram-Schmidt oracle: the same weighted
    projector V V^T diag(w), and the same restricted-Hessian spectrum."""
    V = tangent_basis(cfg, spec)
    ref = gram_schmidt_tangent_basis(cfg, spec)
    assert V.shape == ref.shape
    w = weight_vector(cfg, spec)
    assert np.allclose((V @ V.T) * w, (ref @ ref.T) * w, rtol=0.0, atol=1e-12)
    A, V_used, _ = _model(cfg, spec)
    assert np.array_equal(V_used, V)
    H = ambient_balance_hessian(cfg, spec)
    ev = np.linalg.eigvalsh(A)
    ev_ref = np.linalg.eigvalsh(ref.T @ H @ ref)
    assert np.allclose(ev, ev_ref, rtol=0.0, atol=1e-10 * potential(cfg))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_tangent_basis_matches_gram_schmidt(n, d):
    rng = np.random.default_rng(2000 + 10 * n + d)
    cfg, spec = _weighted_point(rng, n, d)
    _assert_same_tangent_space(cfg, spec)
    _assert_same_tangent_space(_collinear_point(cfg.masses, spec, axis=d), spec)
    zero = Configuration(np.zeros((n, d)), cfg.masses)
    for basis in (tangent_basis, gram_schmidt_tangent_basis):
        with pytest.raises(ValueError, match="constraints are dependent"):
            basis(zero, spec)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_residual_merit_equals_reduced_gradient_norm(n, d):
    """The frame merit |a|^2, a = K^T G from the frame pair pass, equals
    G^T W^-1 G of sbc_residual's G, and both equal |y|^2 = |V^T grad U|^2,
    within 1e-12."""
    rng = np.random.default_rng(1000 + 10 * n + d)
    for _ in range(5):
        cfg, spec = _weighted_point(rng, n, d)
        G, _ = sbc_residual(cfg, spec)
        _, _, y = _model(cfg, spec)
        reduced = float(y @ y)
        assert reduced > 1e-6 * potential(cfg) ** 2  # not a critical point
        merit = float(G.ravel() @ (G.ravel() / weight_vector(cfg, spec)))
        assert merit == pytest.approx(reduced, rel=1e-12)
        c = _constants(cfg.masses, spec.array)
        a = _evaluate_x(_frame_of(cfg.q, c), c)[6]
        assert float(a @ a) == pytest.approx(merit, rel=1e-12)


def test_sbc_residual_matches_separate_evaluations_bitwise():
    """sbc_residual is the frame pass at x = _frame_of(q), bit for bit:
    its lam = U / |x|^2 and G = W K a; and lam is potential / I_S and G is
    grad U + lam (S x M) q of the public potential and gradient within
    1e-14 and 1e-13."""
    rng = np.random.default_rng(12)
    for n, d in [(3, 2), (4, 3), (5, 1), (5, 2)]:
        cfg, spec = _weighted_point(rng, n, d)
        G, lam = sbc_residual(cfg, spec)
        c = _constants(cfg.masses, spec.array)
        x = _frame_of(cfg.q, c)
        *_, lam_x, a, _ = _evaluate_x(x, c)
        assert lam == lam_x
        assert np.array_equal(G, (c.w * (c.K @ a)).reshape(n, d))
        ref_lam = potential(cfg) / _inertia_s(cfg.q, weight_vector(cfg, spec))
        assert lam == pytest.approx(ref_lam, rel=1e-14)
        ref = gradient(cfg) + ref_lam * c.W * cfg.q
        assert np.allclose(G, ref, rtol=0.0, atol=1e-13 * np.abs(ref).max())


def test_restricted_hessian_any_is_the_projected_ambient_form():
    """The frame model (A, P, y) from x's own frame pair pass equals
    V^T hessian V, symmetrized, plus lam I, and V^T grad U, with V = K P and
    hessian, gradient and lam from the public functions at q = K x, within
    1e-12 relative, for n = 2..5 and d = 1..4 with unequal masses (n = 2,
    d = 1 included, where the tangent space is empty) and for n = 6, d = 2;
    V is weighted-orthonormal, so lam I is lam V^T diag(w) V, and the model
    at a collinear root is the criticality-gated _critical_models one, bit
    for bit."""
    for n, d in [(n, d) for n in range(2, 6) for d in range(1, 5)] + [(6, 2)]:
        _assert_frame_model_is_the_projected_form(np.random.default_rng(13 + 10 * n + d), n, d)


def _assert_frame_model_is_the_projected_form(rng, n: int, d: int) -> None:
    for _ in range(3):
        cfg, spec = _weighted_point(rng, n, d)
        c = _constants(cfg.masses, spec.array)
        x = _frame_of(cfg.q, c)
        diff, r, pw, gx, u, lam, a, _ = _evaluate_x(x, c)
        A, P, y = _restricted_hessian_any(x, c, diff, r, pw, gx, lam)
        k = d * (n - 1) - 1
        assert A.shape == (k, k) and P.shape == (k + 1, k) and y.shape == (k,)
        at = Configuration((c.K @ x).reshape(n, d), cfg.masses)
        V = c.K @ P
        assert np.allclose(V.T @ (c.w[:, None] * V), np.eye(k), rtol=0.0, atol=1e-13)
        B = V.T @ hessian(at) @ V
        _, lam_q = sbc_residual(at, spec)
        assert lam == pytest.approx(lam_q, rel=1e-14) and u == pytest.approx(potential(at), rel=1e-14)
        ref = 0.5 * (B + B.T) + lam_q * np.eye(k)
        scale = max(np.abs(ref).max(initial=0.0), lam)
        assert np.allclose(A, ref, rtol=0.0, atol=1e-12 * scale)
        ref_y = V.T @ gradient(at).ravel()
        assert np.allclose(y, ref_y, rtol=0.0, atol=1e-12 * np.abs(gradient(at)).max())
        ambient = V.T @ ambient_balance_hessian(at, spec) @ V
        assert np.allclose(A, 0.5 * (ambient + ambient.T), rtol=0.0, atol=1e-12 * scale)
    # the criticality-gated form is the same model at a root
    line = _collinear_point(cfg.masses, spec, axis=d)
    assert np.array_equal(_one_model(line, spec)[3], _model(line, spec)[0])


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(st.integers(2, 6), st.integers(1, 4)).flatmap(lambda nd: st.tuples(
        st.lists(st.floats(1e-3, 1e3), min_size=nd[0], max_size=nd[0]),
        st.lists(st.floats(0.25, 4.0), min_size=nd[1], max_size=nd[1]),
        st.integers(0, 2**32 - 1),
        st.floats(1e-6, 1e6),
    ))
)
def test_every_frame_point_is_centred(case):
    """For any frame coordinates x, q = K x has its centre of mass at
    rounding level, within 1e-15 of the coordinate scale, and passes
    Configuration's test (TOL_COM = 1e-12) untouched, for masses over six
    decades.  So do the points the saddle seeding visits: a push of unit x
    along its tangent complement, x + P z with |z| up to 1e6, divided by its
    norm, and the ends of the descent walks (solver._descend) from both.
    Neither the solve nor the seeding needs to centre a point."""
    masses, s, seed, size = case
    m, s = np.array(masses), np.array(sorted(s, reverse=True))
    n, d = len(m), len(s)
    c = _constants(m, s)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(c.K.shape[1])
    unit = x / math.sqrt(x @ x)
    pushed = unit + _complement(unit) @ (size * rng.uniform(-1.0, 1.0, len(x) - 1))
    pushed /= math.sqrt(pushed @ pushed)
    for point in (x, unit, pushed, *solver._descend(np.array([unit, pushed]), c)):
        q = (c.K @ point).reshape(n, d)
        assert np.abs(m @ q / m.sum()).max() <= 1e-15 * np.abs(q).max()
        assert core._recentre(q, m, c.m_sum) is q


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_tangent_basis_lanes_equal_their_own_call(n, d):
    """A (K, n, d) stack of points gives, lane by lane, the frame
    coordinates and the Householder complement of the lane's own call, bit
    for bit, for 1, 7 and 64 lanes, collinear lanes included."""
    rng = np.random.default_rng(4000 + 10 * n + d)
    s = np.array(sorted(1.0 + 2.0 * rng.random(d), reverse=True))
    c = _constants(0.5 + 2.0 * rng.random(n), s)
    for lanes in (1, 7, 64):
        q = rng.standard_normal((lanes, n, d))
        q[::3, :, 1:] = 0.0
        q, bad = _normalize_q(q, c)
        assert not bad.any()
        x = _frame_of(q, c)
        P = _complement(x)
        assert P.shape == (lanes, d * (n - 1), d * (n - 1) - 1)
        for k in range(lanes):
            assert np.array_equal(x[k], _frame_of(q[k], c))
            assert np.array_equal(P[k], _complement(x[k]))


@pytest.mark.parametrize("n,d", [(2, 1), (2, 3), (3, 2), (5, 4)])
def test_tangent_basis_of_a_translation_is_degenerate(n, d):
    """q = 0 and all bodies at one point off the origin (q a pure
    translation, so its translation-free part vanishes) leave the
    constraints dependent, alone or as one lane of a stack."""
    rng = np.random.default_rng(50 + n + d)
    s = np.array(sorted(1.0 + 2.0 * rng.random(d), reverse=True))
    c = _constants(0.5 + 2.0 * rng.random(n), s)
    good, _ = _normalize_q(rng.standard_normal((n, d)), c)
    for q in (np.zeros((n, d)), np.tile(rng.standard_normal(d), (n, 1))):
        for points in (q, np.array([good, q])):
            with pytest.raises(ValueError, match="constraints are dependent"):
                _frame_of(points, c)
    with pytest.raises(ValueError, match="constraints are dependent"):
        tangent_basis(Configuration(np.zeros((n, d)), c.m), Spectrum(tuple(c.s)))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_restricted_hessian_any_lanes_equal_their_own_call(n, d):
    """A (K, (n-1)d) stack of frame coordinates gives, lane by lane, the
    frame pair pass and the (A, P, y) of the 1-lane call on that lane's
    arrays, bit for bit, for 1, 7 and 64 lanes."""
    rng = np.random.default_rng(3000 + 10 * n + d)
    m = 0.5 + 2.0 * rng.random(n)
    s = np.array(sorted(1.0 + 2.0 * rng.random(d), reverse=True))
    c = _constants(m, s)
    for lanes in (1, 7, 64):
        q, bad = _normalize_q(rng.standard_normal((lanes, n, d)), c)
        assert not bad.any()
        x = _frame_of(q, c)
        frame = _evaluate_x(x, c)
        diff, r, pw, gx, _, lam, _, _ = frame
        model = _restricted_hessian_any(x, c, diff, r, pw, gx, lam)
        assert len(model[0]) == len(model[1]) == len(model[2]) == lanes
        for k in range(lanes):
            one = _evaluate_x(x[k], c)
            for stacked, single in zip(frame, one):
                assert np.shape(stacked[k]) == np.shape(single)
                assert np.array_equal(stacked[k], single)
            one_model = _restricted_hessian_any(x[k], c, *one[:4], one[5])
            for stacked, single in zip(model, one_model):
                assert stacked[k].shape == single.shape
                assert np.array_equal(stacked[k], single)


def test_stacked_critical_models_gate_each_lane():
    """The stacked model of critical points is each point's own model; one
    non-critical lane raises the NotCriticalError its own call raises, and
    one collided lane the collision guard's CollisionError."""
    rng = np.random.default_rng(14)
    spec = Spectrum((2.0, 1.5, 1.0))
    m = np.array([1.0, 2.0, 3.0])
    lines = [_collinear_point(m, spec, axis=axis) for axis in (1, 2, 3)]
    q = np.array([c.q for c in lines])
    c = _constants(m, spec.array)
    u, lam, res, A, P, x = _critical_models(q, c)
    for k, line in enumerate(lines):
        assert (u[k], lam[k], res[k]) == _one_model(line, spec)[:3]
        for stacked, single in zip((A, P, x), _one_model(line, spec)[3:]):
            assert np.array_equal(stacked[k], single)
        assert np.array_equal(x[k], _frame_of(line.q, c))
    off = normalize(random_configuration(rng, 3, 3, masses=m), spec)
    with pytest.raises(NotCriticalError) as single:
        _one_model(off, spec)
    with pytest.raises(NotCriticalError) as stacked:
        _critical_models(np.array([q[0], off.q, q[1]]), c)
    assert str(stacked.value) == str(single.value)
    clash = q[1].copy()
    clash[1] = clash[0]
    with pytest.raises(CollisionError):
        _critical_models(np.array([q[0], clash]), c)


def test_restricted_hessian_requires_criticality():
    rng = np.random.default_rng(6)
    cfg = random_configuration(rng, 3, 2)
    with pytest.raises(NotCriticalError):
        _one_model(cfg, Spectrum.identity(2))


def test_equilateral_inertia_triple():
    cfg = normalize(equilateral(), Spectrum.identity(2))
    triple = inertia_indices(cfg, Spectrum.identity(2))
    assert tuple(triple) == (0, 1, 2)
    assert triple.index + triple.nullity + triple.coindex == 2 * (3 - 1) - 1


def test_inertia_indices_makes_one_pair_pass(monkeypatch):
    """U, the criticality gate and the restricted Hessian all come from one
    frame pair pass (_evaluate_x) at the point's frame coordinates; no
    position pass (_pairs) is made."""
    calls = {"pairs": 0, "frame": []}
    pairs, evaluate_x = _pairs, _evaluate_x

    def counting_pairs(q):
        calls["pairs"] += 1
        return pairs(q)

    def recording_evaluate_x(x, c):
        calls["frame"].append(x)
        return evaluate_x(x, c)

    spec = Spectrum((2.5, 1.0))
    line = _collinear_point(np.array([1.0, 2.0, 3.0]), spec, axis=1)
    monkeypatch.setattr(core, "_pairs", counting_pairs)
    monkeypatch.setattr(core, "_evaluate_x", recording_evaluate_x)
    assert tuple(inertia_indices(line, spec)) == (2, 0, 1)
    assert calls["pairs"] == 0 and len(calls["frame"]) == 1
    c = _constants(line.masses, spec.array)
    assert calls["frame"][0].tobytes() == _frame_of(line.q, c).tobytes()


def test_stacked_triples_are_their_one_matrix_triples():
    """_triple_of on an (L, k, k) stack with one U per lane gives each
    lane's one-matrix triple, eigenvalues at the null gap included."""
    rng = np.random.default_rng(3)
    u = np.array([1.0, 2.0, 0.5, 3.0])
    ev = np.array([
        [-2.0, -1e-9, 0.0, 4e-7, 1.0],
        [-1.0, -3e-6, 1e-6, 5e-6, 2.0],
        [-4.0, -3.0, 1e-7, 2.0, 3.0],
        [1.0, 2.0, 3.0, 4.0, 5.0],
    ])
    Q = np.linalg.qr(rng.standard_normal((4, 5, 5)))[0]
    A = Q @ (ev[:, :, None] * Q.swapaxes(-1, -2))
    A = 0.5 * (A + A.swapaxes(-1, -2))
    stacked = core._triple_of(A, u)
    assert stacked == [core._triple_of(a, uk) for a, uk in zip(A, u.tolist())]
    assert stacked == [(1, 3, 1), (2, 1, 2), (2, 1, 2), (0, 0, 5)]
    assert all(isinstance(t, core.InertiaTriple) for t in stacked)


@pytest.mark.parametrize(
    "d,expected",
    [(2, (1, 1, 1)), (3, (2, 2, 1))],
)
def test_collinear_central_inertia_triple(d, expected):
    # (index, nullity, coindex) = ((d-1)(n-2), d-1, n-2) for a collinear
    # central configuration viewed with identity weights
    cfg = euler_on_axis(0, d)
    assert tuple(inertia_indices(cfg, Spectrum.identity(d))) == expected


@pytest.mark.parametrize(
    "s,axis,expected",
    [
        ((2.0, 1.0), 0, (2, 0, 1)),   # axis-1 family: ((d-1)(n-1), 0, n-2)
        ((2.0, 1.0), 1, (1, 0, 2)),   # below the n=3 threshold 12/5
        ((3.0, 1.0), 1, (0, 0, 3)),   # above it: a local minimum
        ((2.0, 1.5, 1.0), 0, (4, 0, 1)),
    ],
)
def test_weighted_collinear_inertia_triples(s, axis, expected):
    spec = Spectrum(s)
    cfg = euler_on_axis(axis, len(s), scale=1.0 / math.sqrt(s[axis]))
    assert tuple(inertia_indices(cfg, spec)) == expected


def test_ambient_form_reproduces_restricted_inertia():
    from scipy.linalg import eigh

    spec = Spectrum((2.0, 1.0))
    cfg = euler_on_axis(1, 2)
    A = _one_model(cfg, spec)[3]
    ev_restricted = np.sort(np.linalg.eigvalsh(A))

    H = ambient_balance_hessian(cfg, spec)
    V = tangent_basis(cfg, spec)
    w = weight_vector(cfg, spec)
    ev_ambient = np.sort(eigh(V.T @ H @ V, V.T @ (w[:, None] * V), eigvals_only=True))
    assert np.allclose(ev_restricted, ev_ambient, atol=1e-10)


def test_min_separation_reports_distance_to_collision_set():
    cfg = Configuration(np.array([[0.0, 0.0], [0.25, 0.0], [2.0, 0.0]]), np.ones(3))
    assert _pairs(cfg.q)[1].min() == pytest.approx(0.25, rel=1e-15)


# ---------------------------------------------------------------------------
# discrete symmetries


@pytest.mark.parametrize(
    "masses, d, order",
    [((1.0, 1.0, 1.0, 1.0), 2, 96), ((1.0, 2.0, 1.0, 3.0, 1.0), 2, 24),
     ((1.0, 2.0, 3.0), 3, 8), ((2.0, 2.0), 1, 4)],
)
def test_symmetry_group_is_flips_times_equal_mass_relabellings(masses, d, order):
    m = np.array(masses)
    signs, perms = symmetry_group(m, d)
    assert signs.shape == (order, d) and perms.shape == (order, len(m))
    assert np.all(signs[0] == 1.0) and np.array_equal(perms[0], np.arange(len(m)))
    assert len({(tuple(s), tuple(p)) for s, p in zip(signs, perms)}) == order
    assert all(np.array_equal(m[p], m) for p in perms)
    assert set(np.unique(signs)) <= {-1.0, 1.0}


def test_images_are_exact_and_stay_balanced():
    """Images permute and negate entries bit for bit (no -0.0), and map a
    balanced point to balanced points with the same U and lambda."""
    m = np.array([1.0, 2.0, 1.0, 1.0])
    spec = Spectrum((1.5, 1.0))
    q = moulton_solve(m, (1, 2, 3, 4), 1, spec).config.q
    group = symmetry_group(m, 2)
    images = _images(q, group)
    signs, perms = group
    for img, sign, perm in zip(images, signs, perms):
        assert np.array_equal(img, q[perm] * sign)
        assert not np.any(np.signbit(img) & (img == 0.0))
    c = _constants(m, spec.array)
    *_, u, lam, a, collided = _evaluate_x(_frame_of(images, c), c)
    assert not collided.any()
    assert np.all(_residual_norm(a, c) < 1e-10 * u)
    assert np.allclose(u, u[0], rtol=1e-14) and np.allclose(lam, lam[0], rtol=1e-14)
    stack = np.stack([q, -q])
    assert np.array_equal(_images(stack, group)[1], _images(-q, group))
