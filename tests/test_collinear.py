"""Tests for collinear balanced configurations and their classification."""

from __future__ import annotations

import csv
import io
import itertools
import json
import math

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.optimize import brentq

from sbclab import collinear, core, solver
from sbclab.collinear import (
    _b_matrix_1d,
    ccc_spectrum,
    degeneracy_thresholds,
    enumerate_csbc,
    moulton_solve,
    predicted_indices,
)
from sbclab.core import Configuration, Spectrum, _pairs, _potential_of, potential, sbc_residual
from sbclab.errors import SpectrumAnomalyError, UnsupportedCase

from oracles import (
    loop_b_matrix_1d,
    loop_potential_1d,
    symmetric_euler_positions,
    symmetric_euler_spectrum,
)


def _b_of(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The force matrix of a line x, or a stack of them, from its own pair pass."""
    return _b_matrix_1d(np.outer(m, m), _pairs(x[..., None])[1])


def ordered_three_body_ratio(m1: float, m2: float, m3: float) -> float:
    """Independent oracle for the 1-2-3 collinear central configuration.

    Pins the left gap to 1, eliminates the multiplier from the remaining
    equation and solves for the right gap b by bisection. Returns b, the
    gap ratio r_23 / r_12.
    """

    def f(b):
        lam = (m1 + m2) + m3 / (1.0 + b) ** 2 - m3 / b**2
        rhs = (m2 + m3) / b**2 + m1 / (1.0 + b) ** 2 - m1
        return rhs - b * lam

    return brentq(f, 1e-3, 1e3, xtol=1e-14, rtol=8.9e-16)


# ---------------------------------------------------------------------------
# B matrix


def test_b_matrix_symmetric_euler_exact():
    a = 1.0 / math.sqrt(2.0)
    B = _b_of(np.ones(3), symmetric_euler_positions())
    expected = np.array(
        [[-2.25, 2.0, 0.25], [2.0, -4.0, 2.0], [0.25, 2.0, -2.25]]
    ) / a
    assert np.allclose(B, expected, rtol=1e-14)


def test_b_matrix_structure_random():
    rng = np.random.default_rng(21)
    for _ in range(5):
        n = int(rng.integers(3, 6))
        x = np.sort(rng.normal(size=n) * 2.0)
        while np.min(np.diff(x)) < 0.1:
            x = np.sort(rng.normal(size=n) * 2.0)
        m = 0.5 + rng.random(n)
        B = _b_of(m, x)
        assert np.allclose(B, B.T, rtol=1e-14)
        assert np.max(np.abs(B.sum(axis=1))) < 1e-12 * np.max(np.abs(B))
        off = B[~np.eye(n, dtype=bool)]
        assert np.all(off > 0)


def test_b_matrix_and_potential_match_pairwise_loops():
    rng = np.random.default_rng(22)
    for n in range(2, 8):
        x = rng.permutation(np.cumsum(0.1 + rng.random(n)))
        m = 0.5 + rng.random(n)
        B = _b_of(m, x)
        ref = loop_b_matrix_1d(m, x)
        assert np.max(np.abs(B - ref)) <= 1e-13 * np.max(np.abs(ref))
        # the line potential as ccc_spectrum takes it
        u = _potential_of(np.outer(m, m), _pairs(x[..., None])[1])
        assert u == pytest.approx(loop_potential_1d(m, x), rel=1e-13)


# ---------------------------------------------------------------------------
# Moulton solve


def test_moulton_equal_masses_closed_form():
    spec = Spectrum.planar(1.5)
    rec = moulton_solve(np.ones(3), (1, 2, 3), 1, spec)
    assert np.allclose(rec.cc_positions, symmetric_euler_positions(), atol=1e-14)
    a = 1.0 / math.sqrt(2.0)
    expected = symmetric_euler_positions() / math.sqrt(1.5)
    assert np.allclose(rec.config.q[:, 0], expected, atol=1e-14)
    assert np.max(np.abs(rec.config.q[:, 1])) == 0.0
    assert rec.gap_residual < 1e-13
    assert rec.residual < 1e-13 * potential(rec.config)
    assert rec.lam == pytest.approx(potential(rec.config), rel=1e-12)


def test_moulton_asymmetric_gap_ratio_against_bisection_oracle():
    rng = np.random.default_rng(42)
    for _ in range(6):
        m = 0.5 + 2.0 * rng.random(3)
        rec = moulton_solve(m, (1, 2, 3), 1, Spectrum.identity(2))
        x = rec.cc_positions
        ratio = (x[2] - x[1]) / (x[1] - x[0])
        assert ratio == pytest.approx(ordered_three_body_ratio(*m), rel=1e-10)


def test_moulton_reversal_mirror():
    m = np.array([1.0, 2.0, 3.0])
    spec = Spectrum.planar(1.5)
    fwd = moulton_solve(m, (1, 2, 3), 2, spec)
    rev = moulton_solve(m, [3, 2, 1], 2, spec)
    # a reversed ordering is solved as its canonical line
    assert np.array_equal(rev.config.q, -fwd.config.q)
    assert (rev.iterations, rev.gap_residual) == (fwd.iterations, fwd.gap_residual)


def test_moulton_rescaled_line_is_central():
    # sqrt(s_axis) * q solves the unweighted balance equation on the line
    m = np.array([1.0, 0.7, 1.3])
    spec = Spectrum((2.5, 1.0))
    rec = moulton_solve(m, (2, 1, 3), 1, spec)
    blown = Configuration(rec.config.q * math.sqrt(2.5), m)
    G, _ = sbc_residual(blown, Spectrum.identity(2))
    assert np.linalg.norm(G) < 1e-12 * potential(blown)


def test_moulton_validation():
    with pytest.raises(ValueError):
        moulton_solve(np.ones(3), (1, 2, 2), 1, Spectrum.planar(2.0))
    with pytest.raises(ValueError):
        moulton_solve(np.ones(3), (1, 2, 3), 3, Spectrum.planar(2.0))
    with pytest.raises(ValueError):
        moulton_solve(np.array([1.0, -1.0, 1.0]), (1, 2, 3), 1, Spectrum.planar(2.0))


# ---------------------------------------------------------------------------
# spectral data and predicted indices


def test_ccc_spectrum_equal_masses_closed_form():
    rec = moulton_solve(np.ones(3), (1, 2, 3), 1, Spectrum.planar(2.0))
    sd = ccc_spectrum(rec.masses, rec.cc_positions)
    zero, minus_u, eta1 = symmetric_euler_spectrum()
    assert sd.u_hat == pytest.approx(-minus_u, rel=1e-13)
    assert sd.eigenvalues[0] == pytest.approx(eta1, rel=1e-13)
    assert sd.eigenvalues[1] == pytest.approx(minus_u, rel=1e-13)
    assert abs(sd.eigenvalues[2]) < 1e-10
    assert sd.groups == ((sd.groups[0][0], 1), (sd.groups[1][0], 1))
    assert sd.thresholds[0] == pytest.approx(12.0 / 5.0, abs=1e-12)


def test_ccc_spectrum_scaling_between_weighted_and_central():
    # B entries scale as s^{3/2} between the balanced line and its CC
    m = np.array([1.0, 2.0, 0.5])
    s1 = 3.0
    spec = Spectrum((s1, 1.0))
    rec = moulton_solve(m, (1, 2, 3), 1, spec)
    B_q = _b_of(m, rec.config.q[:, 0])
    B_hat = _b_of(m, rec.config.q[:, 0] * math.sqrt(s1))
    assert np.allclose(B_q, s1 * math.sqrt(s1) * B_hat, rtol=1e-12)


def test_ccc_spectrum_anomaly_on_non_central_positions():
    with pytest.raises(SpectrumAnomalyError):
        ccc_spectrum(np.ones(3), np.array([-1.0, 0.3, 1.4]))


@pytest.mark.parametrize(
    "s1,expected",
    [
        (1.5, (1, 0, 2)),
        (2.3999, (1, 0, 2)),
        (12.0 / 5.0, (0, 1, 2)),
        (2.4001, (0, 0, 3)),
        (5.0, (0, 0, 3)),
    ],
)
def test_predicted_indices_across_threshold(s1, expected):
    rec = moulton_solve(np.ones(3), (1, 2, 3), 1, Spectrum.planar(2.0))
    sd = ccc_spectrum(rec.masses, rec.cc_positions)
    assert tuple(predicted_indices(sd, Spectrum.planar(s1), 2)) == expected


def test_predicted_indices_axis1_rule():
    rec = moulton_solve(np.ones(4), (1, 2, 3, 4), 1, Spectrum.planar(2.0))
    sd = ccc_spectrum(rec.masses, rec.cc_positions)
    for d, s in [(2, (2.0, 1.0)), (3, (2.0, 1.5, 1.0))]:
        triple = predicted_indices(sd, Spectrum(s), 1)
        n = 4
        assert tuple(triple) == ((d - 1) * (n - 1), 0, n - 2)


def test_predicted_indices_identity_weights_recover_central_triple():
    rec = moulton_solve(np.ones(3), (1, 2, 3), 1, Spectrum.identity(3))
    sd = ccc_spectrum(rec.masses, rec.cc_positions)
    for d in (2, 3):
        triple = predicted_indices(sd, Spectrum.identity(d), 1)
        assert tuple(triple) == ((d - 1) * (3 - 2), d - 1, 3 - 2)


def test_predicted_indices_unsupported_for_wide_transverse_in_3d():
    rec = moulton_solve(np.ones(3), (1, 2, 3), 1, Spectrum((2.0, 1.5, 1.0)))
    sd = ccc_spectrum(rec.masses, rec.cc_positions)
    with pytest.raises(UnsupportedCase):
        predicted_indices(sd, Spectrum((2.0, 1.5, 1.0)), 2)


# ---------------------------------------------------------------------------
# enumeration and thresholds


@pytest.mark.parametrize("n", [3, 4])
def test_enumerate_counts_and_agreement(n):
    spec = Spectrum.planar(1.7)
    recs = enumerate_csbc(np.ones(n), spec).records
    assert len(recs) == 2 * math.factorial(n)
    keys = [(r.axis, r.ordering) for r in recs]
    assert keys == sorted(keys)
    for r in recs:
        assert r.residual < 1e-12
        assert r.predicted is not None
        assert tuple(r.predicted) == tuple(r.computed)


def test_enumerate_axis1_index_dominates():
    recs = enumerate_csbc(np.array([1.0, 2.0, 3.0]), Spectrum.planar(1.8)).records
    by_key = {(r.axis, r.ordering): r for r in recs}
    for (axis, ordering), r in by_key.items():
        if axis == 1:
            partner = by_key[(2, ordering)]
            assert r.computed.index >= partner.computed.index


def test_enumerate_unsupported_axes_fall_back_to_computed():
    spec = Spectrum((2.0, 1.5, 1.0))
    recs = enumerate_csbc(np.ones(3), spec).records
    assert len(recs) == 3 * 6
    for r in recs:
        if r.axis == 1:
            assert r.predicted is not None
            assert tuple(r.predicted) == tuple(r.computed)
        else:
            assert r.predicted is None
            assert r.computed is not None
            assert sum(r.computed) == 3 * 2 - 1


def test_degeneracy_thresholds_equal_masses():
    report = degeneracy_thresholds(np.ones(3))
    assert len(report.per_ordering) == 6
    for t in report.per_ordering.values():
        assert len(t) == 1
        assert t[0] == pytest.approx(2.4, abs=1e-12)
    assert report.global_min == pytest.approx(2.4, abs=1e-12)
    assert report.global_max == pytest.approx(2.4, abs=1e-12)


def test_degeneracy_thresholds_sorted_and_bounded():
    report = degeneracy_thresholds(np.array([1.0, 2.0, 3.0, 4.0]))
    assert len(report.per_ordering) == 24
    for t in report.per_ordering.values():
        assert len(t) == 2
        assert t[0] < t[1]
        assert t[0] > 1.0
    assert report.global_min <= report.global_max
    with pytest.raises(ValueError):
        degeneracy_thresholds(np.ones(2))


def test_degeneracy_thresholds_solve_canonical_lines_only(monkeypatch):
    """n!/2 gap solves and no Configuration: a reversed ordering shares the
    thresholds of its mirror image, and no record is built."""
    calls = {"gaps": 0, "built": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(collinear, "_ordered_cc_gaps", counted("gaps", collinear._ordered_cc_gaps))
    monkeypatch.setattr(
        Configuration, "__post_init__", counted("built", Configuration.__post_init__)
    )
    report = degeneracy_thresholds(np.arange(1.0, 6.0))
    assert calls == {"gaps": math.factorial(5) // 2, "built": 0}
    assert len(report.per_ordering) == math.factorial(5)
    for ordering, t in report.per_ordering.items():
        assert report.per_ordering[ordering[::-1]] == t


@pytest.mark.parametrize(
    "masses,s",
    [
        ((1.0, 2.0, 3.0), (2.5, 1.5, 1.0)),
        ((1.0, 1.0, 2.0, 3.0), (1.5, 1.0)),
        ((1.0,) * 5, (1.5, 1.0)),
        ((1.0, 1.0), (3.0, 2.0, 1.0)),
    ],
)
def test_enumerate_solves_each_ordering_once(monkeypatch, masses, s):
    """One gap solve per distinct tuple of masses in line order over the
    canonical orderings (one for equal masses), one stacked spectrum call
    for the n!/2 canonical lines (one per mirror pair of orderings), no
    Configuration, and one stacked frame pass and restricted Hessian for all
    records, with no position pass (core._pairs) while the catalogue builds
    its points from the solved lines; every record is bitwise the record a
    fresh moulton_solve on its axis gives."""
    calls = {"gaps": 0, "spectra": 0, "built": 0, "evaluated": 0, "models": 0, "paired": 0}
    building = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(collinear, "_ordered_cc_gaps", counted("gaps", collinear._ordered_cc_gaps))
    monkeypatch.setattr(collinear, "ccc_spectrum", counted("spectra", collinear.ccc_spectrum))
    monkeypatch.setattr(core, "_evaluate_x", counted("evaluated", core._evaluate_x))
    pairs, build_catalogue, cc_lines = core._pairs, collinear._catalogue, collinear._cc_lines

    def paired(*args):
        calls["paired"] += len(building)
        return pairs(*args)

    def recording(*args):
        building.append(True)
        try:
            return build_catalogue(*args)
        finally:
            building.clear()

    def solving_lines(*args):  # the line solves and spectra are position passes
        building.clear()
        try:
            return cc_lines(*args)
        finally:
            building.append(True)

    monkeypatch.setattr(core, "_pairs", paired)
    monkeypatch.setattr(collinear, "_pairs", paired)
    monkeypatch.setattr(collinear, "_catalogue", recording)
    monkeypatch.setattr(collinear, "_cc_lines", solving_lines)
    monkeypatch.setattr(
        core, "_restricted_hessian_any", counted("models", core._restricted_hessian_any)
    )
    monkeypatch.setattr(
        Configuration, "__post_init__", counted("built", Configuration.__post_init__)
    )
    spectrum = Spectrum(s)
    recs = enumerate_csbc(masses, spectrum).records
    n = len(masses)
    canonical = [o for o in itertools.permutations(range(n)) if o[0] < o[-1]]
    orderings = math.factorial(n)
    records = spectrum.d * orderings
    assert records // 2 <= collinear.STACK_LANES
    assert calls == {
        "gaps": len({tuple(masses[i] for i in o) for o in canonical}),
        "spectra": 1,
        "built": 0,
        "evaluated": 1,
        "models": 1,
        "paired": 0,
    }
    if len(set(masses)) == 1:
        assert calls["gaps"] == 1
    assert [(r.axis, r.ordering) for r in recs] == sorted((r.axis, r.ordering) for r in recs)
    assert len(recs) == records

    for rec in recs:
        fresh = moulton_solve(masses, rec.ordering, rec.axis, spectrum)
        assert np.array_equal(rec.config.q, fresh.config.q)
        assert np.array_equal(rec.cc_positions, fresh.cc_positions)
        assert (rec.u, rec.lam, rec.residual, rec.gap_residual, rec.iterations) == (
            fresh.u, fresh.lam, fresh.residual, fresh.gap_residual, fresh.iterations
        )
        assert (rec.spectral, rec.predicted, rec.computed) == (
            fresh.spectral, fresh.predicted, fresh.computed
        )


@pytest.mark.parametrize(
    "masses,s",
    [
        ((1.0,) * 6, (1.5, 1.0)),
        ((1.0, 2.0, 1.0, 3.0, 1.0), (2.5, 1.5, 1.0)),
        ((1.0, 2.0, 3.0, 4.0), (1.5, 1.0)),
        ((1.0, 1.0, 2.0, 3.0), (1.5, 1.0)),
    ],
)
def test_enumerate_mirrored_records_equal_a_full_evaluation(masses, s):
    """Each reversed ordering's record, built by negation, is bitwise the
    record a full evaluation of the negated line gives: its own
    normalization, pair pass, tangent basis, Hessian and spectrum."""
    m = np.array(masses)
    spectrum = Spectrum(s)
    c = core._constants(m, spectrum.array)
    recs = enumerate_csbc(m, spectrum).records
    by_key = {(r.axis, r.ordering): r for r in recs}
    mirrored = [r for r in recs if r.ordering[0] > r.ordering[-1]]
    assert len(mirrored) == len(recs) // 2
    for rec in mirrored:
        canon = by_key[(rec.axis, rec.ordering[::-1])]
        x_hat = -canon.cc_positions
        q = np.zeros((len(m), spectrum.d))
        q[:, rec.axis - 1] = x_hat / math.sqrt(spectrum.s[rec.axis - 1])
        q = core._normalize_q(q, c)[0]
        u, lam, res, A, *_ = core._critical_models(q, c)
        spectral = ccc_spectrum(m, x_hat)
        try:
            predicted = predicted_indices(spectral, spectrum, rec.axis)
        except UnsupportedCase:
            predicted = None
        assert np.array_equal(rec.config.q, Configuration(q, m).q)
        assert np.array_equal(rec.cc_positions, x_hat)
        assert (rec.u, rec.lam, rec.residual) == (float(u), float(lam), float(res))
        assert (rec.spectral, rec.predicted, rec.computed) == (
            spectral, predicted, core._triple_of(A, u)
        )


@pytest.mark.parametrize(
    "masses,s",
    [
        ((1.0,) * 6, (1.5, 1.0)),
        ((1.0, 2.0, 3.0, 4.0, 5.0), (1.5, 1.0)),
        ((1.0, 2.0, 3.0, 4.0, 5.0), (2.5, 1.5, 1.0)),
    ],
)
def test_stacked_lanes_are_bitwise_their_one_line_results(masses, s):
    """Each lane of the stacked line spectra (force matrices included) is
    bitwise its one-line result, each lane of the stacked triples is its
    one-matrix triple, and each record's read-only q is bitwise the point
    a Configuration of it holds."""
    m = np.array(masses)
    spectrum = Spectrum(s)
    recs = enumerate_csbc(m, spectrum).records
    lines = [r for r in recs if r.axis == 1 and r.ordering[0] < r.ordering[-1]]
    assert len(lines) == math.factorial(len(m)) // 2
    x = np.array([r.cc_positions for r in lines])
    B = _b_of(m, x)
    for k, (rec, spectral) in enumerate(zip(lines, ccc_spectrum(m, x))):
        line = x[k].copy()
        assert B[k].tobytes() == _b_of(m, line).tobytes()
        assert repr(spectral) == repr(ccc_spectrum(m, line)) == repr(rec.spectral)

    A = _models(recs, spectrum)
    stacked = core._triple_of(A, np.array([r.u for r in recs]))
    assert stacked == [core._triple_of(a, r.u) for a, r in zip(A, recs)]
    assert stacked == [r.computed for r in recs]
    for rec in recs:
        assert not rec.q.flags.writeable
        assert rec.q.tobytes() == rec.config.q.tobytes()


def _models(records, spectrum: Spectrum) -> np.ndarray:
    """The records' restricted Hessians, from one stacked
    core._critical_models call on their points."""
    c = core._constants(records[0].masses, spectrum.array)
    return core._critical_models(np.array([r.q for r in records]), c)[3]


def _scipy_agrees(ev, A) -> np.ndarray:
    """scipy.linalg.eigh's eigenvalues of A, asserted equal to ev within
    1e-13 of the largest magnitude (LAPACK builds differ in the last bits)."""
    ref = eigh(A, eigvals_only=True)
    assert np.abs(np.sort(ev) - ref).max() <= 1e-13 * np.abs(ref).max()
    return ref


def _triple(ev, u: float) -> tuple[int, int, int]:
    gap = core.NULL_TOL * u
    return int(np.sum(ev < -gap)), int(np.sum(np.abs(ev) <= gap)), int(np.sum(ev > gap))


def test_numpy_eigenvalues_agree_with_scipy_eigh():
    """Inertia triples and line spectra come from np.linalg.eigvalsh: on the
    n = 6 enumeration at s = 1.5 and on an n = 3 census they match
    scipy.linalg.eigh, and every triple is the one its eigenvalues give."""
    spectrum = Spectrum((1.5, 1.0))
    records = enumerate_csbc(np.ones(6), spectrum).records
    assert len(records) == 1440
    for rec, A in zip(records, _models(records, spectrum)):
        ref = _scipy_agrees(np.linalg.eigvalsh(A), A)
        assert core._triple_of(A, rec.u) == rec.computed == _triple(ref, rec.u)
        root_m = np.sqrt(rec.masses)
        C = _b_of(rec.masses, rec.cc_positions) / np.outer(root_m, root_m)
        _scipy_agrees(np.array(rec.spectral.eigenvalues), C)

    result = solver.census(np.ones(3), spectrum, 20, 0)
    assert result.solutions
    for sol in result.solutions:
        c = core._constants(sol.config.masses, spectrum.array)
        u, _, _, A, *_ = core._critical_models(sol.config.q, c)
        ref = _scipy_agrees(np.linalg.eigvalsh(A), A)
        assert core._triple_of(A, u) == sol.triple == _triple(ref, u)


# ---------------------------------------------------------------------------
# the columnar catalogue


@pytest.fixture(scope="module")
def catalogues():
    """Catalogues of equal masses (n = 5, planar) and of distinct masses
    with the null-predicted axes (n = 4, S = (3, 2, 1))."""
    return [enumerate_csbc(np.ones(5), Spectrum((1.5, 1.0))),
            enumerate_csbc(np.array([1.0, 2.0, 3.0, 4.0]), Spectrum((3.0, 2.0, 1.0)))]


def test_catalogue_arrays_are_read_only(catalogues):
    for cat in catalogues:
        arrays = [v for v in vars(cat).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 9
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a.flat[0] = 0
        assert not cat.record(0).q.flags.writeable


def test_record_is_its_row_of_the_columns(catalogues):
    for cat in catalogues:
        n_rows, n = cat.ordering.shape
        assert n_rows == cat.spectrum.d * math.factorial(n)
        assert len(cat.records) == n_rows
        for i, rec in enumerate(cat.records):
            k = cat.line[i]
            assert rec.ordering == tuple(cat.ordering[i].tolist())
            assert rec.axis == cat.axis[i]
            assert rec.q.tobytes() == cat.q[i].tobytes()
            assert rec.cc_positions.tobytes() == cat.cc_positions[k].tobytes()
            assert (rec.u, rec.lam, rec.residual) == (cat.u[i], cat.lam[i], cat.residual[i])
            assert (rec.gap_residual, rec.iterations) == (cat.gap_residual[k], cat.iterations[k])
            assert rec.spectral is cat.spectral[k]
            assert (rec.predicted, rec.computed) == (cat.predicted[i], cat.computed[i])
            assert rec.masses is cat.masses and rec.catalogue is cat


def test_reversed_rows_are_the_negated_canonical_rows(catalogues):
    """Row by row, a reversed ordering is bitwise 0.0 - q (and 0.0 - x_hat)
    of its canonical row on the same axis, with the same U, multiplier,
    residual, triples and spectrum."""
    for cat in catalogues:
        row = {(a, tuple(o)): i for i, (a, o) in enumerate(zip(cat.axis.tolist(),
                                                               cat.ordering.tolist()))}
        reversed_rows = [(i, row[a, o[::-1]]) for (a, o), i in row.items() if o[0] > o[-1]]
        assert 2 * len(reversed_rows) == len(row)
        for i, j in reversed_rows:
            assert cat.q[i].tobytes() == (0.0 - cat.q[j]).tobytes()
            k, kc = cat.line[i], cat.line[j]
            assert cat.cc_positions[k].tobytes() == (0.0 - cat.cc_positions[kc]).tobytes()
            assert (cat.u[i], cat.lam[i], cat.residual[i]) == (
                cat.u[j], cat.lam[j], cat.residual[j])
            assert (cat.computed[i], cat.predicted[i]) == (cat.computed[j], cat.predicted[j])
            assert cat.spectral[k] is cat.spectral[kc]
        assert all(np.signbit(cat.q[i]).sum() == np.signbit(cat.q[i][:, a - 1]).sum()
                   for i, a in enumerate(cat.axis.tolist()))  # off-axis zeros are +0.0


@pytest.mark.parametrize("argv,masses,s", [
    (("--n", "5", "--s", "1.5"), np.ones(5), (1.5, 1.0)),
    (("--n", "4", "--d", "3", "--s", "3,2,1"), np.ones(4), (3.0, 2.0, 1.0)),
])
def test_collinear_reports_are_their_records_written_one_by_one(tmp_path, argv, masses, s):
    """The collinear JSON and CSV reports are json.dumps and csv.writer of
    rows built one by one from record(i) (n = 4, S = (3, 2, 1) has null
    predicted triples)."""
    from sbclab import cli

    spectrum = Spectrum(s)
    records = enumerate_csbc(masses, spectrum).records
    assert any(r.predicted is None for r in records) == (len(s) == 3)
    rows = [{"ordering": list(r.ordering), "axis": r.axis, "positions": r.q.tolist(),
             "U": r.u, "lambda": r.lam, "residual": r.residual,
             "eta": list(r.spectral.eigenvalues),
             "predicted": None if r.predicted is None else list(r.predicted),
             "computed": list(r.computed)} for r in records]
    payload = {"n": len(masses), "d": len(s), "S": list(s), "masses": masses.tolist(),
               "count": len(rows), "records": rows}
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("ordering", "axis", "positions", "U", "lambda", "eta",
                     "predicted_index", "predicted_nullity", "predicted_coindex",
                     "computed_index", "computed_nullity", "computed_coindex"))
    for r in records:
        writer.writerow((" ".join(map(str, r.ordering)), r.axis,
                         " ".join(map(repr, r.q.ravel().tolist())), r.u, r.lam,
                         " ".join(map(repr, r.spectral.eigenvalues)),
                         *(r.predicted or ("", "", "")), *r.computed))
    for fmt, expected in (("json", json.dumps(payload, sort_keys=True, indent=2,
                                              allow_nan=False) + "\n"),
                          ("csv", out.getvalue())):
        path = tmp_path / f"collinear.{fmt}"
        assert cli.run(["collinear", *argv, "--format", fmt, "--output", str(path)]) == 0
        assert path.read_text(encoding="utf-8") == expected
