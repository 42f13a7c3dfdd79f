"""Acceptance gate: the eleven headline checks, one verdict line each.

Every test prints `PASS criterion k: ...` or the FAIL version (visible with
-s; the -v status line carries the same verdict) and enforces the stated
tolerance together with the stated runtime budget.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from sbclab.collinear import (
    ccc_spectrum,
    degeneracy_thresholds,
    enumerate_csbc,
    moulton_solve,
    predicted_indices,
)
from sbclab.core import Spectrum, gradient, hessian, sbc_residual
from sbclab.equilibria import classify_periodicity, lift, newton_residual
from sbclab.flow import lyapunov_45_check, tilted_line_seed
from sbclab.morse import (
    betti_quotient,
    factorial_reciprocal_recursion,
    harmonic_tail,
    index_counts,
    iterated_log_integral,
    morse_inequality_check,
    poincare_coeffs,
    xi_coeffs,
)
from sbclab.solver import SBCSolution, census, continue_in_s, find_critical_point

from oracles import fd_gradient, fd_hessian, random_configuration

M3 = np.ones(3)

_SHARED: dict = {}  # criterion 7 census, reused by criterion 8


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_exact_coefficient_identities():
    t0 = time.perf_counter()
    ok = True
    for n in range(2, 31):
        c = poincare_coeffs(n).c
        ok = ok and sum(c) == math.factorial(n)
        half = Fraction(math.factorial(n), 2)
        if n >= 4:
            ok = ok and all(cj < half for cj in c)
        else:
            ok = ok and all(cj <= half for cj in c)
        harmonic = sum(Fraction(1, i) for i in range(1, n))
        ok = ok and c[n - 2] == math.factorial(n - 1) * harmonic
    dt = time.perf_counter() - t0
    ok = ok and dt < 1.0
    _verdict(1, ok, f"coefficient identities exact for n = 2..30 ({dt:.3f} s < 1 s)")


def test_criterion_02_xi_sum_identities():
    t0 = time.perf_counter()
    ok = True
    for n in range(4, 31):
        xi = xi_coeffs(n).xi
        half = Fraction(math.factorial(n), 2)
        ok = ok and sum(xi) == half
        weighted = sum(x * (n - 2 - j) for j, x in enumerate(xi))
        ok = ok and weighted == half * harmonic_tail(n)
        if n == 4:
            ok = ok and weighted == 7
    dt = time.perf_counter() - t0
    ok = ok and dt < 1.0
    _verdict(2, ok, f"xi identities exact for n = 4..30, n=4 weighted sum is 7 "
                    f"({dt:.3f} s < 1 s)")


def test_criterion_03_iterated_log_quadrature():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 10, 100):
        for j in (1, 2, 3, 4):
            numeric, closed = iterated_log_integral(n, j)
            worst = max(worst, abs(numeric - closed) / abs(closed))
    a = factorial_reciprocal_recursion(20)
    exact = all(a[j] == Fraction(1, math.factorial(j)) for j in range(21))
    dt = time.perf_counter() - t0
    ok = worst < 1e-6 and exact and dt < 10.0
    _verdict(3, ok, f"nested log integrals match log^j(n)/j!, worst rel err "
                    f"{worst:.2e} < 1e-6; 1/j! recursion exact to j = 20 "
                    f"({dt:.2f} s < 10 s)")


def test_criterion_04_betti_closed_form():
    t0 = time.perf_counter()
    ok = True
    for n in range(4, 13):
        table = betti_quotient(n)
        closed = math.factorial(n) * (
            harmonic_tail(n) + Fraction(1, 2) + Fraction(1, n)
        )
        ok = ok and table.total == closed
    four = betti_quotient(4)
    ok = ok and four.betti == (1, 0, 7, 0, 18, 6)
    ok = ok and four.total == 32
    ok = ok and four.planar_cc_bound == 19
    ok = ok and four.surplus == 13
    dt = time.perf_counter() - t0
    _verdict(4, ok, f"Betti sums equal n!(h(n)+1/2+1/n) for n = 4..12; n=4 table "
                    f"(1,0,7,0,18,6), sum 32, classical bound 19, surplus 13 "
                    f"({dt:.3f} s)")


def test_criterion_05_collinear_enumeration_and_predictor():
    t0 = time.perf_counter()
    ok = True
    for n in (3, 4):
        masses = np.ones(n)
        report = degeneracy_thresholds(masses)
        all_thresholds = sorted(
            {t for ts in report.per_ordering.values() for t in ts}
        )
        grid = np.linspace(1.05, report.global_max + 1.5, 400)
        safe = [s for s in grid
                if min(abs(s - t) for t in all_thresholds) > 0.05]
        picks = [safe[i] for i in np.linspace(0, len(safe) - 1, 10).astype(int)]
        for s1 in picks:
            spectrum = Spectrum.planar(float(s1))
            records = enumerate_csbc(masses, spectrum).records
            ok = ok and len(records) == 2 * math.factorial(n)
            for rec in records:
                G, _ = sbc_residual(rec.config, spectrum)
                ok = ok and float(np.linalg.norm(G)) < 1e-12
                ok = ok and rec.predicted is not None
                ok = ok and rec.predicted == rec.computed
    dt = time.perf_counter() - t0
    ok = ok and dt < 30.0
    _verdict(5, ok, f"2 n! collinear records for n = 3, 4 with residual < 1e-12 "
                    f"and predicted == computed triples on 10 off-threshold "
                    f"weights ({dt:.2f} s < 30 s)")


def test_criterion_06_degeneracy_threshold_twelve_fifths():
    t0 = time.perf_counter()
    report = degeneracy_thresholds(M3)
    ok = abs(report.global_max - Fraction(12, 5)) < 1e-12
    ok = ok and abs(report.global_min - 2.4) < 1e-12

    def predicted_at(s1):
        spectrum = Spectrum.planar(s1)
        rec = moulton_solve(M3, (1, 2, 3), 2, spectrum)
        sd = ccc_spectrum(rec.masses, rec.cc_positions)
        return tuple(predicted_indices(sd, spectrum, 2))

    ok = ok and predicted_at(2.3) == (1, 0, 2)
    ok = ok and predicted_at(2.5) == (0, 0, 3)

    spec0 = Spectrum.planar(1.5)
    start = find_critical_point(
        moulton_solve(M3, (1, 2, 3), 2, spec0).config, spec0
    )
    ok = ok and isinstance(start, SBCSolution)
    if ok:
        path = [Spectrum.planar(float(s)) for s in np.linspace(1.5, 3.0, 13)[1:]]
        last = continue_in_s(start, path)[-1]
        ok = ok and last.triple.nullity == 1
        ok = ok and abs(last.spectrum.s[0] - 2.4) < 1e-4
    dt = time.perf_counter() - t0
    ok = ok and dt < 5.0
    _verdict(6, ok, f"equal-mass threshold equals 12/5 to 1e-12, triples flip "
                    f"(1,0,2) -> (0,0,3) across it, continuation localizes the "
                    f"nullity-1 point within 1e-4 ({dt:.2f} s < 5 s)")


def test_criterion_07_census_solution_count():
    t0 = time.perf_counter()
    result = census(M3, Spectrum.planar(1.5), 2000, 7)
    dt = time.perf_counter() - t0
    _SHARED["census"] = result
    collinear = [s for s in result.solutions
                 if s.classification.startswith("collinear")]
    noncollinear = [s for s in result.solutions
                    if not s.classification.startswith("collinear")]
    ok = len(result.solutions) >= 14
    ok = ok and len(collinear) == 12
    ok = ok and len(noncollinear) >= 2
    ok = ok and not any(s.is_cc for s in noncollinear)
    ok = ok and dt < 60.0
    _verdict(7, ok, f"census found {len(result.solutions)} >= 14 solutions, "
                    f"{len(collinear)} collinear (= 12), "
                    f"{len(noncollinear)} non-collinear (>= 2), none mislabeled "
                    f"central ({dt:.1f} s < 60 s)")


def test_criterion_08_morse_inequality_consistency():
    result = _SHARED.get("census")
    if result is None:  # standalone run: rebuild the criterion-7 census
        result = census(M3, Spectrum.planar(1.5), 2000, 7)
    counts = index_counts(sol.triple for sol in result.solutions)
    check = morse_inequality_check(counts, 3, 2)
    ok = check.divisible and check.nonnegative
    _verdict(8, ok, f"M(t) - P(t) exactly divisible by (1+t), quotient "
                    f"{check.quotient} nonnegative")


def test_criterion_09_line_angle_lyapunov():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    thetas = np.concatenate(([45.0], 45.0 * rng.uniform(1e-3, 1.0, 99)))
    phis = rng.uniform(0.0, 2.0 * math.pi, 100)
    seeds = [tilted_line_seed(th, ph) for th, ph in zip(thetas, phis)]
    report = lyapunov_45_check(seeds, Spectrum((2.0, 1.0, 1.0)), t_final=200.0)
    dt = time.perf_counter() - t0
    ok = report.checked == 100
    ok = ok and report.monotone == 100
    ok = ok and report.reached_attractor >= 95
    ok = ok and dt < 120.0
    _verdict(9, ok, f"100 seeds in (0, 45] deg: {report.monotone} strictly "
                    f"decreasing, {report.reached_attractor} >= 95 reached the "
                    f"collinear attractor, {report.collisions} collisions "
                    f"({dt:.1f} s < 120 s)")


def test_criterion_10_relative_equilibrium_lifts():
    t0 = time.perf_counter()
    result = census(M3, Spectrum.planar(4.0), 60, 5)
    times = np.linspace(0.0, 20.0, 1000)
    worst_residual = 0.0
    worst_closure = 0.0
    for sol in result.solutions:
        orbit = lift(sol)
        worst_residual = max(worst_residual, newton_residual(orbit, times))
        period = 2.0 * math.pi / orbit.omega[1]
        closure = float(
            np.linalg.norm(orbit.positions(period) - orbit.positions(0.0))
        )
        worst_closure = max(worst_closure, closure)
    sqrt2 = census(M3, Spectrum.planar(2.0), 0, 2)
    kind = classify_periodicity(lift(sqrt2.solutions[0])).kind
    dt = time.perf_counter() - t0
    ok = len(result.solutions) > 0
    ok = ok and worst_residual < 1e-8
    ok = ok and worst_closure < 1e-6
    ok = ok and kind == "quasi_periodic"
    ok = ok and dt < 10.0
    _verdict(10, ok, f"{len(result.solutions)} lifts at s=4: max Newton residual "
                     f"{worst_residual:.2e} < 1e-8, max closure "
                     f"{worst_closure:.2e} < 1e-6; s=2 classified {kind} "
                     f"({dt:.1f} s < 10 s)")


def test_criterion_11_derivative_correctness():
    t0 = time.perf_counter()
    worst_g = 0.0
    worst_h = 0.0
    for n, d in ((3, 2), (4, 2), (3, 3)):
        rng = np.random.default_rng(97 * n + d)
        for _ in range(50):
            cfg = random_configuration(rng, n, d)
            g, g_ref = gradient(cfg), fd_gradient(cfg)
            worst_g = max(
                worst_g, np.linalg.norm(g - g_ref) / np.linalg.norm(g_ref)
            )
            h_mat, h_ref = hessian(cfg), fd_hessian(cfg)
            worst_h = max(
                worst_h, np.linalg.norm(h_mat - h_ref) / np.linalg.norm(h_ref)
            )
    dt = time.perf_counter() - t0
    ok = worst_g < 1e-6 and worst_h < 1e-6 and dt < 10.0
    _verdict(11, ok, f"gradient/Hessian vs central differences on 150 random "
                     f"configurations: worst rel err {worst_g:.1e} / "
                     f"{worst_h:.1e} < 1e-6 ({dt:.1f} s < 10 s)")
