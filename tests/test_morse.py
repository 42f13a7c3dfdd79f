"""Tests for the exact counting machinery: tables, bounds, Betti, division."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from scipy.integrate import quad

from sbclab.errors import DegenerateCensus, IdentityViolation, QuadratureBudgetExceeded
from sbclab import morse
from sbclab.morse import (
    EULER_MASCHERONI,
    BettiTable,
    BoundsReport,
    PoincareTable,
    XiTable,
    betti_quotient,
    bounds_general,
    bounds_main1,
    coefficient_identity_suite,
    factorial_reciprocal_recursion,
    harmonic,
    harmonic_tail,
    index_counts,
    iterated_log_integral,
    morse_inequality_check,
    poincare_coeffs,
    xi_coeffs,
)

from oracles import (
    descending_factorial_coeffs,
    harmonic_fraction,
    shifted_factorial_coeffs,
)


# ---------------------------------------------------------------------------
# coefficient tables


def test_poincare_n4_exact():
    assert poincare_coeffs(4).c == (1, 6, 11, 6)


def test_poincare_n5_exact():
    table = poincare_coeffs(5)
    assert table.c == (1, 10, 35, 50, 24)
    assert sum(table.c) == 120


def test_poincare_matches_direct_multiplication():
    for n in range(1, 26):
        assert list(poincare_coeffs(n).c) == descending_factorial_coeffs(n)


def test_poincare_edge_cases():
    assert poincare_coeffs(1).c == (1,)
    assert poincare_coeffs(2).c == (1, 1)
    with pytest.raises(ValueError):
        poincare_coeffs(0)


def test_poincare_table_validates():
    with pytest.raises(IdentityViolation):
        PoincareTable(n=3, c=(1, 4, 1))  # sums to 3! but c_2 != 2!
    with pytest.raises(IdentityViolation):
        PoincareTable(n=3, c=(2, 2, 2))
    with pytest.raises(ValueError):
        PoincareTable(n=3, c=(1, 2))


def test_xi_matches_direct_multiplication():
    for n in range(2, 16):
        assert list(xi_coeffs(n).xi) == shifted_factorial_coeffs(n)


def test_xi_sum_is_half_factorial():
    for n in range(2, 20):
        assert 2 * sum(xi_coeffs(n).xi) == math.factorial(n)


def test_xi_table_validates():
    with pytest.raises(IdentityViolation):
        XiTable(n=4, xi=(1, 5, 5))


def test_c_equals_xi_convolution():
    for n in range(2, 20):
        c = poincare_coeffs(n).c
        xi = (0,) + xi_coeffs(n).xi + (0,)
        assert all(c[j] == xi[j + 1] + xi[j] for j in range(n))


def test_harmonic_values():
    assert harmonic(1) == 1
    assert harmonic(4) == Fraction(25, 12)
    for n in (3, 7, 12):
        assert harmonic(n) == harmonic_fraction(n)
    assert harmonic_tail(2) == 0
    assert harmonic_tail(4) == Fraction(7, 12)


def test_second_highest_coefficient_harmonic_identity():
    # c_{n-2} = (n-1)! * H_{n-1}
    for n in range(2, 22):
        c = poincare_coeffs(n).c
        expected = Fraction(math.factorial(n - 1)) * harmonic_fraction(n - 1)
        assert c[n - 2] == expected
    assert poincare_coeffs(4).c[2] == 11  # 3! * (1 + 1/2 + 1/3)


# ---------------------------------------------------------------------------
# identity suite


def test_identity_suite_runs_clean():
    report = coefficient_identity_suite(30)
    assert report.n_max == 30
    assert len(report.identities) == 4
    # a sampled row is reported only when it decreases strictly
    for ratios in ([Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 3), Fraction(1, 2)],
                   [Fraction(1, 2), Fraction(1, 3), Fraction(1, 3)]):
        with pytest.raises(IdentityViolation, match="not decreasing"):
            morse._ratio_report("row", "a row", list(enumerate(ratios, 4)))
    labels = {m.label for m in report.monotone}
    assert "fixed_j_1" in labels
    assert "divergent_loglog" in labels
    assert "divergent_log_k2" in labels


def test_identity_suite_fixed_j1_range():
    report = coefficient_identity_suite(30)
    (fixed1,) = [m for m in report.monotone if m.label == "fixed_j_1"]
    ns = [n for n, _ in fixed1.samples]
    assert ns == list(range(4, 31))
    ratios = [r for _, r in fixed1.samples]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_identity_suite_strictness_at_4():
    assert max(poincare_coeffs(4).c) == 11  # strictly below 4!/2 = 12
    # n = 2 and 3 are the non-strict cases the suite must tolerate
    assert max(poincare_coeffs(2).c) == 1  # 2!/2 = 1, equality allowed
    assert max(poincare_coeffs(3).c) == 3  # 3!/2 = 3, equality allowed
    coefficient_identity_suite(4)


def test_identity_suite_gamma_report():
    report = coefficient_identity_suite(30)
    g = report.gamma_comparison
    assert g.gamma == EULER_MASCHERONI
    assert abs(g.gamma - 0.5772156649015329) == 0.0
    assert g.increasing and g.all_below_one
    assert g.samples[0][0] == 4
    assert g.samples[-1][0] == 30
    assert 0.93 < g.samples[0][1] < g.samples[-1][1] < 1.0


def test_identity_suite_rejects_small_n_max():
    with pytest.raises(ValueError):
        coefficient_identity_suite(3)


# every sampled row of the suite, in report order: label -> (description at
# n_max, first sampled n, step); a row is reported once it holds two samples
SUITE_ROWS = {
    "fixed_j_0": ("c_0/n! over n in [4, {}]", 4, 1),
    "fixed_j_1": ("c_1/n! over n in [4, {}]", 4, 1),
    "fixed_j_2": ("c_2/n! over n in [4, {}]", 4, 1),
    "fixed_j_3": ("c_3/n! over n in [5, {}]", 5, 1),
    "divergent_eps_1_10":
        ("c_(n-jn-1) / (n^1/10 (n-1)!), jn = ceil(n/2), even n in [4, {}]", 4, 2),
    "divergent_eps_1_2":
        ("c_(n-jn-1) / (n^1/2 (n-1)!), jn = ceil(n/2), even n in [4, {}]", 4, 2),
    "divergent_loglog":
        ("c_(n-jn-1) / (n-1)!, jn = ceil(n/2) >= log log n, even n in [4, {}]", 4, 2),
    "divergent_log_k2":
        ("c_(n-jn-1) / (n-2)!, jn = ceil(n/2) >= log n, even n in [6, {}]", 6, 2),
    "divergent_log_k3":
        ("c_(n-jn-1) / (n-3)!, jn = ceil(n/2) >= log n, even n in [8, {}]", 8, 2),
}


@pytest.mark.parametrize("n_max, labels", [
    (4, ()),
    (5, ("fixed_j_0", "fixed_j_1", "fixed_j_2")),
    (7, ("fixed_j_0", "fixed_j_1", "fixed_j_2", "fixed_j_3", "divergent_eps_1_10",
         "divergent_eps_1_2", "divergent_loglog")),
    (8, tuple(SUITE_ROWS)[:-1]),
    (30, tuple(SUITE_ROWS)),
])
def test_identity_suite_rows_in_order(n_max, labels):
    """The rows, their descriptions and their sampled n at the n_max where
    rows join the report."""
    rows = [
        (m.label, m.description, [n for n, _ in m.samples])
        for m in coefficient_identity_suite(n_max).monotone
    ]
    expected = []
    for label in labels:
        description, start, step = SUITE_ROWS[label]
        expected.append((label, description.format(n_max), list(range(start, n_max + 1, step))))
    assert rows == expected


def test_divergent_reports_sample_even_n():
    report = coefficient_identity_suite(24)
    for m in report.monotone:
        if m.label.startswith("divergent"):
            assert all(n % 2 == 0 for n, _ in m.samples)
            assert m.samples[-1][0] == 24


# ---------------------------------------------------------------------------
# nested logarithmic integral


def test_reciprocal_factorial_recursion_exact():
    a = factorial_reciprocal_recursion(20)
    assert len(a) == 21
    for j, aj in enumerate(a):
        assert aj == Fraction(1, math.factorial(j))


def test_log_integral_trivial_j1():
    numeric, closed = iterated_log_integral(math.e, 1)
    assert closed == pytest.approx(1.0, abs=1e-15)
    assert numeric == pytest.approx(1.0, rel=1e-9)


def test_log_integral_matches_closed_form():
    for n in (2.0, math.e, 10.0, 25.0, 100.0):
        for j in (1, 2, 3, 4, 5, 6):
            numeric, closed = iterated_log_integral(n, j)
            assert numeric == pytest.approx(closed, rel=1e-8)


def test_log_integral_against_unmemoized_nested_quad():
    # independent route: raw nested adaptive quadrature, no splines anywhere
    n = 25.0

    def inner(x):
        val, _ = quad(lambda t: 1.0 / t, x, n, epsabs=1e-12, epsrel=1e-12)
        return val

    oracle, _ = quad(lambda x: inner(x) / x, 1.0, n, epsabs=1e-10, epsrel=1e-10)
    numeric, closed = iterated_log_integral(n, 2)
    assert numeric == pytest.approx(oracle, rel=1e-8)
    assert closed == pytest.approx(oracle, rel=1e-8)


def test_log_integral_validates_arguments():
    for n, j in [
        (1.5, 2), (10.0, 0), (10.0, 7),
        (math.nan, 2), (math.inf, 2), (-math.inf, 2), (10.0, 2.5), (10.0, math.nan),
    ]:
        with pytest.raises(ValueError):
            iterated_log_integral(n, j)


def test_log_integral_budget_exhaustion(monkeypatch):
    # a budget below the first grid's evaluations: no second grid can run
    # to show stability, whatever the tolerance
    monkeypatch.setattr(morse, "QUAD_MAX_EVALS", 100)
    with pytest.raises(QuadratureBudgetExceeded, match="after 480 evaluations"):
        iterated_log_integral(100.0, 4)


# ---------------------------------------------------------------------------
# lower bounds


def test_bounds_main1_frozen_examples():
    r = bounds_main1(3, "below_eta1")
    assert r.bounds["below_eta1"] == {"total": 14, "non_collinear": 2}
    r = bounds_main1(4, "below_eta1")
    assert r.bounds["below_eta1"] == {"total": 60, "non_collinear": 12}
    r = bounds_main1(3, "above_etak")
    assert r.bounds["above_etak"] == {"total": 24, "non_collinear": 12}


def test_bounds_main1_between_remainder_floor():
    r = bounds_main1(4, "between")
    assert r.bounds["between"] == {"total": 84, "non_collinear": 36}
    floors = r.notes["pairwise_remainder_floor"]
    # n! - c_j with c = (1, 6, 11, 6)
    assert floors == {0: 23, 1: 18, 2: 13, 3: 18}


def test_bounds_main1_formulas_general_n():
    for n in range(3, 12):
        fn, fn1 = math.factorial(n), math.factorial(n - 1)
        assert bounds_main1(n, "below_eta1").bounds["below_eta1"]["total"] == 3 * fn - 2 * fn1
        assert bounds_main1(n, "between").bounds["between"]["non_collinear"] == 2 * fn - 2 * fn1
        assert bounds_main1(n, "above_etak").bounds["above_etak"]["total"] == 5 * fn - 2 * fn1 - 2


def test_bounds_main1_validates():
    with pytest.raises(ValueError):
        bounds_main1(2, "below_eta1")
    with pytest.raises(ValueError):
        bounds_main1(4, "nonsense")


def test_bounds_general_frozen_examples():
    r = bounds_general(4, 4)
    assert r.bounds["planar_quadratic"]["non_collinear"] == 72
    assert r.bounds["indices_adjacent"]["total"] == 102
    r = bounds_general(3, 2)
    assert r.bounds["planar_quadratic"]["non_collinear"] == 2


def test_bounds_general_all_cases_n4_d3():
    r = bounds_general(4, 3)
    fn, fn1 = 24, 6
    assert r.bounds["above_all_thresholds"]["non_collinear"] == 3 * fn - 2 * fn1 - 2
    assert r.bounds["otherwise"]["non_collinear"] == fn - 2 * fn1
    assert r.bounds["planar_quadratic"]["non_collinear"] == 3 * (fn - 2 * fn1)
    assert r.bounds["indices_adjacent"]["total"] == 3 * fn + 12 - fn1
    assert r.bounds["indices_adjacent"]["non_collinear"] == 12 - fn1
    assert r.bounds["indices_separated"]["total"] == 5 * fn - 2 * fn1
    assert r.bounds["indices_separated"]["non_collinear"] == 2 * fn - 2 * fn1
    assert r.bounds["indices_separated_off_multiples"]["total"] == 7 * fn - 2 * fn1
    assert r.bounds["indices_separated_off_multiples"]["non_collinear"] == 4 * fn - 2 * fn1
    assert set(r.notes["hypotheses"]) == set(r.bounds)


def test_bounds_general_large_n_note_is_float():
    r = bounds_general(10, 2)
    est = r.notes["indices_adjacent_large_n_non_collinear"]
    expected = (10 - (1 + EULER_MASCHERONI + math.log(10))) * math.factorial(9)
    assert est == pytest.approx(expected, rel=1e-15)


def test_bounds_nonnegative_invariant():
    for n in range(3, 10):
        for d in (2, 3, 5):
            r = bounds_general(n, d)
            for entry in r.bounds.values():
                assert all(v >= 0 for v in entry.values())
    with pytest.raises(ValueError):
        BoundsReport(n=3, d=2, regime="x", bounds={"a": {"total": -1}})


# ---------------------------------------------------------------------------
# Betti numbers


def test_betti_n4_frozen():
    t = betti_quotient(4)
    assert t.betti == (1, 0, 7, 0, 18, 6)
    assert t.total == 32
    assert t.planar_cc_bound == 19
    assert t.surplus == 13
    assert t.total - t.planar_cc_bound == t.surplus


def test_betti_sum_two_routes_agree():
    for n in range(4, 13):
        t = betti_quotient(n)
        h = harmonic_tail(n)
        closed = math.factorial(n) * (h + Fraction(1, 2) + Fraction(1, n))
        assert t.total == closed
        assert sum(t.betti) == t.total


def test_betti_structure():
    for n in (4, 5, 7):
        t = betti_quotient(n)
        assert len(t.betti) == 2 * n - 2
        assert t.betti[0] == 1
        assert t.betti[2 * n - 3] == math.factorial(n - 1)
        # odd degrees below the top vanish, even degrees are partial sums
        assert all(t.betti[k] == 0 for k in range(1, 2 * n - 3, 2))
        c = poincare_coeffs(n).c
        assert t.betti[2 * (n - 2)] == sum(c[: n - 1])


def test_betti_weighted_xi_cross_check():
    # the n = 4 weighted sum is 7 = (4!/2) h(4)
    xi = xi_coeffs(4).xi
    assert sum(xi[j] * (4 - 2 - j) for j in range(3)) == 7
    assert Fraction(math.factorial(4), 2) * harmonic_tail(4) == 7


def test_betti_rejects_n3():
    with pytest.raises(ValueError):
        betti_quotient(3)


# ---------------------------------------------------------------------------
# Morse-inequality checker


def test_morse_check_exact_match_gives_zero_quotient():
    # census that IS the reference table: M(t) = P(t), so R = 0
    c = poincare_coeffs(4).c
    census = {j: cj for j, cj in enumerate(c)}
    res = morse_inequality_check(census, 4, 2)
    assert res.divisible and res.nonnegative and res.ok
    assert res.quotient == ()


def test_morse_check_planar_three_body_censuses():
    # 14-point catalogue: 1 minimum, 7 index-1, 6 index-2 - remainder 4t
    res = morse_inequality_check({0: 1, 1: 7, 2: 6}, 3, 2)
    assert res.ok
    assert res.quotient == (0, 4)
    # 24-point catalogue: remainder 4t + 5
    res = morse_inequality_check({0: 6, 1: 12, 2: 6}, 3, 2)
    assert res.ok
    assert res.quotient == (5, 4)


def test_morse_check_missing_minimum_flagged():
    # drop one index-0 point from an exact catalogue: parity still allows
    # division but the quotient dips negative
    res = morse_inequality_check({0: 0, 1: 7, 2: 6}, 3, 2)
    assert not res.ok
    assert not (res.divisible and res.nonnegative)


def test_morse_check_indivisible_census():
    res = morse_inequality_check({0: 2, 1: 6, 2: 6}, 3, 2)
    assert not res.divisible
    assert res.quotient is None
    assert not res.ok


def test_morse_check_spatial_reference():
    # d = 3 stretches the reference polynomial by t^2
    res = morse_inequality_check({0: 1, 2: 3, 4: 2}, 3, 3)
    assert res.reference_poly == (1, 0, 3, 0, 2)
    assert res.ok and res.quotient == ()


def test_morse_check_of_index_counts():
    triples = [(0, 0, 2)] + [(1, 0, 1)] * 7 + [(2, 0, 0)] * 6
    counts = index_counts(triples)
    assert counts == {0: 1, 1: 7, 2: 6}
    res = morse_inequality_check(counts, 3, 2)
    assert res.ok and res.quotient == (0, 4)

    with pytest.raises(DegenerateCensus):
        index_counts([(0, 1, 1)])


def test_morse_check_rejects_bad_input():
    with pytest.raises(TypeError):
        morse_inequality_check([1, 2, 3], 3, 2)
    with pytest.raises(ValueError):
        morse_inequality_check({-1: 2}, 3, 2)
    with pytest.raises(ValueError):
        morse_inequality_check({0: 1}, 3, 1)
