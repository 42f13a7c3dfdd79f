"""Exact counting machinery: coefficient tables, lower bounds, Betti numbers.

Everything in this module is exact by construction — arbitrary-precision
integers and `fractions.Fraction` throughout, no floating point in any
coefficient or bound computation.  Floats appear only in the two places
where they are the point: the sampled-ratio monotonicity reports (asymptotic
statements get a finite, printed surrogate) and the nested-integral
quadrature cross-check, iterated_log_integral: one composite Gauss-Legendre
rule on numpy alone, built in its own body, so importing this module (and
the command line, which never calls it) does not load numpy.polynomial.

The central object is the family of polynomials

    p_n(z) = (1 + z)(1 + 2z) ... (1 + (n-1)z)

whose coefficients c_0 .. c_{n-1} count, degree by degree, the cells of the
collision-free collinear configuration space; the companion table xi drops
the (1 + z) factor.  The lower-bound formulas and the quotient-space Betti
numbers are closed forms in n, d, and these coefficients.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np

from .errors import DegenerateCensus, IdentityViolation, QuadratureBudgetExceeded

# Euler-Mascheroni constant; used only in the comparison report of
# coefficient_identity_suite, never in an exact bound.
EULER_MASCHERONI = 0.5772156649015329

QUAD_TOL = 1e-9              # stability target of iterated_log_integral
QUAD_MAX_EVALS = 2_000_000   # its integrand-evaluation budget


# ---------------------------------------------------------------------------
# coefficient tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoincareTable:
    """Coefficients c_0 .. c_{n-1} of p_n(z) = prod_{k=1}^{n-1} (1 + k z)."""

    n: int
    c: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if len(self.c) != self.n:
            raise ValueError("table must hold exactly n coefficients")
        if self.c[0] != 1:
            raise IdentityViolation(f"c_0 = {self.c[0]} != 1 at n = {self.n}")
        if self.c[-1] != math.factorial(self.n - 1):
            raise IdentityViolation(
                f"c_{self.n - 1} = {self.c[-1]} != (n-1)! at n = {self.n}"
            )
        if sum(self.c) != math.factorial(self.n):
            raise IdentityViolation(f"sum c_j != n! at n = {self.n}")


@dataclass(frozen=True)
class XiTable:
    """Coefficients xi_0 .. xi_{n-2} of prod_{k=2}^{n-1} (1 + k t)."""

    n: int
    xi: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if len(self.xi) != self.n - 1:
            raise ValueError("table must hold exactly n-1 coefficients")
        if 2 * sum(self.xi) != math.factorial(self.n):
            raise IdentityViolation(f"sum xi_j != n!/2 at n = {self.n}")


def _product_coeffs(factors: range) -> tuple[int, ...]:
    """Coefficients of prod_{m in factors} (1 + m z), ascending, exactly.

    Multiplies the running table by (1 + m z) one factor at a time:
    c_j <- c_j + m c_{j-1}.
    """
    c = [1]
    for m in factors:
        nxt = c + [0]
        for j, a in enumerate(c):
            nxt[j + 1] += m * a
        c = nxt
    return tuple(c)


def poincare_coeffs(n: int) -> PoincareTable:
    """Exact coefficient table of p_n via c_j^(m+1) = c_j^(m) + m c_{j-1}^(m)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return PoincareTable(n=n, c=_product_coeffs(range(1, n)))


def xi_coeffs(n: int) -> XiTable:
    """Companion table via xi_j^(m+1) = xi_j^(m) + m xi_{j-1}^(m)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return XiTable(n=n, xi=_product_coeffs(range(2, n)))


def harmonic(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n as an exact rational."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return sum((Fraction(1, i) for i in range(1, n + 1)), Fraction(0))


def harmonic_tail(n: int) -> Fraction:
    """h(n) = 1/3 + 1/4 + ... + 1/n; zero for n < 3."""
    return sum((Fraction(1, j) for j in range(3, n + 1)), Fraction(0))


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotoneReport:
    """A sampled ratio sequence that decreases strictly.

    `samples` holds (n, ratio) pairs; the ratio is evaluated exactly and
    stored as a float only for display. Every consecutive pair decreased
    (the honest finite surrogate for a limit statement): _ratio_report
    raises IdentityViolation on any other sequence.
    """

    label: str
    description: str
    samples: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class GammaReport:
    """c_{n-2} / ((gamma + log n)(n-1)!): approaches 1 from below."""

    gamma: float
    samples: tuple[tuple[int, float], ...]
    increasing: bool
    all_below_one: bool


@dataclass(frozen=True)
class IdentitySuiteReport:
    n_max: int
    identities: tuple[str, ...]
    monotone: tuple[MonotoneReport, ...]
    gamma_comparison: GammaReport


def _ratio_report(
    label: str, description: str, pairs: list[tuple[int, Fraction]]
) -> MonotoneReport:
    """The report of a ratio sequence that must decrease strictly."""
    bad = [(na, nb) for (na, a), (nb, b) in zip(pairs, pairs[1:]) if not b < a]
    if bad:
        raise IdentityViolation(f"{label}: ratio not decreasing at steps {bad}")
    return MonotoneReport(label, description, tuple((n, float(r)) for n, r in pairs))


def coefficient_identity_suite(n_max: int) -> IdentitySuiteReport:
    """Exact identities for all n <= n_max plus sampled asymptotic reports.

    Exact (IdentityViolation on failure, with a witness):
      * sum_j c_j = n!, checked as each table is built
      * c_j <= n!/2, strict once n >= 4
      * c_{n-2} = (n-1)! * H_{n-1} as rationals
      * c_j = xi_j + xi_{j-1} and sum xi_j = n!/2

    Sampled (ratios printed in the report, strict decrease asserted on the
    recorded ranges; a row is reported once it holds two samples):
      * c_j / n! at fixed j in {0..3}, n from max(4, j+2)
      * c_{n - j_n - 1} with j_n = ceil(n/2) against n^eps (n-1)!, (n-1)!,
        and (n-k)! — even n only, so the index sequence advances uniformly
      * the gamma comparison c_{n-2} / ((gamma + log n)(n-1)!), reported as
        increasing-toward-1
    """
    if n_max < 4:
        raise ValueError("n_max must be >= 4")

    tables = {n: poincare_coeffs(n).c for n in range(1, n_max + 1)}
    for n in range(2, n_max + 1):
        c = tables[n]
        half = Fraction(math.factorial(n), 2)
        for j, cj in enumerate(c):
            if cj > half:
                raise IdentityViolation(f"c_{j}^({n}) = {cj} exceeds n!/2")
            if n >= 4 and cj == half:
                raise IdentityViolation(f"c_{j}^({n}) = n!/2 but n >= 4")
        expected = Fraction(math.factorial(n - 1)) * harmonic(n - 1)
        if c[n - 2] != expected:
            raise IdentityViolation(
                f"c_{n - 2}^({n}) = {c[n - 2]} != (n-1)! H_{n - 1} = {expected}"
            )
        padded = (0,) + xi_coeffs(n).xi + (0,)
        for j in range(n):
            if c[j] != padded[j + 1] + padded[j]:
                raise IdentityViolation(f"c_{j}^({n}) != xi_{j} + xi_{j - 1}")
    identities = (
        f"sum c_j = n! for n <= {n_max}",
        f"c_j <= n!/2 for 2 <= n <= {n_max}, strict for 4 <= n",
        f"c_(n-2) = (n-1)! H_(n-1) for 2 <= n <= {n_max}",
        f"c_j = xi_j + xi_(j-1), sum xi = n!/2 for 2 <= n <= {n_max}",
    )

    # diverging-index decay with j_n = ceil(n/2).  This single sequence is
    # positively divergent, eventually above log log n, and eventually above
    # log n, so it instantiates all three diverging-index statements.  Even n
    # only: at odd steps ceil(n/2) stalls and the raw sequence saw-tooths.
    # For even n the index n - j_n - 1 is n/2 - 1.
    def half_ratios(start: int, denom) -> list[tuple[int, Fraction]]:
        return [(n, Fraction(tables[n][n // 2 - 1]) / denom(n))
                for n in range(start, n_max + 1, 2)]

    rows = []  # (label, description, [(n, exact ratio)]), in report order
    # fixed-index decay: c_j / n! -> 0.  Strictly decreasing from n = j + 2
    # (measured; the first step can tie or rise, e.g. c_1: 1/2, 3/6).
    for j in range(4):
        start = max(4, j + 2)
        rows.append((f"fixed_j_{j}", f"c_{j}/n! over n in [{start}, {n_max}]",
                     [(n, Fraction(tables[n][j], math.factorial(n)))
                      for n in range(start, n_max + 1)]))
    for eps in (Fraction(1, 10), Fraction(1, 2)):
        rows.append((
            f"divergent_eps_{eps.numerator}_{eps.denominator}",
            f"c_(n-jn-1) / (n^{eps} (n-1)!), jn = ceil(n/2), even n in [4, {n_max}]",
            half_ratios(4, lambda n: Fraction(math.factorial(n - 1))
                        * Fraction(float(n) ** float(eps))),
        ))
    rows.append((
        "divergent_loglog",
        f"c_(n-jn-1) / (n-1)!, jn = ceil(n/2) >= log log n, even n in [4, {n_max}]",
        half_ratios(4, lambda n: Fraction(math.factorial(n - 1))),
    ))
    for k, start in ((2, 6), (3, 8)):
        rows.append((
            f"divergent_log_k{k}",
            f"c_(n-jn-1) / (n-{k})!, jn = ceil(n/2) >= log n, even n in [{start}, {n_max}]",
            half_ratios(start, lambda n: Fraction(math.factorial(n - k))),
        ))
    monotone = tuple(_ratio_report(*row) for row in rows if len(row[2]) >= 2)

    gamma_pairs = []
    for n in range(4, n_max + 1):
        ratio = tables[n][n - 2] / (
            (EULER_MASCHERONI + math.log(n)) * math.factorial(n - 1)
        )
        gamma_pairs.append((n, ratio))
    increasing = all(b > a for (_, a), (_, b) in zip(gamma_pairs, gamma_pairs[1:]))
    below = all(r < 1.0 for _, r in gamma_pairs)
    gamma_report = GammaReport(
        gamma=EULER_MASCHERONI,
        samples=tuple(gamma_pairs),
        increasing=increasing,
        all_below_one=below,
    )

    return IdentitySuiteReport(
        n_max=n_max,
        identities=identities,
        monotone=monotone,
        gamma_comparison=gamma_report,
    )


# ---------------------------------------------------------------------------
# nested logarithmic integral
# ---------------------------------------------------------------------------

def factorial_reciprocal_recursion(j_max: int) -> tuple[Fraction, ...]:
    """a_0 .. a_{j_max} from a_{j+1} = sum_k (-1)^k/(k+1)! a_{j-k}, exactly.

    Asserts a_j = 1/j! at every step (IdentityViolation otherwise) and
    returns the sequence.
    """
    if j_max < 0:
        raise ValueError("j_max must be >= 0")
    a = [Fraction(1)]
    for j in range(j_max):
        nxt = sum(
            (
                Fraction((-1) ** k, math.factorial(k + 1)) * a[j - k]
                for k in range(j + 1)
            ),
            Fraction(0),
        )
        a.append(nxt)
    for j, aj in enumerate(a):
        if aj != Fraction(1, math.factorial(j)):
            raise IdentityViolation(f"a_{j} = {aj} != 1/{j}!")
    return tuple(a)


def iterated_log_integral(n: float, j: int) -> tuple[float, float]:
    """Nested integral int_1^n (1/i1) int_{i1}^n (1/i2) ... vs log^j(n)/j!.

    Returns (numeric, closed_form).  The numeric side is genuine quadrature:
    with G_0 = 1 and G_m(x) = int_x^n G_{m-1}(t)/t dt, the value is G_j(1).
    One rule serves every level: composite 15-point Gauss-Legendre on a
    log-spaced grid of cells.  G_m at each node is the integral from the
    node to its cell's right end (an in-cell integration matrix applied to
    the cell's integrand values) plus the whole cells to the right, so each
    level needs only the previous level's values at the same nodes, and the
    answer is the sum of the last level's cells.  The grid is doubled until
    that sum is stable to QUAD_TOL.

    Raises QuadratureBudgetExceeded if stability is not reached within
    QUAD_MAX_EVALS integrand evaluations.
    """
    if not math.isfinite(n) or n < 2:
        raise ValueError("n must be finite and >= 2")
    if not isinstance(j, numbers.Integral) or not 1 <= j <= 6:
        raise ValueError("j must be an integer in [1, 6]")

    # the exact rational recursion behind the closed form; cheap, and keeps
    # the two routes honest against each other on every call
    factorial_reciprocal_recursion(j)
    closed_form = math.log(n) ** j / math.factorial(j)

    # imported here, so that importing the package does not load it
    from numpy.polynomial import legendre

    # the rule on [-1, 1]: w @ f integrates the degree-14 Legendre
    # interpolant through node values f, and (A @ f)[i] integrates it from
    # x[i] to 1; its coefficients come from f by the rule's discrete
    # orthogonality of P_0 .. P_14
    x, w = legendre.leggauss(15)
    to_coeffs = (np.arange(15) + 0.5)[:, None] * legendre.legvander(x, 14).T * w
    anti = legendre.legint(np.eye(15))  # column k: an antiderivative of P_k
    A = (legendre.legval(1.0, anti) - legendre.legval(x, anti).T) @ to_coeffs

    evals = 0
    prev_value = None
    points = 9
    while True:
        grid = np.exp(np.linspace(0.0, math.log(n), points))
        grid[0], grid[-1] = 1.0, n
        mid, rad = 0.5 * (grid[1:] + grid[:-1]), 0.5 * (grid[1:] - grid[:-1])
        t = mid[:, None] + rad[:, None] * x
        g = np.ones_like(t)  # G_0 at every node of every cell
        for _ in range(j):
            f = g / t
            evals += f.size
            cells = rad * (f @ w)
            right = np.append(np.cumsum(cells[:0:-1])[::-1], 0.0)
            g = rad[:, None] * (f @ A.T) + right[:, None]
        numeric = float(cells.sum())
        if prev_value is not None and abs(numeric - prev_value) <= QUAD_TOL * max(
            1.0, abs(numeric)
        ):
            return numeric, closed_form
        if evals > QUAD_MAX_EVALS:
            raise QuadratureBudgetExceeded(
                f"no {QUAD_TOL:g}-stability after {evals} evaluations"
            )
        prev_value = numeric
        points = 2 * (points - 1) + 1


# ---------------------------------------------------------------------------
# lower bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundsReport:
    """Exact lower bounds on critical-point counts.

    `bounds` maps a case label to {"total": ..., "non_collinear": ...}
    (either key may be absent when the source statement only bounds one of
    the two).  All values are exact nonnegative integers.  `notes` carries
    auxiliary, possibly non-integer reports.
    """

    n: int
    d: int
    regime: str
    bounds: dict[str, dict[str, int]]
    notes: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for label, entry in self.bounds.items():
            for kind, value in entry.items():
                if value < 0:
                    raise ValueError(f"negative bound {label}/{kind} = {value}")


_MAIN1_REGIMES = ("below_eta1", "between", "above_etak")


def bounds_main1(n: int, regime: str) -> BoundsReport:
    """Equal-mass planar counts in the three weight regimes.

    With the planar weight s_1 below the first collinear degeneracy
    threshold, between the first and last, or above the last, the counts
    are (total, non-collinear):

        below_eta1:  3 n! - 2(n-1)!         n! - 2(n-1)!
        between:     4 n! - 2(n-1)!         2 n! - 2(n-1)!
        above_etak:  5 n! - 2(n-1)! - 2     3 n! - 2(n-1)! - 2
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if regime not in _MAIN1_REGIMES:
        raise ValueError(f"regime must be one of {_MAIN1_REGIMES}")
    fn, fn1 = math.factorial(n), math.factorial(n - 1)
    table = {
        "below_eta1": (3 * fn - 2 * fn1, fn - 2 * fn1),
        "between": (4 * fn - 2 * fn1, 2 * fn - 2 * fn1),
        "above_etak": (5 * fn - 2 * fn1 - 2, 3 * fn - 2 * fn1 - 2),
    }
    total, noncol = table[regime]
    notes: dict[str, object] = {}
    if regime == "between":
        # the sharpening beyond 4n! - 2(n-1)! depends on which coefficient
        # the second family's Morse index lands on; report the exact
        # pairwise remainder floor r_{j-1} + r_j >= n! - c_j for every j
        c = poincare_coeffs(n).c
        notes["pairwise_remainder_floor"] = {j: fn - c[j] for j in range(n)}
    return BoundsReport(
        n=n,
        d=2,
        regime=regime,
        bounds={regime: {"total": total, "non_collinear": noncol}},
        notes=notes,
    )


def _large_n_adjacent(n: int, fn1: int) -> float | int:
    """(n - (1 + gamma + log n)) (n-1)!: the large-n sharpening of the
    adjacent case. Asymptotic, so a float while it fits one; beyond the
    float range (n >= 171) the integer part of the float coefficient times
    the exact (n-1)!, which stays finite for every n."""
    coefficient = n - (1.0 + EULER_MASCHERONI + math.log(n))
    try:
        value = coefficient * fn1
    except OverflowError:  # (n-1)! itself is beyond the float range
        value = math.inf
    return value if math.isfinite(value) else int(Fraction(coefficient) * fn1)


def bounds_general(n: int, d: int) -> BoundsReport:
    """Dimension-d lower bounds: unconditional and hypothesis-labeled cases.

    Unconditional (any masses):
      * above_all_thresholds — s_1 above every ordering's top degeneracy
        threshold: 3 n! - 2(n-1)! - 2 planar non-collinear points;
      * otherwise — n! - 2(n-1)! planar non-collinear points;
      * planar_quadratic — d(d-1)/2 * (n! - 2(n-1)!) planar non-collinear
        points, one family per coordinate plane.

    Hypothetical (equal masses; keyed on how the Morse indices of the
    collinear families sit relative to each other — the hypotheses are
    recorded in notes["hypotheses"]):
      * indices_adjacent, indices_separated, indices_separated_off_multiples.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if d < 2:
        raise ValueError("d must be >= 2")
    fn, fn1 = math.factorial(n), math.factorial(n - 1)
    half = fn // 2

    bounds = {
        "above_all_thresholds": {"non_collinear": 3 * fn - 2 * fn1 - 2},
        "otherwise": {"non_collinear": fn - 2 * fn1},
        "planar_quadratic": {
            "non_collinear": (d * (d - 1) // 2) * (fn - 2 * fn1)
        },
        "indices_adjacent": {
            "total": d * fn + half - fn1,
            "non_collinear": half - fn1,
        },
        "indices_separated": {
            "total": (d + 2) * fn - 2 * fn1,
            "non_collinear": 2 * fn - 2 * fn1,
        },
        "indices_separated_off_multiples": {
            "total": (2 * d + 1) * fn - 2 * fn1,
            "non_collinear": (d + 1) * fn - 2 * fn1,
        },
    }
    notes: dict[str, object] = {
        "hypotheses": {
            "above_all_thresholds": "s_1 beyond the largest degeneracy "
            "threshold over all mass orderings",
            "otherwise": "no weight condition",
            "planar_quadratic": "none (counts planar families over all "
            "coordinate planes)",
            "indices_adjacent": "equal masses; Morse indices of consecutive "
            "collinear families differ by exactly 1",
            "indices_separated": "equal masses; they differ by at least 2",
            "indices_separated_off_multiples": "equal masses; differ by at "
            "least 2 and later families' indices avoid multiples of d-1",
        },
        "indices_adjacent_large_n_non_collinear": _large_n_adjacent(n, fn1),
    }
    return BoundsReport(n=n, d=d, regime="general", bounds=bounds, notes=notes)


# ---------------------------------------------------------------------------
# Betti numbers of the quotient sphere
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BettiTable:
    """Betti numbers beta_0 .. beta_{2n-3} of the reduced planar space."""

    n: int
    betti: tuple[int, ...]
    total: int
    planar_cc_bound: int
    surplus: int


def betti_quotient(n: int) -> BettiTable:
    """Betti table: beta_{2k} = sum_{j<=k} c_j, beta_{2n-3} = (n-1)!.

    The total is computed twice — direct summation and the closed form
    n! (h(n) + 1/2 + 1/n) with h(n) = 1/3 + ... + 1/n as exact rationals —
    and the two are asserted equal.  Also cross-checks the weighted xi
    identity sum_j xi_j (n-2-j) = (n!/2) h(n) and reports the classical
    planar central-configuration bound (n!/2)(h(n) + 1) together with the
    surplus over it.
    """
    if n < 4:
        raise ValueError("n must be >= 4")
    c = poincare_coeffs(n).c
    betti = [0] * (2 * n - 2)
    running = 0
    for k in range(n - 1):
        running += c[k]
        betti[2 * k] = running
    betti[2 * n - 3] = math.factorial(n - 1)

    total = sum(betti)
    h = harmonic_tail(n)
    closed = math.factorial(n) * (h + Fraction(1, 2) + Fraction(1, n))
    if closed != total:
        raise IdentityViolation(
            f"betti sum {total} != closed form {closed} at n = {n}"
        )

    xi = xi_coeffs(n).xi
    weighted = sum(xi[j] * (n - 2 - j) for j in range(n - 1))
    if weighted != Fraction(math.factorial(n), 2) * h:
        raise IdentityViolation(f"weighted xi sum mismatch at n = {n}")

    cc_bound = Fraction(math.factorial(n), 2) * (h + 1)
    surplus = math.factorial(n) * (h / 2 + Fraction(1, n))
    assert cc_bound.denominator == 1 and surplus.denominator == 1
    return BettiTable(
        n=n,
        betti=tuple(betti),
        total=total,
        planar_cc_bound=int(cc_bound),
        surplus=int(surplus),
    )


# ---------------------------------------------------------------------------
# Morse-inequality checker
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MorseCheckResult:
    """Outcome of the necessary-condition division M(t) - P(t) = (1+t) R(t).

    `ok` means the division is exact and every quotient coefficient is a
    nonnegative integer — necessary (not sufficient) for the census to be
    a complete nondegenerate critical-point catalogue.
    """

    n: int
    d: int
    morse_poly: tuple[int, ...]
    reference_poly: tuple[int, ...]
    divisible: bool
    quotient: tuple[int, ...] | None
    nonnegative: bool

    @property
    def ok(self) -> bool:
        return self.divisible and self.nonnegative


def index_counts(triples) -> dict[int, int]:
    """{morse_index: count} of (index, nullity, coindex) triples; raises
    DegenerateCensus on a triple with nullity > 0."""
    counts: dict[int, int] = {}
    for index, nullity, _ in triples:
        if nullity > 0:
            raise DegenerateCensus(
                f"census contains a degenerate solution (nullity {nullity}); "
                "index counts are undefined"
            )
        counts[index] = counts.get(index, 0) + 1
    return counts


def morse_inequality_check(counts: Mapping, n: int, d: int) -> MorseCheckResult:
    """Divide M(t) - P(t) by (1 + t) exactly and test the quotient.

    M(t) counts census members by Morse index, given as the
    {morse_index: count} mapping of index_counts; P(t) = p_n(t^(d-1)) is
    the reference series for the collision-free reduced space.  An exact
    division with nonnegative integer quotient is a necessary condition for
    completeness; failure proves the census misses points (or contains
    spurious ones).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if d < 2:
        raise ValueError("d must be >= 2")
    if not isinstance(counts, Mapping):
        raise TypeError("counts must be a {morse_index: count} mapping")
    merged: dict[int, int] = {}
    for idx, cnt in counts.items():
        idx, cnt = int(idx), int(cnt)
        if idx < 0 or cnt < 0:
            raise ValueError("indices and counts must be nonnegative")
        merged[idx] = merged.get(idx, 0) + cnt
    counts = merged

    c = poincare_coeffs(n).c
    deg = max([(d - 1) * (n - 1)] + list(counts))
    morse = [0] * (deg + 1)
    for idx, cnt in counts.items():
        morse[idx] += cnt
    reference = [0] * (deg + 1)
    for j, cj in enumerate(c):
        reference[j * (d - 1)] += cj

    diff = [m - p for m, p in zip(morse, reference)]
    # synthetic division by (1 + t), ascending coefficients: if the quotient
    # is q, then diff[k] = q[k] + q[k-1]; run it from the top degree down
    quotient = [0] * deg
    carry = diff[deg]
    for k in range(deg - 1, -1, -1):
        quotient[k] = carry
        carry = diff[k] - carry
    divisible = carry == 0
    while quotient and quotient[-1] == 0:
        quotient.pop()
    nonneg = divisible and all(qk >= 0 for qk in quotient)
    return MorseCheckResult(
        n=n,
        d=d,
        morse_poly=tuple(morse),
        reference_poly=tuple(reference),
        divisible=divisible,
        quotient=tuple(quotient) if divisible else None,
        nonnegative=nonneg,
    )
