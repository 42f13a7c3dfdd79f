"""Output checks built from the paper's properties and from computations made
apart from the program.

Nothing here imports the program.  Every check returns a Check; a checker
returns a list of them.  The balance residual, the potential and the
accelerations are recomputed with plain pairwise loops, the counting
polynomial comes from its product formula, and tolerances are stated as
the program's own convergence tolerance plus a round-off allowance, never
as a copy of today's output.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

EPS = np.finfo(float).eps
TOL_RES = 1e-10        # the program's default balance tolerance, relative to U
SAME_POINT = 1e-6      # mass-norm distance below which two solutions coincide
OCCUPIED = 1e-8        # an axis is occupied above this share of the scale
LINE_TOL = 1e-12       # relative agreement of two solves of one collinear point
ROUND_OFF = 1e-13      # relative spread allowed for quantities exact in theory
ATTRACTOR_DEG = 0.1    # the collinear attractor of the 45 degree theorem
SLACK = 1e-9           # angle increase tolerated by check45 (its default)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


# ---------------------------------------------------------------------------
# independent physics


def pair_sums(q: np.ndarray, m: np.ndarray):
    """Potential, gradient and a force-magnitude scale by explicit pair loops.

    The gradient follows the equations of motion M q'' = grad U, so row i is
    sum_j m_i m_j (q_j - q_i) / r_ij^3.
    """
    n = len(m)
    u = 0.0
    grad = np.zeros_like(q)
    force_scale = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            d = q[j] - q[i]
            r = math.sqrt(float(d @ d))
            mm = m[i] * m[j]
            u += mm / r
            f = (mm / r**3) * d
            grad[i] += f
            grad[j] -= f
            force_scale += mm / (r * r)
    return u, grad, force_scale


def balance_residual(q: np.ndarray, m: np.ndarray, s: np.ndarray):
    """(|G|, U, lambda, allowance) for G = grad U + lambda (S x M) q.

    allowance is the round-off a correct double-precision evaluation may
    leave in |G|: a few ulps per pair term, times the number of bodies.
    """
    u, grad, force_scale = pair_sums(q, m)
    i_s = float(np.sum(m[:, None] * s[None, :] * q * q))
    lam = u / i_s
    G = grad + lam * m[:, None] * s[None, :] * q
    allowance = 64.0 * len(m) * EPS * (force_scale + lam * float(np.sum(np.abs(m[:, None] * s * q))))
    return float(np.linalg.norm(G)), u, lam, allowance


def central_residual(q: np.ndarray, m: np.ndarray) -> tuple[float, float]:
    """(|grad U + (U/I) M q|, U): zero exactly at a central configuration."""
    u, grad, _ = pair_sums(q, m)
    lam = u / float(np.sum(m[:, None] * q * q))
    return float(np.linalg.norm(grad + lam * m[:, None] * q)), u


def occupied_axes(q: np.ndarray) -> list[int]:
    scale = float(np.max(np.abs(q)))
    return [k for k in range(q.shape[1]) if np.max(np.abs(q[:, k])) > OCCUPIED * scale]


def left_to_right(x: np.ndarray) -> tuple[int, ...]:
    """1-based body labels in increasing order of the coordinate x."""
    return tuple(int(i) + 1 for i in np.argsort(x, kind="stable"))


def poincare_poly(n: int) -> list[int]:
    """Coefficients of prod_{k=1}^{n-1} (1 + k t), by direct multiplication."""
    poly = [1]
    for k in range(1, n):
        poly = [a + k * b for a, b in zip(poly + [0], [0] + poly)]
    return poly


def divide_one_plus_t(diff: list[int]):
    """(divisible, quotient) of diff(t) / (1 + t) by long division from the bottom."""
    quotient = []
    carry = 0
    for coeff in diff[:-1]:
        q = coeff - carry
        quotient.append(q)
        carry = q
    divisible = diff[-1] == carry if diff else True
    return divisible, quotient


def _trim(poly) -> list[int]:
    out = [int(v) for v in poly]
    while out and out[-1] == 0:
        out.pop()
    return out


# ---------------------------------------------------------------------------
# census reports


def _solution_arrays(doc):
    params = doc["parameters"]
    n, d = int(params["n"]), int(params["d"])
    m = np.array(params["masses"], dtype=float)
    s = np.array(params["S"], dtype=float)
    qs = np.array([sol["q"] for sol in doc["solutions"]], dtype=float).reshape(-1, n, d)
    return n, d, m, s, qs


def missing_images(qs: np.ndarray, m: np.ndarray) -> tuple[int, int]:
    """Images under axis reflections and equal-mass relabellings not in the catalogue.

    Returns (missing reflection images, missing relabelling images), counted
    over every solution and every non-trivial group element.
    """
    count, n, d = qs.shape
    if count == 0:
        return 0, 0
    flat = qs.reshape(count, -1)
    w = np.repeat(m, d)

    def missing(images: np.ndarray) -> int:
        # images: (k, n*d); distance of each image to its nearest catalogue entry
        diff = images[:, None, :] - flat[None, :, :]
        dist = np.sqrt(np.einsum("abk,k,abk->ab", diff, w, diff))
        return int(np.sum(dist.min(axis=1) >= SAME_POINT))

    reflections = [np.array(signs) for signs in itertools.product((1.0, -1.0), repeat=d)][1:]
    lost_reflection = sum(missing((qs * signs).reshape(count, -1)) for signs in reflections)
    lost_relabel = 0
    for perm in itertools.permutations(range(n)):
        perm = list(perm)
        if perm == list(range(n)) or not np.array_equal(m[perm], m):
            continue
        lost_relabel += missing(qs[:, perm, :].reshape(count, -1))
    return lost_reflection, lost_relabel


def check_census(doc, morse_doc) -> list[Check]:
    """Checks of one census report and the morse-check report made from it."""
    n, d, m, s, qs = _solution_arrays(doc)
    sols = doc["solutions"]
    checks = []

    worst = 0.0
    for q in qs:
        res, u, _, allowance = balance_residual(q, m, s)
        worst = max(worst, res / (TOL_RES * u + allowance))
    checks.append(Check("census.residual", worst < 1.0,
                        f"worst residual / (tol_res U + round-off) = {worst:.3g}"))

    dim = d * (n - 1) - 1
    bad = [i for i, sol in enumerate(sols)
           if sum(sol["triple"]) != dim or sol["triple"][1] != 0]
    checks.append(Check("census.triples", not bad,
                        f"{len(bad)} triples not summing to {dim} with nullity 0"))

    collinear, noncollinear, mislabelled = [], [], 0
    for sol, q in zip(sols, qs):
        axes = occupied_axes(q)
        is_line = len(axes) == 1
        mislabelled += is_line != sol["classification"].startswith("collinear")
        (collinear if is_line else noncollinear).append((sol, q, axes))
    found = sorted((axes[0] + 1, left_to_right(q[:, axes[0]])) for _, q, axes in collinear)
    expected = sorted((axis, tuple(p)) for axis in range(1, d + 1)
                      for p in itertools.permutations(range(1, n + 1)))
    checks.append(Check("census.collinear", found == expected and mislabelled == 0,
                        f"{len(found)} collinear solutions, {d * math.factorial(n)} "
                        f"orderings x axes expected, {mislabelled} mislabelled"))

    central = 0
    for sol, q, _ in noncollinear:
        res, u = central_residual(q, m)
        central += bool(sol["is_cc"]) or res < TOL_RES * u
    checks.append(Check("census.no_central", central == 0,
                        f"{central} non-collinear solutions central or marked central"))

    fn, fn1 = math.factorial(n), math.factorial(n - 1)
    total_bound, noncol_bound = 3 * fn - 2 * fn1, fn - 2 * fn1
    checks.append(Check(
        "census.bounds",
        len(sols) >= total_bound and len(noncollinear) >= noncol_bound,
        f"{len(sols)} >= {total_bound} in total, {len(noncollinear)} >= "
        f"{noncol_bound} non-collinear"))

    lost_reflection, lost_relabel = missing_images(qs, m)
    checks.append(Check("census.closure", lost_reflection == 0 and lost_relabel == 0,
                        f"{lost_reflection} reflection and {lost_relabel} relabelling "
                        f"images missing"))

    counts: dict[int, int] = {}
    for sol in sols:
        counts[sol["triple"][0]] = counts.get(sol["triple"][0], 0) + 1
    deg = max([(d - 1) * (n - 1)] + list(counts))
    morse = [counts.get(k, 0) for k in range(deg + 1)]
    reference = [0] * (deg + 1)
    for j, c in enumerate(poincare_poly(n)):
        reference[j * (d - 1)] += c
    divisible, quotient = divide_one_plus_t([a - b for a, b in zip(morse, reference)])
    reported_quotient = morse_doc.get("quotient")
    agree = (
        int(morse_doc["solution_count"]) == len(sols)
        and _trim(morse_doc["morse_poly"]) == _trim(morse)
        and _trim(morse_doc["reference_poly"]) == _trim(reference)
        and bool(morse_doc["divisible"]) == divisible
        and (not divisible or _trim(reported_quotient or []) == _trim(quotient))
    )
    checks.append(Check("morse.agrees", agree,
                        f"report M={morse_doc['morse_poly']} P={morse_doc['reference_poly']}"
                        f" q={reported_quotient}; recomputed M={morse} q={quotient}"))
    ok = divisible and all(v >= 0 for v in quotient)
    checks.append(Check("morse.ok", ok and bool(morse_doc["ok"]),
                        f"M - P = (1+t) {quotient if divisible else 'not divisible'}"))
    return checks


def check_probe(census_doc, collinear_doc) -> list[Check]:
    """A single collinear solve must appear in the census catalogue."""
    _, _, m, _, qs = _solution_arrays(census_doc)
    rec = collinear_doc["records"][0]
    q = np.array(rec["positions"], dtype=float)
    w = m[None, :, None]
    dist = float(np.min(np.sqrt(np.sum(w * (qs - q[None]) ** 2, axis=(1, 2))), initial=math.inf))
    return [Check("census.probe", dist < SAME_POINT,
                  f"collinear solve of ordering {rec['ordering']} on axis {rec['axis']} "
                  f"lies {dist:.3g} from the nearest census solution")]


# ---------------------------------------------------------------------------
# collinear enumeration


def _record_key(rec):
    return int(rec["axis"]), tuple(int(b) for b in rec["ordering"])


def check_collinear(doc, singles=()) -> list[Check]:
    """Checks of a collinear enumeration, plus single solves that must match it."""
    n, d = int(doc["n"]), int(doc["d"])
    m = np.array(doc["masses"], dtype=float)
    s = np.array(doc["S"], dtype=float)
    records = doc["records"]
    by_key = {_record_key(r): r for r in records}
    expected = {(axis, tuple(p)) for axis in range(1, d + 1)
                for p in itertools.permutations(range(1, n + 1))}
    checks = [Check("collinear.count",
                    int(doc["count"]) == len(records) == len(by_key) == d * math.factorial(n)
                    and set(by_key) == expected,
                    f"{len(records)} records, {len(by_key)} distinct, "
                    f"{d * math.factorial(n)} expected")]

    worst_res, worst_geo, worst_val = 0.0, 0.0, 0.0
    for rec in records:
        axis, ordering = _record_key(rec)
        q = np.array(rec["positions"], dtype=float)
        res, u, lam, allowance = balance_residual(q, m, s)
        worst_res = max(worst_res, res / (TOL_RES * u + allowance))
        worst_val = max(worst_val, abs(rec["U"] - u) / u, abs(rec["lambda"] - lam) / lam)
        off = np.delete(q, axis - 1, axis=1)
        i_s = float(np.sum(m[:, None] * s[None, :] * q * q))
        geo = max(float(np.max(np.abs(off), initial=0.0)), abs(i_s - 1.0),
                  float(np.max(np.abs(m @ q))) / float(np.sum(m)))
        if left_to_right(q[:, axis - 1]) != ordering:
            geo = math.inf
        worst_geo = max(worst_geo, geo)
    checks.append(Check("collinear.residual", worst_res < 1.0 and worst_val < LINE_TOL,
                        f"worst residual / (tol_res U + round-off) = {worst_res:.3g}, "
                        f"worst relative U or lambda mismatch {worst_val:.3g}"))
    checks.append(Check("collinear.geometry", worst_geo < LINE_TOL,
                        f"worst off-axis, I_S - 1 or centre-of-mass defect {worst_geo:.3g}"))

    mismatched = sum(r["predicted"] is None or r["predicted"] != r["computed"] for r in records)
    checks.append(Check("collinear.predicted", mismatched == 0,
                        f"{mismatched} records whose predicted triple differs from the computed"))

    def pos(key):
        return np.array(by_key[key]["positions"], dtype=float)

    worst_rev, worst_axis = 0.0, 0.0
    for (axis, ordering) in by_key:
        q = pos((axis, ordering))
        scale = float(np.max(np.abs(q)))
        mirror = (axis, ordering[::-1])
        if mirror in by_key:
            worst_rev = max(worst_rev, float(np.max(np.abs(pos(mirror) + q))) / scale)
        else:
            worst_rev = math.inf
        if axis > 1:
            first = (1, ordering)
            if first in by_key:
                expect = math.sqrt(s[0] / s[axis - 1]) * pos(first)[:, 0]
                worst_axis = max(worst_axis, float(np.max(np.abs(q[:, axis - 1] - expect))) / scale)
            else:
                worst_axis = math.inf
    checks.append(Check("collinear.reversal", worst_rev < LINE_TOL,
                        f"reversed ordering gives -q to {worst_rev:.3g}"))
    checks.append(Check("collinear.axis_scaling", worst_axis < LINE_TOL,
                        f"axis-k positions equal sqrt(s1/sk) x axis-1 positions to {worst_axis:.3g}"))

    for k, single in enumerate(singles):
        ok = int(single["count"]) == 1
        if ok:
            rec = single["records"][0]
            twin = by_key.get(_record_key(rec))
            q = np.array(rec["positions"], dtype=float)
            ok = (twin is not None and rec["computed"] == twin["computed"]
                  and rec["predicted"] == twin["predicted"]
                  and float(np.max(np.abs(q - np.array(twin["positions"])))) < LINE_TOL * float(np.max(np.abs(q))))
        checks.append(Check(f"collinear.single{k}", ok,
                            "single-ordering solve matches its enumeration record"))
    return checks


# ---------------------------------------------------------------------------
# check45 and orbit reports


def check_check45(doc, count: int) -> list[Check]:
    """Every seed checked, monotone, free of collision and inside the attractor."""
    outcomes = doc["outcomes"]
    bad = [o["index"] for o in outcomes if not (
        o["status"] == "checked"
        and o["monotone"] is True
        and o["worst_increase"] < SLACK
        and o["stop_reason"] == "theta_target"
        and o["theta_end"] < ATTRACTOR_DEG
        and 0.0 < o["theta_start"] <= 45.0 + 1e-12
    )]
    ok = (not bad and len(outcomes) == count == doc["count"] == doc["checked"] == doc["monotone"]
          == doc["reached_attractor"] and doc["collisions"] == 0 and doc["all_monotone"] is True)
    return [Check("check45.all_seeds", ok,
                  f"{len(outcomes)} of {count} seeds reported, failing seeds {bad[:5]}")]


def read_orbit_csv(path: str, n: int):
    """(times, positions (samples, n, 4)) from an orbit CSV report."""
    with open(path, encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh))
    expected = ["t"] + [f"q{i + 1}_{k + 1}" for i in range(n) for k in range(4)]
    if header != expected:
        raise ValueError(f"unexpected orbit CSV header {header[:6]}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1:].reshape(len(data), n, 4)


def newton_field(q: np.ndarray, m: np.ndarray) -> np.ndarray:
    """M^{-1} grad U at every sample of q (samples, n, dim), by a loop over pairs."""
    acc = np.zeros_like(q)
    n = len(m)
    for i in range(n):
        for j in range(i + 1, n):
            d = q[:, j, :] - q[:, i, :]
            inv_r3 = np.sum(d * d, axis=1) ** -1.5
            acc[:, i, :] += (m[j] * inv_r3)[:, None] * d
            acc[:, j, :] -= (m[i] * inv_r3)[:, None] * d
    return acc


def check_orbit(times: np.ndarray, q: np.ndarray, m: np.ndarray,
                t_final: float, samples: int) -> list[Check]:
    """Newton's equations by second differences, rigid distances, fixed centre."""
    dt = t_final / (samples - 1)
    grid = (len(times) == samples
            and float(np.max(np.abs(times - dt * np.arange(samples)))) <= 4 * EPS * t_final)
    checks = [Check("orbit.grid", grid, f"{len(times)} rows on the uniform grid of {samples}")]
    if not grid:
        return checks

    def flat(a):
        return a.reshape(len(a), -1)

    field = newton_field(q, m)
    accel_fd = flat(q[2:] - 2.0 * q[1:-1] + q[:-2]) / dt**2
    inner = flat(field[1:-1])
    # The central second difference errs by dt^2 q''''/12 + O(dt^4).  On an
    # exact orbit q'' is the field, so dt^2 q'''' is the second difference of
    # the field.  Add the cancellation of rows rounded to eps, and the balance
    # tolerance of the base configuration.
    truncation = np.linalg.norm(flat(field[2:] - 2.0 * field[1:-1] + field[:-2]), axis=1) / 12.0
    norm_a = np.linalg.norm(inner, axis=1)
    allowed = (2.0 * truncation + 8.0 * EPS * np.linalg.norm(flat(q[1:-1]), axis=1) / dt**2
               + 10.0 * TOL_RES * norm_a)
    defect = np.linalg.norm(accel_fd - inner, axis=1)
    worst = float(np.max(defect / allowed))
    checks.append(Check("orbit.newton", worst < 1.0,
                        f"worst second-difference defect {float(np.max(defect / norm_a)):.3g} "
                        f"relative, {worst:.3g} of its allowance"))

    iu, ju = np.triu_indices(len(m), k=1)
    r = np.linalg.norm(q[:, iu, :] - q[:, ju, :], axis=2)
    spread = float(np.max((r.max(axis=0) - r.min(axis=0)) / r.mean(axis=0)))
    checks.append(Check("orbit.rigid", spread < ROUND_OFF,
                        f"mutual distances vary by {spread:.3g} of their mean"))
    com = float(np.max(np.abs(np.einsum("i,kij->kj", m, q)))) / float(np.max(np.abs(q)))
    checks.append(Check("orbit.centre", com < ROUND_OFF, f"centre of mass drifts {com:.3g}"))
    return checks
