"""Global search for S-balanced configurations on the weighted sphere.

Three layers: a single-start projected Newton (find_critical_point), a
seeded random-restart census with deduplication and classification, and
natural-parameter continuation in the axis weights with degeneracy
localization.  All randomness is owned by the caller-supplied seed; restart
i draws from its own generator keyed on seed XOR i, so censuses are
reproducible and no restart depends on another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collinear import enumerate_csbc
from .core import (
    DELTA_COL,
    NULL_TOL,
    TOL_RES,
    Configuration,
    InertiaTriple,
    Spectrum,
    _evaluate,
    _pair_indices,
    _residual_merit,
    _restricted_hessian_any,
    _triple_of,
    gradient,
    min_separation,
    moment_of_inertia,
    moment_of_inertia_s,
    normalize,
    potential,
    separations,
    weight_vector,
)
from .errors import BranchLost, CollisionError

DEDUP_TOL = 1e-6
OCCUPANCY_TOL = 1e-8


# ---------------------------------------------------------------------------
# result types


@dataclass(frozen=True)
class SBCSolution:
    """A converged critical point of U on the S-weighted sphere."""

    config: Configuration
    spectrum: Spectrum
    lam: float
    residual_norm: float
    triple: InertiaTriple
    classification: str
    is_cc: bool


@dataclass(frozen=True)
class SearchFailure:
    """A single search that did not produce a solution."""

    cause: str  # "collision" | "max_iter"
    iterations: int
    residual: float


@dataclass(frozen=True)
class Census:
    """Deduplicated outcome of a batch of searches.

    `symmetry_caveat` is set when the weight vector has repeated entries:
    the balance equation is then invariant under a continuous rotation
    group, point-wise deduplication is not a meaningful count, and
    `orbit_count` (congruence classes: labeled pairwise distances plus
    orientation sign) is the number to quote instead.
    """

    solutions: tuple[SBCSolution, ...]
    restarts: int
    seed: int
    failures: dict[str, int]
    masses: tuple[float, ...]
    spectrum: Spectrum
    extra_seeds: int = 0
    symmetry_caveat: bool = False
    orbit_count: int | None = None


# ---------------------------------------------------------------------------
# classification helpers


def classify_support(config: Configuration, occupancy_tol: float = OCCUPANCY_TOL) -> str:
    """Name the coordinate support: which axes carry any of the bodies.

    An axis counts as occupied when some |coordinate| exceeds
    occupancy_tol * scale.  Axes are reported 1-based.
    """
    amp = np.max(np.abs(config.q), axis=0)
    occupied = [j for j in range(config.d) if amp[j] > occupancy_tol * config.scale]
    if len(occupied) == 1:
        return f"collinear(axis={occupied[0] + 1})"
    if len(occupied) == config.d:
        return "full-dimensional"
    axes = ",".join(str(j + 1) for j in occupied)
    if len(occupied) == 2:
        return f"planar(axes={axes})"
    return f"subspace(axes={axes})"


def central_residual(
    config: Configuration, g: np.ndarray | None = None, u: float | None = None
) -> float:
    """Norm of grad U + (U/I) M q — zero exactly at a central configuration.

    A caller that has already evaluated the point passes its grad U and U
    (both or neither).
    """
    if g is None:
        g = gradient(config, guard=False)
        u = potential(config, guard=False)
    lam = u / moment_of_inertia(config)
    return float(np.linalg.norm(g + lam * config.masses[:, None] * config.q))


def _as_solution(
    config: Configuration,
    spectrum: Spectrum,
    g: np.ndarray,
    u: float,
    lam: float,
    res: float,
    tol_res: float,
) -> SBCSolution:
    """Classify a converged point from its evaluation (grad U, U, lam)."""
    A, _, _, _ = _restricted_hessian_any(config, spectrum, g=g, lam=lam)
    return SBCSolution(
        config=config,
        spectrum=spectrum,
        lam=lam,
        residual_norm=res,
        triple=_triple_of(A, u),
        classification=classify_support(config),
        is_cc=central_residual(config, g, u) < tol_res * u,
    )


# ---------------------------------------------------------------------------
# single-start search


def find_critical_point(
    q0: Configuration,
    spectrum: Spectrum,
    max_iter: int = 120,
    tol_res: float = TOL_RES,
    delta_col: float = DELTA_COL,
) -> SBCSolution | SearchFailure:
    """Projected Newton for the balance equation from one starting point.

    Works in tangent coordinates: with V the weighted-orthonormal tangent
    basis at the current point, the reduced residual y = V^T grad U is the
    Newton right-hand side.  The step solves (A^2 + mu) z = -A y — Newton
    when the damping mu is small, shrinking toward a weighted-gradient
    descent step on |y|^2 as mu grows, which is the fallback when A is
    singular or indefinite in the wrong way.  Each accepted step re-centers
    and re-normalizes I_S = 1.

    The line-search merit is G^T W^-1 G, with G the balance residual and
    W = S x M (w = weight_vector), and it equals |y|^2 = |V^T grad U|^2.
    W^-1 G is tangent: its weighted mass sum is sum_i G_i = 0 (U is
    translation invariant and the centre of mass is at 0), and its
    weighted product with q is q . G = q . grad U + lam I_S = -U + U = 0
    (U is homogeneous of degree -1).  V V^T W projects onto the tangent
    space, so |V^T G|^2 = G^T W^-1 G, and V^T G = V^T grad U because V is
    weighted-orthogonal to q.  Trial points therefore need only their
    residual, not a tangent basis or a Hessian, and each point is
    evaluated once: an accepted trial point's (grad U, U, lam, G) carries
    over to the next iteration.

    Returns a SearchFailure, never raises, on collision or stagnation: the
    census layer tallies causes.
    """
    # Trial points must also pass the default guard that gradient() and
    # potential() apply later on, so both thresholds are tested at once.
    guard = max(delta_col, DELTA_COL)
    try:
        config = normalize(q0, spectrum)
        g, u, lam, G = _evaluate(config, spectrum, guard)
    except (CollisionError, ValueError):
        return SearchFailure(cause="collision", iterations=0, residual=math.inf)

    w = weight_vector(config, spectrum)
    mu = 0.0
    res = math.inf
    for it in range(max_iter):
        res = float(np.linalg.norm(G))
        if res < tol_res * u:
            return _as_solution(config, spectrum, g, u, lam, res, tol_res)

        try:
            A, V, y, _ = _restricted_hessian_any(config, spectrum, g=g, lam=lam)
        except ValueError:
            return SearchFailure(cause="max_iter", iterations=it + 1, residual=res)
        merit = _residual_merit(G, w)
        Ay = A @ y
        A2 = A @ A
        scale_a = float(np.trace(A2)) / A.shape[0] or 1.0

        accepted = False
        for _ in range(30):
            try:
                z = np.linalg.solve(A2 + (mu * scale_a + 1e-300) * np.eye(len(y)), -Ay)
            except np.linalg.LinAlgError:
                mu = max(10.0 * mu, 1e-8)
                continue
            q_try = config.q + (V @ z).reshape(config.n, config.d)
            try:
                cand = normalize(Configuration(q_try, config.masses), spectrum)
                trial = _evaluate(cand, spectrum, guard)
            except (CollisionError, ValueError):
                mu = max(10.0 * mu, 1e-8)
                continue
            if _residual_merit(trial[3], w) < merit:
                config = cand
                g, u, lam, G = trial
                mu *= 0.25
                accepted = True
                break
            mu = max(10.0 * mu, 1e-8)
        if not accepted:
            # merit-stationary without a root: cannot make progress
            return SearchFailure(cause="max_iter", iterations=it + 1, residual=res)

    return SearchFailure(cause="max_iter", iterations=max_iter, residual=res)


# ---------------------------------------------------------------------------
# census


def mass_norm_distance(a: Configuration, b: Configuration) -> float:
    """sqrt(sum_i m_i |a_i - b_i|^2); the metric used for deduplication."""
    diff = a.q - b.q
    return math.sqrt(float(np.sum(a.masses[:, None] * diff * diff)))


def _sample_start(
    rng: np.random.Generator,
    masses: np.ndarray,
    spectrum: Spectrum,
    delta_col: float,
) -> Configuration:
    n, d = len(masses), spectrum.d
    while True:
        cfg = Configuration(rng.standard_normal((n, d)), masses)
        i_s = moment_of_inertia_s(cfg, spectrum)
        if i_s <= 0.0:
            continue
        cfg = normalize(cfg, spectrum)
        if min_separation(cfg) >= 10.0 * delta_col * cfg.scale:
            return cfg


def _orientation_sign(config: Configuration) -> int:
    """+1/-1 for full-rank configurations, 0 when a rotation can mirror them."""
    edges = config.q[1:] - config.q[0]
    d = config.d
    if edges.shape[0] < d:
        return 0
    sv = np.linalg.svd(edges, compute_uv=False)
    if sv[-1] <= 1e-8 * sv[0]:
        return 0
    # greedily pick d independent edge rows, in index order
    rows: list[int] = []
    for i in range(edges.shape[0]):
        trial = edges[rows + [i], :]
        if np.linalg.matrix_rank(trial, tol=1e-10) == len(rows) + 1:
            rows.append(i)
        if len(rows) == d:
            break
    det = np.linalg.det(edges[rows, :])
    return int(np.sign(det))


def _congruence_classes(solutions: tuple[SBCSolution, ...], tol: float = 1e-5) -> int:
    """Count rotation-congruence classes by labeled distances + orientation."""
    reps: list[tuple[np.ndarray, int]] = []
    for sol in solutions:
        vec = separations(sol.config)[_pair_indices(sol.config.n)]
        sign = _orientation_sign(sol.config)
        for rv, rs in reps:
            if rs == sign and np.max(np.abs(rv - vec)) < tol:
                break
        else:
            reps.append((vec, sign))
    return len(reps)


def _descend(
    config: Configuration,
    spectrum: Spectrum,
    steps: int = 40,
    first_step: float = 0.1,
) -> Configuration:
    """A few projected steepest-descent steps on U along the sphere.

    Used to walk a seed out of the Newton basin of the saddle it started
    next to; the direction is the inverse-weighted residual, the steepest
    descent of the constrained potential in the weight metric.
    """
    w = weight_vector(config, spectrum)
    step = first_step
    _, u, _, G = _evaluate(config, spectrum)
    for _ in range(steps):
        v = -(G.ravel() / w).reshape(config.n, config.d)
        vnorm = float(np.linalg.norm(v))
        if vnorm == 0.0:
            break
        moved = False
        while step * vnorm > 1e-10:
            try:
                cand = normalize(
                    Configuration(config.q + step * v, config.masses), spectrum
                )
                _, u_new, _, G_new = _evaluate(cand, spectrum)
            except (CollisionError, ValueError):
                step *= 0.5
                continue
            if u_new < u:
                config, u, G = cand, u_new, G_new
                step *= 1.3
                moved = True
                break
            step *= 0.5
        if not moved:
            break
    return config


def _saddle_seeds(
    masses: np.ndarray,
    spectrum: Spectrum,
    null_tol: float,
    offset: float = 0.05,
) -> list[Configuration]:
    """Starts reached by descending every collinear point's negative modes.

    The counting results predict non-collinear solutions adjacent to the
    collinear family.  A plain Newton start right next to a saddle would
    simply re-converge to it, so each seed is pushed off along a downhill
    eigendirection and then walked further downhill before the census hands
    it to the root-finder.  (The collinear points themselves re-enter the
    census anyway, via the seeds whose descent stalls immediately.)
    """
    seeds: list[Configuration] = []
    try:
        records = enumerate_csbc(masses, spectrum)
    except Exception:
        return seeds
    for rec in records:
        cfg = rec.config
        seeds.append(cfg)
        A, V, _, _ = _restricted_hessian_any(cfg, spectrum)
        u = potential(cfg, guard=False)
        evals, evecs = np.linalg.eigh(A)
        for k in range(len(evals)):
            if evals[k] >= -null_tol * u:
                break
            direction = (V @ evecs[:, k]).reshape(cfg.n, cfg.d)
            for sign in (1.0, -1.0):
                try:
                    start = normalize(
                        Configuration(
                            cfg.q + sign * offset * direction, cfg.masses
                        ),
                        spectrum,
                    )
                except ValueError:
                    continue
                seeds.append(_descend(start, spectrum))
    return seeds


def census(
    masses,
    spectrum: Spectrum,
    n_restarts: int,
    seed: int,
    *,
    saddle_seeding: bool = True,
    max_iter: int = 120,
    tol_res: float = TOL_RES,
    delta_col: float = DELTA_COL,
    dedup_tol: float = DEDUP_TOL,
) -> Census:
    """Random-restart catalogue of balanced configurations.

    Restart i draws its start from generator seed XOR i (resampling any
    start within 10 * delta_col of a collision), so extending n_restarts
    extends the census without changing earlier finds.  Solutions are
    deduplicated at dedup_tol in the mass norm, in restart order; axis
    reflections are distinct solutions and are NOT merged.  When
    saddle_seeding is on, deterministic starts along the negative modes of
    the collinear points are appended after the random batch.
    """
    masses = np.asarray(masses, dtype=float)
    if n_restarts < 0:
        raise ValueError("n_restarts must be >= 0")
    if seed < 0:
        raise ValueError("seed must be >= 0")

    def one_restart(i: int) -> SBCSolution | SearchFailure:
        rng = np.random.default_rng(seed ^ i)
        start = _sample_start(rng, masses, spectrum, delta_col)
        return find_critical_point(
            start, spectrum, max_iter=max_iter, tol_res=tol_res, delta_col=delta_col
        )

    outcomes = [one_restart(i) for i in range(n_restarts)]

    extra = 0
    if saddle_seeding:
        for start in _saddle_seeds(masses, spectrum, NULL_TOL):
            extra += 1
            outcomes.append(
                find_critical_point(
                    start,
                    spectrum,
                    max_iter=max_iter,
                    tol_res=tol_res,
                    delta_col=delta_col,
                )
            )

    kept: list[SBCSolution] = []
    failures = {"collision": 0, "max_iter": 0}
    for out in outcomes:
        if isinstance(out, SearchFailure):
            failures[out.cause] += 1
            continue
        if all(
            mass_norm_distance(out.config, s.config) >= dedup_tol for s in kept
        ):
            kept.append(out)

    caveat = len(set(spectrum.s)) < spectrum.d
    orbit_count = _congruence_classes(tuple(kept)) if caveat else None
    return Census(
        solutions=tuple(kept),
        restarts=n_restarts,
        seed=seed,
        failures=failures,
        masses=tuple(float(m) for m in masses),
        spectrum=spectrum,
        extra_seeds=extra,
        symmetry_caveat=caveat,
        orbit_count=orbit_count,
    )


# ---------------------------------------------------------------------------
# continuation in the axis weights


def _interp_spectrum(sa: Spectrum, sb: Spectrum, t: float) -> Spectrum:
    s = tuple((1.0 - t) * a + t * b for a, b in zip(sa.s, sb.s))
    h1 = (
        (sa.h1_mode or sb.h1_mode)
        and all(x > y for x, y in zip(s, s[1:]))
        and s[-1] == 1.0
    )
    return Spectrum(s, h1_mode=h1)


def _walk(
    sol: SBCSolution,
    target: Spectrum,
    max_iter: int,
    tol_res: float,
    min_step: float = 1e-12,
) -> SBCSolution:
    """Warm-started solve at `target`, halving the parameter step on failure."""
    current = sol
    lo = 0.0
    hi = 1.0
    for _ in range(300):
        spec = target if hi == 1.0 else _interp_spectrum(sol.spectrum, target, hi)
        out = find_critical_point(
            current.config, spec, max_iter=max_iter, tol_res=tol_res
        )
        if isinstance(out, SBCSolution):
            if hi == 1.0:
                return out
            current, lo = out, hi
            hi = 1.0
        else:
            hi = lo + 0.5 * (hi - lo)
            if hi - lo < min_step:
                raise BranchLost(
                    f"continuation step underflow near s = {spec.s}"
                )
    raise BranchLost("continuation stalled: too many sub-steps")


def _bisect_degeneracy(
    sol_lo: SBCSolution,
    sol_hi: SBCSolution,
    max_iter: int,
    tol_res: float,
) -> SBCSolution:
    """Localize the index jump between two nondegenerate solutions.

    Bisects the straight segment between the two weight vectors, tracking
    which side of the jump each midpoint solution falls on.  The null
    eigenvalue is continuous in the weights, so once the bracket is a few
    orders below `bracket` the midpoint's smallest eigenvalue must land
    inside the nullity tolerance band; the loop returns that solution.
    """
    sa, sb = sol_lo.spectrum, sol_hi.spectrum
    lo, hi = 0.0, 1.0
    lo_sol = sol_lo
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        spec = _interp_spectrum(sa, sb, mid)
        out = find_critical_point(
            lo_sol.config, spec, max_iter=max_iter, tol_res=tol_res
        )
        if isinstance(out, SearchFailure):
            raise BranchLost(f"lost the branch while bisecting at s = {spec.s}")
        if out.triple.nullity >= 1:
            return out
        if out.triple.index == sol_lo.triple.index:
            lo, lo_sol = mid, out
        else:
            hi = mid
    raise BranchLost("degeneracy bisection failed to isolate the crossing")


def continue_in_s(
    sol: SBCSolution,
    s_path: list[Spectrum],
    max_iter: int = 120,
    tol_res: float = TOL_RES,
) -> list[SBCSolution]:
    """Natural-parameter continuation through a list of weight vectors.

    Warm-starts each solve from the previous solution, halving the
    parameter step internally when a solve fails (BranchLost on step
    underflow).  If the Morse index changes between consecutive path
    points, the crossing is localized by bisection and the returned list
    ends with that near-degenerate solution (nullity >= 1); otherwise one
    solution per path entry is returned.
    """
    if sol.triple.nullity > 0:
        raise ValueError("continuation requires a nondegenerate starting point")
    out: list[SBCSolution] = []
    prev = sol
    for target in s_path:
        nxt = _walk(prev, target, max_iter, tol_res)
        out.append(nxt)
        if nxt.triple.nullity > 0:
            return out
        if nxt.triple.index != prev.triple.index:
            out.append(_bisect_degeneracy(prev, nxt, max_iter, tol_res))
            return out
        prev = nxt
    return out
