"""Global search for S-balanced configurations on the weighted sphere.

Three layers: a single-start projected Newton (find_critical_point), a
seeded random-restart census with deduplication and classification, and
natural-parameter continuation in the axis weights with degeneracy
localization.  All randomness is owned by the caller-supplied seed; restart
i draws from its own generator keyed on seed XOR i, so censuses are
reproducible and no restart depends on another.

A census is closed under the problem's discrete symmetry group
(core.symmetry_group: axis reflections times relabellings of equal
masses).  Its deterministic saddle seeds therefore come from one collinear
record per group orbit, and every new find is listed with its exact
images, identity first, so the catalogue's order is fixed by solve order.
Only a find is checked against the list, which stays closed under the
group up to DEDUP_TOL, and not its images: checking them could change the
list only for a find between DEDUP_TOL and 2 * DEDUP_TOL from it.
The catalogue is one read-only (N, n, d) stack of points with a column per
reported quantity; its SBCSolution objects are built only on request.
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
    _ambient,
    _check_dims,
    _constants,
    _Constants,
    _critical_models,
    _evaluate_x,
    _eye,
    _frame_of,
    _images,
    _normalize_q,
    _pair_indices,
    _pairs,
    _residual_norm,
    _restricted_hessian_any,
    _triple_of,
    mass_vector,
    symmetry_group,
)
from .errors import BranchLost, SbcLabError

DEDUP_TOL = 1e-6
OCCUPANCY_TOL = 1e-8
CONGRUENCE_TOL = 1e-5   # pair-distance match of two congruence-class members
SEED_OFFSET = 0.05      # push off a collinear saddle along a downhill mode
MIN_PARAM_STEP = 1e-12  # continuation sub-step below which the branch is lost
MAX_ITER = 120          # Newton iterations per find_critical_point solve
DISTANCE_BLOCK = 1 << 18  # float entries per block of a dedup distance matrix


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

    cause: str  # "collision" | "max_iter" | "stalled"
    iterations: int
    residual: float


@dataclass(frozen=True)
class Census:
    """Deduplicated outcome of a batch of searches, closed under the
    problem's discrete symmetries (see census), held as columns.

    Row i of the catalogue is the point `q[i]` of the read-only (N, n, d)
    stack `q`, normalized to I_S = 1 with its centre of mass removed, and
    the Python scalars `lam[i]`, `residual[i]` (the balance residual norm),
    `triple[i]` (an InertiaTriple), `classification[i]` and `is_cc[i]`.
    `solution(i)` builds row i as an SBCSolution with its own
    Configuration; `solutions` builds every row that way, on every access.

    `extra_seeds` counts the saddle-seeded solves and the polishes of
    closure images, so `restarts + extra_seeds` is the number of solves.
    `symmetry_caveat` is set when the weight vector has repeated entries:
    the balance equation is then invariant under a continuous rotation
    group, point-wise deduplication is not a meaningful count, and
    `orbit_count` (congruence classes: labeled pairwise distances plus
    orientation sign) is the number to quote instead.
    """

    q: np.ndarray
    lam: tuple[float, ...]
    residual: tuple[float, ...]
    triple: tuple[InertiaTriple, ...]
    classification: tuple[str, ...]
    is_cc: tuple[bool, ...]
    restarts: int
    seed: int
    failures: dict[str, int]
    masses: tuple[float, ...]
    spectrum: Spectrum
    extra_seeds: int = 0
    symmetry_caveat: bool = False
    orbit_count: int | None = None

    def solution(self, i: int) -> SBCSolution:
        return SBCSolution(
            Configuration(self.q[i], np.array(self.masses)), self.spectrum,
            self.lam[i], self.residual[i], self.triple[i],
            self.classification[i], self.is_cc[i],
        )

    @property
    def solutions(self) -> tuple[SBCSolution, ...]:
        return tuple(self.solution(i) for i in range(len(self.q)))


# ---------------------------------------------------------------------------
# classification helpers


def classify_support(config: Configuration) -> str:
    """Name the coordinate support: which axes carry any of the bodies.

    An axis counts as occupied when some |coordinate| exceeds
    OCCUPANCY_TOL * scale.  Axes are reported 1-based.
    """
    occupied = np.flatnonzero(_occupied(config.q)).tolist()
    if len(occupied) == 1:
        return f"collinear(axis={occupied[0] + 1})"
    if len(occupied) == config.d:
        return "full-dimensional"
    axes = ",".join(str(j + 1) for j in occupied)
    if len(occupied) == 2:
        return f"planar(axes={axes})"
    return f"subspace(axes={axes})"


def _occupied(q: np.ndarray) -> np.ndarray:
    """Per axis (column) of (n, d) positions q, or of (n - 1, d) frame
    coordinates: whether some |entry| on it exceeds OCCUPANCY_TOL times the
    largest one."""
    amp = np.max(np.abs(q), axis=0)
    return amp > OCCUPANCY_TOL * amp.max()


def _central(q: np.ndarray, m: np.ndarray, g: np.ndarray, u) -> np.ndarray:
    """Whether raw (..., n, d) balanced points with grad U g and potential u
    pass the central test: |grad U + (U/I) M q| < TOL_RES * U, with I the
    unweighted moment of inertia sum_i m_i |q_i|^2, one verdict per leading
    index.  A collinear point is central whatever this says (on axis j the
    balance equation is the central one with multiplier lam * s_j)."""
    lam = u / np.einsum("i,...ij,...ij->...", m, q, q)
    c = g + np.asarray(lam)[..., None, None] * m[:, None] * q
    return np.sqrt(np.einsum("...ij,...ij->...", c, c)) < TOL_RES * u


def _as_solution(q: np.ndarray, c: _Constants, spectrum: Spectrum, A: np.ndarray,
                 gx: np.ndarray, u, lam, res: float) -> SBCSolution:
    """Classify a converged point from its frame pass (gx, U, lam, |G|) and
    restricted Hessian A; builds the solution's one Configuration."""
    config = Configuration(q, c.m)
    classification = classify_support(config)
    return SBCSolution(
        config=config,
        spectrum=spectrum,
        lam=float(lam),
        residual_norm=res,
        triple=_triple_of(A, u),
        classification=classification,
        is_cc=classification.startswith("collinear")
        or bool(_central(config.q, c.m, _ambient(gx, c), u)),
    )


# ---------------------------------------------------------------------------
# single-start search


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def find_critical_point(q0: Configuration, spectrum: Spectrum) -> SBCSolution | SearchFailure:
    """Projected Newton for the balance equation from one starting point.

    The state is the frame coordinate x of q = K x (core._constants:
    K^T W K = I, W = S x M with diagonal w), so I_S = |x|^2 and every point
    keeps its centre of mass at 0 to K's rounding.  The start is re-centred
    and normalized (core._normalize_q), then mapped once, x = K^T W q.  With
    P the Householder complement of x, y = P^T K^T grad U, and the step
    solves (A^2 + mu) z = -A y: Newton for small damping mu, a weighted
    descent step on |y|^2 as mu grows.  A trial is (x + P z) / |x + P z|.

    The merit is G^T W^-1 G, G the balance residual.  W^-1 G has zero mass
    sum (sum_i G_i = 0), so it is K a with a = K^T G = K^T grad U + lam x,
    and the merit is |a|^2; q . G = -U + U = 0 (U is homogeneous of degree
    -1) makes a orthogonal to x, so |a|^2 = |y|^2.  Trials need only a.

    Per solve: the constants of (m, s) and one numpy error state silencing
    rejected trials' warnings.  Per point, the start and every trial: one
    frame pair pass (core._evaluate_x).  Per iterate: one restricted Hessian
    from that pass (_restricted_hessian_any), for the step or the inertia
    triple.  Where |G| = |W K a| < TOL_RES * U, q = K x gets one frame pass
    of its own, at x' = _frame_of(q) as in sbc_residual, whose grad U, U,
    lam and |G| give the solution's row and have the final say on the gate.
    A collision, MAX_ITER iterations or an iterate whose 30 trials all fail
    return a SearchFailure ("collision", "max_iter", "stalled"); a spectrum
    whose dimension differs from the configuration's raises ValueError.
    """
    n, d = q0.n, q0.d
    _check_dims(q0, spectrum)  # raises ValueError on a dimension mismatch
    c = _constants(q0.masses, spectrum.array)
    q, bad = _normalize_q(q0.q, c)
    if not bad:
        x = _frame_of(q, c)
        diff, r, pw, gx, u, lam, a, bad = _evaluate_x(x, c)
    if bad:
        return SearchFailure(cause="collision", iterations=0, residual=math.inf)

    eye = _eye(d * (n - 1) - 1)  # damping identity on the tangent space, len(y)
    mu, res, merit = 0.0, math.inf, a @ a
    for it in range(MAX_ITER):
        res = _residual_norm(a, c)
        A, P, y = _restricted_hessian_any(x, c, diff, r, pw, gx, lam)
        if res < TOL_RES * u:
            q = (c.K @ x).reshape(n, d)
            _, _, _, gx_q, u_q, lam_q, a_q, collided = _evaluate_x(_frame_of(q, c), c)
            res_q = _residual_norm(a_q, c)
            if not collided and res_q < TOL_RES * u_q:
                return _as_solution(q, c, spectrum, A, gx_q, u_q, lam_q, res_q)

        Ay = A @ y
        A2 = A @ A
        scale_a = float(A2.trace()) / A.shape[0] or 1.0

        accepted = False
        for _ in range(30):
            try:
                z = np.linalg.solve(A2 + (mu * scale_a + 1e-300) * eye, -Ay)
            except np.linalg.LinAlgError:
                mu = max(10.0 * mu, 1e-8)
                continue
            x_try = x + P @ z
            size = math.sqrt(x_try @ x_try)
            bad = not 0.0 < size < math.inf
            if not bad:
                x_try = x_try / size
                *trial, bad = _evaluate_x(x_try, c)
            if not bad and (trial_merit := trial[-1] @ trial[-1]) < merit:
                x, merit = x_try, trial_merit
                diff, r, pw, gx, u, lam, a = trial
                mu *= 0.25
                accepted = True
                break
            mu = max(10.0 * mu, 1e-8)
        if not accepted:
            # merit-stationary without a root: cannot make progress
            return SearchFailure(cause="stalled", iterations=it + 1, residual=res)

    return SearchFailure(cause="max_iter", iterations=MAX_ITER, residual=res)


# ---------------------------------------------------------------------------
# census


def mass_norm_distance(a: Configuration, b: Configuration) -> float:
    """sqrt(sum_i m_i |a_i - b_i|^2); the metric used for deduplication."""
    diff = a.q - b.q
    return math.sqrt(float(np.sum(a.masses[:, None] * diff * diff)))


def _sample_start(rng: np.random.Generator, c: _Constants) -> Configuration:
    while True:
        q, bad = _normalize_q(rng.standard_normal((len(c.m), len(c.s))), c)
        if not bad and _pairs(q)[1].min() >= 10.0 * DELTA_COL * np.max(np.abs(q)):
            return Configuration(q, c.m)


def _orientation_sign(q: np.ndarray) -> int:
    """+1/-1 for full-rank (n, d) positions, 0 when a rotation can mirror them."""
    edges = q[1:] - q[0]
    d = q.shape[1]
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


def _congruence_classes(q: np.ndarray) -> int:
    """Count rotation-congruence classes of the (N, n, d) points q by
    labeled distances + orientation."""
    reps: list[tuple[np.ndarray, int]] = []
    for row in q:
        vec = _pairs(row)[1][_pair_indices(len(row))]
        sign = _orientation_sign(row)
        for rv, rs in reps:
            if rs == sign and np.max(np.abs(rv - vec)) < CONGRUENCE_TOL:
                break
        else:
            reps.append((vec, sign))
    return len(reps)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _descend(starts: np.ndarray, c: _Constants) -> np.ndarray:
    """Projected steepest descent on U along the sphere from a (B, (n-1)d)
    stack of unit frame coordinates x (core._Constants), walked in
    lockstep; returns the end points' x.

    Walks seeds out of the Newton basin of the saddle they start next to.
    A move is x - step v over its own norm, v = a / U with a = K^T G from
    core._evaluate_x: W^-1 G = K a, so v is the inverse-weighted residual
    in the frame, divided by U to be free of the mass scale.  A trial that
    lowers U is taken and grows the lane's step by 1.3; any other (or a
    non-finite, zero or colliding one) halves it.  A lane stops after 40
    moves or at step * |v| <= 1e-10.  Each x maps to a centred q = K x, so
    no move needs a centre-of-mass test.  Each lane ends as it would alone.
    """
    x = np.array(starts, dtype=float)
    *_, u, _, a, collided = _evaluate_x(x, c)
    live = ~collided
    step = np.full(len(x), 0.1)
    moves = np.zeros(len(x), dtype=int)
    while True:
        lanes = np.flatnonzero(live)
        v = a[lanes] / u[lanes, None]
        trying = step[lanes] * np.sqrt((v * v).sum(axis=-1)) > 1e-10
        live[lanes[~trying]] = False
        lanes, v = lanes[trying], v[trying]
        if not len(lanes):
            return x
        x_new = x[lanes] - step[lanes, None] * v
        size = np.sqrt((x_new * x_new).sum(axis=-1))
        x_new /= size[:, None]
        *_, u_new, _, a_new, collided = _evaluate_x(x_new, c)
        better = (0.0 < size) & (size < math.inf) & ~collided & (u_new < u[lanes])
        moved = lanes[better]
        x[moved], u[moved], a[moved] = x_new[better], u_new[better], a_new[better]
        step[moved] *= 1.3
        step[lanes[~better]] *= 0.5
        moves[moved] += 1
        live[moved[moves[moved] == 40]] = False


def _representatives(cat, masses: np.ndarray) -> list[int]:
    """The row of one collinear record per symmetry orbit, the first in the
    catalogue's (axis, ordering) order. The group (core.symmetry_group)
    keeps a record's axis and maps its ordering to every ordering with the
    same masses in line order, or in reversed line order (an axis flip), so
    that pair of mass sequences and the axis name the orbit."""
    orbits, reps = set(), []
    for i, (axis, line) in enumerate(zip(cat.axis.tolist(), masses[cat.ordering - 1].tolist())):
        orbit = axis, min(tuple(line), tuple(line[::-1]))
        if orbit not in orbits:
            orbits.add(orbit)
            reps.append(i)
    return reps


def _saddle_seeds(c: _Constants, spectrum: Spectrum) -> list[Configuration]:
    """Starts reached by descending the negative modes of one collinear
    point per symmetry orbit.

    The counting results predict non-collinear solutions adjacent to the
    collinear family.  A plain Newton start right next to a saddle would
    simply re-converge to it, so each seed is pushed off along a downhill
    eigendirection and walked further downhill (all in one _descend call),
    in frame coordinates: a push is x +- SEED_OFFSET * P e_k over its norm,
    x and P from the record's model build, and a walk's end x gives the
    seed q = K x.  Each mode's sign is fixed first (its first component
    above 1e-6 of its largest is positive), so the model's rounding cannot
    swap its + and - walks.  The push is exactly zero on the axes (columns
    of x.reshape(n - 1, d), core._Constants) that neither the point nor
    the mode occupies (_occupied, as classify_support counts them), so it
    stays on its mode's invariant coordinate subspace, as does every move
    of the walk, which then does not depend on rounding off that subspace.
    The walks from the other points of an orbit are images of these, and
    census closes its catalogue under the group, so only the orbit
    representatives (_representatives) are walked: one record per axis
    for equal masses, the n!/2 canonical lines per axis for distinct ones.
    Per representative: the collinear point itself (it re-enters the census
    anyway, via the walks that stall at once), then its walks, mode by
    mode, + then -, from one stacked core._critical_models model build.
    An enumeration or a model build that fails numerically (SbcLabError)
    gives no seeds; any other error propagates.
    """
    m, n, d = c.m, len(c.m), spectrum.d
    try:
        cat = enumerate_csbc(m, spectrum)
        reps = _representatives(cat, m)
        *_, A, P, X = _critical_models(cat.q[reps], c)
    except SbcLabError:
        return []
    seeds: list[Configuration | None] = []  # None: the next walked start
    starts = []
    for q, u, a, p, x in zip(cat.q[reps], cat.u[reps].tolist(), A, P, X):
        seeds.append(Configuration(q, m))
        evals, evecs = np.linalg.eigh(a)
        for k in range(len(evals)):
            if evals[k] >= -NULL_TOL * u:
                break
            mode = evecs[:, k]
            lead = mode[np.argmax(np.abs(mode) > 1e-6 * np.abs(mode).max())]
            direction = (p @ (math.copysign(1.0, lead) * mode)).reshape(n - 1, d)
            direction[:, ~(_occupied(q) | _occupied(direction))] = 0.0
            for sign in (1.0, -1.0):
                start = x + sign * SEED_OFFSET * direction.ravel()
                seeds.append(None)
                starts.append(start / math.sqrt(start @ start))
    walked = iter(_descend(np.array(starts), c) if starts else ())
    return [Configuration((c.K @ next(walked)).reshape(n, d), m) if seed is None else seed
            for seed in seeds]


def _near(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(A, B) mask: row i of a (A, k) lies within DEDUP_TOL of row j of
    b (B, k) in the mass norm, w the mass of each of the k columns.  Built
    in blocks of rows of a with one in-place pass per column, so no float
    array of more than DISTANCE_BLOCK entries, and no (A, B, k) difference,
    is held."""
    near = np.empty((len(a), len(b)), dtype=bool)
    rows = max(1, DISTANCE_BLOCK // max(len(b), 1))
    for lo in range(0, len(a), rows):
        d2 = np.zeros((len(a[lo : lo + rows]), len(b)))
        for col in range(a.shape[1]):
            diff = np.subtract.outer(a[lo : lo + rows, col], b[:, col])
            diff *= diff
            diff *= w[col]
            d2 += diff
        near[lo : lo + rows] = d2 < DEDUP_TOL**2
    return near


def _row(sol: SBCSolution) -> tuple:
    """The catalogue row of a solve's solution (see Census)."""
    return sol.config.q, sol.lam, sol.residual_norm, sol.triple, sol.classification, sol.is_cc


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _closed(
    outcomes: list,
    c: _Constants,
    group: tuple[np.ndarray, np.ndarray],
    spectrum: Spectrum,
) -> tuple[list[tuple], dict[str, int], int]:
    """Deduplicate solve outcomes and close them under a symmetry group,
    as catalogue rows (q, lam, residual, triple, classification, is_cc).

    In solve order: a failure is tallied by cause; a solution within
    DEDUP_TOL (mass norm) of the list so far is skipped; any other is
    listed with its group images (core._images), in group order, identity
    first, leaving out those within DEDUP_TOL of an earlier image of the
    same orbit.  No image is checked against the list: each group element
    is an isometry of the mass norm and every kept image stays listed, even
    if its polish fails, so the list is closed under the group up to
    DEDUP_TOL and an image within DEDUP_TOL of it puts its find within
    2 * DEDUP_TOL.  Only in that band could the two checks differ; finds of
    one solution lie far inside DEDUP_TOL, distinct ones far outside.

    A find's row comes from its solve.  The new images are evaluated
    together, one _evaluate_x pass at their stacked _frame_of and one central
    test (_central, grad U = W K gx), and keep their source's triple and
    classification, which the group leaves unchanged; residual, lambda and
    is_cc come from their own evaluation, the residual as a solve takes it
    (core._residual_norm), and q is the exact image, so no image builds a
    Configuration.  An image whose residual misses TOL_RES * U gets one
    find_critical_point polish, whose solution gives its row; a failed
    polish is tallied and leaves the image out.  Returns (rows, failures by
    cause, polishes made).
    """
    m, n, d = c.m, len(c.m), spectrum.d
    w = np.repeat(m, d)
    failures = {"collision": 0, "max_iter": 0, "stalled": 0}
    listed = np.empty((0, n * d))
    orbits = []  # (source solution, its new images other than itself)
    for out in outcomes:
        if isinstance(out, SearchFailure):
            failures[out.cause] += 1
            continue
        if _near(out.config.q.reshape(1, -1), listed, w).any():
            continue
        images = _images(out.config.q, group).reshape(-1, n * d)
        keep = np.argmax(_near(images, images, w), axis=1) == np.arange(len(images))
        listed = np.concatenate([listed, images[keep]])
        orbits.append((out, images[keep][1:].reshape(-1, n, d)))

    q = np.concatenate([imgs for _, imgs in orbits] or [np.empty((0, n, d))])
    _, _, _, gx, u, lam, a, collided = _evaluate_x(_frame_of(q, c), c)
    res = _residual_norm(a, c)
    central = _central(q, m, _ambient(gx, c), u)
    rows: list[tuple] = []
    polishes = k = 0  # k: the next image's lane of the stacked evaluation
    for sol, imgs in orbits:
        rows.append(_row(sol))
        collinear = sol.classification.startswith("collinear")
        for _ in imgs:
            if collided[k] or not res[k] < TOL_RES * u[k]:
                polishes += 1
                out = find_critical_point(Configuration(q[k], m), spectrum)
                if isinstance(out, SearchFailure):
                    failures[out.cause] += 1
                else:
                    rows.append(_row(out))
            else:
                rows.append((q[k], float(lam[k]), float(res[k]), sol.triple,
                             sol.classification, collinear or bool(central[k])))
            k += 1
    return rows, failures, polishes


def census(masses, spectrum: Spectrum, n_restarts: int, seed: int) -> Census:
    """Random-restart catalogue of balanced configurations, closed under
    the problem's discrete symmetries.

    Restart i draws its start from generator seed XOR i (resampling any
    start within 10 * DELTA_COL of a collision), so extending n_restarts
    extends the census without changing earlier finds.  Each start, and
    then each start along the negative modes of one collinear point per
    symmetry orbit (_saddle_seeds), gets one find_critical_point solve.
    In solve order, the outcomes are deduplicated at DEDUP_TOL in the mass
    norm and closed under the group (core.symmetry_group, _closed): each
    new find is followed by its images, identity first.  The list stays
    closed under the group up to DEDUP_TOL, so only a find is checked
    against it: its images could change the list only for a find between
    DEDUP_TOL and 2 * DEDUP_TOL from it.  Every solve and every image is
    gated on TOL_RES * U; extra_seeds counts the saddle-seeded solves and
    the polishes of the images that missed it.
    """
    masses = mass_vector(masses)
    if n_restarts < 0:
        raise ValueError("n_restarts must be >= 0")
    if seed < 0:
        raise ValueError("seed must be >= 0")

    c = _constants(masses, spectrum.array)
    starts = [_sample_start(np.random.default_rng(seed ^ i), c) for i in range(n_restarts)]
    seeds = _saddle_seeds(c, spectrum)
    outcomes = [find_critical_point(start, spectrum) for start in starts + seeds]
    group = symmetry_group(masses, spectrum.d)
    rows, failures, polishes = _closed(outcomes, c, group, spectrum)
    q, *columns = zip(*rows) if rows else [()] * 6
    q = np.array(q).reshape(-1, len(masses), spectrum.d)
    q.flags.writeable = False

    caveat = len(set(spectrum.s)) < spectrum.d
    return Census(
        q,
        *columns,  # lam, residual, triple, classification, is_cc: as a row
        restarts=n_restarts,
        seed=seed,
        failures=failures,
        masses=tuple(float(m) for m in masses),
        spectrum=spectrum,
        extra_seeds=len(seeds) + polishes,
        symmetry_caveat=caveat,
        orbit_count=_congruence_classes(q) if caveat else None,
    )


# ---------------------------------------------------------------------------
# continuation in the axis weights


def _interp_spectrum(sa: Spectrum, sb: Spectrum, t: float) -> Spectrum:
    return Spectrum(tuple((1.0 - t) * a + t * b for a, b in zip(sa.s, sb.s)))


def _walk(sol: SBCSolution, target: Spectrum) -> SBCSolution:
    """Warm-started solve at `target`, halving the parameter step on failure."""
    current = sol
    lo = 0.0
    hi = 1.0
    for _ in range(300):
        spec = target if hi == 1.0 else _interp_spectrum(sol.spectrum, target, hi)
        out = find_critical_point(current.config, spec)
        if isinstance(out, SBCSolution):
            if hi == 1.0:
                return out
            current, lo = out, hi
            hi = 1.0
        else:
            hi = lo + 0.5 * (hi - lo)
            if hi - lo < MIN_PARAM_STEP:
                raise BranchLost(
                    f"continuation step underflow near s = {spec.s}"
                )
    raise BranchLost("continuation stalled: too many sub-steps")


def _bisect_degeneracy(sol_lo: SBCSolution, sol_hi: SBCSolution) -> SBCSolution:
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
        out = find_critical_point(lo_sol.config, spec)
        if isinstance(out, SearchFailure):
            raise BranchLost(f"lost the branch while bisecting at s = {spec.s}")
        if out.triple.nullity >= 1:
            return out
        if out.triple.index == sol_lo.triple.index:
            lo, lo_sol = mid, out
        else:
            hi = mid
    raise BranchLost("degeneracy bisection failed to isolate the crossing")


def continue_in_s(sol: SBCSolution, s_path: list[Spectrum]) -> list[SBCSolution]:
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
        nxt = _walk(prev, target)
        out.append(nxt)
        if nxt.triple.nullity > 0:
            return out
        if nxt.triple.index != prev.triple.index:
            out.append(_bisect_degeneracy(prev, nxt))
            return out
        prev = nxt
    return out
