"""Collinear balanced configurations along a coordinate axis.

For every ordering of the bodies on a line there is exactly one collinear
central configuration (Moulton), and shrinking it by 1/sqrt(s_j) places a
balanced configuration on coordinate axis j. The spectral data of the
associated force matrix B then classifies the restricted Hessian of each
such point without assembling it: the axis block always contributes
coindex n-2, and each transverse direction i contributes according to the
signs of eta_l + (s_i/s_j) * U(q_hat) over the eigenvalue groups eta_l of
M^{-1} B(q_hat).

An enumeration is a CollinearCatalogue held as columns. It solves the
gap equations of a line once per distinct mass sequence in line order
(once in all for equal masses), decomposes all its lines as one (L, n)
stack, and builds its points in stacks of up to STACK_LANES: one
normalization, one pair pass, one residual gate, one restricted Hessian
and one eigvalsh for the triples per stack. Reversing an ordering mirrors
its line (x -> -x) and leaves every r_ij unchanged, so only the canonical
orientation (first label below the last) is built, and the reversed rows
are its exact negation. A CollinearRecord is built only on request.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Configuration,
    InertiaTriple,
    Spectrum,
    _constants,
    _critical_models,
    _normalize_q,
    _pairs,
    _potential_of,
    _triple_of,
    mass_vector,
)
from .errors import NoConvergence, SpectrumAnomalyError, UnsupportedCase

GAP_TOL = 1e-13          # convergence of the gap-equation residual
GROUP_TOL = 1e-8         # eigenvalue grouping, relative to U(q_hat)
DEGENERATE_TOL = 1e-10   # threshold-equality detection, relative to U(q_hat)
GAP_MAX_ITER = 200       # gap Newton iterations per ordering
STACK_LANES = 256        # records per stacked model build: bounds its memory


# ---------------------------------------------------------------------------
# force matrix of a collinear configuration


def _b_matrix_1d(mm: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Symmetric force matrix B of a line x, or of each line of an (..., n)
    stack, from mm = np.outer(m, m) and its pair distances _pairs(x[..., None])[1].

    Off-diagonal entries are m_i m_j / r_ij^3 and rows sum to zero, so that
    the axis component of grad U equals B x.
    """
    B = mm / r**3
    n = len(mm)
    # B is fresh, so the reshape is a view of its diagonals
    B.reshape(B.shape[:-2] + (n * n,))[..., :: n + 1] = -B.sum(axis=-1)
    return B


# ---------------------------------------------------------------------------
# spectral data of the underlying central configuration


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalue structure of M^{-1} B at a unit-norm collinear CC.

    groups lists (eta_l, multiplicity) in decreasing eta order; the leading
    group is always (-u_hat, 1). thresholds are the ratios -eta_l / u_hat
    for l >= 1, in increasing order: crossing one of them with the weight
    ratio s_i/s_j changes the transverse index contribution.
    """

    n: int
    u_hat: float
    eigenvalues: tuple[float, ...]
    groups: tuple[tuple[float, int], ...]

    @property
    def thresholds(self) -> tuple[float, ...]:
        return tuple(-eta / self.u_hat for eta, _ in self.groups[1:])


def ccc_spectrum(m: np.ndarray, x: np.ndarray):
    """Verified, grouped spectrum of M^{-1} B at the unit-mass-norm CC line x.

    x is one line (n,), giving its SpectralData, or a stack of lines
    (L, n), giving a list of L: one force-matrix stack and one eigvalsh
    call serve the stack, each lane bitwise its one-line result. Checks the
    two structural eigenvalues (a simple 0 from translations and a simple
    -U(q_hat) from the radial direction), requires every remaining
    eigenvalue to sit strictly below -U(q_hat), and groups the rest to
    GROUP_TOL * U(q_hat). The first line that fails raises
    SpectrumAnomalyError.
    """
    mm, r = np.outer(m, m), _pairs(x[..., None])[1]  # one pair pass for B and U
    root_m = np.sqrt(m)
    C = _b_matrix_1d(mm, r) / np.outer(root_m, root_m)
    ev = np.sort(np.linalg.eigvalsh(C), axis=-1).tolist()
    u = _potential_of(mm, r)
    if x.ndim == 1:
        return _grouped(len(m), u, ev)
    return [_grouped(len(m), *line) for line in zip(u.tolist(), ev)]


def _grouped(n: int, u: float, ev: list[float]) -> SpectralData:
    """The SpectralData of one line from U(q_hat) and its ascending
    eigenvalues (see ccc_spectrum)."""
    tol = GROUP_TOL * u
    remaining = list(ev)
    i_zero = min(range(len(remaining)), key=lambda i: abs(remaining[i]))
    if abs(remaining[i_zero]) > tol:
        raise SpectrumAnomalyError("no translation eigenvalue near zero")
    remaining.pop(i_zero)
    i_rad = min(range(len(remaining)), key=lambda i: abs(remaining[i] + u))
    if abs(remaining[i_rad] + u) > tol:
        raise SpectrumAnomalyError("no radial eigenvalue near -U(q_hat)")
    remaining.pop(i_rad)
    remaining.sort(reverse=True)
    if remaining and remaining[0] > -u - tol:
        raise SpectrumAnomalyError(
            f"eigenvalue {remaining[0]:.6e} not strictly below -U = {-u:.6e}"
        )

    groups: list[tuple[float, int]] = [(-u, 1)]
    for val in remaining:
        if len(groups) > 1 and abs(val - groups[-1][0]) <= tol:
            eta, mult = groups[-1]
            groups[-1] = ((eta * mult + val) / (mult + 1), mult + 1)
        else:
            groups.append((val, 1))
    return SpectralData(n=n, u_hat=u, eigenvalues=tuple(ev), groups=tuple(groups))


def predicted_indices(spectral: SpectralData, spectrum: Spectrum, axis: int) -> InertiaTriple:
    """Closed-form inertia triple of an axis-collinear balanced point.

    The axis block contributes coindex n-2 for every weight choice. Each
    transverse direction i adds n-1 eigenvalue signs determined by
    eta_l + (s_i/s_j) U(q_hat): for s_i < s_j that is index n-1, for
    s_i = s_j index n-2 plus one null direction, and for d = 2 with the
    wide axis transverse the threshold rules in terms of -eta_l / U apply,
    including the equality (degenerate) branch. For d > 2 with a transverse
    weight larger than the axis weight no closed form is implemented and
    UnsupportedCase is raised; callers fall back to the computed triple.
    """
    d = spectrum.d
    if not 1 <= axis <= d:
        raise ValueError(f"axis must be in 1..{d}")
    n = spectral.n
    s = spectrum.s
    s_axis = s[axis - 1]
    u = spectral.u_hat

    rhos = [s[i] / s_axis for i in range(d) if i != axis - 1]
    if d > 2 and any(r > 1.0 + DEGENERATE_TOL for r in rhos):
        raise UnsupportedCase(
            "no closed-form transverse rule for d > 2 with a weight above the axis weight"
        )

    index, nullity, coindex = 0, 0, n - 2
    for rho in rhos:
        for eta, mult in spectral.groups:
            val = eta + rho * u
            if abs(val) <= DEGENERATE_TOL * u:
                nullity += mult
            elif val > 0:
                coindex += mult
            else:
                index += mult
    return InertiaTriple(index, nullity, coindex)


# ---------------------------------------------------------------------------
# the gap-coordinate Newton solve


def _ordered_cc_gaps(m_ord: np.ndarray):
    """Solve the collinear central-configuration equations for one ordering.

    Unknowns are the n-1 positive gaps between consecutive bodies; the
    multiplier is pinned to 1 and the overall scale is fixed afterwards.
    Equations are consecutive differences of F_i = [M^{-1} grad U]_i + y_i,
    which are translation invariant, with an analytic Jacobian and damped
    Newton steps that keep every gap positive, from equal gaps.
    """
    n = len(m_ord)
    g = np.full(n - 1, float(np.sum(m_ord) / n) ** (1.0 / 3.0))

    def system(gaps):
        y = np.concatenate(([0.0], np.cumsum(gaps)))
        diff, r = _pairs(y[:, None])
        diff = diff[..., 0]
        F = (m_ord[None, :] * diff / r**3).sum(axis=1) + y
        R = F[1:] - F[:-1]
        # dF_i/dy_j = -2 m_j / r^3 (j != i), diagonal makes translations neutral
        J_F = -2.0 * m_ord[None, :] / r**3
        np.fill_diagonal(J_F, 0.0)
        np.fill_diagonal(J_F, -J_F.sum(axis=1) + 1.0)
        D = J_F[1:] - J_F[:-1]
        # chain rule through y_i = sum_{k < i} g_k
        P = np.tril(np.ones((n, n - 1)), k=-1)
        return R, D @ P

    R, J = system(g)
    for it in range(GAP_MAX_ITER):
        if np.max(np.abs(R)) < GAP_TOL:
            return g, float(np.max(np.abs(R))), it
        step = np.linalg.solve(J, -R)
        t = 1.0
        while np.any(g + t * step <= 0.0):
            t *= 0.5
            if t < 1e-14:
                raise NoConvergence("positivity backtracking underflow")
        norm0 = np.linalg.norm(R)
        while t >= 1e-14:
            R_new, J_new = system(g + t * step)
            if np.linalg.norm(R_new) < norm0:
                g = g + t * step
                R, J = R_new, J_new
                break
            t *= 0.5
        else:
            raise NoConvergence("gap Newton stalled")
    raise NoConvergence(
        f"gap Newton did not reach {GAP_TOL:.1e} in {GAP_MAX_ITER} iterations"
    )


@dataclass(frozen=True)
class CollinearRecord:
    """One solved and classified collinear balanced configuration: a row of
    `catalogue` (see CollinearCatalogue) built on request, each field its
    entry of the column of that name (ordering as a tuple; cc_positions,
    gap_residual, iterations and spectral those of its line). config
    builds a Configuration of q on request."""

    ordering: tuple[int, ...]
    axis: int
    spectrum: Spectrum
    masses: np.ndarray
    q: np.ndarray
    cc_positions: np.ndarray
    u: float
    lam: float
    residual: float
    gap_residual: float
    iterations: int
    spectral: SpectralData
    predicted: InertiaTriple | None
    computed: InertiaTriple
    catalogue: CollinearCatalogue = field(repr=False)

    @property
    def config(self) -> Configuration:
        return Configuration(self.q, self.masses)


@dataclass(frozen=True, eq=False, repr=False)
class CollinearCatalogue:
    """Solved and classified collinear balanced configurations held as
    columns, one row per (ordering, axis), sorted by axis, then ordering.

    Row i is the ordering `ordering[i]` (an int array (N, n); body labels
    left to right) on the coordinate axis `axis[i]`, both 1-based. Its
    point `q[i]`, of a read-only (N, n, d) stack, is normalized to I_S = 1
    with its centre of mass removed; `u`, `lam` and `residual` (read-only
    arrays) hold its U, multiplier and residual norm, `computed` its triple
    from the restricted Hessian and `predicted` the closed-form one, None
    where UnsupportedCase applies. `line[i]` indexes the per-line
    `cc_positions` (the unit-mass-norm CC the point was built from, indexed
    by body), `gap_residual`, `iterations` and `spectral` (its spectrum).
    `record(i)` builds row i as a CollinearRecord; `records` builds every
    row that way, on every access. Columns of arrays have no field-wise
    == or repr, so none is generated."""

    masses: np.ndarray
    spectrum: Spectrum
    ordering: np.ndarray
    axis: np.ndarray
    q: np.ndarray
    u: np.ndarray
    lam: np.ndarray
    residual: np.ndarray
    line: np.ndarray
    cc_positions: np.ndarray
    computed: tuple[InertiaTriple, ...]
    predicted: tuple[InertiaTriple | None, ...]
    gap_residual: tuple[float, ...]
    iterations: tuple[int, ...]
    spectral: tuple[SpectralData, ...]

    def record(self, i: int) -> CollinearRecord:
        k = int(self.line[i])
        return CollinearRecord(
            tuple(self.ordering[i].tolist()), int(self.axis[i]), self.spectrum, self.masses,
            self.q[i], self.cc_positions[k], float(self.u[i]), float(self.lam[i]),
            float(self.residual[i]), self.gap_residual[k], self.iterations[k],
            self.spectral[k], self.predicted[i], self.computed[i], self,
        )

    @property
    def records(self) -> tuple[CollinearRecord, ...]:
        return tuple(self.record(i) for i in range(len(self.q)))


def _cc_lines(m: np.ndarray, orderings):
    """(x_hat, gap residuals, iterations, spectra) of the orderings: row k
    of the (L, n) stack x_hat is ordering k's unit-mass-norm CC line,
    indexed by body. The one place lines are solved and spectrally
    decomposed: orderings with the same masses in line order share one gap
    solve (with equal masses every ordering does), as the solve and the
    unit line in line order depend only on those, and one ccc_spectrum
    call decomposes the stack.
    """
    solved: dict = {}
    x_hat = np.empty((len(orderings), len(m)))
    fits = []
    for k, ordering in enumerate(orderings):
        order0 = [b - 1 for b in ordering]
        m_ord = m[order0]
        key = tuple(m_ord)
        if key not in solved:
            gaps, gap_res, iters = _ordered_cc_gaps(m_ord)
            y = np.concatenate(([0.0], np.cumsum(gaps)))
            y -= float(m_ord @ y / m_ord.sum())
            y /= math.sqrt(float(m_ord @ y**2))
            solved[key] = y, gap_res, iters
        x_hat[k, order0], *fit = solved[key]
        fits.append(fit)
    return (x_hat, *zip(*fits), ccc_spectrum(m, x_hat))


def _predicted(spectral: SpectralData, spectrum: Spectrum, axis: int):
    try:
        return predicted_indices(spectral, spectrum, axis)
    except UnsupportedCase:
        return None


def _catalogue(m: np.ndarray, spectrum: Spectrum, orderings, axes) -> CollinearCatalogue:
    """The catalogue of the orderings (tuples) on each of `axes`, rows by
    axis, then in the order of `orderings`.

    Only canonical lines (first label below the last) are built: line k on
    axis j is x_hat / sqrt(s_j) on that axis, normalized to I_S = 1, and up
    to STACK_LANES such lanes share one normalization, one guarded pair
    pass with its residual gate, one restricted Hessian
    (core._critical_models) and one eigvalsh for the triples, each lane
    bitwise a build of its own. A reversed ordering mirrors its canonical
    line (x -> -x), leaving every r_ij, and so U, lambda, the residual, the
    spectrum and both triples, unchanged: its rows are the canonical ones
    with q and x_hat negated by one indexed 0.0 - q, bitwise what a build
    gives (0.0 - keeps the off-axis zeros +0.0).
    """
    n, d, n_axes = len(m), spectrum.d, len(axes)
    line_of = {o: k for k, o in enumerate(dict.fromkeys(min(o, o[::-1]) for o in orderings))}
    x_hat, gap_res, iters, spectra = _cc_lines(m, list(line_of))
    c = _constants(m, spectrum.array)
    lanes = np.zeros((len(line_of) * n_axes, n, d))  # lane k * n_axes + j: line k on axes[j]
    for j, axis in enumerate(axes):
        lanes[j::n_axes, :, axis - 1] = x_hat / math.sqrt(spectrum.s[axis - 1])
    u, lam, res = np.empty((3, len(lanes)))
    computed = []
    for lo in range(0, len(lanes), STACK_LANES):
        part = slice(lo, lo + STACK_LANES)
        lanes[part] = _normalize_q(lanes[part], c)[0]
        u[part], lam[part], res[part], A, *_ = _critical_models(lanes[part], c)
        computed += _triple_of(A, u[part])
    predicted = [_predicted(sd, spectrum, axis) for sd in spectra for axis in axes]

    source = np.array([line_of[min(o, o[::-1])] for o in orderings])
    mirror = np.array([o[0] > o[-1] for o in orderings])
    row_lane = (source * n_axes + np.arange(n_axes)[:, None]).ravel()  # the lane each row copies
    flip = np.tile(mirror, n_axes)
    q, cc = lanes[row_lane], x_hat[source]
    q[flip] = 0.0 - q[flip]
    cc[mirror] = 0.0 - cc[mirror]
    line = np.tile(np.arange(len(orderings)), n_axes)
    columns = (np.tile(np.array(orderings), (n_axes, 1)), np.repeat(axes, len(orderings)),
               q, u[row_lane], lam[row_lane], res[row_lane], line, cc)
    for a in (m, *columns):
        a.flags.writeable = False
    rows, lines = row_lane.tolist(), source.tolist()
    return CollinearCatalogue(m, spectrum, *columns,
                              *(tuple(col[k] for k in rows) for col in (computed, predicted)),
                              *(tuple(col[k] for k in lines) for col in (gap_res, iters, spectra)))


def moulton_solve(masses, ordering, axis: int, spectrum: Spectrum) -> CollinearRecord:
    """Classified collinear balanced configuration for one ordering on one axis.

    ordering is a permutation of (1..n) listing bodies left to right;
    axis is the 1-based coordinate axis. The solve runs in gap
    coordinates from an equispaced start, the resulting central
    configuration is normalized to unit mass norm, and the balanced
    configuration is that line shrunk by 1/sqrt(s_axis) on the axis: the
    one row of a one-ordering build of the catalogue enumerate_csbc
    builds, so a reversed ordering is the negated canonical line, bitwise
    the record enumerate_csbc gives it.
    """
    m = mass_vector(masses)
    if sorted(ordering) != list(range(1, len(m) + 1)):
        raise ValueError("ordering must be a permutation of 1..n")
    if not 1 <= axis <= spectrum.d:
        raise ValueError(f"axis must be in 1..{spectrum.d}")
    return _catalogue(m, spectrum, [tuple(ordering)], (axis,)).record(0)


# ---------------------------------------------------------------------------
# enumeration and thresholds


def enumerate_csbc(masses, spectrum: Spectrum) -> CollinearCatalogue:
    """All d * n! collinear balanced configurations, classified, as one
    CollinearCatalogue, rows sorted by (axis, ordering).

    The n!/2 canonical lines (first label below the last) get their spectra
    from one stacked call, and one gap solve serves every line with the
    same masses in line order (one in all for equal masses; see _cc_lines).
    Every canonical line is placed on every axis in one stacked build per
    STACK_LANES lanes, and the reversed orderings' rows are the negated
    canonical ones (see _catalogue). No CollinearRecord is built.
    """
    m = mass_vector(masses)
    orderings = list(itertools.permutations(range(1, len(m) + 1)))
    return _catalogue(m, spectrum, orderings, range(1, spectrum.d + 1))


@dataclass(frozen=True)
class ThresholdReport:
    """Degeneracy thresholds -eta_l / U(q_hat) per ordering."""

    per_ordering: dict
    global_min: float
    global_max: float


def degeneracy_thresholds(masses) -> ThresholdReport:
    """Threshold ratios for every ordering (axis independent).

    A transverse weight ratio crossing one of these values changes the
    predicted inertia triple; at equality the point is degenerate. Only the
    n!/2 canonical lines get a spectrum, from one stacked call (no record is
    built): a reversed ordering is the mirror image of its line and has the
    same spectrum. Lines with the same masses in line order share one gap
    solve (see _cc_lines).
    """
    m = mass_vector(masses)
    n = len(m)
    if n < 3:
        raise ValueError("degeneracy thresholds require n >= 3")
    orderings = list(itertools.permutations(range(1, n + 1)))
    lines = [o for o in orderings if o[0] < o[-1]]
    canonical = {o: sd.thresholds for o, sd in zip(lines, _cc_lines(m, lines)[-1])}
    per = {o: canonical[o if o in canonical else o[::-1]] for o in orderings}
    lows = [t[0] for t in per.values()]
    highs = [t[-1] for t in per.values()]
    return ThresholdReport(
        per_ordering=per, global_min=float(min(lows)), global_max=float(max(highs))
    )
