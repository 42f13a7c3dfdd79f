"""Collinear balanced configurations along a coordinate axis.

For every ordering of the bodies on a line there is exactly one collinear
central configuration (Moulton), and shrinking it by 1/sqrt(s_j) places a
balanced configuration on coordinate axis j. The spectral data of the
associated force matrix B then classifies the restricted Hessian of each
such point without assembling it: the axis block always contributes
coindex n-2, and each transverse direction i contributes according to the
signs of eta_l + (s_i/s_j) * U(q_hat) over the eigenvalue groups eta_l of
M^{-1} B(q_hat).

Each record is built complete, from its line's spectrum and one guarded
pair pass at the point: U, lambda, residual and both triples. The gap
equations of a line depend only on its masses in line order, so an
enumeration solves them once per distinct mass sequence (once in all for
equal masses), and it decomposes all its lines as one (L, n) stack: one
force-matrix stack and one eigvalsh call. Its records are built in stacks
of up to STACK_LANES: one normalization, one pair pass, one residual gate,
one restricted Hessian and one eigvalsh for the triples serve the whole
stack, and each record keeps its point as a read-only row of that stack.
Reversing an ordering mirrors its line (x -> -x) and leaves every r_ij
unchanged, so only the canonical orientation (first label below the last)
is built, and the reversed ordering's records are its exact negation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

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
    """One solved and classified collinear balanced configuration.

    ordering and axis are 1-based (body labels left to right along the
    axis, and the coordinate axis carrying the weight s_axis). q is the
    point as a read-only (n, d) array, normalized to I_S = 1 with its
    centre of mass removed, and config builds a Configuration of it on
    request; u, lam and residual are its U, multiplier and residual norm.
    cc_positions is the unit-mass-norm collinear CC it was built from,
    indexed by body, with spectrum `spectral`. predicted is None only where
    UnsupportedCase applies; computed comes from the restricted Hessian.
    """

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

    @property
    def config(self) -> Configuration:
        return Configuration(self.q, self.masses)


def _cc_lines(m: np.ndarray, orderings) -> list:
    """(ordering, x_hat, gap residual, iterations, spectral) of each
    ordering: its gap solve, the unit-mass-norm CC line x_hat indexed by
    body, and its spectrum. The one place lines are solved and spectrally
    decomposed.

    The gap solve and the unit line in line order depend only on the masses
    in line order, so orderings with the same masses in line order share
    one solve: with equal masses every ordering does. The lines are rows of
    one (L, n) stack, decomposed by one ccc_spectrum call.
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
        y, gap_res, iters = solved[key]
        x_hat[k, order0] = y
        fits.append((gap_res, iters))
    spectra = ccc_spectrum(m, x_hat)
    return [(o, x_hat[k], *fits[k], spectra[k]) for k, o in enumerate(orderings)]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _mirrored(rec: CollinearRecord) -> CollinearRecord:
    """The record of the reversed ordering: the line through x -> -x.

    Negation leaves every r_ij, and so U, lambda, the residual, the spectrum,
    both triples and the restricted Hessian and its tangent basis, unchanged;
    the pair pass of the mirrored point repeats the original's bit for bit.
    0.0 - q keeps the off-axis zeros +0.0, as a fresh build has them.
    """
    return replace(
        rec,
        ordering=rec.ordering[::-1],
        q=_read_only(0.0 - rec.q),
        cc_positions=0.0 - rec.cc_positions,
    )


def _records(m: np.ndarray, spectrum: Spectrum, lines, axes) -> list[CollinearRecord]:
    """The records of every line on each of `axes`, line by line.

    lines holds (ordering, x_hat, gap residual, iterations, spectral) of
    CC lines (see _cc_lines). The line on axis j is x_hat / sqrt(s_j) on
    that axis, normalized to I_S = 1. Up to STACK_LANES records share one
    stacked build: one normalization, one guarded pair pass with its
    residual gate, one restricted Hessian (core._critical_models) and one
    eigvalsh for the triples, each lane bitwise a build of its own. Each
    record's q is a row of the stack's read-only normalized positions.
    """
    n, d, s = len(m), spectrum.d, spectrum.array
    c = _constants(m, s)
    lanes = [(line, axis) for line in lines for axis in axes]
    records = []
    for lo in range(0, len(lanes), STACK_LANES):
        chunk = lanes[lo : lo + STACK_LANES]
        q = np.zeros((len(chunk), n, d))
        for k, ((_, x_hat, *_), axis) in enumerate(chunk):
            q[k, :, axis - 1] = x_hat / math.sqrt(spectrum.s[axis - 1])
        q = _read_only(_normalize_q(q, c)[0])
        # evaluate the points the records hold
        u, lam, res, A, *_ = _critical_models(q, c)
        computed = _triple_of(A, u)
        u, lam, res = u.tolist(), lam.tolist(), res.tolist()
        for k, ((ordering, x_hat, gap_res, iters, spectral), axis) in enumerate(chunk):
            try:
                predicted = predicted_indices(spectral, spectrum, axis)
            except UnsupportedCase:
                predicted = None
            records.append(CollinearRecord(
                ordering=tuple(int(b) for b in ordering),
                axis=int(axis),
                spectrum=spectrum,
                masses=m,
                q=q[k],
                cc_positions=x_hat,
                u=u[k],
                lam=lam[k],
                residual=res[k],
                gap_residual=gap_res,
                iterations=iters,
                spectral=spectral,
                predicted=predicted,
                computed=computed[k],
            ))
    return records


def moulton_solve(masses, ordering, axis: int, spectrum: Spectrum) -> CollinearRecord:
    """Classified collinear balanced configuration for one ordering on one axis.

    ordering is a permutation of (1..n) listing bodies left to right;
    axis is the 1-based coordinate axis. The solve runs in gap
    coordinates from an equispaced start, the resulting central
    configuration is normalized to unit mass norm, and the balanced
    configuration is that line shrunk by 1/sqrt(s_axis) on the axis: a
    one-record build of the same builder enumerate_csbc stacks.

    Only the canonical orientation (first label below the last) is solved:
    a reversed ordering is the mirror image of its canonical line, so it is
    bitwise the record enumerate_csbc gives it.
    """
    m = mass_vector(masses)
    n = len(m)
    if sorted(ordering) != list(range(1, n + 1)):
        raise ValueError("ordering must be a permutation of 1..n")
    if not 1 <= axis <= spectrum.d:
        raise ValueError(f"axis must be in 1..{spectrum.d}")
    mirror = ordering[0] > ordering[-1]
    if mirror:
        ordering = ordering[::-1]
    (rec,) = _records(m, spectrum, _cc_lines(m, [ordering]), (axis,))
    return _mirrored(rec) if mirror else rec


# ---------------------------------------------------------------------------
# enumeration and thresholds


def enumerate_csbc(masses, spectrum: Spectrum) -> list[CollinearRecord]:
    """All d * n! collinear balanced configurations, classified.

    One record per (ordering, axis), sorted by (axis, ordering), each built
    complete (see CollinearRecord). The n!/2 canonical lines (first label
    below the last) get their spectra from one stacked call, and one gap
    solve serves every line with the same masses in line order (one in all
    for equal masses; see _cc_lines). Every line is placed on every axis in one stacked build per
    STACK_LANES records (see _records); its reversed ordering, met later in
    lexicographic order, gets the negated records (see _mirrored).
    """
    m = mass_vector(masses)
    orderings = list(itertools.permutations(range(1, len(m) + 1)))
    lines = _cc_lines(m, [o for o in orderings if o[0] <= o[-1]])
    axes = range(1, spectrum.d + 1)
    built = iter(_records(m, spectrum, lines, axes))
    placed: dict[tuple[int, ...], list[CollinearRecord]] = {}
    for ordering in orderings:
        if ordering[0] <= ordering[-1]:
            placed[ordering] = [next(built) for _ in axes]
        else:
            placed[ordering] = [_mirrored(rec) for rec in placed[ordering[::-1]]]
    return [recs[k] for k in range(spectrum.d) for recs in placed.values()]


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
    lines = _cc_lines(m, [o for o in orderings if o[0] < o[-1]])
    canonical = {line[0]: line[4].thresholds for line in lines}
    per = {o: canonical[o if o in canonical else o[::-1]] for o in orderings}
    lows = [t[0] for t in per.values()]
    highs = [t[-1] for t in per.values()]
    return ThresholdReport(
        per_ordering=per, global_min=float(min(lows)), global_max=float(max(highs))
    )
