"""Geometry, potential and second-variation machinery.

Positions live in (n, d) arrays; body i's row is its position. The weight
matrix S = diag(s_1, ..., s_d) acts on coordinate axes, and the S-weighted
moment of inertia I_S(q) = sum_i m_i <S q_i, q_i> defines the sphere on which
the potential is studied. A configuration q is S-balanced when

    grad U(q) + lambda * (S x M) q = 0,      lambda = U(q) / I_S(q),

with M the mass matrix. Everything downstream (collinear families, searches,
flows, lifts) is built on the residual, tangent basis and restricted Hessian
implemented here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import CollisionError, NotCriticalError

# Default tolerances. All are relative: to the coordinate scale for the
# geometric ones, to U(q) for the spectral/criticality ones.
TOL_COM = 1e-12
TOL_RES = 1e-10
NULL_TOL = 1e-6
DELTA_COL = 1e-8
# Accepted masses: the scales the scaled-mass census test covers. The gate
# TOL_RES * U is not scale-free, and far out m_i m_j and powers of r overflow.
MASS_RANGE = (1e-5, 1e5)


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class Spectrum:
    """Axis weights s = (s_1, ..., s_d) for S = diag(s), nonincreasing."""

    s: tuple[float, ...]

    def __post_init__(self):
        s = tuple(float(v) for v in self.s)
        object.__setattr__(self, "s", s)
        if len(s) < 1:
            raise ValueError("spectrum needs at least one axis weight")
        if any(not math.isfinite(v) or v <= 0.0 for v in s):
            raise ValueError("axis weights must be finite and positive")
        if any(a < b for a, b in zip(s, s[1:])):
            raise ValueError("axis weights must be nonincreasing")

    @property
    def d(self) -> int:
        return len(self.s)

    @property
    def array(self) -> np.ndarray:
        return np.array(self.s, dtype=float)

    @classmethod
    def identity(cls, d: int) -> "Spectrum":
        return cls((1.0,) * d)

    @classmethod
    def planar(cls, s1: float) -> "Spectrum":
        """diag(s1, 1) in the plane."""
        return cls((float(s1), 1.0))


def mass_vector(masses) -> np.ndarray:
    """masses as a float vector, or ValueError unless there are at least two
    and every one lies in MASS_RANGE: the one mass check of every entry
    point taking masses."""
    m = np.array(masses, dtype=float)
    lo, hi = MASS_RANGE
    if m.ndim != 1 or len(m) < 2 or not np.all((m >= lo) & (m <= hi)):
        raise ValueError("masses must be a vector of two or more finite positive values"
                         f" in [{lo:.0e}, {hi:.0e}]")
    return m


@dataclass
class Configuration:
    """Positions and masses of n point bodies in R^d.

    The centre of mass is removed on construction (explicit re-centering,
    so the stored q always satisfies sum_i m_i q_i = 0 to machine accuracy).
    """

    q: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        q = np.array(self.q, dtype=float)
        m = mass_vector(self.masses)
        if q.ndim != 2:
            raise ValueError("q must be an (n, d) array")
        n, d = q.shape
        if d < 1:
            raise ValueError("need at least one coordinate axis")
        if m.shape != (n,):
            raise ValueError("masses must be a length-n vector")
        if not np.all(np.isfinite(q)):
            raise ValueError("positions must be finite")
        self.q = _recentre(q, m, m.sum())
        self.masses = m

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def d(self) -> int:
        return self.q.shape[1]

    @property
    def scale(self) -> float:
        """Coordinate scale |q|_inf used by the relative tolerances."""
        return float(np.max(np.abs(self.q)))


class InertiaTriple(NamedTuple):
    """(index, nullity, coindex) of the restricted second variation."""

    index: int
    nullity: int
    coindex: int


# ---------------------------------------------------------------------------
# separations and the collision guard


def _pairs(q: np.ndarray):
    """The pair kernel on raw (..., n, d) positions: (diff, r).

    diff[..., i, j, :] = q_j - q_i and r = |diff|, with +inf on the
    diagonal so that the self pair drops out of every 1/r^k sum. Leading
    axes are a batch of configurations; every pair sum in the package
    starts here.
    """
    diff = q[..., None, :, :] - q[..., :, None, :]
    r = np.sqrt(np.einsum("...ijk,...ijk->...ij", diff, diff))
    n = q.shape[-2]
    r.reshape(r.shape[:-2] + (n * n,))[..., :: n + 1] = np.inf  # r is fresh, so a view
    return diff, r


def _collided(q: np.ndarray, r: np.ndarray):
    """Where the collision guard trips on positions q, (..., n, d) or
    (..., 1, n*d), with pair distances r, (..., n, n) or (..., P): scale 0,
    or a pair closer than DELTA_COL * scale."""
    scale = np.abs(q).max(axis=(-2, -1))
    return (scale == 0.0) | (r.min(axis=tuple(range(q.ndim - 2, r.ndim))) < DELTA_COL * scale)


def _pairwise(config: Configuration):
    """_pairs(config.q), raising CollisionError when any pair is closer
    than DELTA_COL * scale."""
    diff, r = _pairs(config.q)
    if _collided(config.q, r):
        raise _collision(r if config.scale else None)
    return diff, r


def _collision(r) -> CollisionError:
    """The guard's error at pair distances r, or with all bodies at the origin (r None)."""
    return CollisionError("all bodies coincide at the origin" if r is None else
                          f"minimum separation {r.min():.3e} below {DELTA_COL:.1e} * scale")


@lru_cache(maxsize=None)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, 1), built once per n and shared read-only."""
    iu = np.triu_indices(n, k=1)
    for a in iu:
        a.flags.writeable = False
    return iu


@lru_cache(maxsize=None)
def _eye(d: int) -> np.ndarray:
    """np.eye(d), built once per d and shared read-only."""
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


# ---------------------------------------------------------------------------
# potential, derivatives, inertia


def _potential_of(mm: np.ndarray, r: np.ndarray):
    """U from the kernel's r and mm = np.outer(m, m); a float, or an array
    over r's leading axes. The running sum keeps each U's bits independent
    of the stack's shape."""
    iu = _pair_indices(len(mm))
    u = np.cumsum(mm[iu] / r[..., iu[0], iu[1]], axis=-1)[..., -1]
    return float(u) if u.ndim == 0 else u


def _gradient_of(mm: np.ndarray, diff: np.ndarray, r: np.ndarray) -> np.ndarray:
    """grad U from the kernel's diff, r and mm = np.outer(m, m): row i is
    sum_j m_i m_j (q_j - q_i) / r_ij^3."""
    return np.einsum("...ij,...ijk->...ik", mm / r**3, diff)


def potential(config: Configuration) -> float:
    """Newtonian potential U(q) = sum_{i<j} m_i m_j / |q_i - q_j|."""
    *_, u, _, _ = _evaluate(config, Spectrum.identity(config.d))
    return float(u)


def gradient(config: Configuration) -> np.ndarray:
    """Euclidean gradient of U, shape (n, d).

    Sign convention: the equations of motion read M qdd = grad U(q), i.e.
    row i is sum_{j != i} m_i m_j (q_j - q_i) / r_ij^3.
    """
    c, *_, gx, _, _, _ = _evaluate(config, Spectrum.identity(config.d))
    return _ambient(gx, c)


def hessian(config: Configuration) -> np.ndarray:
    """Second derivative of U as an (n*d, n*d) symmetric matrix.

    Off-diagonal body blocks are (m_i m_j / r^3)(I - 3 u u^T) with u the
    unit separation vector; each diagonal block is minus the sum of its
    row's off-diagonal blocks (translation invariance). It is (W K) H (W K)^T,
    symmetrized, with H the Hessian in frame coordinates (_frame_hessian).
    """
    c, _, diff, r, pw, *_ = _evaluate(config, Spectrum.identity(config.d))
    L = c.w[:, None] * c.K
    B = L @ _frame_hessian(c, diff, r, pw) @ L.T
    return 0.5 * (B + B.T)


def _inertia_s(q: np.ndarray, w: np.ndarray):
    """S-weighted I_S(q) = sum_i m_i <S q_i, q_i> of raw (..., n, d)
    positions, w the weight vector (_Constants); a float, or one per leading
    index. One (1, n*d) @ (n*d, 1) product per lane, so each lane is
    bitwise its own call."""
    n, d = q.shape[-2:]
    qf = q.reshape(q.shape[:-2] + (1, n * d))
    i_s = ((qf * w) @ qf.swapaxes(-1, -2))[..., 0, 0]
    return float(i_s) if i_s.ndim == 0 else i_s


class _Constants(NamedTuple):
    """The kernels' constants of masses m and axis weights s, built once per
    (m, s) by _constants and shared read-only: mm = np.outer(m, m),
    the weight vector w (the diagonal of S x M, entry (i, k) m_i s_k), W = w
    as (n, d), m.sum(), and K, a translation-free frame of the (n-1)d
    directions that keep the centre of mass: an (n*d, (n-1)d) matrix with
    K^T diag(w) K = I whose every column has zero mass sum on every axis,
    so I_S = |x|^2 for q = K x. Over the pairs i < j (_pair_indices):
    D (P, d, (n-1)d), D_p = K_j - K_i of K's body blocks (q_j - q_i = D_p x),
    each D_p^T D_p flattened in DtD, and mm_p = m_i m_j.

    K is closed-form: with C (n, n-1) the columns 1.. of the Householder
    reflection that sends e_0 to -sqrt(m / m.sum()), an orthonormal
    complement of that unit vector, K[(i, k), (j, l)] = delta_kl C[i, j] /
    sqrt(m_i s_k), block-diagonal per axis: column l of x.reshape(n - 1, d)
    gives axis l of q = K x alone, exactly zero where that column is."""

    m: np.ndarray
    s: np.ndarray
    mm: np.ndarray
    w: np.ndarray
    W: np.ndarray
    m_sum: float
    K: np.ndarray
    D: np.ndarray
    DtD: np.ndarray
    mm_p: np.ndarray


def _constants(m: np.ndarray, s: np.ndarray) -> _Constants:
    """The _Constants of float vectors m and s, built once per (m, s)."""
    return _constants_of(m.tobytes(), s.tobytes())


@lru_cache(maxsize=16)  # a job needs one or a few (m, s)
def _constants_of(m_bytes: bytes, s_bytes: bytes) -> _Constants:
    """_Constants built from copies of m and s (read-only arrays over the
    key's bytes), every array made read-only, so the cache keeps no alias
    of a caller's array and no caller can change a shared entry."""
    m, s = np.frombuffer(m_bytes), np.frombuffer(s_bytes)
    n, d, m_sum = len(m), len(s), m.sum()
    W = m[:, None] * s
    h = np.sqrt(m / m_sum)
    h[0] += 1.0  # h = u + e_0 with u = sqrt(m / m.sum()), a unit vector, u_0 > 0
    C = _eye(n)[:, 1:] - h[:, None] * (h[1:] / h[0])  # I - h h^T / h_0, as h.h = 2 h_0
    K = (C[:, None, :, None] * _eye(d)[:, None, :] / np.sqrt(W)[:, :, None, None]).reshape(n, d, -1)
    i, j = _pair_indices(n)
    D = K[j] - K[i]
    mm = m[:, None] * m
    c = _Constants(m, s, mm, W.ravel(), W, m_sum, K.reshape(n * d, -1), D,
                   (D.swapaxes(1, 2) @ D).reshape(len(i), -1), mm[i, j])
    for a in c:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return c


def _check_dims(config: Configuration, spectrum: Spectrum) -> None:
    if spectrum.d != config.d:
        raise ValueError(
            f"spectrum has {spectrum.d} weights but configuration is {config.d}-dimensional"
        )


# ---------------------------------------------------------------------------
# balance residual and normalization


def sbc_residual(config: Configuration, spectrum: Spectrum):
    """Residual of the S-balance equation and the multiplier lambda.

    Returns (G, lam) with G = grad U(q) + lam * (S x M) q as an (n, d)
    array and lam = U(q) / I_S(q). G vanishes exactly at an S-balanced
    configuration.
    """
    c, *_, lam, a = _evaluate(config, spectrum)
    return _ambient(a, c), float(lam)


def _evaluate(config: Configuration, spectrum: Spectrum):
    """(c, x, diff, r, pw, gx, U, lam, a): the constants c (_constants) and
    _frame_pass at config, behind every public evaluation. K x is q's
    translation-free part: a centre-of-mass offset below TOL_COM * scale,
    which Configuration leaves in place, drops out."""
    _check_dims(config, spectrum)
    c = _constants(config.masses, spectrum.array)
    return (c, *_frame_pass(config.q, c))


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _frame_pass(q: np.ndarray, c: _Constants):
    """(x, diff, r, pw, gx, U, lam, a): _evaluate_x at x = _frame_of(q) of
    raw (..., n, d) positions, raising the guard's CollisionError for the
    first lane that trips it (all bodies at the origin before _frame_of)."""
    if not np.abs(q).max(axis=(-2, -1)).all():
        raise _collision(None)
    x = _frame_of(q, c)
    *values, collided = _evaluate_x(x, c)
    if np.any(collided):
        r = values[1]
        raise _collision(r.reshape(-1, r.shape[-1])[np.argmax(np.ravel(collided))])
    return (x, *values)


def _evaluate_x(x: np.ndarray, c: _Constants):
    """The pair pass at frame coordinates x (..., (n-1)d) of q = K x:
    (diff, r, pw, gx, U, lam, a, collided), diff (..., P, d) holding the
    pairs' q_j - q_i = D_p x, pw = m_i m_j / r^3, gx = K^T grad U = -sum_p
    pw_p D_p^T diff_p, lam = U / |x|^2, a = K^T G = gx + lam x, and the
    collision guard on q. Each lane is bitwise its own call; values where
    collided are garbage, so callers silence numpy's warnings."""
    xr = x[..., None, :]
    D = c.D.reshape(-1, x.shape[-1])
    diff = (xr @ D.T).reshape(x.shape[:-1] + c.D.shape[:2])
    r = np.sqrt((diff * diff).sum(axis=-1))
    e = c.mm_p / r  # the pairs' terms of U
    pw = e / (r * r)
    u = e.sum(axis=-1)
    gx = -((pw[..., None] * diff).reshape(xr.shape[:-1] + (len(D),)) @ D)[..., 0, :]
    lam = u / (xr @ x[..., None])[..., 0, 0]
    return diff, r, pw, gx, u, lam, gx + lam[..., None] * x, _collided(xr @ c.K.T, r)


def _ambient(v: np.ndarray, c: _Constants) -> np.ndarray:
    """W K v of frame vectors v (..., (n-1)d) as raw (..., n, d) arrays, one
    row product per lane: grad U of gx and G of a, as U(q) = U(K K^T W q)."""
    return ((v[..., None, :] @ c.K.T) * c.w).reshape(v.shape[:-1] + c.W.shape)


def _residual_norm(a: np.ndarray, c: _Constants):
    """|G| = |W K a| of frame residuals a (..., (n-1)d), a float or one per
    leading index, each lane bitwise its own call and np.linalg.norm of its
    G = _ambient(a, c): the same row product, kept as a (..., 1, nd) row."""
    G = (a[..., None, :] @ c.K.T) * c.w
    res = np.sqrt(G @ G.swapaxes(-1, -2))[..., 0, 0]
    return float(res) if res.ndim == 0 else res


def normalize(config: Configuration, spectrum: Spectrum) -> Configuration:
    """Rescale onto the sphere I_S = 1 (centre of mass is untouched)."""
    _check_dims(config, spectrum)
    i_s = _inertia_s(config.q, _constants(config.masses, spectrum.array).w)
    if not i_s > 0.0:
        raise ValueError("cannot normalize a configuration with I_S = 0")
    return Configuration(config.q / math.sqrt(i_s), config.masses)


def _recentre(q: np.ndarray, m: np.ndarray, m_sum: float) -> np.ndarray:
    """Remove the centre of mass of each (n, d) configuration in q where it
    exceeds TOL_COM * scale (m_sum = m.sum()): Configuration's test."""
    com = m @ q / m_sum
    scale = np.abs(q).max(axis=(-2, -1))
    off = np.abs(com).max(axis=-1) > TOL_COM * np.maximum(scale, 1e-300)
    if off.ndim == 0:  # one configuration: no masked copy
        return q - com if off else q
    return np.where(off[..., None, None], q - com[..., None, :], q)


def _normalize_q(q: np.ndarray, c: _Constants):
    """normalize(Configuration(q, c.m), spectrum) on raw (..., n, d)
    positions from any start, one expression for a point or a stack: q /
    sqrt(I_S) between a centre-of-mass test before and one after. Returns
    (q, bad), bad where I_S is not in (0, inf): where normalize raises
    ValueError (non-finite q, I_S = 0), or I_S overflows. Callers silence
    numpy's warnings."""
    q = _recentre(q, c.m, c.m_sum)
    i_s = np.asarray(_inertia_s(q, c.w))
    q = _recentre(q / np.sqrt(i_s)[..., None, None], c.m, c.m_sum)
    return q, ~((0.0 < i_s) & (i_s < math.inf))


# ---------------------------------------------------------------------------
# tangent space and restricted second variation


def tangent_basis(config: Configuration, spectrum: Spectrum) -> np.ndarray:
    """Orthonormal basis of the constrained tangent space at q.

    The space is {v : sum_i m_i v_i = 0, <(S x M) q, v> = 0}, of dimension
    k = d(n-1) - 1, and the returned (n*d, k) matrix V has columns
    orthonormal in the S-weighted mass product: V^T diag(w) V = I with
    w_(i,k) = m_i s_k. It is V = K P, with K the frame of _Constants and P
    the Householder complement of q's frame coordinates (_complement).
    """
    _check_dims(config, spectrum)
    c = _constants(config.masses, spectrum.array)
    return c.K @ _complement(_frame_of(config.q, c))


def _frame_of(q: np.ndarray, c: _Constants) -> np.ndarray:
    """Frame coordinates x = K^T diag(w) q of raw (..., n, d) positions,
    one row product per lane; ValueError when a lane is degenerate,
    |x| <= 1e-10 |sqrt(w) q|, as for q = 0 or a translation."""
    qf = q.reshape(q.shape[:-2] + (1, len(c.w)))  # an empty stack too
    wq = qf * c.w
    x = wq @ c.K
    if (x @ x.swapaxes(-1, -2) <= 1e-20 * (wq @ qf.swapaxes(-1, -2))).any():
        raise ValueError("degenerate configuration: constraints are dependent")
    return x[..., 0, :]


def _complement(x: np.ndarray) -> np.ndarray:
    """P (..., k, k - 1), orthonormal columns orthogonal to nonzero x
    (..., k): the last k - 1 columns of the Householder reflection
    I - v v^T / (|x| |v_0|), v = x + sign(x_0) |x| e_0, so P = I[:, 1:] -
    v x[1:]^T / (|x| |v_0|). Each lane is bitwise its own call."""
    s = np.copysign(np.sqrt(x[..., None, :] @ x[..., :, None]), x[..., None, :1])
    v = x.copy()
    v[..., :1] += s[..., 0]  # s = sign(x_0) |x|: v_0 = x_0 + s, and s v_0 = |x| |v_0|
    return _eye(x.shape[-1])[:, 1:] - v[..., :, None] * (x[..., None, 1:] / (s * v[..., None, :1]))


def _frame_hessian(c: _Constants, diff, r, pw) -> np.ndarray:
    """The Hessian of U in the frame coordinates x, (..., (n-1)d, (n-1)d),
    from x's pair pass (diff, r, pw as _evaluate_x gives them): H =
    3 T^T diag(pw) T - sum_p pw_p D_p^T D_p, T_p = D_p^T diff_p / r_p."""
    T = ((diff / r[..., None])[..., None, :] @ c.D)[..., 0, :]
    H = 3.0 * (T.swapaxes(-1, -2) * pw[..., None, :]) @ T
    H -= (pw[..., None, :] @ c.DtD).reshape(H.shape)
    return H


def _restricted_hessian_any(x, c: _Constants, diff, r, pw, gx, lam):
    """Restricted second variation without the criticality gate.

    At frame coordinates x (..., (n-1)d), from the point's own pair pass
    (diff, r, pw, gx, lam as _evaluate_x gives them). Returns (A, P, y),
    P = _complement(x), A = P^T H P (H from _frame_hessian), symmetrized,
    plus lam I, and y = P^T gx: V^T D^2 U V + lam I and V^T grad U on the
    tangent basis V = K P, the Newton model of an iterate, and at a root the
    matrix whose inertia classifies it. Each lane is bitwise its own call.
    """
    k0 = x.shape[-1]
    H = _frame_hessian(c, diff, r, pw)
    P = _complement(x)
    A = P.swapaxes(-1, -2) @ H @ P
    y = (gx[..., None, :] @ P)[..., 0, :]
    A = 0.5 * (A + A.swapaxes(-1, -2))
    A.reshape(A.shape[:-2] + ((k0 - 1) ** 2,))[..., ::k0] += np.asarray(lam)[..., None]  # fresh A
    return A, P, y


def _critical_models(q: np.ndarray, c: _Constants):
    """(U, lam, |G|, A, P, x) at critical points, raw (..., n, d)
    positions, for the whole stack from one frame pass (_frame_pass) at
    x = _frame_of(q), which it returns, and its restricted Hessian.

    A is the second variation of the constrained problem, D^2 U + lam (S x M)
    on the tangent basis K P, (k, k) with k = d(n-1) - 1. The first lane
    that fails raises for the stack: the collision guard's CollisionError,
    or NotCriticalError when the balance residual |G| exceeds TOL_RES * U,
    with |G| from _residual_norm.
    """
    x, diff, r, pw, gx, u, lam, a = _frame_pass(q, c)
    res = _residual_norm(a, c)
    over = np.ravel(res > TOL_RES * u)
    if over.any():
        raise NotCriticalError(
            f"balance residual {np.ravel(res)[over.argmax()]:.3e} exceeds {TOL_RES:.1e} * U"
        )
    A, P, _ = _restricted_hessian_any(x, c, diff, r, pw, gx, lam)
    return u, lam, res, A, P, x


def inertia_indices(config: Configuration, spectrum: Spectrum) -> InertiaTriple:
    """Morse index, nullity and coindex of the restricted second variation.

    Eigenvalues within NULL_TOL * U(q) of zero count as null; the rest
    split by sign. The three parts always sum to d(n-1) - 1. Raises
    NotCriticalError away from a balanced configuration.
    """
    _check_dims(config, spectrum)
    u, _, _, A, *_ = _critical_models(config.q, _constants(config.masses, spectrum.array))
    return _triple_of(A, u)


def _triple_of(A: np.ndarray, u):
    """Inertia triple of the restricted Hessian A at a point where U = u.

    A (L, k, k) stack of them, with u holding their L potentials, gives
    the list of L triples from one eigvalsh call, each lane bitwise its
    one-matrix result.
    """
    ev = np.linalg.eigvalsh(A)
    gap = NULL_TOL * np.asarray(u)[..., None]
    counts = (ev < -gap).sum(axis=-1), (np.abs(ev) <= gap).sum(axis=-1), (ev > gap).sum(axis=-1)
    if A.ndim == 2:
        return InertiaTriple(*map(int, counts))
    return [InertiaTriple(*c) for c in zip(*(a.tolist() for a in counts))]


# ---------------------------------------------------------------------------
# discrete symmetries


def symmetry_group(masses: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The discrete symmetry group of the balance problem, as (signs, perms).

    Every axis sign flip times every relabelling of equal-mass bodies, each
    of which maps S-balanced configurations to S-balanced configurations
    with the same U, lambda and inertia triple. Element k sends positions
    q to q[perms[k]] * signs[k]: body i takes the place of body perms[k][i]
    (an equal mass) and axis j is reversed where signs[k][j] = -1.
    signs is (g, d) and perms (g, n), relabellings outer and sign flips
    inner, each in itertools order, so element 0 is the identity.
    """
    m = np.asarray(masses)
    perms = [p for p in itertools.permutations(range(len(m))) if np.array_equal(m[list(p)], m)]
    signs = list(itertools.product((1.0, -1.0), repeat=d))
    return np.tile(signs, (len(perms), 1)), np.repeat(perms, len(signs), axis=0)


def _images(q: np.ndarray, group: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The (..., g, n, d) images of (..., n, d) positions under a
    symmetry_group, in its order: exact, since they only permute and
    negate entries (a negated zero is written +0.0)."""
    signs, perms = group
    return q[..., perms, :] * signs[:, None, :] + 0.0


# ---------------------------------------------------------------------------
# shared JSON document


def to_document(config: Configuration, spectrum: Spectrum) -> dict:
    """Plain-dict form of (configuration, spectrum) for JSON interchange."""
    return {
        "n": config.n,
        "d": config.d,
        "masses": config.masses.tolist(),
        "q": config.q.tolist(),
        "S": list(spectrum.s),
    }

