"""Independent oracles used by the test-suite.

Everything here is deliberately written by a different route than the
package code it checks: central finite differences instead of analytic
derivatives, direct polynomial multiplication instead of recurrences,
closed-form eigendecompositions instead of LAPACK on assembled matrices.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from sbclab.core import (
    Configuration,
    Spectrum,
    _evaluate_x,
    gradient,
    hessian,
    potential,
    sbc_residual,
)
from sbclab.errors import CollisionError
from sbclab.flow import collinearity_angle


def fd_gradient(config: Configuration, h: float | None = None) -> np.ndarray:
    """Central finite-difference gradient of the potential, shape (n, d)."""
    if h is None:
        h = 1e-5 * max(1.0, config.scale)
    n, d = config.n, config.d
    out = np.zeros((n, d))
    base = config.q
    for i in range(n):
        for k in range(d):
            qp, qm = base.copy(), base.copy()
            qp[i, k] += h
            qm[i, k] -= h
            up = potential(Configuration(qp, config.masses))
            um = potential(Configuration(qm, config.masses))
            out[i, k] = (up - um) / (2.0 * h)
    return out


def fd_hessian(config: Configuration, h: float | None = None) -> np.ndarray:
    """Central finite-difference Hessian of the potential, (n*d, n*d).

    Differences the analytic gradient, which the gradient test validates
    separately against the potential, so the two checks stay independent.
    """
    if h is None:
        h = 1e-5 * max(1.0, config.scale)
    n, d = config.n, config.d
    out = np.zeros((n * d, n * d))
    base = config.q
    for i in range(n):
        for k in range(d):
            qp, qm = base.copy(), base.copy()
            qp[i, k] += h
            qm[i, k] -= h
            gp = gradient(Configuration(qp, config.masses))
            gm = gradient(Configuration(qm, config.masses))
            out[:, i * d + k] = (gp - gm).ravel() / (2.0 * h)
    return 0.5 * (out + out.T)


def loop_hessian(config: Configuration) -> np.ndarray:
    """Hessian of the potential assembled pair by pair, (n*d, n*d).

    Off-diagonal blocks (m_i m_j / r^3)(I - 3 u u^T), subtracted from both
    diagonal blocks so that block rows sum to zero.
    """
    q, m = config.q, config.masses
    n, d = config.n, config.d
    H = np.zeros((n * d, n * d))
    eye = np.eye(d)
    for i in range(n):
        for j in range(i + 1, n):
            u = q[j] - q[i]
            r = np.linalg.norm(u)
            u = u / r
            block = (m[i] * m[j] / r**3) * (eye - 3.0 * np.outer(u, u))
            H[i * d:(i + 1) * d, j * d:(j + 1) * d] = block
            H[j * d:(j + 1) * d, i * d:(i + 1) * d] = block
            H[i * d:(i + 1) * d, i * d:(i + 1) * d] -= block
            H[j * d:(j + 1) * d, j * d:(j + 1) * d] -= block
    return H


def gram_schmidt_tangent_basis(config: Configuration, spectrum: Spectrum) -> np.ndarray:
    """Tangent basis by Gram-Schmidt in the S-weighted mass product.

    Orthonormalizes the d translation directions, the radial direction q,
    then the canonical basis vectors in index order, skipping any that are
    dependent on those already kept; the columns after the d + 1
    constraint directions span the tangent space, (n*d, d(n-1) - 1).
    """
    n, d = config.n, config.d
    w = weight_vector(config, spectrum)
    dim = n * d - d - 1

    def wdot(a, b):
        return float(np.dot(a * w, b))

    basis: list[np.ndarray] = []

    def push(vec) -> bool:
        v = vec.astype(float).ravel().copy()
        norm0 = math.sqrt(wdot(v, v))
        if norm0 == 0.0:
            return False
        for _ in range(2):  # one re-orthogonalization pass keeps it clean
            for b in basis:
                v -= wdot(b, v) * b
        norm = math.sqrt(wdot(v, v))
        if norm < 1e-10 * norm0:
            return False
        basis.append(v / norm)
        return True

    for k in range(d):
        t = np.zeros((n, d))
        t[:, k] = 1.0
        push(t)
    if not push(config.q):
        raise ValueError("degenerate configuration: constraints are dependent")
    for idx in range(n * d):
        if len(basis) - (d + 1) == dim:
            break
        e = np.zeros(n * d)
        e[idx] = 1.0
        push(e)
    V = np.array(basis[d + 1 :]).reshape(-1, n * d).T
    assert V.shape == (n * d, dim)
    return V


def weight_vector(config: Configuration, spectrum: Spectrum) -> np.ndarray:
    """Flattened diagonal of S x M: entry (i, k) is m_i * s_k, one product
    each, as core._constants builds its w."""
    return np.outer(config.masses, spectrum.array).ravel()


def ambient_balance_hessian(config: Configuration, spectrum: Spectrum) -> np.ndarray:
    """Unrestricted second-variation form D^2 U + lambda * (S x M), from the
    public hessian and residual: restricted to any weighted-orthonormal
    tangent basis it must give core's restricted Hessian."""
    _, lam = sbc_residual(config, spectrum)
    return hessian(config) + lam * np.diag(weight_vector(config, spectrum))


def moment_of_inertia(config: Configuration) -> float:
    """Unweighted I(q) = sum_i m_i |q_i|^2, summed body by body."""
    return sum(float(m * (q @ q)) for m, q in zip(config.masses, config.q))


def central_residual(config: Configuration) -> float:
    """Norm of grad U + (U/I) M q, zero exactly at a central configuration,
    from the public gradient and potential and the unweighted moment of
    inertia above."""
    lam = potential(config) / moment_of_inertia(config)
    return float(np.linalg.norm(gradient(config) + lam * config.masses[:, None] * config.q))


def steer_to_angle(config: Configuration, theta_degrees: float) -> Configuration:
    """Rescale the transverse coordinates to hit an exact collinearity angle.

    Scaling every coordinate beyond the first by c multiplies the tangent
    of every pair angle by c, so the minimizing pair is preserved and the
    angle maps exactly: c = tan(target) / tan(current).
    """
    if not (0.0 < theta_degrees < 90.0):
        raise ValueError("target angle must lie in (0, 90) degrees")
    theta_now = collinearity_angle(config)
    if theta_now == 0.0 or theta_now >= 90.0:
        raise ValueError("seed angle must lie strictly between 0 and 90 degrees")
    c = math.tan(math.radians(theta_degrees)) / math.tan(math.radians(theta_now))
    q = config.q.copy()
    q[:, 1:] *= c
    return Configuration(q, config.masses)


def loop_b_matrix_1d(masses: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Force matrix of points x on a line: m_i m_j / |x_i - x_j|^3 off the
    diagonal, rows summing to zero."""
    n = len(x)
    B = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                B[i, j] = masses[i] * masses[j] / abs(x[i] - x[j]) ** 3
    np.fill_diagonal(B, -B.sum(axis=1))
    return B


def loop_potential_1d(masses: np.ndarray, x: np.ndarray) -> float:
    """Potential of points x on a line, summed pair by pair."""
    u = 0.0
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            u += masses[i] * masses[j] / abs(x[i] - x[j])
    return u


def sum_potential_of(m: np.ndarray, r: np.ndarray):
    """U from pair distances r by numpy's .sum over the pair axis: the
    formula core._potential_of used before its running sum. For n <= 4
    (at most six pairs) .sum adds in index order, so the bits agree."""
    iu = np.triu_indices(len(m), k=1)
    return (np.outer(m, m)[iu] / r[..., iu[0], iu[1]]).sum(axis=-1)


def serial_descend(x: np.ndarray, c, steps: int = 40, first_step: float = 0.1) -> np.ndarray:
    """One saddle-seed descent from unit frame coordinates x (constants c
    of core._constants) walked alone, with try/except rejections: the loop
    solver._descend runs in lockstep. Returns the end's frame coordinates."""

    def evaluate(point):  # (U, a), or CollisionError where the guard trips
        *_, u, _, a, collided = _evaluate_x(point[None], c)
        if collided[0]:
            raise CollisionError("trial collides")
        return u[0], a[0]

    def unit(point):
        size = math.sqrt((point * point).sum())
        if not 0.0 < size < math.inf:
            raise ValueError("trial is not on the sphere")
        return point / size

    step = first_step
    u, a = evaluate(x)
    for _ in range(steps):
        v = a / u
        vnorm = math.sqrt((v * v).sum())
        moved = False
        while step * vnorm > 1e-10:
            try:
                with np.errstate(all="ignore"):
                    cand = unit(x - step * v)
                    u_new, a_new = evaluate(cand)
            except (CollisionError, ValueError):
                step *= 0.5
                continue
            if u_new < u:
                x, u, a = cand, u_new, a_new
                step *= 1.3
                moved = True
                break
            step *= 0.5
        if not moved:
            break
    return x


def catalogue_wide_closure(outcomes, m: np.ndarray, group, tol: float) -> list:
    """The closure's dedup by the rule that checked images against the
    catalogue: in order, a solution within tol (mass norm) of the list is
    skipped; any other is listed with its images under group (signs,
    perms), identity first, leaving out those within tol of the list and
    those within tol of an earlier new image of the same orbit. Returns
    (index in outcomes, kept images (K, n, d)) per listed orbit."""
    w = np.repeat(m, len(group[0][0]))

    def near(a, b):  # (A, B) mask of rows within tol, by broadcasting
        return (w * (a[:, None] - b[None]) ** 2).sum(axis=-1) < tol**2

    listed, orbits = np.empty((0, len(w))), []
    for k, out in enumerate(outcomes):
        if not hasattr(out, "config") or near(out.config.q.reshape(1, -1), listed).any():
            continue
        images = np.array([out.config.q[p] * s for s, p in zip(*group)]).reshape(len(group[0]), -1)
        near_all = near(images, np.concatenate([listed, images]))
        new = ~near_all[:, : len(listed)].any(axis=1)
        first = np.argmax(near_all[:, len(listed) :] & new, axis=1)
        keep = new & (first == np.arange(len(images)))
        listed = np.concatenate([listed, images[keep]])
        orbits.append((k, images[keep].reshape((-1,) + out.config.q.shape)))
    return orbits


def loop_newton_residual(orbit, times) -> float:
    """Worst relative defect of Newton's equations, one time at a time."""
    masses = orbit.masses
    worst = 0.0
    for t in times:
        q4 = orbit.positions(float(t))
        field = gradient(Configuration(q4, masses)) / masses[:, None]
        defect = orbit.accelerations(float(t)) - field
        worst = max(worst, float(np.linalg.norm(defect) / np.linalg.norm(field)))
    return worst


def random_configuration(
    rng: np.random.Generator,
    n: int,
    d: int,
    min_sep: float = 0.05,
    masses: np.ndarray | None = None,
) -> Configuration:
    """Gaussian positions, resampled until safely collision-free."""
    if masses is None:
        masses = 1.0 + rng.random(n)
    while True:
        q = rng.standard_normal((n, d))
        cfg = Configuration(q, masses)
        r = np.linalg.norm(q[:, None, :] - q[None, :, :], axis=-1)
        np.fill_diagonal(r, np.inf)
        if r.min() > min_sep * max(1.0, cfg.scale):
            return cfg


# --- exact combinatorics -----------------------------------------------------


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def descending_factorial_coeffs(n: int) -> list[int]:
    """Coefficients of (1+z)(1+2z)...(1+(n-1)z) by direct multiplication."""
    poly = [1]
    for k in range(1, n):
        poly = poly_mul(poly, [1, k])
    return poly


def shifted_factorial_coeffs(n: int) -> list[int]:
    """Coefficients of (1+2t)(1+3t)...(1+(n-1)t) by direct multiplication."""
    poly = [1]
    for k in range(2, n):
        poly = poly_mul(poly, [1, k])
    return poly


def harmonic_fraction(n: int) -> Fraction:
    return sum((Fraction(1, j) for j in range(1, n + 1)), Fraction(0))


# --- collinear three-body closed forms ---------------------------------------


def symmetric_euler_positions() -> np.ndarray:
    """Normalized equal-mass collinear central configuration (-a, 0, a).

    With unit masses the mass norm is 2 a^2, so a = 1/sqrt(2) puts it on
    the unit sphere.
    """
    a = 1.0 / math.sqrt(2.0)
    return np.array([-a, 0.0, a])


def symmetric_euler_spectrum() -> tuple[float, float, float]:
    """Eigenvalues (0, -5/(2a), -6/a) of M^{-1}B at the configuration above.

    Worked by hand: B*a has rows [[-9/4, 2, 1/4], [2, -4, 2],
    [1/4, 2, -9/4]]; (1,1,1) is in the kernel, (1,0,-1) has eigenvalue
    -5/(2a) and the trace fixes the third as -6/a.
    """
    a = 1.0 / math.sqrt(2.0)
    return 0.0, -5.0 / (2.0 * a), -6.0 / a
