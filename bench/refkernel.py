"""Fixed reference kernels that measure the speed of the machine right now.

The compute kernel never imports the program and never changes: its time
at nominal speed is the constant NOMINAL_S below, so NOMINAL_S over the
slices measured during a run tells how fast the processor ran while the
run's calls ran.  It does the kinds of work the program does: pair loops over a few bodies that fill a Hessian
with small numpy arrays, a Python Gram-Schmidt, a small symmetric
eigenproblem, a growing list of kept configurations compared by distance,
and JSON and CSV text built from floats.
"""

import csv
import io
import json
import math
import time

import numpy as np
from scipy.linalg import eigh

REPS = 170         # iterations per slice; about 0.12 s on the reference machine
NOMINAL_S = 0.080  # slice time at nominal speed (see README)

# Start-up is loader and unmarshalling work, which the machine's slow spells
# slow less than the slices above.  Its reference is a fresh interpreter that
# imports only the program's dependencies.
STARTUP_CODE = "import numpy, scipy.linalg"
NOMINAL_STARTUP_S = 0.550  # reference start-up at nominal speed (see README)
N, D = 4, 2


def _hessian_and_force(q: np.ndarray, m: np.ndarray):
    H = np.zeros((N * D, N * D))
    g = np.zeros((N, D))
    eye = np.eye(D)
    for i in range(N):
        for j in range(i + 1, N):
            u = q[j] - q[i]
            r = float(np.linalg.norm(u))
            u = u / r
            g[i] += u / r**2
            g[j] -= u / r**2
            block = (m[i] * m[j] / r**3) * (eye - 3.0 * np.outer(u, u))
            H[i * D:(i + 1) * D, j * D:(j + 1) * D] = block
            H[j * D:(j + 1) * D, i * D:(i + 1) * D] = block
            H[i * D:(i + 1) * D, i * D:(i + 1) * D] -= block
            H[j * D:(j + 1) * D, j * D:(j + 1) * D] -= block
    return H, g


def _basis(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    basis = []
    for k in range(N * D):
        v = np.zeros(N * D)
        v[k] = 1.0 + g[k]
        for b in basis:
            v -= float(np.dot(b * w, v)) * b
        norm = math.sqrt(float(np.dot(v * w, v)))
        if norm > 1e-10:
            basis.append(v / norm)
    return np.stack(basis[:N * D - D - 1], axis=1)


def _work() -> float:
    rng = np.random.default_rng(20201019)
    m = np.ones(N)
    w = np.repeat(m, D)
    kept: list[np.ndarray] = []
    docs: list[dict] = []
    acc = 0.0
    for it in range(REPS):
        q = rng.standard_normal((N, D))
        q = q - m @ q / m.sum()
        H, g = _hessian_and_force(q, m)
        V = _basis(g.ravel(), w)
        A = V.T @ H @ V
        ev = eigh(0.5 * (A + A.T), eigvals_only=True)
        acc += float(ev[0])
        if all(math.sqrt(float(np.sum((k - q) ** 2))) > 1e-6 for k in kept[-40:]):
            kept.append(q)
        docs.append({"q": [[float(x) for x in row] for row in q],
                     "eigenvalues": [float(e) for e in ev]})
        if len(docs) == 20:
            text = json.dumps({"records": docs}, sort_keys=True, indent=2)
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(
                (float(it), *(float(x) for x in doc["q"][0])) for doc in docs)
            acc += len(text) + len(buf.getvalue())
            docs = []
    return acc


def run_slice() -> float:
    """Run one slice and return its wall time in seconds."""
    start = time.perf_counter()
    acc = _work()
    elapsed = time.perf_counter() - start
    if not math.isfinite(acc):
        raise ArithmeticError("reference kernel produced a non-finite sum")
    return elapsed
