"""Spans around the program's layer functions, recorded from outside.

A Tracer replaces each listed function by a wrapper in every sbclab module
namespace that holds it (so `from .core import gradient` in another module
is wrapped too), records one span per call and restores the originals on
exit.  Spans stay in compact in-memory arrays until the run ends.  Calls
must all come from the thread that opened the tracer; the benchmark pins
one thread, and the tracer counts any call from another one.
"""

from __future__ import annotations

import sys
import threading
import time
from array import array

import numpy as np

PACKAGE = "sbclab"

# (module, name) pairs; "Class.method" names wrap a method on its class
TARGETS = (
    ("core", "potential"),
    ("core", "gradient"),
    ("core", "hessian"),
    ("core", "sbc_residual"),
    ("core", "normalize"),
    ("core", "tangent_basis"),
    ("core", "_restricted_hessian_any"),
    ("core", "inertia_indices"),
    ("solver", "find_critical_point"),
    ("solver", "_descend"),
    ("solver", "_saddle_seeds"),
    ("solver", "mass_norm_distance"),
    ("solver", "census"),
    ("collinear", "enumerate_csbc"),
    ("collinear", "moulton_solve"),
    ("collinear", "_ordered_cc_gaps"),
    ("collinear", "ccc_spectrum"),
    ("flow", "integrate_flow"),
    ("flow", "_flow_rhs"),
    ("flow", "collinearity_angle"),
    ("equilibria", "lift"),
    ("equilibria", "newton_residual"),
    ("equilibria", "RelativeEquilibriumOrbit.positions"),
    ("morse", "morse_inequality_check"),
    ("cli", "run"),
)


def span_name(module: str, name: str) -> str:
    return f"{module}.{name.split('.')[-1].lstrip('_')}"


class Tracer:
    """Context manager that wraps TARGETS and collects spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock  # seconds; spans are timed with it
        self.names: list[str] = []
        self.absent: list[str] = []
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.census_results: list[tuple[int, int]] = []  # (restarts + extra_seeds, kept)
        self.converged = 0
        self.accepted_steps = 0
        self.residual_samples = 0
        self.foreign_calls = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _post_hook(self, name: str):
        if name == "solver.census":
            def hook(args, kwargs, result):
                self.census_results.append(
                    (result.restarts + result.extra_seeds, len(result.solutions)))
            return hook
        if name == "solver.find_critical_point":
            def hook(args, kwargs, result):
                self.converged += getattr(result, "cause", None) is None
            return hook
        if name == "flow.integrate_flow":
            def hook(args, kwargs, result):
                self.accepted_steps += len(result) - 1
            return hook
        if name == "equilibria.newton_residual":
            def hook(args, kwargs, result):
                samples = args[1] if len(args) > 1 else kwargs.get("t_samples", 1000)
                self.residual_samples += int(samples) if np.isscalar(samples) else len(samples)
            return hook
        return None

    def _wrap(self, fn, idx: int, hook):
        stack, name_idx, parent = self._stack, self.name_idx, self.parent
        start, end = self.start, self.end
        main = threading.get_ident()
        clock = self.clock

        def wrapper(*args, **kwargs):
            if threading.get_ident() != main:
                self.foreign_calls += 1
                return fn(*args, **kwargs)
            sid = len(name_idx)
            name_idx.append(idx)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module_name, name in TARGETS:
            label = span_name(module_name, name)
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner, attr = module, name
            if module is not None and "." in name:
                cls_name, attr = name.split(".")
                owner = getattr(module, cls_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(label)
                continue
            idx = len(self.names)
            self.names.append(label)
            wrapper = self._wrap(original, idx, self._post_hook(label))
            if owner is not module:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()
        return False

    # -- analysis -----------------------------------------------------------

    def arrays(self):
        """(name index, parent, start, end) as numpy arrays."""
        return (np.frombuffer(self.name_idx, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy())

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans on one thread nest, so the children never overlap.
        Also returns, under "inside", how many spans of each name ran below a
        find_critical_point span.
        """
        idx, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(idx, minlength=k)
        total = np.bincount(idx, weights=dur, minlength=k)
        own = np.bincount(idx, weights=self_time, minlength=k)

        inside = np.zeros(len(idx), dtype=bool)
        if "solver.find_critical_point" in self.names:
            fcp = self.names.index("solver.find_critical_point")
            ancestor = parent.copy()
            while np.any(ancestor >= 0):
                live = ancestor >= 0
                inside[live] |= idx[ancestor[live]] == fcp
                ancestor[live] = parent[ancestor[live]]
        below = np.bincount(idx[inside], minlength=k)
        return {name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i]),
                       "inside_solve": int(below[i])}
                for i, name in enumerate(self.names)}

    def save(self, path, run_id: str) -> None:
        idx, parent, start, end = self.arrays()
        np.savez_compressed(path, run_id=np.array(run_id), names=np.array(self.names),
                            name=idx, parent=parent, start=start, end=end)
