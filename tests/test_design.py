"""Design checks on the package sources."""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sbclab"

# upper-triangle pair indices, or a pair difference built by broadcasting
PAIR_CODE = re.compile(
    r"triu_indices|np\.triu\(|None, :(, :)?\] - |\[:, None(, :)?\] - |for j in range\(i \+ 1"
)


def test_pair_geometry_lives_only_in_core():
    """Every pair sum goes through core._pairs; no other module rebuilds it."""
    modules = sorted(SRC.glob("*.py"))
    assert any(path.name == "core.py" for path in modules)
    offenders = [
        f"{path.name}:{k}: {line.strip()}"
        for path in modules
        if path.name != "core.py"
        for k, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if PAIR_CODE.search(line)
    ]
    assert offenders == []


CONCURRENCY_CODE = re.compile(r"concurrent\.futures|ThreadPoolExecutor|\bthreading\b")


def test_no_concurrency_layer():
    """Every run is one process on one thread: no pool, no thread module."""
    offenders = [
        f"{path.name}:{k}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        for k, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if CONCURRENCY_CODE.search(line)
    ]
    assert offenders == []


# calls that evaluate a point again through a Configuration-level wrapper
REEVALUATION_CALL = re.compile(
    r"\b(potential|normalize|residual_norm|moment_of_inertia_s|inertia_indices)\("
)


def test_collinear_records_and_reports_evaluate_each_point_once():
    """collinear builds each record from one pair pass and cli writes what the
    record carries, so neither calls a wrapper that evaluates a point again."""
    offenders = [
        f"{name}:{k}: {line.strip()}"
        for name in ("collinear.py", "cli.py")
        for k, line in enumerate((SRC / name).read_text(encoding="utf-8").splitlines(), 1)
        if REEVALUATION_CALL.search(line)
    ]
    assert offenders == []


# a call (not the definition) of the gap solve or of the line spectrum
LINE_SOLVE_CALL = {
    name: re.compile(rf"(?<!def )\b{name}\(") for name in ("_ordered_cc_gaps", "ccc_spectrum")
}


def test_each_collinear_line_is_solved_in_one_place():
    """The gap solve and the line spectrum each have one call site, the line
    helper, so no path solves or decomposes a line twice."""
    sites = {
        name: [
            f"{path.name}:{k}: {line.strip()}"
            for path in sorted(SRC.glob("*.py"))
            for k, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if pattern.search(line)
        ]
        for name, pattern in LINE_SOLVE_CALL.items()
    }
    assert {name: len(found) for name, found in sites.items()} == {
        "_ordered_cc_gaps": 1, "ccc_spectrum": 1
    }, sites


def _calls_by_statement(path: Path) -> list[tuple[str | None, set[str]]]:
    """(name of each top-level def or class, or None, names it calls)."""
    out = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        called = {
            sub.func.id if isinstance(sub.func, ast.Name) else getattr(sub.func, "attr", None)
            for sub in ast.walk(node)
            if isinstance(sub, ast.Call)
        }
        out.append((getattr(node, "name", None), called))
    return out


def _traced(module: str) -> set[str]:
    """Names of `module` in the benchmark tracer's TARGETS."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    )
    return {name for mod, name in targets if mod == module}


# Public functions that only tests call, each kept for the check that will
# give it a program path: the weight-regime counting gates will read the
# degeneracy thresholds, and a coefficient report will print the paper's
# asymptotics of the Poincare coefficients (the identity suite and the nested
# log integral).
TEST_ONLY = {
    ("collinear", "degeneracy_thresholds"),
    ("morse", "coefficient_identity_suite"),
    ("morse", "iterated_log_integral"),
}


def test_public_functions_have_a_caller():
    """Every public function of every module is called somewhere in the
    package outside its own definition, is a layer the benchmark tracer
    times, or is listed in TEST_ONLY."""
    modules = sorted(SRC.glob("*.py"))
    statements = {path: _calls_by_statement(path) for path in modules}

    def called(module: Path, name: str) -> bool:
        return any(
            name in names
            for path, found in statements.items()
            for owner, names in found
            if not (path == module and owner == name)
        )

    public = [
        (path, node.name)
        for path in modules
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    assert {path.stem for path, _ in public} >= {"core", "solver", "collinear", "morse", "cli"}
    uncalled = {
        (path.stem, name)
        for path, name in public
        if not called(path, name) and name not in _traced(path.stem)
    }
    assert uncalled == TEST_ONLY


def test_every_constants_field_has_a_reader():
    """Each field of core._Constants is read as an attribute somewhere in
    the package outside _constants, which builds it, so no field is built
    for nothing."""
    from sbclab.core import _Constants

    read = {
        sub.attr
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if getattr(node, "name", None) not in ("_constants", "_Constants")
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }
    assert set(_Constants._fields) - read == set()


def test_no_function_takes_a_tolerance():
    """Convergence and verdict tolerances are module constants (core.TOL_RES,
    flow.ATOL, RTOL and SLACK), so no caller can set a gate the catalogue
    checks do not hold at."""
    tolerances = {"tol_res", "atol", "rtol", "slack"}
    taking = [
        f"{path.name}:{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
        and tolerances & {a.arg for a in node.args.args + node.args.kwonlyargs}
    ]
    assert taking == []


def _passes_param(call: ast.Call, name: str, param: str, position: int | None) -> bool:
    """Whether call, a call of a function called name, passes its parameter
    param, by keyword or at the given position; a * or ** argument may."""
    func = call.func
    if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != name:
        return False
    spread = any(isinstance(a, ast.Starred) for a in call.args)
    keywords = {k.arg for k in call.keywords}
    return spread or None in keywords or param in keywords or (
        position is not None and len(call.args) > position)


def test_every_default_is_set_by_a_caller():
    """A defaulted parameter that no call in the package sets is a knob only
    tests turn: every one must be passed by some call in the package."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    unset = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            spec = node.args
            positional = spec.posonlyargs + spec.args
            bound = 1 if positional and positional[0].arg in ("self", "cls") else 0
            defaulted = [(p.arg, k - bound) for k, p in enumerate(positional)
                         if k >= len(positional) - len(spec.defaults)]
            defaulted += [(p.arg, None) for p, default in zip(spec.kwonlyargs, spec.kw_defaults)
                          if default is not None]
            unset += [f"{module}.{node.name}: {param}" for param, position in defaulted
                      if not any(_passes_param(c, node.name, param, position) for c in calls)]
    assert unset == []


def _modules_after(code: str, package: str) -> list[str]:
    """The modules of package a fresh interpreter holds after running code
    with this checkout's src/ first on its path."""
    path = [str(ROOT / "src"), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    probe = (
        f"{code}\nimport sys, sbclab\nassert sbclab.__file__.startswith({str(SRC)!r})\n"
        f"print(*sorted(m for m in sys.modules if m == {package!r} or m.startswith({package + '.'!r})))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_cli_imports_no_scipy():
    """The command line starts on numpy and the standard library alone, and
    the nested log integral builds its numpy.polynomial rule in its own call."""
    assert "scipy.linalg" in _modules_after("import scipy.linalg", "scipy")  # the probe sees scipy
    assert _modules_after("import sbclab.cli", "scipy") == []
    assert _modules_after("import sbclab.cli", "numpy.polynomial") == []


# one subcommand per layer: projected Newton and saddle seeding, collinear
# enumeration and spectra, the ascent flow
CLI_CALLS = (
    ("census", "--n", "3", "--s", "1.5", "--restarts", "2"),
    ("collinear", "--n", "4"),
    ("check45", "--count", "1"),
)


def test_cli_subcommands_run_without_scipy(tmp_path):
    """No subcommand defers a scipy import into its own run."""
    code = "import sbclab.cli as cli\n" + "".join(
        f"assert cli.run({[*argv, '--output', str(tmp_path / f'{k}.json')]!r}) == 0\n"
        for k, argv in enumerate(CLI_CALLS)
    )
    assert _modules_after(code, "scipy") == []


def test_package_runs_with_scipy_unimportable(tmp_path):
    """numpy is the only runtime dependency: with every scipy import
    failing, the package imports, runs the nested log integral and the
    identity suite, and every CLI_CALLS subcommand."""
    code = (
        "import sys\nsys.modules['scipy'] = None\n"
        "import sbclab\nimport sbclab.cli as cli\n"
        "from sbclab.morse import coefficient_identity_suite, iterated_log_integral\n"
        "numeric, closed = iterated_log_integral(100.0, 4)\n"
        "assert abs(numeric - closed) <= 1e-8 * closed, (numeric, closed)\n"
        "coefficient_identity_suite(12)\n"
        + "".join(
            f"assert cli.run({[*argv, '--output', str(tmp_path / f'{k}.json')]!r}) == 0\n"
            for k, argv in enumerate(CLI_CALLS)
        )
        + "assert sys.modules.pop('scipy') is None\n"
    )
    assert _modules_after(code, "scipy") == []


CASH_KARP_TABLEAU = {"_CK_A", "_CK_B5", "_CK_B4"}


def test_one_flow_integrator(monkeypatch, tmp_path):
    """integrate_flow, lyapunov_45_check and the flow and check45 subcommands
    all step through the lockstep kernel, and only the kernel reads the
    Cash-Karp tableau, so no second Runge-Kutta loop can come back."""
    from sbclab import cli, flow
    from sbclab.core import Spectrum

    tree = ast.parse((SRC / "flow.py").read_text(encoding="utf-8"))
    readers = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and CASH_KARP_TABLEAU & {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    }
    assert readers == {"_flow_lanes"}

    lanes = []
    kernel = flow._flow_lanes

    def recording(starts, *args):
        lanes.append(len(starts))
        return kernel(starts, *args)

    monkeypatch.setattr(flow, "_flow_lanes", recording)
    seed = flow.tilted_line_seed(30.0, 0.0)
    flow.integrate_flow(seed, Spectrum((2.0, 1.0, 1.0)), 0.5)
    assert lanes == [1]
    report = flow.lyapunov_45_check([seed, flow.tilted_line_seed(10.0, 1.0)],
                                    Spectrum((2.0, 1.0, 1.0)))
    assert report.checked == 2 and lanes == [1, 2]
    assert cli.run(["flow", "--seed", "3", "--output", str(tmp_path / "flow.json")]) == 0
    assert lanes == [1, 2, 1]
    assert cli.run(["check45", "--count", "6", "--output", str(tmp_path / "c45.json")]) == 0
    checked = json.loads((tmp_path / "c45.json").read_text(encoding="utf-8"))["checked"]
    assert checked > 1 and lanes == [1, 2, 1, checked]


def test_a_solve_evaluates_each_point_once_and_recentres_only_its_ends(monkeypatch):
    """One find_critical_point solve from a centred start evaluates each
    point once in the frame (core._evaluate_x), the start and every trial
    the line search keeps in play, each on its own x, and builds each
    iterate's model on an evaluated x; it evaluates the returned point q
    once more in the frame, at x' = _frame_of(q), makes no position pass
    (core._pairs), and calls the centre-of-mass test only from the start's
    normalization (before and after its rescaling) and the returned
    Configuration."""
    import numpy as np

    from sbclab import core, solver
    from sbclab.core import Configuration, Spectrum

    log = {"recentre": [], "frame": [], "models": [], "pairs": []}

    def spy(module, name, record):
        real = getattr(module, name)

        def wrapper(*args):
            out = real(*args)
            record(args, out)
            return out

        monkeypatch.setattr(module, name, wrapper)

    spy(core, "_recentre",
        lambda args, out: log["recentre"].append(traceback.extract_stack(limit=3)[0].name))
    spy(solver, "_evaluate_x", lambda args, out: log["frame"].append(args[0]))
    spy(solver, "_restricted_hessian_any", lambda args, out: log["models"].append(args[0]))
    for module in (core, solver):
        spy(module, "_pairs", lambda args, out: log["pairs"].append(args[0]))
    rng = np.random.default_rng(23)
    for masses, spec in ((np.ones(3), Spectrum.planar(1.5)),
                         (np.array([1.0, 2.0, 3.0, 4.0]), Spectrum((3.0, 2.0, 1.0)))):
        for _ in range(3):
            start = Configuration(rng.standard_normal((len(masses), spec.d)), masses)
            for record in log.values():
                record.clear()
            out = solver.find_critical_point(start, spec)
            assert isinstance(out, solver.SBCSolution)
            assert log["recentre"] == ["_normalize_q", "_normalize_q", "__post_init__"]
            *points, row = log["frame"]
            assert len(points) > 2  # the start and at least two trials
            assert len({x.tobytes() for x in points}) == len(points)
            assert all(any(m is x for x in points) for m in log["models"])
            assert log["pairs"] == []
            c = core._constants(masses, spec.array)
            assert row.tobytes() == core._frame_of(out.config.q, c).tobytes()


def test_only_starts_and_library_entry_centre_a_point(monkeypatch):
    """Across whole censuses, the centre-of-mass test (core._recentre) runs
    only inside core._normalize_q and at library entry (Configuration), and
    _normalize_q only from _sample_start, find_critical_point's start and
    the collinear catalogue (collinear._catalogue).  So neither _saddle_seeds
    nor _descend calls either, and no call at all happens inside a descent
    walk: the seeding works in frame coordinates, whose every point is
    centred (masses (1, 2, 3) with S = diag(4, 3, 2, 1) are the walks on
    which the test used to fire)."""
    import numpy as np

    from sbclab import collinear, core, solver
    from sbclab.core import Spectrum

    callers = {"_recentre": set(), "_normalize_q": set()}
    walking, walks = [], []

    def spy(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            callers[name].add(traceback.extract_stack(limit=2)[0].name)
            assert not walking, f"{name} called inside a descent walk"
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    spy(core, "_recentre")
    for module in (core, solver, collinear):
        spy(module, "_normalize_q")
    descend = solver._descend

    def walk(starts, c):
        walks.append(len(starts))
        walking.append(True)
        ends = descend(starts, c)
        walking.clear()
        return ends

    monkeypatch.setattr(solver, "_descend", walk)
    for masses, spec in ((np.array([1.0, 2.0, 3.0]), Spectrum((4.0, 3.0, 2.0, 1.0))),
                         (np.ones(4), Spectrum.planar(1.5))):
        solver.census(masses, spec, 3, seed=2)
    assert len(walks) == 2 and min(walks) > 0
    assert callers == {"_recentre": {"__post_init__", "_normalize_q"},
                       "_normalize_q": {"_sample_start", "find_critical_point", "_catalogue"}}


def test_an_enumeration_and_its_report_build_no_collinear_record(monkeypatch, tmp_path):
    """enumerate_csbc holds its records as columns, and cli collinear writes
    those columns: neither constructs a CollinearRecord (record(i) builds
    one on request)."""
    import numpy as np

    from sbclab import cli, collinear
    from sbclab.core import Spectrum

    built = []
    init = collinear.CollinearRecord.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(collinear.CollinearRecord, "__init__", counted)
    cat = collinear.enumerate_csbc(np.ones(5), Spectrum((1.5, 1.0)))
    assert cli.run(["collinear", "--n", "5", "--output", str(tmp_path / "c.json")]) == 0
    assert len(cat.q) == 240 and len(built) == 0
    assert cat.record(7).catalogue is cat and len(built) == 1
