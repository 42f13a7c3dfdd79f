"""Tests of the benchmark's own checkers and tracer.

    python3 -m pytest bench/test_checks.py -q

Each checker must accept the program's reports and reject a corrupted one.
The reports are made by the command line in a temporary directory, so the
tests stay outside the project's tier-1 suite (`tests/`).
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import tracer as tracer_module  # noqa: E402
from sbclab import cli  # noqa: E402

ORBIT_T, ORBIT_SAMPLES = 20.0, 2000


def _run(*argv):
    assert cli.run([str(a) for a in argv]) == 0


@pytest.fixture(scope="module", autouse=True)
def one_thread():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("SBC_LAB_THREADS", "1")
        yield


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    out = tmp_path_factory.mktemp("reports")
    _run("census", "--n", 3, "--s", 1.5, "--restarts", 0, "--seed", 0,
         "--output", out / "census.json")
    _run("morse-check", out / "census.json", "--output", out / "morse.json")
    _run("collinear", "--n", 4, "--s", 1.5, "--output", out / "collinear.json")
    _run("orbit", "--n", 3, "--s", 4, "--restarts", 0, "--seed", 0,
         "--T", ORBIT_T, "--samples", ORBIT_SAMPLES, "--format", "csv",
         "--output", out / "orbit.csv")
    load = lambda name: json.loads((out / name).read_text())  # noqa: E731
    times, q = checks.read_orbit_csv(str(out / "orbit.csv"), 3)
    return {"census": load("census.json"), "morse": load("morse.json"),
            "collinear": load("collinear.json"), "orbit": (times, q)}


def _failed(results):
    return {c.name for c in results if not c.ok}


def _check_orbit(times, q):
    return checks.check_orbit(times, q, np.ones(3), ORBIT_T, ORBIT_SAMPLES)


def test_reports_pass(reports):
    assert _failed(checks.check_census(reports["census"], reports["morse"])) == set()
    assert _failed(checks.check_collinear(reports["collinear"])) == set()
    assert _failed(_check_orbit(*reports["orbit"])) == set()


def test_census_rejects_perturbed_coordinate(reports):
    doc = copy.deepcopy(reports["census"])
    doc["solutions"][5]["q"][1][0] += 1e-6
    assert {"census.residual", "census.closure"} <= _failed(
        checks.check_census(doc, reports["morse"]))


def test_collinear_rejects_perturbed_coordinate(reports):
    doc = copy.deepcopy(reports["collinear"])
    doc["records"][7]["positions"][2][0] += 1e-9
    assert {"collinear.residual", "collinear.reversal"} <= _failed(checks.check_collinear(doc))


def test_census_rejects_dropped_reflection_image(reports):
    doc = copy.deepcopy(reports["census"])
    qs = np.array([s["q"] for s in doc["solutions"]])
    planar = next(i for i, q in enumerate(qs) if len(checks.occupied_axes(q)) == 2)
    mirror = qs[planar] * np.array([-1.0, 1.0])
    drop = int(np.argmin(np.abs(qs - mirror).max(axis=(1, 2))))
    assert drop != planar
    del doc["solutions"][drop]
    failed = _failed(checks.check_census(doc, reports["morse"]))
    assert "census.closure" in failed
    assert "census.residual" not in failed


def test_orbit_rejects_row_shift(reports):
    times, q = reports["orbit"]
    shifted = q.copy()
    shifted[900:-1] = q[901:]
    failed = _failed(_check_orbit(times, shifted))
    assert "orbit.newton" in failed
    assert "orbit.grid" not in failed


def test_morse_arithmetic():
    assert checks.poincare_poly(4) == [1, 6, 11, 6]
    assert checks.divide_one_plus_t([11, 15, 4]) == (True, [11, 4])
    assert checks.divide_one_plus_t([23, 18, 13, 18])[1] == [23, -5, 18]
    assert not checks.divide_one_plus_t([1, 0, 0])[0]


def test_tracer_sees_every_solve_and_restores(tmp_path, monkeypatch):
    monkeypatch.setattr(tracer_module, "TARGETS",
                        tracer_module.TARGETS + (("solver", "no_such_function"),))
    import sbclab.solver as solver
    original = solver.find_critical_point
    with tracer_module.Tracer() as tr:
        _run("census", "--n", 3, "--s", 1.5, "--restarts", 3, "--seed", 1,
             "--output", tmp_path / "c.json")
    assert solver.find_critical_point is original
    assert tr.absent == ["solver.no_such_function"]
    spans = tr.summary()
    params = json.loads((tmp_path / "c.json").read_text())["parameters"]
    assert spans["solver.find_critical_point"]["calls"] == params["restarts"] + params["extra_seeds"]
    assert spans["cli.run"]["calls"] == 1
    assert all(v["self_s"] >= -1e-9 for v in spans.values())
    assert spans["core.restricted_hessian_any"]["inside_solve"] > 0
