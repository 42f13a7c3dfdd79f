"""End-to-end checks of the command-line interface (in-process)."""

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbclab import cli, core
from sbclab.core import Configuration, InertiaTriple
from sbclab.equilibria import RelativeEquilibriumOrbit
from sbclab.errors import NoConvergence


def _run(capsys, *argv):
    code = cli.run(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# counting tables


def test_coeffs_four_exact_payload(capsys):
    doc = _run_json(capsys, "coeffs", "4")
    assert doc == {"n": 4, "c": [1, 6, 11, 6], "sum": "24"}


def test_coeffs_output_is_deterministic(capsys):
    code, first, _ = _run(capsys, "coeffs", "6")
    code2, second, _ = _run(capsys, "coeffs", "6")
    assert code == code2 == 0
    assert first == second


def test_coeffs_large_n_switches_to_decimal_strings(capsys):
    doc = _run_json(capsys, "coeffs", "30")
    assert all(isinstance(c, str) for c in doc["c"])
    assert doc["sum"] == str(math.factorial(30))
    assert sum(int(c) for c in doc["c"]) == math.factorial(30)


def test_coeffs_csv_table(capsys):
    code, out, _ = _run(capsys, "coeffs", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "j,c_j"
    assert [line.split(",")[1] for line in lines[1:]] == ["1", "6", "11", "6"]


def test_betti_four(capsys):
    doc = _run_json(capsys, "betti", "4")
    assert doc["betti"] == [1, 0, 7, 0, 18, 6]
    assert doc["sum"] == "32"
    assert doc["planar_cc_bound"] == "19"
    assert doc["surplus"] == "13"


def test_coeffs_of_one_body(capsys):
    code, out, _ = _run(capsys, "coeffs", "1")
    assert code == 0
    assert json.loads(out) == {"c": [1], "n": 1, "sum": "1"}


def test_bounds_planar_regime(capsys):
    doc = _run_json(capsys, "bounds", "3", "2", "--regime", "below_eta1")
    assert doc["bounds"]["below_eta1"]["total"] == "14"
    assert doc["bounds"]["below_eta1"]["non_collinear"] == "2"


def test_bounds_regime_requires_planar(capsys):
    code, _, err = _run(capsys, "bounds", "3", "3", "--regime", "between")
    assert code == 1
    assert "d = 2" in err


def test_bounds_general_dimension(capsys):
    doc = _run_json(capsys, "bounds", "4", "3")
    assert doc["d"] == 3
    assert "planar_quadratic" in doc["bounds"]


@pytest.mark.parametrize("n", [171, 172])
def test_bounds_large_n_note_stays_finite(capsys, n):
    # (n - (1 + gamma + log n)) (n-1)! leaves the float range at n = 171
    code, out, err = _run(capsys, "bounds", str(n), "4")
    assert code == 0, err
    note = json.loads(out, parse_constant=pytest.fail)["notes"][
        "indices_adjacent_large_n_non_collinear"]
    assert isinstance(note, str) and note.isdigit()
    coefficient = n - (1.0 + 0.5772156649015329 + math.log(n))
    assert int(note) // math.factorial(n - 1) == int(coefficient)


def _many_chunk_report(last: float) -> dict:
    """A report of several JSON_CHUNK chunks whose last record holds last."""
    records = [{"x": float(i), "q": [[0.5, -1.5], [2.0, i]]} for i in range(2000)]
    records[-1]["x"] = last
    return {"count": len(records), "records": records}


def _many_block_report(last: float, repeats: int = 1) -> dict:
    """A report whose table of several CSV_BLOCK blocks holds last in its
    last `repeats` rows."""
    x = np.arange(3 * cli.CSV_BLOCK, dtype=float)
    x[-repeats:] = last
    return {"count": len(x), "records": cli._Table({"x": x, "q": np.ones((len(x), 2, 2))})}


def _repeated_block_report(bad: float) -> dict:
    """A table of three CSV_BLOCK blocks whose float column repeats 0.0 and
    -0.0 throughout and holds bad only in the last block, several times
    over, in its second entry."""
    q = np.tile([[0.0, -0.0]], (3 * cli.CSV_BLOCK, 1))
    q[-cli.CSV_BLOCK // 2::3, 1] = bad
    return {"records": cli._Table({"q": q, "k": np.zeros(len(q), dtype=np.int64)})}


def test_non_finite_report_is_refused(capsys, monkeypatch, tmp_path):
    assert len(cli._json_chunks(_many_chunk_report(1.0))) > 2
    assert len(cli._json_chunks(_many_block_report(1.0))) > 2
    target = tmp_path / "report.json"
    for payload in ({"x": float("nan")}, _many_chunk_report(float("nan")),
                    _many_block_report(float("nan")), _many_block_report(float("nan"), 5),
                    _repeated_block_report(float("nan")), _repeated_block_report(-math.inf)):
        monkeypatch.setitem(cli._HANDLERS, "coeffs", lambda args: (payload, None))
        code, out, err = _run(capsys, "coeffs", "4", "--output", str(target))
        assert code == 1
        assert "JSON" in err and out == ""
        assert not target.exists()
        code, out, err = _run(capsys, "coeffs", "4")
        assert code == 1
        assert "JSON" in err and out == ""


def _row_dicts(obj) -> list:
    """json.dumps default hook: a cli._Table as the list of its rows as dicts."""
    if not isinstance(obj, cli._Table):
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")
    columns = {k: c.tolist() if isinstance(c, np.ndarray) else c for k, c in obj.columns.items()}
    return [dict(zip(columns, values)) for values in zip(*columns.values())]


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False, default=_row_dicts)


# JSON_CHUNK values under test: the two smallest and the default
_CHUNKS = [1, 2, cli.JSON_CHUNK]


# what a report holds: str-keyed dicts, lists and tuples (InertiaTriple
# among them) around str, bool, None, int and finite float scalars
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**53, max_value=2**80).flatmap(lambda v: st.sampled_from([v, -v])),
    _FINITE,
    _FINITE.map(np.float64),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e22, -1e22]),
    st.text(),
    st.builds(InertiaTriple, *[st.integers(0, 12)] * 3),
)
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_PAYLOADS)
@example({
    "floats": [-0.0, 5e-324, 1e16, 1e22, np.float64(0.1), np.float64(-0.0)],
    "ints": [2**53, -(2**64), 0, True, False, None],
    "text": ["\u00e9t\u00e9", "\u20ac \U0001f600", "tab\tquote\"", ""],
    "triples": [InertiaTriple(1, 0, 2), (), [], {}],
    "nested": {"b": {"a": [[], {}, ((1.5,),)]}, "a": ()},
})
def test_json_writer_equals_json_dumps(payload):
    with pytest.MonkeyPatch.context() as mp:
        for chunk in _CHUNKS:
            mp.setattr(cli, "JSON_CHUNK", chunk)
            assert "".join(cli._json_chunks(payload)) == _dumps(payload)


# a table column: (array dtype, or None for a list column, and its scalars);
# an array column is np.array of its scalars with a drawn trailing shape, a
# list column holds the scalars themselves
_COLUMNS = st.sampled_from([
    (float, st.one_of(_FINITE, _FINITE.map(np.float64),
                      st.sampled_from([-0.0, 5e-324, 1e16, 1e22, -1e22]))),
    (np.int64, st.integers(-(2**63), 2**63 - 1)),
    # few distinct values, so each repeats within a block and across blocks
    (float, st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.1])),
    (np.int64, st.sampled_from([2**63 - 1, -(2**63 - 1), 0])),
    (None, st.text()),
    (None, st.booleans()),
    (None, st.none() | st.builds(InertiaTriple, *[st.integers(0, 12)] * 3)),
])


@st.composite
def _tables(draw):
    """(table, the same rows as dicts) with 0 rows, 1 row or three blocks
    of CSV_BLOCK = 3 rows."""
    rows = draw(st.sampled_from([0, 1, 7]))
    columns, dicts = {}, [{} for _ in range(rows)]
    for key in draw(st.lists(st.text(max_size=6), min_size=1, max_size=5, unique=True)):
        dtype, scalars = draw(_COLUMNS)
        shape = () if dtype is None else tuple(draw(st.lists(st.integers(0, 3), max_size=2)))
        size = rows * math.prod(shape)
        values = draw(st.lists(scalars, min_size=size, max_size=size))
        if dtype is None:
            columns[key] = values
        else:
            columns[key] = np.array(values, dtype=dtype).reshape((rows, *shape))
            values = np.array(values, dtype=object).reshape((rows, *shape)).tolist()
        for row, value in zip(dicts, values):
            row[key] = value
    return cli._Table(columns), dicts


@settings(max_examples=200, deadline=None)
@given(_tables())
@example((cli._Table({"%s": np.array([[-0.0, 5e-324], [1e16, 1e22]]),
                      "t": [None, InertiaTriple(1, 0, 2)], "\u00e9": ["\u20ac", "%d"]}),
          [{"%s": [-0.0, 5e-324], "t": None, "\u00e9": "\u20ac"},
           {"%s": [1e16, 1e22], "t": [1, 0, 2], "\u00e9": "%d"}]))
@example((cli._Table({"z": np.array([0.0, -0.0, 0.0, -0.0, -0.0, 5e-324, -5e-324]),
                      "i": np.array([[2**63 - 1, -(2**63 - 1)]] * 7)}),
          [{"z": z, "i": [2**63 - 1, -(2**63 - 1)]}
           for z in [0.0, -0.0, 0.0, -0.0, -0.0, 5e-324, -5e-324]]))
def test_table_writer_equals_json_dumps_of_its_rows(table_rows):
    table, rows = table_rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "CSV_BLOCK", 3)
        for chunk in _CHUNKS:
            mp.setattr(cli, "JSON_CHUNK", chunk)
            assert "".join(cli._json_chunks(table)) == _dumps(rows)
            payload = {"count": len(rows), "nested": [{"rows": table}]}
            assert "".join(cli._json_chunks(payload)) == \
                _dumps({"count": len(rows), "nested": [{"rows": rows}]})


def test_table_writer_takes_a_flat_unique_inverse(monkeypatch):
    """NumPy before 2.0 returns np.unique's inverse flattened for a 2-D input;
    the texts are placed in the block's own shape either way."""
    unique = np.unique

    def flat_inverse(values, **kwargs):
        out = unique(values, **kwargs)
        return out[:-1] + (out[-1].ravel(),) if kwargs.get("return_inverse") else out

    monkeypatch.setattr(np, "unique", flat_inverse)
    monkeypatch.setattr(cli, "CSV_BLOCK", 3)
    q = np.array([[0.0, -0.0], [1.5, 0.0]] * 4)
    table = cli._Table({"q": q, "i": np.arange(8)})
    assert "".join(cli._json_chunks(table)) == \
        _dumps([{"q": row, "i": i} for i, row in enumerate(q.tolist())])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf")])
def test_json_writer_refuses_non_finite_floats(bad):
    for payload in (bad, [1.0, bad], {"a": {"b": (2.0, bad)}}):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._json_chunks(payload)
        with pytest.raises(ValueError):
            _dumps(payload)


@pytest.fixture(scope="module")
def report_payloads():
    parser = cli.build_parser()
    return {argv: cli._HANDLERS[argv[0]](parser.parse_args(argv))[0]
            for argv in (("collinear", "--n", "4", "--d", "3", "--s", "3,2,1"),
                         ("collinear", "--n", "6", "--s", "1.5"),
                         ("collinear", "--n", "6", "--s", "1.5", "--masses", "1,2,3,4,5,6"),
                         ("census", "--n", "3", "--restarts", "5"),
                         ("bounds", "6", "3"),
                         ("coeffs", "30"))}


def test_json_writer_equals_json_dumps_on_reports(report_payloads, monkeypatch):
    for chunk in _CHUNKS:
        monkeypatch.setattr(cli, "JSON_CHUNK", chunk)
        for payload in report_payloads.values():
            assert "".join(cli._json_chunks(payload)) == _dumps(payload)


def test_census_report_is_held_at_about_its_own_size(tmp_path):
    small, n = cli._run_census(cli.build_parser().parse_args(
        ["census", "--n", "3", "--s", "4", "--restarts", "20", "--seed", "5"]))
    # the same catalogue a hundred times over: 2400 rows
    large = dataclasses.replace(
        small, q=np.concatenate([small.q] * 100),
        **{k: getattr(small, k) * 100
           for k in ("lam", "residual", "triple", "classification", "is_cc")})
    path = tmp_path / "census.json"
    tracemalloc.start()
    try:
        payload = cli._census_payload(large, n, 2)
        cli._emit(argparse.Namespace(format="json", output=str(path)), payload, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_text() == _dumps(payload) + "\n"
    assert peak <= 1.5 * path.stat().st_size


def test_json_report_is_held_at_about_its_own_size(report_payloads, tmp_path):
    """Equal masses repeat a few values throughout the table; masses 1..6
    repeat few."""
    for masses in ((), ("--masses", "1,2,3,4,5,6")):
        payload = report_payloads[("collinear", "--n", "6", "--s", "1.5", *masses)]
        path = tmp_path / "collinear.json"
        tracemalloc.start()
        try:
            cli._emit(argparse.Namespace(format="json", output=str(path)), payload, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_text() == _dumps(payload) + "\n"
        assert peak <= 1.5 * path.stat().st_size


# ---------------------------------------------------------------------------
# collinear


def test_collinear_single_ordering(capsys):
    doc = _run_json(
        capsys, "collinear", "--n", "3", "--s", "2", "--ordering", "1,2,3",
        "--axis", "1",
    )
    assert doc["count"] == 1
    rec = doc["records"][0]
    assert rec["predicted"] == rec["computed"] == [2, 0, 1]
    assert rec["residual"] < 1e-12
    assert rec["U"] == pytest.approx(rec["lambda"])  # I_S = 1 normalization


def test_collinear_csv_row_matches_json_record(capsys):
    args = ["collinear", "--n", "3", "--s", "2", "--ordering", "1,3,2", "--axis", "2"]
    rec = _run_json(capsys, *args)["records"][0]
    code, out, _ = _run(capsys, *args, "--format", "csv")
    assert code == 0
    header, row = out.splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["ordering"] == "1 3 2"
    assert fields["axis"] == "2"
    assert fields["positions"].split() == [repr(x) for r in rec["positions"] for x in r]
    assert float(fields["U"]) == rec["U"]
    assert fields["eta"].split() == [repr(x) for x in rec["eta"]]
    assert [int(fields[f"computed_{k}"]) for k in ("index", "nullity", "coindex")] == \
        rec["computed"]


def test_collinear_enumeration_counts(capsys):
    doc = _run_json(capsys, "collinear", "--n", "3", "--s", "1.5")
    assert doc["count"] == 2 * math.factorial(3)
    axes = {rec["axis"] for rec in doc["records"]}
    assert axes == {1, 2}


def test_collinear_axis_without_ordering_rejected(capsys):
    code, _, err = _run(capsys, "collinear", "--n", "3", "--axis", "2")
    assert code == 1
    assert "ordering" in err


# ---------------------------------------------------------------------------
# census and morse-check


@pytest.fixture(scope="module")
def census_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "census.json"
    code = cli.run([
        "census", "--n", "3", "--d", "2", "--s", "1.5", "--restarts", "40",
        "--seed", "7", "--output", str(path),
    ])
    assert code == 0
    return path


def test_census_report_content(census_file):
    doc = json.loads(census_file.read_text())
    assert doc["solution_count"] >= 14
    assert doc["parameters"]["restarts"] == 40
    assert doc["parameters"]["S"] == [1.5, 1.0]
    classes = {sol["classification"] for sol in doc["solutions"]}
    assert "full-dimensional" in classes
    for sol in doc["solutions"]:
        assert sol["residual"] < 1e-9  # gate is relative to U, which is O(5)
        assert len(sol["triple"]) == 3


def test_census_wall_clock_goes_to_stderr_not_payload(capsys):
    code, out, err = _run(
        capsys, "census", "--n", "3", "--restarts", "5", "--seed", "1",
    )
    assert code == 0
    assert "census:" in err
    json.loads(out)  # payload must stay pure JSON
    assert "wall" not in out


def test_census_byte_identical_across_runs(tmp_path, capsys):
    args = ["census", "--n", "3", "--s", "1.5", "--restarts", "25",
            "--seed", "3"]
    code, first, _ = _run(capsys, *args)
    code2, second, _ = _run(capsys, *args)
    assert code == code2 == 0
    assert first == second


def test_census_report_is_the_same_with_shared_constants(capsys, monkeypatch):
    args = ["census", "--n", "4", "--s", "1.5", "--restarts", "4", "--seed", "3"]
    core._constants_of.cache_clear()
    code, shared, err = _run(capsys, *args)
    assert code == 0, err
    assert core._constants_of.cache_info().hits > 0
    # the uncached builder: each call builds its own constants
    monkeypatch.setattr(core, "_constants_of", core._constants_of.__wrapped__)
    code, rebuilt, err = _run(capsys, *args)
    assert code == 0, err
    assert shared == rebuilt


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps(
        {"n": 3, "d": 2, "s": 1.5, "restarts": 20, "seed": 7}
    ))
    doc = _run_json(capsys, "census", "--config", str(cfgfile))
    assert doc["parameters"]["restarts"] == 20
    doc = _run_json(
        capsys, "census", "--config", str(cfgfile), "--restarts", "0"
    )
    assert doc["parameters"]["restarts"] == 0
    assert doc["solution_count"] >= 14  # deterministic starts still searched


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfgfile = tmp_path / "run.json"
    for entry in ({"restart": 5}, {"tol_res": 1e-6}):
        cfgfile.write_text(json.dumps({"n": 3, **entry}))
        code, _, err = _run(capsys, "census", "--config", str(cfgfile))
        assert code == 1
        assert f"unknown config keys: {next(iter(entry))}" in err


# each case: subcommand, config entries, the same values as flags; every
# case also carries a key of another subcommand, which must be ignored
_CONFIG_CASES = {
    "census": (
        {"n": 3, "d": 2, "masses": [1, 2, 3], "s": [1.5, 1.0], "seed": 4,
         "restarts": 5, "format": "json", "count": 9},
        ["--n", "3", "--d", "2", "--masses", "1,2,3", "--s", "1.5,1", "--seed", "4",
         "--restarts", "5", "--format", "json"],
    ),
    "collinear": (
        {"n": 3, "d": 2, "masses": [1, 2, 3], "s": 2, "ordering": [1, 3, 2],
         "axis": 2, "format": "csv", "seed": 9},
        ["--n", "3", "--d", "2", "--masses", "1,2,3", "--s", "2", "--ordering", "1,3,2",
         "--axis", "2", "--format", "csv"],
    ),
    "continue": (
        {"n": 3, "d": 2, "masses": [1, 1, 1], "ordering": "1,2,3", "axis": 2,
         "s_from": 1.5, "s_to": 2.0, "steps": 3, "s": 9},
        ["--n", "3", "--d", "2", "--masses", "1,1,1", "--ordering", "1,2,3", "--axis", "2",
         "--from", "1.5", "--to", "2.0", "--steps", "3"],
    ),
    "flow": (
        {"n": 3, "d": 3, "masses": [1, 1, 2], "s": [2, 1.5, 1], "seed": 3,
         "t_final": 5, "format": "csv", "samples": 9},
        ["--n", "3", "--d", "3", "--masses", "1,1,2", "--s", "2,1.5,1", "--seed", "3",
         "--T", "5", "--format", "csv"],
    ),
    "check45": (
        {"count": 3, "seed": 2, "s": [2.5, 1, 1], "t_final": 30, "restarts": 9},
        ["--count", "3", "--seed", "2", "--s", "2.5,1,1", "--T", "30"],
    ),
    "orbit": (
        {"n": 3, "d": 2, "masses": [1, 1, 1], "s": 4, "restarts": 3, "seed": 5,
         "census_id": 1, "t_final": 5, "samples": 50, "format": "csv", "steps": 9},
        ["--n", "3", "--d", "2", "--masses", "1,1,1", "--s", "4", "--restarts", "3",
         "--seed", "5", "--census-id", "1", "--T", "5", "--samples", "50",
         "--format", "csv"],
    ),
}


@pytest.mark.parametrize("command", sorted(_CONFIG_CASES))
def test_config_entries_read_as_the_flags_they_name(command, tmp_path, capsys):
    entries, flags = _CONFIG_CASES[command]
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({**entries, "output": str(tmp_path / "from_config")}))
    assert _run(capsys, command, "--config", str(cfgfile))[0] == 0
    code, _, err = _run(capsys, command, *flags, "--output", str(tmp_path / "from_flags"))
    assert code == 0, err
    report = (tmp_path / "from_flags").read_bytes()
    assert report and (tmp_path / "from_config").read_bytes() == report


@pytest.mark.parametrize("entry", [{"seed": True}, {"n": 3.7}, {"restarts": "x"}])
def test_config_entries_are_validated_as_flags(entry, tmp_path, capsys):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"n": 3, "restarts": 3, **entry}))
    code, out, err = _run(capsys, "census", "--config", str(cfgfile))
    assert code == 1 and out == ""
    assert f"--{next(iter(entry))}" in err


def _refused_before_the_run(capsys, monkeypatch, command, *argv):
    """stderr of a run of command with argv, which must exit 1 before its
    handler runs."""
    def never(args):
        raise AssertionError(f"{command} ran with {argv}")

    monkeypatch.setitem(cli._HANDLERS, command, never)
    code, out, err = _run(capsys, command, *argv)
    assert code == 1 and out == ""
    return err


@pytest.mark.parametrize("command, flag, value", [
    ("census", "--n", "1"), ("census", "--seed", "-1"), ("census", "--restarts", "-1"),
    ("census", "--masses", "1,-1,1"), ("census", "--masses", "1,1e300,1"),
    ("census", "--masses", "1,9.999999999999999e-06,1"), ("census", "--masses", "1,100000.00000000001,1"),
    ("continue", "--steps", "0"), ("continue", "--d", "0"),
    ("check45", "--count", "0"),
    ("orbit", "--samples", "1"), ("orbit", "--census-id", "-1"),
    ("orbit", "--T", "nan"), ("orbit", "--T", "0"), ("flow", "--T", "inf"),
    ("check45", "--T", "-1"),
    ("continue", "--to", "inf"), ("continue", "--from", "nan"),
    ("continue", "--from", "0"), ("continue", "--to", "-1"),
])
def test_out_of_range_flags_are_rejected_before_the_run(
        command, flag, value, capsys, monkeypatch):
    required = ["--from", "1.5", "--to", "2"] if command == "continue" else []
    with warnings.catch_warnings(record=True) as caught:  # pytest keeps them off stderr
        warnings.simplefilter("always")
        err = _refused_before_the_run(capsys, monkeypatch, command, *required, f"{flag}={value}")
    assert f"argument {flag}: must be" in err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# every tolerance is a module constant: no flag sets one
@pytest.mark.parametrize("command, flag, value", [
    ("census", "--tol-res", "1e-6"), ("flow", "--atol", "1e-8"), ("check45", "--slack", "1"),
])
def test_tolerance_flags_are_rejected_before_the_run(command, flag, value, capsys, monkeypatch):
    err = _refused_before_the_run(capsys, monkeypatch, command, flag, value)
    assert err.startswith("usage: sbc-lab ")
    assert f"unrecognized arguments: {flag} {value}" in err


def test_config_flag_without_a_file_reports_the_subcommand_usage(capsys):
    code, out, err = _run(capsys, "census", "--config")
    assert code == 1 and out == ""
    assert err.startswith("usage: sbc-lab census ") and "--restarts" in err
    assert "argument --config: expected one argument" in err


def test_config_supplies_required_flags(tmp_path, capsys):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"s_from": 1.5, "s_to": 2.0, "steps": 2}))
    doc = _run_json(capsys, "continue", "--config", str(cfgfile), "--axis", "2")
    assert (doc["s_from"], doc["s_to"], doc["axis"]) == (1.5, 2.0, 2)
    assert len(doc["points"]) == 3


def test_continue_has_no_s_flag(capsys):
    code, out, err = _run(
        capsys, "continue", "--n", "3", "--ordering", "1,2,3", "--axis", "2",
        "--from", "1.5", "--to", "2.0", "--steps", "2", "--s", "9,7",
    )
    assert code == 1 and out == ""
    assert "unrecognized arguments: --s" in err


def test_morse_check_of_census_file(census_file, capsys):
    doc = _run_json(capsys, "morse-check", str(census_file))
    assert doc["ok"] is True
    assert doc["divisible"] is True
    assert doc["quotient"] == [11, 4]
    assert doc["reference_poly"] == [1, 3, 2]


def test_morse_check_rejects_non_census_json(tmp_path, capsys):
    bad = tmp_path / "junk.json"
    bad.write_text('{"hello": 1}')
    code, _, err = _run(capsys, "morse-check", str(bad))
    assert code == 1
    assert "census" in err


def test_morse_check_degenerate_census_exits_1(tmp_path, capsys):
    doc = {"parameters": {"n": 3, "d": 2}, "solutions": [{"triple": [0, 1, 1]}]}
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "morse-check", str(path))
    assert code == 1 and out == ""
    assert err.strip() == (
        "error: census contains a degenerate solution (nullity 1); "
        "index counts are undefined"
    )


# ---------------------------------------------------------------------------
# flow, check45, orbit, continue


def test_flow_json_and_csv(tmp_path, capsys):
    doc = _run_json(
        capsys, "flow", "--n", "3", "--d", "3", "--s", "2", "--seed", "3",
        "--T", "40",
    )
    assert doc["stop_reason"] in {"time", "converged", "collision", "theta_target"}
    assert doc["samples"] >= 2
    path = tmp_path / "traj.csv"
    code, _, _ = _run(
        capsys, "flow", "--n", "3", "--d", "3", "--s", "2", "--seed", "3",
        "--T", "40", "--format", "csv", "--output", str(path),
    )
    assert code == 0
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    assert header[-3:] == ["theta_deg", "U", "min_sep"]
    assert len(header) == 1 + 3 * 3 + 3
    assert len(lines) - 1 == doc["samples"]
    float(lines[-1].split(",")[0])  # parseable numbers


def test_flow_json_output_builds_no_csv_rows(capsys, monkeypatch):
    real_integrate = cli.integrate_flow

    class Unread(tuple):  # the states, which only the CSV rows iterate
        def __iter__(self):
            raise AssertionError("CSV rows built for a JSON report")

    def integrate(*args):
        traj = real_integrate(*args)
        return dataclasses.replace(traj, states=Unread(traj.states))

    monkeypatch.setattr(cli, "integrate_flow", integrate)
    argv = ["flow", "--n", "3", "--d", "3", "--seed", "3", "--T", "5"]
    assert _run_json(capsys, *argv)["samples"] > 1
    with pytest.raises(AssertionError, match="CSV rows built"):
        cli.run([*argv, "--format", "csv"])


_AWKWARD = [-0.0, 5e-324, 0.1, 1 / 3, 1e16, 1e22, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("rows", [1, 2, 3, 4, 7])
def test_float_blocks_write_the_bytes_of_csv_writer(rows, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "CSV_BLOCK", 3)
    table = np.resize(np.array(_AWKWARD), (rows, 5))
    blocks = cli._float_blocks(table[:, 0], table[:, 1:4], table[:, 4])
    assert [len(b) for b in cli._float_blocks(table[:, 0])] == \
        [min(3, rows - start) for start in range(0, rows, 3)]
    header = ("t", "a", "b", "c", "u")
    path = tmp_path / "table.csv"
    cli._emit(argparse.Namespace(format="csv", output=str(path)), {}, (header, blocks))
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(table.tolist())
    assert path.read_bytes() == expected.getvalue().encode()


def test_check45_batch(capsys):
    doc = _run_json(
        capsys, "check45", "--count", "5", "--seed", "1", "--T", "200",
    )
    assert doc["checked"] == 5
    assert doc["monotone"] == 5
    assert doc["reached_attractor"] == 5
    assert doc["collisions"] == 0
    assert doc["all_monotone"] is True
    assert doc["outcomes"][0]["theta_start"] == pytest.approx(45.0)


def test_check45_reports_null_for_unchecked_seeds(capsys, monkeypatch):
    real_seed = cli.tilted_line_seed

    def seed(theta, phi=0.0):
        # the rim seed is swapped for one beyond 45 degrees, which is rejected
        return real_seed(60.0) if theta == 45.0 else real_seed(theta, phi)

    monkeypatch.setattr(cli, "tilted_line_seed", seed)
    doc = _run_json(capsys, "check45", "--count", "2", "--seed", "1", "--T", "50")
    rejected, checked = doc["outcomes"]
    assert rejected["status"] == "rejected"
    assert rejected["theta_end"] is None
    assert rejected["worst_increase"] is None
    assert checked["status"] == "checked"
    assert isinstance(checked["theta_end"], float)
    assert isinstance(checked["worst_increase"], float)


def test_json_output_builds_no_csv_rows(capsys, monkeypatch):
    def no_row(*values):
        raise AssertionError("CSV row built for a JSON report")

    monkeypatch.setattr(cli, "_record_row", no_row)
    argv = ["collinear", "--n", "3", "--ordering", "1,2,3"]
    assert _run_json(capsys, *argv)["count"] == 1
    with pytest.raises(AssertionError, match="CSV row built"):
        cli.run([*argv, "--format", "csv"])


def _spy_lift(monkeypatch) -> list:
    """The orbits cli.lift returns, in order."""
    real_lift, lifted = cli.lift, []

    def lift(solution):
        lifted.append(real_lift(solution))
        return lifted[-1]

    monkeypatch.setattr(cli, "lift", lift)
    return lifted


def _orbit_table(path) -> np.ndarray:
    """The floats of an orbit CSV, each read back to the float it was written from."""
    lines = path.read_text().strip().splitlines()
    return np.array([[float(x) for x in line.split(",")] for line in lines[1:]])


def test_orbit_lift_and_csv(tmp_path, capsys, monkeypatch):
    lifted = _spy_lift(monkeypatch)
    args = ["orbit", "--n", "3", "--s", "4", "--restarts", "20", "--seed", "5",
            "--census-id", "0", "--T", "20", "--samples", "100"]
    doc = _run_json(capsys, *args)
    assert doc["omega"][0] == pytest.approx(2 * doc["omega"][1])
    assert doc["newton_residual"] < 1e-8
    assert doc["periodicity"]["kind"] == "periodic"
    assert doc["periodicity"]["best_fraction"] == "2"
    assert doc["periodicity"]["closure"] < 1e-6
    path = tmp_path / "orbit.csv"
    code, _, _ = _run(capsys, *args, "--format", "csv", "--output", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + 100
    assert len(lines[0].split(",")) == 1 + 3 * 4
    # every value reads back to the very float the orbit gives
    times = np.linspace(0.0, 20.0, 100)
    expected = np.column_stack((times, lifted[-1].positions(times).reshape(100, -1)))
    assert _orbit_table(path).tobytes() == expected.tobytes()


@pytest.mark.parametrize("samples", [256, 257, 1000, 2000])
def test_orbit_csv_blocks_equal_one_whole_grid_call(samples, tmp_path, capsys, monkeypatch):
    lifted = _spy_lift(monkeypatch)
    path = tmp_path / "orbit.csv"
    code, _, err = _run(capsys, "orbit", "--n", "3", "--s", "4", "--restarts", "20",
                        "--seed", "5", "--T", "20", "--samples", str(samples),
                        "--format", "csv", "--output", str(path))
    assert code == 0, err
    times = np.linspace(0.0, 20.0, samples)
    expected = np.column_stack((times, lifted[-1].positions(times).reshape(samples, -1)))
    assert _orbit_table(path).tobytes() == expected.tobytes()


def test_orbit_positions_made_once_and_only_for_csv(tmp_path, capsys, monkeypatch):
    real_positions = RelativeEquilibriumOrbit.positions
    calls = []  # (module of the caller, samples) of each positions call

    def positions(self, t):
        calls.append((sys._getframe(1).f_globals["__name__"], np.size(t)))
        return real_positions(self, t)

    monkeypatch.setattr(RelativeEquilibriumOrbit, "positions", positions)
    args = ["orbit", "--n", "3", "--s", "4", "--restarts", "20", "--seed", "5",
            "--samples", "2000"]
    _run_json(capsys, *args)
    made_for_json = Counter(calls)
    assert made_for_json and all(module != cli.__name__ for module, _ in made_for_json)
    calls.clear()
    code, _, err = _run(capsys, *args, "--format", "csv", "--output", str(tmp_path / "o.csv"))
    assert code == 0, err
    made_for_csv = Counter(calls) - made_for_json
    assert Counter(calls) - made_for_csv == made_for_json
    blocks = [size for module, size in made_for_csv.elements()]
    assert {module for module, _ in made_for_csv} == {cli.__name__}
    assert all(0 < size <= cli.CSV_BLOCK for size in blocks)
    assert sum(blocks) == 2000  # each sample once


def test_orbit_csv_holds_one_block_of_positions(tmp_path):
    argv = ["orbit", "--n", "3", "--s", "4", "--restarts", "20", "--seed", "5",
            "--samples", "20000", "--format", "csv", "--output", str(tmp_path / "o.csv")]
    assert cli.run(argv) == 0  # warm-up: lazy imports and caches
    tracemalloc.start()
    try:
        code = cli.run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    # the whole (20000, 3, 4) stack alone is 1.92 MB
    assert peak < 2_000_000


def test_orbit_builds_only_the_lifted_row(capsys, monkeypatch):
    small, n = cli._run_census(cli.build_parser().parse_args(
        ["orbit", "--n", "3", "--s", "4", "--restarts", "20", "--seed", "5"]))
    # the same catalogue ten times over: only its size differs
    large = dataclasses.replace(
        small, q=np.concatenate([small.q] * 10),
        **{k: getattr(small, k) * 10
           for k in ("lam", "residual", "triple", "classification", "is_cc")})
    real_init, builds = Configuration.__post_init__, []

    def post_init(self):
        builds.append(1)
        real_init(self)

    monkeypatch.setattr(Configuration, "__post_init__", post_init)
    reports, counts = [], []
    for result in (small, large):
        monkeypatch.setattr(cli, "_run_census", lambda args, result=result: (result, n))
        builds.clear()
        code, out, err = _run(capsys, "orbit", "--census-id", "3", "--samples", "100")
        assert code == 0, err
        reports.append(out)
        counts.append(len(builds))
    assert counts == [1, 1]  # the lifted row's own Configuration
    assert reports[0] == reports[1]


def test_orbit_census_id_out_of_range(capsys):
    code, _, err = _run(
        capsys, "orbit", "--n", "3", "--s", "4", "--restarts", "0",
        "--seed", "5", "--census-id", "999",
    )
    assert code == 1
    assert "census-id" in err


def test_continue_localizes_threshold(capsys):
    doc = _run_json(
        capsys, "continue", "--n", "3", "--ordering", "1,2,3", "--axis", "2",
        "--from", "1.5", "--to", "3.0", "--steps", "12",
    )
    assert doc["degenerate_stop"] is True
    last = doc["points"][-1]
    assert last["triple"][1] == 1  # nullity localized at the crossing
    assert abs(last["s1"] - 2.4) < 1e-4
    first = doc["points"][0]
    assert first["s1"] == pytest.approx(1.5)
    assert first["triple"] == [1, 0, 2]


# ---------------------------------------------------------------------------
# exit-code contract


def test_usage_error_prints_schema_and_exits_1(capsys):
    code, _, err = _run(capsys, "coeffs", "abc")
    assert code == 1
    assert "usage:" in err


def test_one_parser_serves_every_run(capsys, monkeypatch):
    """Runs in one process share one parser: two runs build one, and a
    usage error (exit 1) part-way through a parse leaves the next parse
    equal to a fresh parser's."""
    builds = []
    add_subparsers = cli._Parser.add_subparsers

    def counted(self, *args, **kwargs):
        builds.append(self)
        return add_subparsers(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "add_subparsers", counted)
    cli.build_parser.cache_clear()
    try:
        first = _run_json(capsys, "coeffs", "4")
        code, out, err = _run(capsys, "census", "--n", "4", "--restarts", "-1", "--seed", "4")
        assert code == 1 and out == "" and "usage:" in err
        assert _run_json(capsys, "coeffs", "4") == first
        argv = ["census", "--n", "3", "--seed", "2"]
        cached = cli.build_parser().parse_args(argv)
        assert len(builds) == 1
        assert vars(cached) == vars(cli.build_parser.__wrapped__().parse_args(argv))
        assert (cached.n, cached.restarts, cached.seed, cached.s) == (3, 500, 2, (1.5,))
    finally:
        cli.build_parser.cache_clear()


def test_unknown_subcommand_exits_1(capsys):
    code, _, err = _run(capsys, "harmonograph")
    assert code == 1


def test_help_exits_0(capsys):
    code, out, _ = _run(capsys, "--help")
    assert code == 0
    assert "subcommand" in out or "usage" in out


def test_csv_without_table_exits_1(capsys):
    code, _, err = _run(
        capsys, "census", "--n", "3", "--restarts", "0", "--seed", "1",
        "--format", "csv",
    )
    assert code == 1
    assert "CSV" in err


def test_csv_without_table_is_rejected_before_the_run(capsys, monkeypatch):
    def never(args):
        raise AssertionError("census ran although its --format was rejected")

    monkeypatch.setitem(cli._HANDLERS, "census", never)
    code, out, err = _run(
        capsys, "census", "--n", "4", "--restarts", "100", "--seed", "1",
        "--format", "csv",
    )
    assert code == 1 and out == ""
    assert "no CSV table" in err


def test_masses_length_mismatch_exits_1(capsys):
    code, _, err = _run(capsys, "census", "--n", "3", "--masses", "1,2")
    assert code == 1
    assert "masses" in err


def test_numerical_failure_exits_2(capsys, monkeypatch):
    def boom(args):
        raise NoConvergence("synthetic")

    monkeypatch.setitem(cli._HANDLERS, "coeffs", boom)
    code, _, err = _run(capsys, "coeffs", "4")
    assert code == 2
    assert "numerical failure" in err


def test_threads_flag_is_gone(capsys):
    code, _, err = _run(
        capsys, "census", "--n", "3", "--restarts", "2", "--seed", "2",
        "--threads", "2",
    )
    assert code == 1
    assert "--threads" in err
