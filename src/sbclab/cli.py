"""Command-line front end: one subcommand per module.

Reports are JSON by default (CSV for the tabular ones) and deterministic:
keys are sorted, floats use the shortest round-trip repr, and nothing
time-dependent enters the payload — wall-clock diagnostics go to stderr.
Running the same parameters twice therefore produces byte-identical files.
A JSON report holding NaN or an infinity is refused (exit 1): neither is
JSON.

Counting-table integers can outgrow the 53-bit window of float-based JSON
readers, so aggregate totals are always emitted as decimal strings and
coefficient arrays switch to strings as soon as any entry is too large.
"""

import argparse
import contextlib
import csv
import functools
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np

from .collinear import enumerate_csbc, moulton_solve
from .core import MASS_RANGE, Configuration, Spectrum, to_document
from .equilibria import classify_periodicity, lift, newton_residual
from .errors import (
    DegenerateCensus,
    NoConvergence,
    NotPlanarError,
    SbcLabError,
    UnsupportedCase,
)
from .flow import integrate_flow, lyapunov_45_check, tilted_line_seed
from .morse import (
    betti_quotient,
    bounds_general,
    bounds_main1,
    index_counts,
    morse_inequality_check,
    poincare_coeffs,
)
from .solver import SearchFailure, census, continue_in_s, find_critical_point

_BIG = 1 << 53  # beyond this an IEEE double can no longer hold the integer
CSV_BLOCK = 256  # rows per block of a CSV float table or of a JSON _Table
JSON_CHUNK = 4096  # parts joined into one chunk of a JSON report's text


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the exit-code contract.

    Flags must be spelled out: an abbreviation could name a different flag
    than intended (--s is a prefix of --steps on continue).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# flag values: argparse types, so flags and config-file entries are parsed
# and checked by the same code


def _checked(convert, rule=None, ok=None):
    """argparse type: convert the text, then require ok(value) when given.

    A ValueError from convert is reported as "invalid <type> value".
    """

    def parse(text):
        value = convert(text)
        if ok is not None and not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    parse.__name__ = convert.__name__.lstrip("_")
    return parse


def _floats(text) -> list:
    return [float(p) for p in text.split(",") if p.strip()]


def _int_tuple(text) -> tuple:
    return tuple(int(p) for p in text.split(",") if p.strip())


def _positive(value) -> bool:
    return math.isfinite(value) and value > 0


_INT_GE0 = _checked(int, ">= 0", lambda v: v >= 0)
_INT_GE1 = _checked(int, ">= 1", lambda v: v >= 1)
_INT_GE2 = _checked(int, ">= 2", lambda v: v >= 2)
_POSITIVE = _checked(float, "finite and positive", _positive)
_FLOATS = _checked(_floats)
_MASSES = _checked(_floats, "in [{:.0e}, {:.0e}]".format(*MASS_RANGE),
                   lambda v: all(MASS_RANGE[0] <= m <= MASS_RANGE[1] for m in v))
_ORDERING = _checked(_int_tuple)


def _no_csv(text):
    """argparse type of --format for the subcommands with no CSV table."""
    if text == "csv":
        raise argparse.ArgumentTypeError(
            "this subcommand has no CSV table; use --format json")
    return text


def _resolve_masses(args):
    """(n, masses): --masses sets n, else --n (default 3) equal masses."""
    if args.masses is None:
        n = 3 if args.n is None else args.n
        return n, np.ones(n)
    if args.n is not None and len(args.masses) != args.n:
        raise ValueError("masses must list exactly n values")
    return len(args.masses), np.asarray(args.masses, dtype=float)


def _resolve_spectrum(values, d: int) -> Spectrum:
    if len(values) == 1:
        values = [values[0]] + [1.0] * (d - 1)
    if len(values) != d:
        raise ValueError(f"--s needs one value or {d} values, got {len(values)}")
    return Spectrum(tuple(values))


# ---------------------------------------------------------------------------
# serialization helpers


def _big_str(value) -> str:
    return str(int(value))


def _int_list(values):
    """Coefficient array: native ints while every entry is float-exact."""
    out = [int(v) for v in values]
    if all(abs(v) < _BIG for v in out):
        return out
    return [str(v) for v in out]


def _sanitize(obj):
    """Make an arbitrary report JSON-safe without losing exactness."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (int, np.integer)):
        v = int(obj)
        return v if abs(v) < _BIG else str(v)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def _float_blocks(*columns):
    """Row blocks of CSV_BLOCK rows, side by side: each column is a 1-D
    array or a 2-D array of several columns, all with one row per sample."""
    for start in range(0, len(columns[0]), CSV_BLOCK):
        yield np.column_stack([c[start:start + CSV_BLOCK] for c in columns])


def _json_float(x: float) -> str:
    """x as json.dumps writes a float; NaN and the infinities raise."""
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


_JSON_STR = json.encoder.encode_basestring_ascii
_JSON_SCALAR = {  # the writer of each exact scalar type
    str: _JSON_STR,
    float: _json_float,
    int: int.__repr__,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}


class _Table:
    """A JSON list of like objects held as columns: key -> column, one entry
    per row. A column is a float or int array, each row's value an entry of
    its trailing shape, or a list of hashable values of one type (str,
    bool, or int tuples that may be None)."""

    def __init__(self, columns: dict):
        self.columns = columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))


def _table_blocks(table: _Table, nl: str):
    """The JSON text of a non-empty table as a list, in blocks of CSV_BLOCK
    rows; nl is a newline followed by the indentation of the rows' lines.
    One row template is built from the columns in sorted key order, each
    scalar a %s slot, and a block formats each row with one %. A distinct
    value's text is made once per table in a list column and once per
    block in an array column (_block_texts)."""
    cells = nl + "  "
    template, columns = [], []
    for key in sorted(table.columns):
        col = table.columns[key]
        if not isinstance(col, np.ndarray):
            texts = {v: "".join(_json_chunks(v, cells)) for v in set(col)}
            col = np.array([texts[v] for v in col], object)
        # a zero array of the row's shape as json.dumps writes it, each 0.0 a slot
        slot = "".join(_json_chunks(np.zeros(col.shape[1:]).tolist(), cells)).replace("0.0", "%s")
        template.append(_JSON_STR(key).replace("%", "%%") + ": " + slot)
        columns.append(col.reshape(len(col), -1))
    row = "{" + cells + ("," + cells).join(template) + nl + "}"
    sep = "[" + nl
    for start in range(0, len(table), CSV_BLOCK):
        block = np.concatenate([_block_texts(c[start:start + CSV_BLOCK]) for c in columns], axis=1)
        yield sep + ("," + nl).join([row % tuple(r) for r in block.tolist()])
        sep = "," + nl


def _block_texts(block: np.ndarray) -> np.ndarray:
    """A block of table values as an object array of their texts. An array
    block's distinct bit patterns (-0.0 and 0.0 are two) are written once
    each, a non-finite float raising, and placed by np.unique's inverse."""
    if block.dtype == object:
        return block
    unique, inverse = np.unique(block.view(f"i{block.itemsize}"), return_inverse=True)
    values = unique.view(block.dtype)
    if not np.isfinite(values).all():
        _json_float(float(values[~np.isfinite(values)][0]))
    write = float.__repr__ if block.dtype.kind == "f" else int.__repr__
    return np.array(list(map(write, values.tolist())), object)[inverse.reshape(block.shape)]


def _json_parts(chunks: list, parts: list, obj, nl: str) -> None:
    """Append the JSON text of obj to parts; nl is a newline followed by
    the indentation of obj's own line. An item of an exact scalar type is
    written in its container's loop, with no call of its own. When a call
    ends with at least JSON_CHUNK parts pending, they are joined into one
    str on chunks and parts is cleared: the text so far is chunks, then
    parts, in order, held at about its own size instead of as one small
    str per scalar. A non-empty _Table flushes parts and appends each of
    its blocks to chunks as it is made."""
    if isinstance(obj, _Table) and len(obj):
        chunks.append("".join(parts))
        parts.clear()
        chunks.extend(_table_blocks(obj, nl + "  "))
        parts.append(nl + "]")
    elif isinstance(obj, (list, tuple, dict, _Table)) and not obj:  # an empty _Table is []
        parts.append("{}" if isinstance(obj, dict) else "[]")
    elif isinstance(obj, (list, tuple)):
        inner = nl + "  "
        sep = "[" + inner
        for value in obj:
            write = _JSON_SCALAR.get(type(value))
            if write is None:
                parts.append(sep)
                _json_parts(chunks, parts, value, inner)
            else:
                parts.append(sep + write(value))
            sep = "," + inner
        parts.append(nl + "]")
    elif isinstance(obj, dict):
        inner = nl + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {key.__class__.__name__}")
            head = sep + _JSON_STR(key) + ": "
            write = _JSON_SCALAR.get(type(value))
            if write is None:
                parts.append(head)
                _json_parts(chunks, parts, value, inner)
            else:
                parts.append(head + write(value))
            sep = "," + inner
        parts.append(nl + "}")
    elif type(obj) in _JSON_SCALAR:
        parts.append(_JSON_SCALAR[type(obj)](obj))
    elif isinstance(obj, float):  # np.float64
        parts.append(_json_float(obj))
    else:
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")
    if len(parts) >= JSON_CHUNK:
        chunks.append("".join(parts))
        parts.clear()


def _json_chunks(payload, nl: str = "\n") -> list:
    """json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) as a
    list of chunks whose concatenation is that text, for payloads whose
    dict keys are all str (every report's are; _sanitize makes them so)
    and where a _Table stands for the list of its rows as dicts; nl is a
    newline followed by the indentation of payload's own line. The whole
    text is made, so a non-finite float raises before any of it is
    returned (json.dumps with an indent runs slower, in pure Python)."""
    chunks: list = []
    parts: list = []
    _json_parts(chunks, parts, payload, nl)
    chunks.append("".join(parts))
    return chunks


def _emit(args, payload: dict, table) -> None:
    """Write the report to stdout or --output; CSV rows stream as made.

    A 2-D float array among the rows is a block of rows, written with one
    write: repr is the str that csv.writer gives a float, and a float
    never needs quoting, so the bytes are those of csv.writer.
    JSON text is _json_chunks(payload): chunks whose concatenation is
    exactly json.dumps(payload, sort_keys=True, indent=2, allow_nan=False),
    a _Table written as the list of its rows as dicts, and the final
    newline, written in order and never joined, so the report is held at
    about its own size. All are made before any output is opened, so a
    JSON report holding NaN or an infinity is refused (ValueError) with
    nothing written: those are not JSON."""
    chunks = None
    if args.format != "csv":
        chunks = _json_chunks(payload) + ["\n"]
    if args.output is None or args.output == "-":
        out = contextlib.nullcontext(sys.stdout)
    else:
        out = open(args.output, "w", encoding="utf-8")
    with out as fh:
        if chunks is None:
            header, rows = table
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for item in rows:
                if isinstance(item, np.ndarray):
                    fh.write("".join([",".join(map(repr, r)) + "\n" for r in item.tolist()]))
                else:
                    writer.writerow(item)
        else:
            fh.writelines(chunks)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (json payload, csv table | None); a
# payload's list of like records is a _Table of their columns; a csv
# table's rows are row tuples or 2-D float blocks (_float_blocks), and may
# be a lazy iterable, consumed only for --format csv


def _cmd_coeffs(args):
    table = poincare_coeffs(args.n)
    payload = {
        "n": table.n,
        "c": _int_list(table.c),
        "sum": _big_str(sum(table.c)),
    }
    rows = [(j, str(cj)) for j, cj in enumerate(table.c)]
    return payload, (("j", "c_j"), rows)


def _cmd_betti(args):
    table = betti_quotient(args.n)
    payload = {
        "n": table.n,
        "betti": _int_list(table.betti),
        "sum": _big_str(table.total),
        "planar_cc_bound": _big_str(table.planar_cc_bound),
        "surplus": _big_str(table.surplus),
    }
    rows = [(k, str(b)) for k, b in enumerate(table.betti)]
    return payload, (("k", "b_k"), rows)


def _cmd_bounds(args):
    if args.regime is not None:
        if args.d != 2:
            raise ValueError("regime tables are planar; use d = 2")
        report = bounds_main1(args.n, args.regime)
    else:
        report = bounds_general(args.n, args.d)
    payload = {
        "n": report.n,
        "d": report.d,
        "regime": report.regime,
        "bounds": {
            label: {kind: _big_str(v) for kind, v in entry.items()}
            for label, entry in report.bounds.items()
        },
        "notes": _sanitize(report.notes),
    }
    return payload, None


def _record_row(ordering, axis, positions, u, lam, eta, predicted, computed):
    """CSV row of one collinear record, from the row's column values."""
    return (" ".join(map(str, ordering)), axis, " ".join(map(repr, positions)), u, lam,
            " ".join(map(repr, eta)), *(predicted or ("", "", "")), *computed)


def _cmd_collinear(args):
    n, masses = _resolve_masses(args)
    spectrum = _resolve_spectrum(args.s, args.d)
    if args.ordering is not None:
        axis = 1 if args.axis is None else args.axis
        cat = moulton_solve(masses, args.ordering, axis, spectrum).catalogue
    elif args.axis is not None:
        raise ValueError("--axis needs --ordering (or drop both to enumerate)")
    else:
        cat = enumerate_csbc(masses, spectrum)
    eta = np.array([sd.eigenvalues for sd in cat.spectral])[cat.line]
    payload = {
        "n": n,
        "d": args.d,
        "S": [float(w) for w in spectrum.s],
        "masses": [float(m) for m in masses],
        "count": len(cat.q),
        "records": _Table({
            "ordering": cat.ordering, "axis": cat.axis, "positions": cat.q, "U": cat.u,
            "lambda": cat.lam, "residual": cat.residual, "eta": eta,
            "predicted": cat.predicted, "computed": cat.computed,
        }),
    }
    header = (
        "ordering", "axis", "positions", "U", "lambda", "eta",
        "predicted_index", "predicted_nullity", "predicted_coindex",
        "computed_index", "computed_nullity", "computed_coindex",
    )

    def rows():  # made only for CSV
        yield from map(_record_row, cat.ordering.tolist(), cat.axis.tolist(),
                       cat.q.reshape(len(cat.q), -1).tolist(), cat.u.tolist(), cat.lam.tolist(),
                       eta.tolist(), cat.predicted, cat.computed)

    return payload, (header, rows())


def _census_payload(result, n: int, d: int) -> dict:
    return {
        "parameters": {
            "n": n,
            "d": d,
            "masses": [float(m) for m in result.masses],
            "S": [float(w) for w in result.spectrum.s],
            "restarts": result.restarts,
            "seed": result.seed,
            "extra_seeds": result.extra_seeds,
        },
        "solutions": _Table({
            "q": result.q,
            "lambda": np.array(result.lam),
            "residual": np.array(result.residual),
            "triple": result.triple,
            "classification": result.classification,
            "is_cc": result.is_cc,
        }),
        "solution_count": len(result.q),
        "failures": {k: int(v) for k, v in result.failures.items()},
        "symmetry_caveat": result.symmetry_caveat,
        "orbit_count": result.orbit_count,
    }


def _run_census(args):
    n, masses = _resolve_masses(args)
    spectrum = _resolve_spectrum(args.s, args.d)
    start = time.perf_counter()
    result = census(masses, spectrum, args.restarts, args.seed)
    wall = time.perf_counter() - start
    print(
        f"census: {len(result.q)} solutions from "
        f"{result.restarts} restarts in {wall:.2f} s",
        file=sys.stderr,
    )
    return result, n


def _cmd_census(args):
    result, n = _run_census(args)
    return _census_payload(result, n, args.d), None


def _cmd_continue(args):
    n, masses = _resolve_masses(args)
    d, s_from, s_to, steps = args.d, args.s_from, args.s_to, args.steps
    start = _resolve_spectrum((s_from,), d)
    rec = moulton_solve(masses, args.ordering, args.axis, start)
    sol = find_critical_point(rec.config, start)
    if isinstance(sol, SearchFailure):
        raise NoConvergence(f"no critical point at s1 = {s_from}: {sol.cause}")
    path = [_resolve_spectrum((s,), d) for s in np.linspace(s_from, s_to, steps + 1)[1:]]
    branch = continue_in_s(sol, path)
    points = [sol] + branch
    payload = {
        "n": n,
        "d": d,
        "masses": [float(m) for m in masses],
        "ordering": list(args.ordering),
        "axis": args.axis,
        "s_from": float(s_from),
        "s_to": float(s_to),
        "steps": steps,
        "points": [
            {
                "s1": float(p.spectrum.s[0]),
                "lambda": float(p.lam),
                "triple": p.triple,
                "classification": p.classification,
            }
            for p in points
        ],
        "degenerate_stop": points[-1].triple.nullity > 0,
    }
    return payload, None


def _cmd_flow(args):
    n, masses = _resolve_masses(args)
    d, seed, t_final = args.d, args.seed, args.t_final
    spectrum = _resolve_spectrum(args.s, d)
    rng = np.random.default_rng(seed)
    q0 = Configuration(rng.standard_normal((n, d)), masses)
    traj = integrate_flow(q0, spectrum, t_final)
    payload = {
        "n": n,
        "d": d,
        "S": [float(w) for w in spectrum.s],
        "seed": seed,
        "t_final": float(t_final),
        "samples": len(traj),
        "t_end": float(traj.times[-1]),
        "stop_reason": traj.stop_reason,
        "theta_start": float(traj.theta[0]),
        "theta_end": float(traj.theta[-1]),
        "potential_start": float(traj.potential[0]),
        "potential_end": float(traj.potential[-1]),
        "min_sep_end": float(traj.min_sep[-1]),
    }
    header = ["t"]
    header += [f"q{i + 1}_{k + 1}" for i in range(n) for k in range(d)]
    header += ["theta_deg", "U", "min_sep"]

    def rows():  # made only for CSV
        q = np.array([state.q.ravel() for state in traj.states])
        yield from _float_blocks(traj.times, q, traj.theta, traj.potential, traj.min_sep)

    return payload, (tuple(header), rows())


def _cmd_check45(args):
    count, seed, t_final = args.count, args.seed, args.t_final
    spectrum = _resolve_spectrum(args.s, 3)
    rng = np.random.default_rng(seed)
    # first seed sits exactly on the 45 degree rim, the rest fill (0, 45)
    thetas = np.concatenate(([45.0], 45.0 * rng.uniform(1e-3, 1.0, count - 1)))
    phis = rng.uniform(0.0, 2.0 * math.pi, count)
    seeds = [tilted_line_seed(th, ph) for th, ph in zip(thetas, phis)]
    report = lyapunov_45_check(seeds, spectrum, t_final=t_final)
    payload = {
        "count": count,
        "seed": seed,
        "S": [float(w) for w in spectrum.s],
        "t_final": float(t_final),
        "checked": report.checked,
        "monotone": report.monotone,
        "reached_attractor": report.reached_attractor,
        "collisions": report.collisions,
        "all_monotone": report.all_monotone,
        "outcomes": [
            {
                "index": o.index,
                "status": o.status,
                "theta_start": float(o.theta_start),
                "theta_end": o.theta_end,
                "monotone": o.monotone,
                "worst_increase": o.worst_increase,
                "stop_reason": o.stop_reason,
            }
            for o in report.outcomes
        ],
    }
    return payload, None


def _cmd_orbit(args):
    if args.d != 2:
        raise ValueError("orbit lifting starts from a planar base; use d = 2")
    result, n = _run_census(args)
    if not len(result.q):
        raise NoConvergence("census found no solutions to lift")
    census_id = args.census_id
    if census_id >= len(result.q):
        raise ValueError(
            f"census-id {census_id} out of range, census holds "
            f"{len(result.q)} solutions"
        )
    orbit = lift(result.solution(census_id))
    t_final, samples = args.t_final, args.samples
    times = np.linspace(0.0, t_final, samples)
    report = classify_periodicity(orbit)
    payload = {
        "census_id": census_id,
        "s": float(orbit.s),
        "lambda": float(orbit.lam),
        "omega": [float(w) for w in orbit.omega],
        "newton_residual": float(newton_residual(orbit, times)),
        "t_final": float(t_final),
        "samples": samples,
        "base": to_document(orbit.base.config, orbit.base.spectrum),
        "periodicity": {
            "kind": report.kind,
            "ratio": float(report.ratio),
            "best_fraction": str(report.best_fraction),
            "mismatch": float(report.mismatch),
            "period": report.period,
            "closure": report.closure,
        },
    }
    header = ["t"] + [f"q{i + 1}_{k + 1}" for i in range(n) for k in range(4)]

    def rows():  # made only for CSV
        # positions one block at a time, never the whole (T, n, 4) stack: the
        # bytes equal those of one whole-grid call (2, 255, 256, 257, 1000,
        # 2000 and 20 000 samples), and a 20 000-sample run peaks at 1.02 MB
        # under tracemalloc (BENCH_31.json)
        for lo in range(0, samples, CSV_BLOCK):
            t = times[lo:lo + CSV_BLOCK]
            yield np.column_stack((t, orbit.positions(t).reshape(len(t), -1)))

    return payload, (tuple(header), rows())


def _cmd_morse_check(args):
    with open(args.census_file, encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        params = doc["parameters"]
        n, d = int(params["n"]), int(params["d"])
        solutions = doc["solutions"]
    except (KeyError, TypeError):
        raise ValueError(f"{args.census_file} is not a census report")
    try:
        counts = index_counts(sol["triple"] for sol in solutions)
    except DegenerateCensus as exc:  # a defect of the input file: exit 1
        raise ValueError(str(exc)) from None
    result = morse_inequality_check(counts, n, d)
    payload = {
        "n": n,
        "d": d,
        "solution_count": sum(counts.values()),
        "morse_poly": _int_list(result.morse_poly),
        "reference_poly": _int_list(result.reference_poly),
        "divisible": result.divisible,
        "nonnegative": result.nonnegative,
        "ok": result.ok,
        "quotient": None if result.quotient is None else _int_list(result.quotient),
    }
    return payload, None


_HANDLERS = {
    "coeffs": _cmd_coeffs,
    "bounds": _cmd_bounds,
    "betti": _cmd_betti,
    "collinear": _cmd_collinear,
    "census": _cmd_census,
    "continue": _cmd_continue,
    "flow": _cmd_flow,
    "check45": _cmd_check45,
    "orbit": _cmd_orbit,
    "morse-check": _cmd_morse_check,
}


# ---------------------------------------------------------------------------
# parser


def _add_io_flags(sp, csv_table=False):
    sp.add_argument("--config", metavar="FILE",
                    help="JSON file whose entries are read as the flags they "
                         "name; explicit flags win")
    sp.add_argument("--output", metavar="PATH",
                    help="write the report here instead of stdout")
    sp.add_argument("--format", choices=("json", "csv"), default="json",
                    type=None if csv_table else _no_csv)


def _add_problem_flags(sp, d, s1, seed=True):
    sp.add_argument("--n", type=_INT_GE2,
                    help="number of bodies (default 3, or the length of --masses)")
    sp.add_argument("--d", type=_INT_GE1, default=d)
    sp.add_argument("--masses", type=_MASSES,
                    help="comma-separated, default equal masses")
    if s1 is not None:
        sp.add_argument("--s", type=_FLOATS, default=(s1,),
                        help=f"single s1 or a full weight list s1,s2,... "
                             f"(default {s1})")
    if seed:
        sp.add_argument("--seed", type=_INT_GE0, default=0)


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="sbc-lab",
                     description="balanced-configuration laboratory")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    parser.commands = sub.choices  # subcommand name -> its parser

    sp = sub.add_parser("coeffs", help="counting-polynomial coefficient table")
    sp.add_argument("n", type=int)
    _add_io_flags(sp, csv_table=True)

    sp = sub.add_parser("bounds", help="critical-point lower bounds")
    sp.add_argument("n", type=int)
    sp.add_argument("d", type=int)
    sp.add_argument("--regime",
                    choices=("below_eta1", "between", "above_etak"),
                    help="planar equal-mass weight regime (omit for the "
                         "dimension-d table)")
    _add_io_flags(sp)

    sp = sub.add_parser("betti", help="Betti table of the reduced planar space")
    sp.add_argument("n", type=int)
    _add_io_flags(sp, csv_table=True)

    sp = sub.add_parser("collinear",
                        help="solve or enumerate collinear configurations")
    _add_problem_flags(sp, d=2, s1=2.0, seed=False)
    sp.add_argument("--ordering", type=_ORDERING,
                    help="1-based body order, e.g. 1,3,2")
    sp.add_argument("--axis", type=int,
                    help="1-based axis (with --ordering, default 1)")
    _add_io_flags(sp, csv_table=True)

    sp = sub.add_parser("census", help="random-restart solution catalogue")
    _add_problem_flags(sp, d=2, s1=1.5)
    sp.add_argument("--restarts", type=_INT_GE0, default=500)
    _add_io_flags(sp)

    sp = sub.add_parser("continue",
                        help="track a collinear branch while s1 varies")
    _add_problem_flags(sp, d=2, s1=None, seed=False)
    sp.add_argument("--ordering", type=_ORDERING, default=(1, 2, 3),
                    help="1-based body order of the start branch")
    sp.add_argument("--axis", type=int, default=1)
    sp.add_argument("--from", dest="s_from", type=_POSITIVE, required=True)
    sp.add_argument("--to", dest="s_to", type=_POSITIVE, required=True)
    sp.add_argument("--steps", type=_INT_GE1, default=16)
    _add_io_flags(sp)

    sp = sub.add_parser("flow", help="integrate the ascent flow from a random seed")
    _add_problem_flags(sp, d=3, s1=2.0)
    sp.add_argument("--T", dest="t_final", type=_POSITIVE, default=50.0)
    _add_io_flags(sp, csv_table=True)

    sp = sub.add_parser("check45",
                        help="batch angle-monotonicity check on tilted-line seeds")
    sp.add_argument("--count", type=_INT_GE1, default=100)
    sp.add_argument("--seed", type=_INT_GE0, default=0)
    sp.add_argument("--s", type=_FLOATS, default=(2.0,),
                    help="single s1 or full d=3 weight list (default 2.0)")
    sp.add_argument("--T", dest="t_final", type=_POSITIVE, default=200.0)
    _add_io_flags(sp)

    sp = sub.add_parser("orbit", help="lift a census solution to a rigid orbit")
    _add_problem_flags(sp, d=2, s1=4.0)
    sp.add_argument("--census-id", dest="census_id", type=_INT_GE0, default=0)
    sp.add_argument("--restarts", type=_INT_GE0, default=500)
    sp.add_argument("--T", dest="t_final", type=_POSITIVE, default=20.0)
    sp.add_argument("--samples", type=_INT_GE2, default=1000)
    _add_io_flags(sp, csv_table=True)

    sp = sub.add_parser("morse-check",
                        help="index-count consistency test of a census report")
    sp.add_argument("census_file")
    _add_io_flags(sp)

    return parser


def _config_flags(sp) -> dict:
    """{config key: flag} of one subcommand: its options but help and config."""
    return {a.dest: a.option_strings[-1] for a in sp._actions
            if a.option_strings and a.dest not in ("help", "config")}


def _with_config(parser, argv: list) -> list:
    """argv with the entries of its --config file spliced in as flags.

    Each entry becomes --<flag>=<value> right after the subcommand name, so
    it is parsed and checked as that flag is, it may supply a required flag,
    and an explicit flag later in argv wins. Lists are joined by commas and
    null entries are skipped. A key that only other subcommands have is
    ignored; a key that no subcommand has is an error.
    """
    if not argv or argv[0] not in parser.commands:
        return argv
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False, exit_on_error=False)
    pre.add_argument("--config")
    try:
        path = pre.parse_known_args(argv[1:])[0].config
    except argparse.ArgumentError:  # the subcommand's parser reports it
        return argv
    if path is None:
        return argv
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a single JSON object")
    flags = {name: _config_flags(sp) for name, sp in parser.commands.items()}
    unknown = sorted(set(doc).difference(*flags.values()))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    own = flags[argv[0]]
    tokens = []
    for key, value in doc.items():
        if key in own and value is not None:
            if isinstance(value, list):
                value = ",".join(map(str, value))
            tokens.append(f"{own[key]}={value}")
    return argv[:1] + tokens + argv[1:]


# validation errors are SbcLabErrors too, so they are matched before exit 2
_EXIT_1 = (_UsageError, NotPlanarError, UnsupportedCase,
           ValueError, TypeError, KeyError, OSError)
_EXIT_2 = (SbcLabError, ArithmeticError)


def run(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_with_config(parser, argv))
        payload, table = _HANDLERS[args.command](args)
        _emit(args, payload, table)
    except SystemExit as exc:  # --help
        return 0 if exc.code in (None, 0) else int(exc.code)
    except _EXIT_1 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _EXIT_2 as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
