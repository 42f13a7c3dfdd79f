"""Command-line front end: one subcommand per module.

Reports are JSON by default (CSV for the tabular ones) and deterministic:
keys are sorted, floats use the shortest round-trip repr, and nothing
time-dependent enters the payload — wall-clock diagnostics go to stderr.
Running the same parameters twice therefore produces byte-identical files.

Counting-table integers can outgrow the 53-bit window of float-based JSON
readers, so aggregate totals are always emitted as decimal strings and
coefficient arrays switch to strings as soon as any entry is too large.
"""

import argparse
import contextlib
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .collinear import enumerate_csbc, moulton_solve
from .core import Configuration, Spectrum, to_document
from .equilibria import classify_periodicity, lift, newton_residual
from .errors import (
    DegenerateCensus,
    NoConvergence,
    NotCollinearError,
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

_VALIDATION_ERRORS = (NotPlanarError, NotCollinearError, UnsupportedCase)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the exit-code contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig:
    """Merged parameter set for one invocation (flags over config file)."""

    n: int | None = None
    d: int | None = None
    masses: tuple[float, ...] | None = None
    s_values: tuple[float, ...] | None = None
    seed: int | None = None
    restarts: int | None = None
    tolerances: dict = field(default_factory=dict)
    output: str | None = None
    format: str = "json"

    def __post_init__(self):
        if self.format not in ("json", "csv"):
            raise ValueError("format must be json or csv")
        for name, value in self.tolerances.items():
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"tolerance override {name} must be positive")
        if self.masses is not None:
            if self.n is not None and len(self.masses) != self.n:
                raise ValueError("masses must list exactly n values")
            if any(m <= 0 for m in self.masses):
                raise ValueError("masses must be positive")
        if self.n is not None and self.n < 2:
            raise ValueError("n must be >= 2")
        if self.seed is not None and self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.restarts is not None and self.restarts < 0:
            raise ValueError("restarts must be >= 0")

    def tol(self, name, default):
        return float(self.tolerances.get(name, default))


def _floats(value) -> list:
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
        return [float(p) for p in parts]
    if isinstance(value, (list, tuple)):
        return [float(v) for v in value]
    return [float(value)]


def _int_tuple(value) -> tuple:
    if isinstance(value, str):
        return tuple(int(p) for p in value.split(",") if p.strip())
    if isinstance(value, (list, tuple)):
        return tuple(int(v) for v in value)
    return (int(value),)


def _pick(value, default):
    return default if value is None else value


def _resolve_masses(cfg: RunConfig, default_n: int = 3):
    if cfg.masses is not None:
        m = np.asarray(cfg.masses, dtype=float)
        return len(m), m
    n = _pick(cfg.n, default_n)
    return n, np.ones(n)


def _resolve_spectrum(cfg: RunConfig, d: int, default_s1: float) -> Spectrum:
    values = list(cfg.s_values) if cfg.s_values is not None else [default_s1]
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


def _float_or_none(value):
    return None if value is None else float(value)


def _triple_payload(triple):
    if triple is None:
        return None
    index, nullity, coindex = triple
    return [int(index), int(nullity), int(coindex)]


def _emit(cfg: RunConfig, payload: dict, table) -> None:
    """Write the report to stdout or --output; CSV rows stream as made."""
    if cfg.format == "csv" and table is None:
        raise ValueError("this subcommand has no CSV table; use --format json")
    if cfg.output is None or cfg.output == "-":
        out = contextlib.nullcontext(sys.stdout)
    else:
        out = open(cfg.output, "w", encoding="utf-8")
    with out as fh:
        if cfg.format == "csv":
            header, rows = table
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        else:
            fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (json payload, csv table | None); a
# table's rows may be a lazy iterable, consumed only for --format csv


def _cmd_coeffs(cfg: RunConfig, args):
    table = poincare_coeffs(args.n)
    payload = {
        "n": table.n,
        "c": _int_list(table.c),
        "sum": _big_str(sum(table.c)),
    }
    rows = [(j, str(cj)) for j, cj in enumerate(table.c)]
    return payload, (("j", "c_j"), rows)


def _cmd_betti(cfg: RunConfig, args):
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


def _cmd_bounds(cfg: RunConfig, args):
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


def _record_payload(rec) -> dict:
    return {
        "ordering": list(rec.ordering),
        "axis": rec.axis,
        "positions": [[float(x) for x in row] for row in rec.config.q],
        "U": float(rec.u),
        "lambda": float(rec.lam),
        "residual": float(rec.residual),
        "eta": [float(e) for e in rec.spectral.eigenvalues],
        "predicted": _triple_payload(rec.predicted),
        "computed": _triple_payload(rec.computed),
    }


def _record_row(entry: dict):
    """CSV row of one _record_payload entry."""
    fmt = lambda xs: " ".join(str(float(x)) for x in xs)
    return (
        " ".join(str(i) for i in entry["ordering"]),
        entry["axis"],
        fmt(x for row in entry["positions"] for x in row),
        entry["U"],
        entry["lambda"],
        fmt(entry["eta"]),
        *(entry["predicted"] or ("", "", "")),
        *entry["computed"],
    )


def _cmd_collinear(cfg: RunConfig, args):
    n, masses = _resolve_masses(cfg)
    d = _pick(cfg.d, 2)
    spectrum = _resolve_spectrum(cfg, d, 2.0)
    if args.ordering is not None:
        ordering = _int_tuple(args.ordering)
        axis = _pick(args.axis, 1)
        records = [moulton_solve(masses, ordering, axis, spectrum)]
    elif args.axis is not None:
        raise ValueError("--axis needs --ordering (or drop both to enumerate)")
    else:
        records = enumerate_csbc(masses, spectrum)
    payload = {
        "n": n,
        "d": d,
        "S": [float(w) for w in spectrum.s],
        "masses": [float(m) for m in masses],
        "count": len(records),
        "records": [_record_payload(r) for r in records],
    }
    header = (
        "ordering", "axis", "positions", "U", "lambda", "eta",
        "predicted_index", "predicted_nullity", "predicted_coindex",
        "computed_index", "computed_nullity", "computed_coindex",
    )
    return payload, (header, map(_record_row, payload["records"]))


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
        "solutions": [
            {
                "q": [[float(x) for x in row] for row in sol.config.q],
                "lambda": float(sol.lam),
                "residual": float(sol.residual_norm),
                "triple": _triple_payload(sol.triple),
                "classification": sol.classification,
                "is_cc": sol.is_cc,
            }
            for sol in result.solutions
        ],
        "solution_count": len(result.solutions),
        "failures": {k: int(v) for k, v in result.failures.items()},
        "symmetry_caveat": result.symmetry_caveat,
        "orbit_count": result.orbit_count,
    }


def _run_census(cfg: RunConfig, default_s1: float):
    n, masses = _resolve_masses(cfg)
    d = _pick(cfg.d, 2)
    spectrum = _resolve_spectrum(cfg, d, default_s1)
    start = time.perf_counter()
    result = census(
        masses,
        spectrum,
        _pick(cfg.restarts, 500),
        _pick(cfg.seed, 0),
        tol_res=cfg.tol("tol_res", 1e-10),
    )
    wall = time.perf_counter() - start
    print(
        f"census: {len(result.solutions)} solutions from "
        f"{result.restarts} restarts in {wall:.2f} s",
        file=sys.stderr,
    )
    return result, n, d


def _cmd_census(cfg: RunConfig, args):
    result, n, d = _run_census(cfg, default_s1=1.5)
    return _census_payload(result, n, d), None


def _cmd_continue(cfg: RunConfig, args):
    n, masses = _resolve_masses(cfg)
    d = _pick(cfg.d, 2)
    ordering = _int_tuple(_pick(args.ordering, "1,2,3"))
    axis = _pick(args.axis, 1)
    s_from, s_to = args.s_from, args.s_to
    steps = _pick(args.steps, 16)
    if steps < 1:
        raise ValueError("steps must be >= 1")

    def spec_at(s1):
        return Spectrum((float(s1),) + (1.0,) * (d - 1))

    rec = moulton_solve(masses, ordering, axis, spec_at(s_from))
    sol = find_critical_point(rec.config, spec_at(s_from))
    if isinstance(sol, SearchFailure):
        raise NoConvergence(f"no critical point at s1 = {s_from}: {sol.cause}")
    path = [spec_at(s) for s in np.linspace(s_from, s_to, steps + 1)[1:]]
    branch = continue_in_s(sol, path, tol_res=cfg.tol("tol_res", 1e-10))
    points = [sol] + branch
    payload = {
        "n": n,
        "d": d,
        "masses": [float(m) for m in masses],
        "ordering": list(ordering),
        "axis": axis,
        "s_from": float(s_from),
        "s_to": float(s_to),
        "steps": steps,
        "points": [
            {
                "s1": float(p.spectrum.s[0]),
                "lambda": float(p.lam),
                "triple": _triple_payload(p.triple),
                "classification": p.classification,
            }
            for p in points
        ],
        "degenerate_stop": points[-1].triple.nullity > 0,
    }
    return payload, None


def _cmd_flow(cfg: RunConfig, args):
    n, masses = _resolve_masses(cfg)
    d = _pick(cfg.d, 3)
    spectrum = _resolve_spectrum(cfg, d, 2.0)
    seed = _pick(cfg.seed, 0)
    t_final = _pick(args.t_final, 50.0)
    rng = np.random.default_rng(seed)
    q0 = Configuration(rng.standard_normal((n, d)), masses)
    traj = integrate_flow(
        q0,
        spectrum,
        t_final,
        atol=cfg.tol("atol", 1e-9),
        rtol=cfg.tol("rtol", 1e-9),
    )
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
    rows = (
        (float(t), *(float(x) for x in state.q.ravel()), float(th), float(u), float(ms))
        for t, state, th, u, ms in zip(
            traj.times, traj.states, traj.theta, traj.potential, traj.min_sep
        )
    )
    return payload, (tuple(header), rows)


def _cmd_check45(cfg: RunConfig, args):
    count = _pick(args.count, 100)
    if count < 1:
        raise ValueError("count must be >= 1")
    seed = _pick(cfg.seed, 0)
    spectrum = _resolve_spectrum(cfg, 3, 2.0)
    t_final = _pick(args.t_final, 200.0)
    rng = np.random.default_rng(seed)
    # first seed sits exactly on the 45 degree rim, the rest fill (0, 45)
    thetas = np.concatenate(([45.0], 45.0 * rng.uniform(1e-3, 1.0, count - 1)))
    phis = rng.uniform(0.0, 2.0 * math.pi, count)
    seeds = [tilted_line_seed(th, ph) for th, ph in zip(thetas, phis)]
    report = lyapunov_45_check(
        seeds,
        spectrum,
        t_final=t_final,
        slack=cfg.tol("slack", 1e-9),
    )
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
                "theta_end": _float_or_none(o.theta_end),
                "monotone": o.monotone,
                "worst_increase": _float_or_none(o.worst_increase),
                "stop_reason": o.stop_reason,
            }
            for o in report.outcomes
        ],
    }
    return payload, None


def _cmd_orbit(cfg: RunConfig, args):
    result, n, d = _run_census(cfg, default_s1=4.0)
    if d != 2:
        raise ValueError("orbit lifting starts from a planar base; use d = 2")
    if not result.solutions:
        raise NoConvergence("census found no solutions to lift")
    census_id = _pick(args.census_id, 0)
    if not 0 <= census_id < len(result.solutions):
        raise ValueError(
            f"census-id {census_id} out of range, census holds "
            f"{len(result.solutions)} solutions"
        )
    orbit = lift(result.solutions[census_id], tol_res=cfg.tol("tol_res", 1e-10))
    t_final = _pick(args.t_final, 20.0)
    samples = _pick(args.samples, 1000)
    if samples < 2:
        raise ValueError("samples must be >= 2")
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
            "period": _float_or_none(report.period),
            "closure": _float_or_none(report.closure),
        },
    }
    header = ["t"] + [f"q{i + 1}_{k + 1}" for i in range(n) for k in range(4)]

    def rows():  # positions of all samples in one call, made only for CSV
        for t, q in zip(times, orbit.positions(times)):
            yield (float(t), *(float(x) for x in q.ravel()))

    return payload, (tuple(header), rows())


def _cmd_morse_check(cfg: RunConfig, args):
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


def _add_io_flags(sp):
    sp.add_argument("--config", metavar="FILE",
                    help="JSON file with parameter defaults; explicit flags win")
    sp.add_argument("--output", metavar="PATH",
                    help="write the report here instead of stdout")
    sp.add_argument("--format", choices=("json", "csv"))


def _add_problem_flags(sp, seed=True):
    sp.add_argument("--n", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--masses", help="comma-separated, default equal masses")
    sp.add_argument("--s", help="single s1 or a full weight list s1,s2,...")
    if seed:
        sp.add_argument("--seed", type=int)


def build_parser() -> _Parser:
    parser = _Parser(prog="sbc-lab",
                     description="balanced-configuration laboratory")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    sp = sub.add_parser("coeffs", help="counting-polynomial coefficient table")
    sp.add_argument("n", type=int)
    _add_io_flags(sp)

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
    _add_io_flags(sp)

    sp = sub.add_parser("collinear",
                        help="solve or enumerate collinear configurations")
    _add_problem_flags(sp, seed=False)
    sp.add_argument("--ordering", help="1-based body order, e.g. 1,3,2")
    sp.add_argument("--axis", type=int, help="1-based axis (with --ordering)")
    _add_io_flags(sp)

    sp = sub.add_parser("census", help="random-restart solution catalogue")
    _add_problem_flags(sp)
    sp.add_argument("--restarts", type=int)
    sp.add_argument("--tol-res", dest="tol_res", type=float)
    _add_io_flags(sp)

    sp = sub.add_parser("continue",
                        help="track a collinear branch while s1 varies")
    _add_problem_flags(sp, seed=False)
    sp.add_argument("--ordering", help="1-based body order of the start branch")
    sp.add_argument("--axis", type=int)
    sp.add_argument("--from", dest="s_from", type=float, required=True)
    sp.add_argument("--to", dest="s_to", type=float, required=True)
    sp.add_argument("--steps", type=int)
    sp.add_argument("--tol-res", dest="tol_res", type=float)
    _add_io_flags(sp)

    sp = sub.add_parser("flow", help="integrate the ascent flow from a random seed")
    _add_problem_flags(sp)
    sp.add_argument("--T", dest="t_final", type=float)
    sp.add_argument("--atol", type=float)
    sp.add_argument("--rtol", type=float)
    _add_io_flags(sp)

    sp = sub.add_parser("check45",
                        help="batch angle-monotonicity check on tilted-line seeds")
    sp.add_argument("--count", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--s", help="single s1 or full d=3 weight list")
    sp.add_argument("--T", dest="t_final", type=float)
    sp.add_argument("--slack", type=float)
    _add_io_flags(sp)

    sp = sub.add_parser("orbit", help="lift a census solution to a rigid orbit")
    _add_problem_flags(sp)
    sp.add_argument("--census-id", dest="census_id", type=int)
    sp.add_argument("--restarts", type=int)
    sp.add_argument("--T", dest="t_final", type=float)
    sp.add_argument("--samples", type=int)
    sp.add_argument("--tol-res", dest="tol_res", type=float)
    _add_io_flags(sp)

    sp = sub.add_parser("morse-check",
                        help="index-count consistency test of a census report")
    sp.add_argument("census_file")
    _add_io_flags(sp)

    return parser


_CONFIG_KEYS = {
    "n", "d", "masses", "s", "seed", "restarts", "output",
    "format", "tol_res", "atol", "rtol", "slack", "ordering", "axis",
    "s_from", "s_to", "steps", "t_final", "samples", "count", "census_id",
    "regime",
}


def _merge_config_file(args) -> None:
    path = getattr(args, "config", None)
    if not path:
        return
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a single JSON object")
    unknown = sorted(set(doc) - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    for key, value in doc.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)


def _build_runconfig(args) -> RunConfig:
    tolerances = {}
    for name in ("tol_res", "atol", "rtol", "slack"):
        value = getattr(args, name, None)
        if value is not None:
            tolerances[name] = float(value)
    masses = getattr(args, "masses", None)
    s_raw = getattr(args, "s", None)
    n = getattr(args, "n", None)
    return RunConfig(
        n=None if n is None else int(n),
        d=getattr(args, "d", None),
        masses=None if masses is None else tuple(_floats(masses)),
        s_values=None if s_raw is None else tuple(_floats(s_raw)),
        seed=getattr(args, "seed", None),
        restarts=getattr(args, "restarts", None),
        tolerances=tolerances,
        output=getattr(args, "output", None),
        format=getattr(args, "format", None) or "json",
    )


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (None, 0) else int(exc.code)
    try:
        _merge_config_file(args)
        cfg = _build_runconfig(args)
        payload, table = _HANDLERS[args.command](cfg, args)
        _emit(cfg, payload, table)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SbcLabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
