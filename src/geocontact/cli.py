"""Command-line entry point: catalog, analyze, orbit, verify, volume.

Exit codes: 0 on success, 1 when a mathematical check fails, 2 on
usage/config errors. All output is deterministic, and the report contract
(17 significant digits, the version and config echo, sorted JSON keys, LF
line ends) lives in two writers alone: ``_emit_csv`` and ``_emit_json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__, catalog, expr
from .catalog import CatalogEntry, GridSpec, OrbitSpec
from .errors import (ConfigError, ExprError, ExprSyntaxError, GeoContactError, NoParametrization,
                     OutOfChart, UnknownEntry, finite_number)
from .curvature import _partials_inside, trace_discriminant
from .field import UnitField, diagnose
from .flow import (integrate_orbit, noncontact_eigen_drift, orbit_steps, riccati_residuals,
                   trace_evolution_residual, wronskian)
from .geometry import DEFAULT_DIFF_STEP, manifold_from_exprs
from .verify import (THEOREM_IDS, VOLUME_NODES, Tolerances, applicable_theorems, verify_all,
                     verify_entry, volume_integral)


def _fmt(value) -> str:
    return f"{float(value):.17g}"


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def _number(ok=lambda v: True, kind=float):
    """Converter of a finite JSON int or float (not a bool) that passes ``ok``, as ``kind``."""
    def convert(value):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError("not a number")
        number = float(value)
        if not (math.isfinite(number) and ok(number)):
            raise ValueError("out of bounds")
        return kind(number)
    return convert


class _BadExpression(Exception):
    """A config string that does not parse; ``cell`` is its index path in the
    key's value, e.g. "[1][1]", prefixed by each ``_triple`` around it."""

    def __init__(self, source, error):
        super().__init__(f"{source!r}: {error}")
        self.cell = ""


def _expression(value):
    """Converter of an expression string that parses (``parse`` is memoised, so
    building the chart or field from it parses nothing again)."""
    if not isinstance(value, str):
        raise TypeError("not an expression string")
    try:
        expr.parse(value)
    except ExprSyntaxError as exc:
        raise _BadExpression(value, exc) from None
    return value


def _domain(value):
    """Converter of a chart domain: the literal "true" or an expression."""
    return value if isinstance(value, str) and value.strip() == "true" else _expression(value)


def _one_of(*options):
    """Converter of one of ``options``: ``index`` raises ValueError for any other value."""
    return lambda value: options[options.index(value)]


def _triple(kind):
    """Converter of a 3-element list whose elements ``kind`` converts."""
    def convert(values):
        if not isinstance(values, (list, tuple)) or len(values) != 3:
            raise ValueError("not a triple")
        out = []
        for i, value in enumerate(values):
            try:
                out.append(kind(value))
            except _BadExpression as exc:
                exc.cell = f"[{i}]{exc.cell}"
                raise
        return tuple(out)
    return convert


def _counts(values):
    """Grid counts, each at least 1, of a point array numpy can address."""
    counts = _triple(_number(lambda v: v.is_integer() and v >= 1, int))(values)
    if math.prod(counts) * 3 * 8 > np.iinfo(np.intp).max:
        raise ValueError("more grid points than numpy can address")
    return counts


#: section -> (whether it sets up the entry, key -> (converter, default)); a
#: default of None marks a required key. ``verify --all`` runs every catalog
#: entry on its own setup, so it reads only the sections that set up none.
_SCHEMA = {
    "manifold": (True, {"metric": (_triple(_triple(_expression)), None),
                        "domain": (_domain, "true")}),
    "field": (True, {"components": (_triple(_expression), None)}),
    "grid": (True, {"min": (_triple(_number()), None), "max": (_triple(_number()), None),
                    "counts": (_counts, (5, 5, 5))}),
    "orbit": (True, {"start": (_triple(_number()), None),
                     "t_end": (_number(), OrbitSpec.t_end),
                     "step": (_number(lambda v: v > 0), OrbitSpec.step)}),
    "diff": (True, {"mode": (_one_of("dual", "central"), "dual"),
                    "step": (_number(lambda v: v > 0), DEFAULT_DIFF_STEP)}),
    "tolerances": (False, {f.name: (_number(lambda v: v >= 0), f.default)
                           for f in dataclasses.fields(Tolerances)}),
    "volume": (False, {"nodes": (_number(lambda v: v.is_integer() and v >= 4, int),
                                 VOLUME_NODES)}),
}


def _section(config, name):
    """Section ``name`` of a config document: every key of its ``_SCHEMA`` entry
    converted, or its default if the key (or the whole section) is absent."""
    mapping, keys = config.get(name, {}), _SCHEMA[name][1]
    if not isinstance(mapping, dict):
        raise ConfigError(f"config section {name!r} must be a JSON object")
    unknown = set(mapping) - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys in config section {name!r}: {sorted(unknown)}")
    values = {}
    for key, (convert, default) in keys.items():
        if key not in mapping and default is None:
            raise ConfigError(f"config needs {name}.{key}")
        try:
            values[key] = convert(mapping[key]) if key in mapping else default
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"invalid config value {name}.{key}: {mapping[key]!r}") from None
        except _BadExpression as exc:
            raise ConfigError(f"invalid config expression {name}.{key}{exc.cell} {exc}") from None
    return values


@dataclass
class Resolved:
    """Effective analysis setup: entry, tolerances and echoed config."""

    entry: Optional[CatalogEntry]  # None for the whole catalog (``verify --all``)
    tolerances: Tolerances
    volume_nodes: int
    echo: dict


def resolve_config(config: dict, catalog_wide=False) -> Resolved:
    """The setup a config document gives. ``catalog_wide`` (``verify --all``)
    builds no entry: a section that would set one up is a ConfigError."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(config) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown keys in config: {sorted(unknown)}")

    if catalog_wide:
        unread = [name for name, (sets_up_entry, _) in _SCHEMA.items()
                  if sets_up_entry and name in config]
        if unread:
            raise ConfigError(f"verify --all runs every catalog entry on its own setup: "
                              f"config section {unread[0]!r} would not apply")
        entry = None
    elif isinstance(config.get("manifold"), str):
        entry = catalog.builtin(config["manifold"])
    elif isinstance(config.get("manifold"), dict):
        spec = _section(config, "manifold")
        if "field" not in config:
            raise ConfigError("custom manifold needs a field")
        entry = CatalogEntry(name="custom", manifold=manifold_from_exprs(
            "custom", spec["metric"], domain=spec["domain"]), field=None, expected={},
            notes="user-defined", grid=None, orbit=None)
    else:
        raise ConfigError("config needs a manifold (catalog name or custom object)")

    if "field" in config:
        entry.field = UnitField.from_exprs("custom", _section(config, "field")["components"])
    if "grid" in config:
        grid = _section(config, "grid")
        entry.grid = GridSpec(grid["min"], grid["max"], grid["counts"])
    if "orbit" in config:
        orbit = _section(config, "orbit")
        try:
            nsteps = orbit_steps(orbit["t_end"], orbit["step"])
        except ValueError as exc:
            raise ConfigError(f"invalid config value orbit.t_end: {exc}") from None
        if nsteps < 2:
            # the residuals difference B centrally, so they need 3 samples
            raise ConfigError("orbit t_end must be at least two steps")
        entry.orbit = OrbitSpec(orbit["start"], orbit["t_end"], orbit["step"])
    if "diff" in config:
        diff = _section(config, "diff")
        entry.manifold.diff_mode, entry.manifold.diff_step = diff["mode"], diff["step"]
    return Resolved(entry=entry, tolerances=Tolerances(**_section(config, "tolerances")),
                    volume_nodes=_section(config, "volume")["nodes"], echo=config)


def _load(args, catalog_wide=False) -> Resolved:
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
    elif args.entry:
        config = {"manifold": args.entry}
    else:
        raise ConfigError("give --config or --entry")
    return resolve_config(config, catalog_wide)


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(args, resolved: Resolved, header: str, rows, notes=()):
    """A CSV report: the header, one line per row (number cells with 17
    significant digits, string cells as given), then the ``# version`` and
    ``# config`` echo lines and one ``# `` line per note. Each row is one ``%``
    template, ``%.17g`` per number cell and ``%s`` per string cell, fixed by
    the first row: a column holds numbers or strings in every row."""
    body, template = [], None
    for row in rows:
        if template is None:
            template = ",".join("%s" if isinstance(c, str) else "%.17g" for c in row) + "\n"
        body.append(template % tuple(row))
    trailer = (f"version: geocontact {__version__}",
               f"config: {json.dumps(resolved.echo, sort_keys=True, separators=(',', ':'))}",
               *notes)
    _emit(header + "\n" + "".join(body) + "".join(f"# {line}\n" for line in trailer), args.out)


def _emit_json(args, resolved: Resolved, **body):
    """A JSON report: ``version``, ``config`` and ``body``, keys sorted."""
    doc = {"version": f"geocontact {__version__}", "config": resolved.echo, **body}
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_catalog(args) -> int:
    rows = catalog.describe()
    if args.json:
        doc = [{"name": name, "description": desc} for name, desc in rows]
        _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    else:
        _emit("".join(f"{name}: {desc}\n" for name, desc in rows), args.out)
    return 0


ANALYZE_HEADER = ("x1,x2,x3,unit_defect,geodesic_defect,killing_defect,contact_defect,"
                  "eig_kind,eig_re1,eig_im1,eig_re2,eig_im2,ric_X,Delta,delta,beta_rank")


def cmd_analyze(args) -> int:
    resolved = _load(args)
    entry, tol = resolved.entry, resolved.tolerances
    if entry.grid is None:
        raise ConfigError("analyze needs a grid")
    pts = entry.grid.points()
    inside = _partials_inside(entry.manifold, pts)  # the orbit starts' rule; its reach holds pts
    skipped = pts[~inside]
    diag = diagnose(entry.manifold, entry.field, pts[inside], unit_tol=np.inf)
    failed = np.any((diag.unit_defect > tol.unit_defect)
                    | (diag.geodesic_defect > tol.geodesic_defect))
    # the float columns in CSV order (ranks print as integers); eig_kind goes in 8th
    values = np.column_stack([diag.p, diag.unit_defect, diag.geodesic_defect,
                              diag.killing_defect, diag.contact_defect,
                              np.stack([diag.eig_re, diag.eig_im], axis=2).reshape(-1, 4),
                              diag.ric_X, diag.Delta, diag.delta, diag.beta_rank])
    rows = ([*row[:7], "complex" if cplx else "real", *row[7:]]
            for row, cplx in zip(map(np.ndarray.tolist, values), diag.complex))
    notes = ([f"out_of_chart: {len(skipped)}", *(",".join(map(_fmt, p)) for p in skipped)]
             if len(skipped) else [])
    _emit_csv(args, resolved, ANALYZE_HEADER, rows, notes)
    return 1 if failed else 0


ORBIT_HEADER = ("t,x1,x2,x3,tr_beta,det_beta,discriminant,contact_defect,"
                "A_numeric,A_expected,riccati_residual,adapted_residual")


def cmd_orbit(args) -> int:
    resolved = _load(args)
    entry, tol = resolved.entry, resolved.tolerances
    if entry.orbit is None:
        raise ConfigError("orbit needs an orbit section")
    spec = entry.orbit
    traj = integrate_orbit(entry.manifold, entry.field, np.asarray(spec.start, float),
                           spec.t_end, spec.step, with_jacobi=True)
    if len(traj) < 3:
        raise OutOfChart(f"orbit left the chart after {len(traj)} sample(s); "
                         f"last point inside: {traj.points[-1].tolist()}")
    wr = wronskian(traj)
    riccati = riccati_residuals(traj)
    max_riccati = float(np.max(riccati[1:-1]))  # NaN at the two ends by design
    max_trace = trace_evolution_residual(traj)

    trb, disc = trace_discriminant(traj.B)
    detb = traj.B[:, 0, 0] * traj.B[:, 1, 1] - traj.B[:, 0, 1] * traj.B[:, 1, 0]
    defect = traj.B[:, 1, 0] - traj.B[:, 0, 1]

    # row by row: one list of 12 (N + 1) floats would grow the peak resident memory
    rows = map(np.ndarray.tolist, np.column_stack([traj.t, traj.points, trb, detb, disc, defect,
                                                   traj.A, wr.A_expected, riccati, traj.adapted]))
    notes = [f"max_riccati_residual: {_fmt(max_riccati)}",
             f"max_trace_residual: {_fmt(max_trace)}",
             f"max_adapted_residual: {_fmt(traj.adapted_residual)}",
             f"max_wronskian_residual: {_fmt(wr.residual)}"]
    if traj.truncated:
        notes.append("truncated: true")
    drift = noncontact_eigen_drift(traj, tol.not_contact)
    if drift is not None:
        notes.append(f"noncontact_eigen_drift: {_fmt(drift)}")
    _emit_csv(args, resolved, ORBIT_HEADER, rows, notes)
    worst = np.max([max_riccati, max_trace, traj.adapted_residual, wr.residual])  # keeps a NaN
    return 0 if worst <= tol.orbit_residual else 1


def cmd_verify(args) -> int:
    if args.all:
        for flag, value in (("--entry", args.entry), ("--c", args.c)):
            if value is not None:
                raise ConfigError(f"verify --all takes no {flag}: it runs every catalog entry")
        resolved = _load(args, catalog_wide=True) if args.config else dataclasses.replace(
            resolve_config({}, catalog_wide=True), echo={"verify": "all"})
        reports = verify_all(catalog.all_entries(), resolved.tolerances,
                             resolved.volume_nodes, args.theorems)
    else:
        resolved = _load(args)
        theorems = args.theorems or applicable_theorems(resolved.entry)
        if args.c is not None and not {"T5.1", "C5.2"} & set(theorems):
            raise ConfigError("unrecognized arguments: --c (no T5.1 or C5.2 to read it)")
        reports = verify_entry(resolved.entry, theorems, c=args.c,
                               tol=resolved.tolerances, volume_nodes=resolved.volume_nodes)
    _emit_json(args, resolved, reports=[r.to_dict() for r in reports])
    return 1 if any(r.verdict == "violated" for r in reports) else 0


def cmd_volume(args) -> int:
    resolved = _load(args)
    nodes = resolved.volume_nodes if args.nodes is None else args.nodes
    _emit_json(args, resolved, result=volume_integral(resolved.entry, nodes).to_dict())
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the report to a file instead of stdout")
    configured = argparse.ArgumentParser(add_help=False, parents=[common])
    setup = configured.add_mutually_exclusive_group()
    setup.add_argument("--config", help="path to a JSON config document")
    setup.add_argument("--entry", help="catalog entry (shortcut for a minimal config)")

    parser = argparse.ArgumentParser(
        prog="geocontact",
        description="Numerical verification toolkit for contact structures "
                    "induced by geodesic vector fields on 3-manifolds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_catalog = sub.add_parser("catalog", parents=[common],
                               help="list the built-in manifold/field pairs")
    p_catalog.add_argument("--json", action="store_true", help="JSON output")
    p_catalog.set_defaults(fn=cmd_catalog)

    p_analyze = sub.add_parser("analyze", parents=[configured],
                               help="per-point diagnostics over a grid (CSV)")
    p_analyze.set_defaults(fn=cmd_analyze)

    p_orbit = sub.add_parser("orbit", parents=[configured],
                             help="orbit integration diagnostics (CSV)")
    p_orbit.set_defaults(fn=cmd_orbit)

    p_verify = sub.add_parser("verify", parents=[configured],
                              help="theorem verdict suites (JSON)")
    p_verify.add_argument("theorems", nargs="*",
                          help=f"theorem ids, any of {', '.join(THEOREM_IDS)}")
    p_verify.add_argument("--all", action="store_true",
                          help="run every applicable suite over the full catalog")
    p_verify.add_argument("--c", type=finite_number, default=None,
                          help="constant curvature value for the space-form suites")
    p_verify.set_defaults(fn=cmd_verify)

    p_volume = sub.add_parser("volume", parents=[configured],
                              help="contact volume by midpoint quadrature (JSON)")
    p_volume.add_argument("--nodes", type=int, default=None, help="nodes per axis")
    p_volume.set_defaults(fn=cmd_volume)
    return parser


#: command -> the config key that sizes its largest arrays, named when they do not fit
_SIZED_BY = {"analyze": "grid.counts", "orbit": "orbit.t_end", "verify": "grid.counts"}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        with np.errstate(all="ignore"):  # no numpy warnings on stderr
            return args.fn(args)
    except (ConfigError, NoParametrization, UnknownEntry, ExprError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: not enough memory for {_SIZED_BY.get(args.command, 'the input')}: {exc}",
              file=sys.stderr)
        return 2
    except GeoContactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
