"""Command-line entry point: catalog, analyze, orbit, verify, volume.

Exit codes: 0 on success, 1 when a mathematical check fails, 2 on
usage/config errors. All output is deterministic: floats are printed with
17 significant digits, JSON keys are sorted, lines end with LF.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, catalog
from .catalog import CatalogEntry, GridSpec, OrbitSpec
from .errors import (ConfigError, ExprError, GeoContactError, NoParametrization, OutOfChart,
                     UnknownEntry, config_value)
from .curvature import trace_discriminant
from .field import UnitField, diagnose
from .flow import (integrate_orbit, noncontact_eigen_drift, orbit_steps, riccati_residuals,
                   trace_evolution_residual, wronskian)
from .geometry import manifold_from_exprs
from .verify import (THEOREM_IDS, Tolerances, applicable_theorems, run_theorem,
                     verify_all, volume_integral)


def _fmt(value) -> str:
    return f"{float(value):.17g}"


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

_SECTIONS = {
    None: {"manifold", "field", "grid", "orbit", "diff", "tolerances", "volume"},
    "grid": {"min", "max", "counts"},
    "orbit": {"start", "t_end", "step"},
    "diff": {"mode", "step"},
    "volume": {"nodes"},
    "manifold": {"metric", "domain"},
    "field": {"components"},
}


def _check_keys(mapping, section):
    where = "config" if section is None else f"config section {section!r}"
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(mapping) - _SECTIONS[section]
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _expression(value):
    """Converter of an expression string for ``config_value``."""
    if not isinstance(value, str):
        raise TypeError("not an expression string")
    return value


def _finite(value):
    """Converter of a finite number for ``config_value``."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError("not a finite number")
    return number


def _triple(kind):
    """Converter of a 3-element list for ``config_value``."""
    def convert(values):
        if not isinstance(values, (list, tuple)) or len(values) != 3:
            raise ValueError("not a triple")
        return tuple(kind(v) for v in values)
    return convert


@dataclass
class Resolved:
    """Effective analysis setup: entry, tolerances and echoed config."""

    entry: CatalogEntry
    tolerances: Tolerances
    volume_nodes: int
    echo: dict


def resolve_config(config: dict) -> Resolved:
    _check_keys(config, None)

    man_spec = config.get("manifold")
    field_spec = config.get("field")
    if isinstance(man_spec, str):
        entry = catalog.builtin(man_spec)
    elif isinstance(man_spec, dict):
        _check_keys(man_spec, "manifold")
        manifold = manifold_from_exprs(
            "custom", config_value(man_spec, "metric", _triple(_triple(_expression)), "manifold"),
            domain=config_value(man_spec, "domain", _expression, "manifold", default="true"))
        if field_spec is None:
            raise ConfigError("custom manifold needs a field")
        entry = CatalogEntry(name="custom", manifold=manifold,
                             field=None, expected={}, notes="user-defined",
                             grid=None, orbit=None)
    else:
        raise ConfigError("config needs a manifold (catalog name or custom object)")

    if field_spec is not None:
        _check_keys(field_spec, "field")
        entry.field = UnitField.from_exprs(
            "custom", config_value(field_spec, "components", _triple(_expression), "field"))

    if "grid" in config:
        grid = config["grid"]
        _check_keys(grid, "grid")
        counts = config_value(grid, "counts", _triple(int), "grid", default=(5, 5, 5))
        if any(c < 1 for c in counts):
            raise ConfigError("grid counts must be >= 1")
        entry.grid = GridSpec(config_value(grid, "min", _triple(float), "grid"),
                              config_value(grid, "max", _triple(float), "grid"), counts)
    if "orbit" in config:
        orbit = config["orbit"]
        _check_keys(orbit, "orbit")
        step = config_value(orbit, "step", _finite, "orbit", default=1e-3)
        if step <= 0:
            raise ConfigError("orbit step must be positive")
        t_end = config_value(orbit, "t_end", _finite, "orbit", default=2.0)
        try:
            nsteps = orbit_steps(t_end, step)
        except ValueError as exc:
            raise ConfigError(f"invalid config value orbit.t_end: {exc}") from None
        if nsteps < 2:
            # the residuals difference B centrally, so they need 3 samples
            raise ConfigError("orbit t_end must be at least two steps")
        entry.orbit = OrbitSpec(config_value(orbit, "start", _triple(float), "orbit"), t_end, step)
    if "diff" in config:
        diff = config["diff"]
        _check_keys(diff, "diff")
        mode = diff.get("mode", "dual")
        if mode not in ("dual", "central"):
            raise ConfigError("diff mode must be 'dual' or 'central'")
        entry.manifold.diff_mode = mode
        entry.manifold.diff_step = config_value(diff, "step", _finite, "diff",
                                                default=entry.manifold.diff_step)
        if not entry.manifold.diff_step > 0:
            raise ConfigError("diff step must be positive")

    tolerances = Tolerances.from_mapping(config.get("tolerances"))
    volume_nodes = 32
    if "volume" in config:
        _check_keys(config["volume"], "volume")
        volume_nodes = config_value(config["volume"], "nodes", int, "volume", default=32)
    return Resolved(entry=entry, tolerances=tolerances,
                    volume_nodes=volume_nodes, echo=config)


def _load(args) -> Resolved:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                config = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
    elif getattr(args, "entry", None):
        config = {"manifold": args.entry}
    else:
        raise ConfigError("give --config or --entry")
    return resolve_config(config)


def _echo_json(resolved: Resolved) -> str:
    return json.dumps(resolved.echo, sort_keys=True, separators=(",", ":"))


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    inside = entry.manifold.contains(pts)
    skipped = pts[~inside]
    diag = diagnose(entry.manifold, entry.field, pts[inside], unit_tol=np.inf)
    failed = np.any((diag.unit_defect > tol.unit_defect)
                    | (diag.geodesic_defect > tol.geodesic_defect))
    # the float columns in CSV order; eig_kind goes in after the contact defect
    values = np.column_stack([diag.p, diag.unit_defect, diag.geodesic_defect,
                              diag.killing_defect, diag.contact_defect,
                              np.stack([diag.eig_re, diag.eig_im], axis=2).reshape(-1, 4),
                              diag.ric_X, diag.Delta, diag.delta])
    lines = [ANALYZE_HEADER]
    for row, cplx, rank in zip(values, diag.complex, diag.beta_rank):
        cells = [_fmt(v) for v in row]
        lines.append(",".join(cells[:7] + ["complex" if cplx else "real"] + cells[7:]
                              + [str(rank)]))
    lines.append(f"# version: geocontact {__version__}")
    lines.append(f"# config: {_echo_json(resolved)}")
    if len(skipped):
        lines.append(f"# out_of_chart: {len(skipped)}")
        lines.extend(f"# {_fmt(p[0])},{_fmt(p[1])},{_fmt(p[2])}" for p in skipped)
    _emit("\n".join(lines) + "\n", args.out)
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
    max_riccati = float(np.nanmax(riccati))
    max_trace = trace_evolution_residual(traj)

    trb, disc = trace_discriminant(traj.B)
    detb = traj.B[:, 0, 0] * traj.B[:, 1, 1] - traj.B[:, 0, 1] * traj.B[:, 1, 0]
    defect = traj.B[:, 1, 0] - traj.B[:, 0, 1]

    lines = [ORBIT_HEADER]
    for k in range(len(traj)):
        lines.append(",".join([
            _fmt(traj.t[k]), _fmt(traj.points[k, 0]), _fmt(traj.points[k, 1]),
            _fmt(traj.points[k, 2]), _fmt(trb[k]), _fmt(detb[k]), _fmt(disc[k]),
            _fmt(defect[k]), _fmt(traj.A[k]), _fmt(wr.A_expected[k]),
            _fmt(riccati[k]), _fmt(traj.adapted[k])]))
    lines.append(f"# version: geocontact {__version__}")
    lines.append(f"# config: {_echo_json(resolved)}")
    lines.append(f"# max_riccati_residual: {_fmt(max_riccati)}")
    lines.append(f"# max_trace_residual: {_fmt(max_trace)}")
    lines.append(f"# max_adapted_residual: {_fmt(traj.adapted_residual)}")
    lines.append(f"# max_wronskian_residual: {_fmt(wr.residual)}")
    if traj.truncated:
        lines.append("# truncated: true")
    drift = noncontact_eigen_drift(traj)
    if drift is not None:
        lines.append(f"# noncontact_eigen_drift: {_fmt(drift)}")
    _emit("\n".join(lines) + "\n", args.out)
    worst = max(max_riccati, max_trace, traj.adapted_residual, wr.residual)
    return 1 if worst > tol.orbit_residual else 0


def cmd_verify(args) -> int:
    if args.all:
        resolved = _load(args) if args.config else Resolved(None, Tolerances(), 32,
                                                            {"verify": "all"})
        reports = verify_all(catalog.all_entries(), resolved.tolerances,
                             resolved.volume_nodes, args.theorems)
    else:
        resolved = _load(args)
        reports = [run_theorem(resolved.entry, theorem, c=args.c, tol=resolved.tolerances,
                               volume_nodes=resolved.volume_nodes)
                   for theorem in args.theorems or applicable_theorems(resolved.entry)]
    doc = {
        "version": f"geocontact {__version__}",
        "config": resolved.echo,
        "reports": [r.to_dict() for r in reports],
    }
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    return 1 if any(r.verdict == "violated" for r in reports) else 0


def cmd_volume(args) -> int:
    resolved = _load(args)
    nodes = args.nodes or resolved.volume_nodes
    result = volume_integral(resolved.entry, nodes)
    doc = {
        "version": f"geocontact {__version__}",
        "config": resolved.echo,
        "result": result.to_dict(),
    }
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON config document")
    common.add_argument("--out", help="write the report to a file instead of stdout")
    common.add_argument("--json", action="store_true", help="JSON output where applicable")

    parser = argparse.ArgumentParser(
        prog="geocontact",
        description="Numerical verification toolkit for contact structures "
                    "induced by geodesic vector fields on 3-manifolds.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", parents=[common],
                   help="list the built-in manifold/field pairs").set_defaults(fn=cmd_catalog)

    p_analyze = sub.add_parser("analyze", parents=[common],
                               help="per-point diagnostics over a grid (CSV)")
    p_analyze.add_argument("--entry", help="catalog entry (shortcut for a minimal config)")
    p_analyze.set_defaults(fn=cmd_analyze)

    p_orbit = sub.add_parser("orbit", parents=[common],
                             help="orbit integration diagnostics (CSV)")
    p_orbit.add_argument("--entry")
    p_orbit.set_defaults(fn=cmd_orbit)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="theorem verdict suites (JSON)")
    p_verify.add_argument("theorems", nargs="*",
                          help=f"theorem ids, any of {', '.join(THEOREM_IDS)}")
    p_verify.add_argument("--all", action="store_true",
                          help="run every applicable suite over the full catalog")
    p_verify.add_argument("--entry")
    p_verify.add_argument("--c", type=float, default=None,
                          help="constant curvature value for the space-form suites")
    p_verify.set_defaults(fn=cmd_verify)

    p_volume = sub.add_parser("volume", parents=[common],
                              help="contact volume by midpoint quadrature (JSON)")
    p_volume.add_argument("--entry")
    p_volume.add_argument("--nodes", type=int, default=None, help="nodes per axis")
    p_volume.set_defaults(fn=cmd_volume)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ConfigError, NoParametrization, UnknownEntry, ExprError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeoContactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
