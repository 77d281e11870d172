"""Built-in (manifold, field) pairs with documented expected diagnostics.

Every entry is expression-backed, so all first derivatives downstream are
exact, the values of differentiated expressions. Default grids avoid chart
singularities; default orbits run two length units at step 1e-3.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UnknownEntry
from .curvature import trace_discriminant
from .field import UnitField, diagnose
from .geometry import ChartedManifold, VolumeParametrization, manifold_from_exprs

VALUE_TOL = 1e-5       # tolerance for expected numeric template values
ZERO_DEFECT_TOL = 1e-8  # "not contact" threshold used by the self-check


@dataclass(frozen=True)
class GridSpec:
    lo: tuple
    hi: tuple
    counts: tuple

    def points(self) -> np.ndarray:
        """Lattice points in lexicographic order of (x1, x2, x3)."""
        axes = [np.linspace(self.lo[i], self.hi[i], self.counts[i]) for i in range(3)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def subgrid(self, counts) -> "GridSpec":
        return GridSpec(self.lo, self.hi, tuple(counts))


@dataclass(frozen=True)
class OrbitSpec:
    start: tuple
    t_end: float = 2.0
    step: float = 1e-3


@dataclass
class CatalogEntry:
    """A named manifold/field pair with an expected-diagnostics template.

    ``expected`` maps template keys to values checked by ``self_check``
    against the measured ``diagnose`` columns; keys absent from the template
    are unconstrained. An entry whose field is Killing says so by
    ``expected["killing_max"]``, the bound on its Killing defect.
    """

    name: str
    manifold: ChartedManifold
    field: UnitField
    expected: dict
    notes: str
    grid: GridSpec
    orbit: OrbitSpec
    space_form_c: Optional[float] = None


_FLAT = (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1"))


def _hopf_parametrization(name="hopf") -> VolumeParametrization:
    """Hopf coordinates (eta, xi1, xi2) on the 3-sphere, mapped to the chart.

    The round volume is sin(eta) cos(eta) in these coordinates and 8 / r^3
    in the chart, r = 1 + |x|^2, so the Jacobian is their quotient. Each sine
    and cosine is taken once, on its axis slice, and broadcast from there.
    """
    def chart_map(params):  # (q1, q2, q3) / (1 - q4) of the point q of S^3 in R^4
        eta, xi1, xi2 = params
        ce, se = np.cos(eta), np.sin(eta)
        den = 1.0 - se * np.sin(xi2)
        return np.stack(np.broadcast_arrays(ce * np.cos(xi1) / den, ce * np.sin(xi1) / den,
                                            se * np.cos(xi2) / den), axis=-1)

    def jacobian(params, points):
        x1, x2, x3 = points[..., 0], points[..., 1], points[..., 2]
        r = 1.0 + x1 * x1 + x2 * x2 + x3 * x3
        return np.sin(params[0]) * np.cos(params[0]) * (r * r * r / 8.0)

    return VolumeParametrization(name=name, box=((0.0, np.pi / 2), (0.0, 2 * np.pi), (0.0, 2 * np.pi)),
                                 chart_map=chart_map, jacobian=jacobian)


def _entry(name, metric, field, expected, notes, box, start, domain="true",
           space_form_c=None, volume=None) -> CatalogEntry:
    """A catalog entry: the chart named after it, the field (name, components)
    from expressions, a 5x5x5 grid on ``box`` = (lo, hi) and the default orbit."""
    return CatalogEntry(
        name=name, manifold=manifold_from_exprs(name, metric, domain=domain, volume_param=volume),
        field=UnitField.from_exprs(*field), expected=dict(expected), notes=notes,
        grid=GridSpec(*box, (5, 5, 5)), orbit=OrbitSpec(start), space_form_c=space_form_c)


_SKEW_DEN = "sqrt((1 + x3^2)*(1 + x3^2 + x1^2 + x2^2))"

_ROUND_S3 = tuple(tuple(("4/(1 + x1^2 + x2^2 + x3^2)^2" if i == j else "0") for j in range(3))
                  for i in range(3))

_HOPF_COMPONENTS = ("x1*x3 - x2", "x2*x3 + x1", "x3^2 + (1 - x1^2 - x2^2 - x3^2)/2")

#: the fixed entries, ``_entry`` keywords by name, in listing order
_FIXED = {
    "euclidean_parallel": dict(
        metric=_FLAT, field=("parallel_z", ("0", "0", "1")),
        expected={"contact_abs": 0.0, "beta_norm": 0.0, "beta_rank": 0,
                  "eig_kind": "real", "Delta": 0.0, "delta": 0.0, "ric_X": 0.0,
                  "killing_max": 1e-8},
        notes="flat space, constant vertical field; shape operator vanishes, "
              "plane field integrable",
        box=((-1.5, -1.5, -1.5), (1.5, 1.5, 1.5)),
        start=(0.1, -0.2, 0.3),
        space_form_c=0.0),
    "euclidean_skew": dict(
        metric=_FLAT, field=("skew_lines", (
            f"(x3*x1 - x2)/{_SKEW_DEN}",
            f"(x1 + x3*x2)/{_SKEW_DEN}",
            "sqrt((1 + x3^2)/(1 + x3^2 + x1^2 + x2^2))",
        )),
        expected={"contact_abs_min": 1e-3, "eig_kind": "complex"},
        notes="unit field directing a skew fibration of flat space by "
              "straight lines; contact everywhere",
        box=((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0)),
        start=(0.2, -0.3, 0.1),
        space_form_c=0.0),
    "s3_hopf": dict(
        metric=_ROUND_S3, volume=_hopf_parametrization(), field=("hopf", _HOPF_COMPONENTS),
        expected={"contact_abs": 2.0, "eig_kind": "complex", "disc_max": -0.5,
                  "Delta": 1.0, "delta": 1.0, "ric_X": 2.0, "beta_rank": 2,
                  "killing_max": 1e-8},
        notes="round 3-sphere in the stereographic chart with the unit Hopf "
              "field; isometric flow, contact defect 2",
        box=((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)),
        start=(0.3, 0.2, 0.1),
        space_form_c=1.0),
    "h2xr_vertical": dict(
        metric=(("1/x2^2", "0", "0"), ("0", "1/x2^2", "0"), ("0", "0", "1")),
        domain="x2", field=("vertical_h2", ("0", "x2", "0")),
        expected={"contact_abs": 0.0, "beta_rank": 1, "eig_kind": "real",
                  "Delta": 0.0, "delta": -1.0, "ric_X": -1.0,
                  "real_eigs_sorted": (-1.0, 0.0)},
        notes="hyperbolic half-plane times a line with the upward field; "
              "rank-1 shape operator, plane field integrable",
        box=((-1.0, 0.25, -1.0), (1.0, 2.75, 1.0)),
        start=(0.1, 1.0, -0.2)),
    "h3_vertical": dict(
        metric=(("1/x3^2", "0", "0"), ("0", "1/x3^2", "0"), ("0", "0", "1/x3^2")),
        domain="x3", field=("vertical_h3", ("0", "0", "x3")),
        expected={"contact_abs": 0.0, "beta": ((-1.0, 0.0), (0.0, -1.0)),
                  "beta_rank": 2, "eig_kind": "real",
                  "real_eigs_sorted": (-1.0, -1.0),
                  "Delta": -1.0, "delta": -1.0, "ric_X": -2.0},
        notes="hyperbolic half-space with the vertical geodesic field; "
              "beta = -id, plane field integrable",
        box=((-1.0, -1.0, 0.25), (1.0, 1.0, 2.75)),
        start=(0.0, 0.0, 1.0),
        space_form_c=-1.0),
    "heisenberg_reeb": dict(
        metric=(("1", "0", "0"), ("0", "1 + x1^2", "-x1"), ("0", "-x1", "1")),
        field=("heisenberg_z", ("0", "0", "1")),
        expected={"contact_abs": 1.0, "eig_kind": "complex", "beta_rank": 2,
                  "Delta": 0.25, "delta": 0.25, "ric_X": 0.5,
                  "killing_max": 1e-8},
        notes="nilpotent group metric dx1^2 + dx2^2 + (dx3 - x1 dx2)^2 with "
              "its central field; isometric flow, contact defect 1",
        box=((-1.5, -1.5, -1.5), (1.5, 1.5, 1.5)),
        start=(0.3, -0.2, 0.1)),
}

_WEIGHTED_NOTES = ("weighted circle action on the 3-sphere; the metric is rescaled "
                   "by 1/|W|^2 so the generating field has unit length and "
                   "isometric flow")


def _s3_weighted(k1: float, k2: float) -> CatalogEntry:
    w1, w2 = (repr(k).removesuffix(".0") for k in (k1, k2))  # shortest round trip, 2 for 2.0
    q = (f"4*{k1 * k1!r}*(x1^2 + x2^2) + "
         f"{k2 * k2!r}*(4*x3^2 + (x1^2 + x2^2 + x3^2 - 1)^2)")
    return _entry(
        f"s3_weighted({w1},{w2})",
        metric=tuple(tuple((f"4/({q})" if i == j else "0") for j in range(3)) for i in range(3)),
        volume=_hopf_parametrization(f"hopf_weighted_{w1}_{w2}"),
        field=(f"weighted_hopf_{w1}_{w2}", (
            f"{k2!r}*x1*x3 - {k1!r}*x2",
            f"{k1!r}*x1 + {k2!r}*x2*x3",
            f"{k2!r}*(x3^2 + (1 - x1^2 - x2^2 - x3^2)/2)",
        )),
        expected={"contact_abs_min": 1e-6, "killing_max": 1e-8},
        notes=_WEIGHTED_NOTES,
        box=((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)),
        start=(0.3, 0.2, 0.1),
        space_form_c=k1 * k1 if k1 * k1 == k2 * k2 else None)  # |W| = |k1|: radius 1/|k1|


_WEIGHTED = re.compile(r"s3_weighted\(\s*([-+0-9.eE]+)\s*,\s*([-+0-9.eE]+)\s*\)$")

#: canonical listing order; s3_weighted follows s3_hopf in its parametrised form
NAMES = (*list(_FIXED)[:3], "s3_weighted(k1,k2)", *list(_FIXED)[3:])

#: weighted instance used whenever a concrete entry is needed for "all"
DEFAULT_WEIGHTED = "s3_weighted(2,3)"


def builtin(name: str) -> CatalogEntry:
    """A fresh entry by name, whitespace stripped; weights parse from e.g. 's3_weighted(2,3)'."""
    key = name.strip()
    if key in _FIXED:
        return _entry(key, **_FIXED[key])
    m = _WEIGHTED.match(key)
    if m:
        k1, k2 = float(m.group(1)), float(m.group(2))
        if not all(np.finfo(float).tiny <= k * k < np.inf for k in (k1, k2)):
            raise UnknownEntry(f"weighted entry {name!r} needs weights with normal squares")
        return _s3_weighted(k1, k2)
    raise UnknownEntry(f"no catalog entry named {name!r}")


def all_entries():
    """The seven concrete entries in ``NAMES`` order, the weighted one as ``DEFAULT_WEIGHTED``."""
    return [builtin(DEFAULT_WEIGHTED if name == "s3_weighted(k1,k2)" else name) for name in NAMES]


def describe():
    """(name, description) pairs for the catalog listing."""
    return [(name, _FIXED[name]["notes"] if name in _FIXED else _WEIGHTED_NOTES)
            for name in NAMES]


# ---------------------------------------------------------------------------
# Self-check of the expected templates
# ---------------------------------------------------------------------------

def self_check(entry: CatalogEntry):
    """Compare measured diagnostics on the entry's grid with its expected template.

    Returns a list of mismatch descriptions (empty when the entry is
    healthy): each template key it does not know, then point by point and
    key by key each missed value. Always enforces the unit (1e-8) and
    geodesic (1e-6) defect bounds.
    """
    pts = entry.grid.points()
    exp = entry.expected
    diag = diagnose(entry.manifold, entry.field, pts)
    disc = trace_discriminant(diag.B)[1]
    contact, kind = diag.contact_defect, np.where(diag.complex, "complex", "real")

    def near(col):
        return lambda v: np.abs(col - v) > VALUE_TOL, lambda k: float(col[k])

    checks = {  # template key -> (the points that miss value v, the value measured at point k)
        "contact_abs": (lambda v: np.abs(np.abs(contact) - v) >
                        (ZERO_DEFECT_TOL if v == 0.0 else VALUE_TOL), lambda k: float(contact[k])),
        "contact_abs_min": (lambda v: np.abs(contact) <= v, lambda k: float(contact[k])),
        "beta_norm": (lambda v: np.abs(np.linalg.norm(diag.B, axis=(1, 2)) - v) > VALUE_TOL,
                      lambda k: float(np.linalg.norm(diag.B[k]))),
        "beta": (lambda v: np.abs(diag.B - np.asarray(v)).max(axis=(1, 2)) > VALUE_TOL,
                 lambda k: diag.B[k]),
        "beta_rank": (lambda v: diag.beta_rank != v, lambda k: int(diag.beta_rank[k])),
        "eig_kind": (lambda v: kind != v, lambda k: str(kind[k])),
        "real_eigs_sorted": (
            lambda v: diag.complex | (np.abs(np.sort(diag.eig_re, axis=1) - v).max(axis=1) >
                                      VALUE_TOL),
            lambda k: str(kind[k]) if diag.complex[k] else tuple(sorted(diag.eig_re[k].tolist()))),
        "disc_max": (lambda v: disc >= v, lambda k: float(disc[k])),
        "Delta": near(diag.Delta),
        "delta": near(diag.delta),
        "ric_X": near(diag.ric_X),
        "killing_max": (lambda v: diag.killing_defect > v,
                        lambda k: float(diag.killing_defect[k])),
    }
    bad = [f"{entry.name}: unknown template key {key!r}" for key in exp if key not in checks]
    missed = [(key, miss(exp[key]), got) for key, (miss, got) in checks.items() if key in exp]
    unit, geodesic = diag.unit_defect > 1e-8, diag.geodesic_defect > 1e-6
    for k in np.flatnonzero(np.logical_or.reduce([unit, geodesic, *(m for _, m, _ in missed)])):
        where = f"{entry.name} at {np.array2string(pts[k], precision=3)}"
        if unit[k]:
            bad.append(f"{where}: unit defect {diag.unit_defect[k]:.2e}")
        if geodesic[k]:
            bad.append(f"{where}: geodesic defect {diag.geodesic_defect[k]:.2e}")
        bad += [f"{where}: {key} expected {exp[key]!r}, got {got(k)!r}"
                for key, mask, got in missed if mask[k]]
    return bad
