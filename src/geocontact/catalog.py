"""Built-in (manifold, field) pairs with documented expected diagnostics.

Every entry is expression-backed, so all first derivatives downstream are
exact dual-number evaluations. Default grids avoid chart singularities;
default orbits run two length units at step 1e-3.
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


def _hopf_parametrization(weights=None, name="hopf") -> VolumeParametrization:
    """Hopf coordinates (eta, xi1, xi2) on the 3-sphere, mapped to the chart.

    The density is sin(eta) cos(eta) for the round metric; for a weighted
    field the metric is rescaled by 1/|W|^2, which multiplies the volume
    density by 1/|W|^3 with |W|^2 = k1^2 cos^2(eta) + k2^2 sin^2(eta).
    """
    def chart_map(params):
        eta, xi1, xi2 = params[:, 0], params[:, 1], params[:, 2]
        q1 = np.cos(eta) * np.cos(xi1)
        q2 = np.cos(eta) * np.sin(xi1)
        q3 = np.sin(eta) * np.cos(xi2)
        q4 = np.sin(eta) * np.sin(xi2)
        denom = 1.0 - q4
        return np.stack([q1 / denom, q2 / denom, q3 / denom], axis=1)

    def density(params):
        eta = params[:, 0]
        base = np.sin(eta) * np.cos(eta)
        if weights is not None:
            k1, k2 = weights
            w2 = k1 * k1 * np.cos(eta) ** 2 + k2 * k2 * np.sin(eta) ** 2
            base = base / w2 ** 1.5
        return base

    return VolumeParametrization(name=name, box=((0.0, np.pi / 2), (0.0, 2 * np.pi), (0.0, 2 * np.pi)),
                                 chart_map=chart_map, density=density)


def _euclidean_parallel() -> CatalogEntry:
    man = manifold_from_exprs("euclidean_parallel", _FLAT)
    fld = UnitField.from_exprs("parallel_z", ("0", "0", "1"))
    return CatalogEntry(
        name="euclidean_parallel", manifold=man, field=fld,
        expected={"contact_abs": 0.0, "beta_norm": 0.0, "beta_rank": 0,
                  "eig_kind": "real", "Delta": 0.0, "delta": 0.0, "ric_X": 0.0,
                  "killing_max": 1e-8},
        notes="flat space, constant vertical field; shape operator vanishes, "
              "plane field integrable",
        grid=GridSpec((-1.5, -1.5, -1.5), (1.5, 1.5, 1.5), (5, 5, 5)),
        orbit=OrbitSpec((0.1, -0.2, 0.3)),
        space_form_c=0.0)


_SKEW_DEN = "sqrt((1 + x3^2)*(1 + x3^2 + x1^2 + x2^2))"


def _euclidean_skew() -> CatalogEntry:
    man = manifold_from_exprs("euclidean_skew", _FLAT)
    fld = UnitField.from_exprs("skew_lines", (
        f"(x3*x1 - x2)/{_SKEW_DEN}",
        f"(x1 + x3*x2)/{_SKEW_DEN}",
        "sqrt((1 + x3^2)/(1 + x3^2 + x1^2 + x2^2))",
    ))
    return CatalogEntry(
        name="euclidean_skew", manifold=man, field=fld,
        expected={"contact_abs_min": 1e-3, "eig_kind": "complex"},
        notes="unit field directing a skew fibration of flat space by "
              "straight lines; contact everywhere",
        grid=GridSpec((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0), (5, 5, 5)),
        orbit=OrbitSpec((0.2, -0.3, 0.1)),
        space_form_c=0.0)


_ROUND_S3 = tuple(tuple(("4/(1 + x1^2 + x2^2 + x3^2)^2" if i == j else "0") for j in range(3))
                  for i in range(3))

_HOPF_COMPONENTS = ("x1*x3 - x2", "x2*x3 + x1", "x3^2 + (1 - x1^2 - x2^2 - x3^2)/2")


def _s3_hopf() -> CatalogEntry:
    man = manifold_from_exprs("s3_hopf", _ROUND_S3)
    man.volume_param = _hopf_parametrization()
    fld = UnitField.from_exprs("hopf", _HOPF_COMPONENTS)
    return CatalogEntry(
        name="s3_hopf", manifold=man, field=fld,
        expected={"contact_abs": 2.0, "eig_kind": "complex", "disc_max": -0.5,
                  "Delta": 1.0, "delta": 1.0, "ric_X": 2.0, "beta_rank": 2,
                  "killing_max": 1e-8},
        notes="round 3-sphere in the stereographic chart with the unit Hopf "
              "field; isometric flow, contact defect 2",
        grid=GridSpec((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0), (5, 5, 5)),
        orbit=OrbitSpec((0.3, 0.2, 0.1)),
        space_form_c=1.0)


def _s3_weighted(k1: float, k2: float) -> CatalogEntry:
    w1, w2 = (repr(k).removesuffix(".0") for k in (k1, k2))  # shortest round trip, 2 for 2.0
    name = f"s3_weighted({w1},{w2})"
    q = (f"4*{k1 * k1!r}*(x1^2 + x2^2) + "
         f"{k2 * k2!r}*(4*x3^2 + (x1^2 + x2^2 + x3^2 - 1)^2)")
    metric = tuple(tuple((f"4/({q})" if i == j else "0") for j in range(3)) for i in range(3))
    man = manifold_from_exprs(name, metric)
    man.volume_param = _hopf_parametrization((k1, k2), f"hopf_weighted_{w1}_{w2}")
    fld = UnitField.from_exprs(f"weighted_hopf_{w1}_{w2}", (
        f"{k2!r}*x1*x3 - {k1!r}*x2",
        f"{k1!r}*x1 + {k2!r}*x2*x3",
        f"{k2!r}*(x3^2 + (1 - x1^2 - x2^2 - x3^2)/2)",
    ))
    return CatalogEntry(
        name=name, manifold=man, field=fld,
        expected={"contact_abs_min": 1e-6, "killing_max": 1e-8},
        notes="weighted circle action on the 3-sphere; the metric is rescaled "
              "by 1/|W|^2 so the generating field has unit length and "
              "isometric flow",
        grid=GridSpec((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0), (5, 5, 5)),
        orbit=OrbitSpec((0.3, 0.2, 0.1)),
        space_form_c=k1 * k1 if k1 * k1 == k2 * k2 else None)  # |W| = |k1|: radius 1/|k1|


def _h2xr_vertical() -> CatalogEntry:
    man = manifold_from_exprs(
        "h2xr_vertical",
        (("1/x2^2", "0", "0"), ("0", "1/x2^2", "0"), ("0", "0", "1")),
        domain="x2")
    fld = UnitField.from_exprs("vertical_h2", ("0", "x2", "0"))
    return CatalogEntry(
        name="h2xr_vertical", manifold=man, field=fld,
        expected={"contact_abs": 0.0, "beta_rank": 1, "eig_kind": "real",
                  "Delta": 0.0, "delta": -1.0, "ric_X": -1.0,
                  "real_eigs_sorted": (-1.0, 0.0)},
        notes="hyperbolic half-plane times a line with the upward field; "
              "rank-1 shape operator, plane field integrable",
        grid=GridSpec((-1.0, 0.25, -1.0), (1.0, 2.75, 1.0), (5, 5, 5)),
        orbit=OrbitSpec((0.1, 1.0, -0.2)),
        space_form_c=None)


def _h3_vertical() -> CatalogEntry:
    man = manifold_from_exprs(
        "h3_vertical",
        (("1/x3^2", "0", "0"), ("0", "1/x3^2", "0"), ("0", "0", "1/x3^2")),
        domain="x3")
    fld = UnitField.from_exprs("vertical_h3", ("0", "0", "x3"))
    return CatalogEntry(
        name="h3_vertical", manifold=man, field=fld,
        expected={"contact_abs": 0.0, "beta": ((-1.0, 0.0), (0.0, -1.0)),
                  "beta_rank": 2, "eig_kind": "real",
                  "real_eigs_sorted": (-1.0, -1.0),
                  "Delta": -1.0, "delta": -1.0, "ric_X": -2.0},
        notes="hyperbolic half-space with the vertical geodesic field; "
              "beta = -id, plane field integrable",
        grid=GridSpec((-1.0, -1.0, 0.25), (1.0, 1.0, 2.75), (5, 5, 5)),
        orbit=OrbitSpec((0.0, 0.0, 1.0)),
        space_form_c=-1.0)


def _heisenberg_reeb() -> CatalogEntry:
    man = manifold_from_exprs(
        "heisenberg_reeb",
        (("1", "0", "0"), ("0", "1 + x1^2", "-x1"), ("0", "-x1", "1")))
    fld = UnitField.from_exprs("heisenberg_z", ("0", "0", "1"))
    return CatalogEntry(
        name="heisenberg_reeb", manifold=man, field=fld,
        expected={"contact_abs": 1.0, "eig_kind": "complex", "beta_rank": 2,
                  "Delta": 0.25, "delta": 0.25, "ric_X": 0.5,
                  "killing_max": 1e-8},
        notes="nilpotent group metric dx1^2 + dx2^2 + (dx3 - x1 dx2)^2 with "
              "its central field; isometric flow, contact defect 1",
        grid=GridSpec((-1.5, -1.5, -1.5), (1.5, 1.5, 1.5), (5, 5, 5)),
        orbit=OrbitSpec((0.3, -0.2, 0.1)))


_BUILDERS = {
    "euclidean_parallel": _euclidean_parallel,
    "euclidean_skew": _euclidean_skew,
    "s3_hopf": _s3_hopf,
    "h2xr_vertical": _h2xr_vertical,
    "h3_vertical": _h3_vertical,
    "heisenberg_reeb": _heisenberg_reeb,
}

_WEIGHTED = re.compile(r"s3_weighted\(\s*([-+0-9.eE]+)\s*,\s*([-+0-9.eE]+)\s*\)$")

#: canonical listing order; s3_weighted is shown in its parametrised form
NAMES = ("euclidean_parallel", "euclidean_skew", "s3_hopf", "s3_weighted(k1,k2)",
         "h2xr_vertical", "h3_vertical", "heisenberg_reeb")

#: weighted instance used whenever a concrete entry is needed for "all"
DEFAULT_WEIGHTED = "s3_weighted(2,3)"


def builtin(name: str) -> CatalogEntry:
    """Look up a catalog entry; weights parse from e.g. 's3_weighted(2,3)'."""
    if name in _BUILDERS:
        return _BUILDERS[name]()
    m = _WEIGHTED.match(name.strip())
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
    return [(name, entry.notes) for name, entry in zip(NAMES, all_entries())]


# ---------------------------------------------------------------------------
# Self-check of the expected templates
# ---------------------------------------------------------------------------

def self_check(entry: CatalogEntry):
    """Compare measured diagnostics on the entry's grid with its expected template.

    Returns a list of mismatch descriptions (empty when the entry is
    healthy). Always enforces the unit (1e-8) and geodesic (1e-6) defect bounds.
    """
    pts = entry.grid.points()
    exp = entry.expected
    diag = diagnose(entry.manifold, entry.field, pts)
    disc = trace_discriminant(diag.B)[1]
    bad = []
    for k, p in enumerate(pts):
        where = np.array2string(p, precision=3)

        def complain(key, got):
            bad.append(f"{entry.name} at {where}: {key} expected {exp[key]!r}, got {got!r}")

        contact, B = float(diag.contact_defect[k]), diag.B[k]
        kind = "complex" if diag.complex[k] else "real"
        if diag.unit_defect[k] > 1e-8:
            bad.append(f"{entry.name} at {where}: unit defect {diag.unit_defect[k]:.2e}")
        if diag.geodesic_defect[k] > 1e-6:
            bad.append(f"{entry.name} at {where}: geodesic defect {diag.geodesic_defect[k]:.2e}")
        if "contact_abs" in exp and abs(abs(contact) - exp["contact_abs"]) > \
                (ZERO_DEFECT_TOL if exp["contact_abs"] == 0.0 else VALUE_TOL):
            complain("contact_abs", contact)
        if "contact_abs_min" in exp and abs(contact) <= exp["contact_abs_min"]:
            complain("contact_abs_min", contact)
        if "beta_norm" in exp and abs(np.linalg.norm(B) - exp["beta_norm"]) > VALUE_TOL:
            complain("beta_norm", float(np.linalg.norm(B)))
        if "beta" in exp and np.abs(B - np.asarray(exp["beta"])).max() > VALUE_TOL:
            complain("beta", B)
        if "beta_rank" in exp and diag.beta_rank[k] != exp["beta_rank"]:
            complain("beta_rank", int(diag.beta_rank[k]))
        if "eig_kind" in exp and kind != exp["eig_kind"]:
            complain("eig_kind", kind)
        if "real_eigs_sorted" in exp:
            got = tuple(sorted(diag.eig_re[k].tolist())) if kind == "real" else kind
            if kind != "real" or max(abs(a - b) for a, b in
                                     zip(got, exp["real_eigs_sorted"])) > VALUE_TOL:
                complain("real_eigs_sorted", got)
        if "disc_max" in exp and disc[k] >= exp["disc_max"]:
            complain("disc_max", float(disc[k]))
        for key in ("Delta", "delta", "ric_X"):
            if key in exp and abs(getattr(diag, key)[k] - exp[key]) > VALUE_TOL:
                complain(key, float(getattr(diag, key)[k]))
        if "killing_max" in exp and diag.killing_defect[k] > exp["killing_max"]:
            complain("killing_max", float(diag.killing_defect[k]))
    return bad
