"""Theorem-level verdict suites over grids and orbits, plus the contact
volume quadrature.

Each suite reads a ``diagnose`` batch of its samples and builds two boolean
masks over its rows: where the hypotheses of the named statement hold (within
tolerances) and where its conclusion does; a violation is a sample with
hypotheses satisfied but conclusion failed. The suites of one entry share one
``Samples``: one diagnosis of its grid and one constant-curvature check.
Numerical floors make the exact statements decidable:

    |B21 - B12| <= not_contact   counts as "not contact at the sample"
    |B21 - B12| >  contact_floor counts as "contact at the sample"
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np

from .catalog import CatalogEntry
from .curvature import jacobi_tensor_drift, sectional
from .errors import ConfigError, NoParametrization, NotConstantCurvature
from .field import SCALAR_COLUMNS, Diagnosis, _contact_form, diagnose
from .flow import integrate_orbits, max_parallel_jacobi_defect, orbit_points
from .geometry import _exact

THEOREM_IDS = ("T3.1", "C3.2", "T5.1", "C5.2", "T6.1", "P7.6")

#: default nodes per axis of the contact volume quadrature
VOLUME_NODES = 32


@dataclass
class Tolerances:
    """Numerical floors, all config-overridable. ``unit_defect`` and
    ``geodesic_defect`` set ``analyze``'s exit code alone: ``verify`` and
    ``orbit`` require a unit field to ``field.UNIT_TOL`` whatever they say."""

    unit_defect: float = 1e-6
    geodesic_defect: float = 1e-6
    not_contact: float = 1e-8
    contact_floor: float = 1e-6
    killing: float = 1e-8
    hypothesis: float = 1e-6
    orbit_residual: float = 1e-4


@dataclass
class TheoremReport:
    theorem: str
    entry: str
    samples: int
    hypothesis_satisfied: int
    conclusion_satisfied: int
    violations: list  # the ``_violation`` record of each violating row
    verdict: str      # consistent | violated | hypotheses-not-met
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)


def _violation(diag: Diagnosis, k) -> dict:
    """Row k of ``diag`` as the JSON record of a violation."""
    re, im = diag.eig_re[k].tolist(), diag.eig_im[k].tolist()
    eigen = ({"kind": "complex", "a": re[0], "b": im[0]} if diag.complex[k]
             else {"kind": "real", "lam": re[0], "mu": re[1]})
    return {"point": diag.p[k].tolist(), "beta_rank": int(diag.beta_rank[k]), "eigen": eigen,
            **{name: float(getattr(diag, name)[k]) for name in SCALAR_COLUMNS}}


def _finish(theorem, entry_name, diag: Diagnosis, hyp, concl, details=None):
    """Report from the hypothesis and conclusion masks over the rows of ``diag``.

    A mask is (N,) or a scalar that holds for every row.
    """
    hyp, concl = (np.broadcast_to(mask, len(diag)) for mask in (hyp, concl))
    bad = np.flatnonzero(hyp & ~concl)
    n_hyp = int(hyp.sum())
    verdict = "violated" if bad.size else "consistent" if n_hyp else "hypotheses-not-met"
    return TheoremReport(theorem=theorem, entry=entry_name, samples=len(diag),
                         hypothesis_satisfied=n_hyp,
                         conclusion_satisfied=int((hyp & concl).sum()),
                         violations=[_violation(diag, k) for k in bad], verdict=verdict,
                         details=details or {})


class Samples:
    """The sample points of an entry's suites and what the suites read there:
    one ``diagnose`` batch and one constant-curvature check per c, each
    computed when a suite first asks for it and kept from then on.

    ``given`` is the (N, 3) array of points passed in, or None for the
    entry's grid. The suites of one ``verify_entry`` call share one
    ``Samples``, so the errors of bad input come from the first suite that
    needs the quantity, as they would with no sharing.
    """

    def __init__(self, entry: CatalogEntry, points=None):
        self.entry = entry
        self.given = None if points is None else np.asarray(points, float)
        self._diagnosis = None
        self._spreads = {}

    def points(self) -> np.ndarray:
        if self.given is not None:
            return self.given
        if self.entry.grid is None:
            raise ConfigError(f"{self.entry.name} has no sample grid; provide one")
        return self.entry.grid.points()

    def diagnosis(self) -> Diagnosis:
        if self._diagnosis is None:
            self._diagnosis = diagnose(self.entry.manifold, self.entry.field, self.points())
        return self._diagnosis

    def curvature_spread(self, c) -> float:
        """``check_constant_curvature`` at these points."""
        if c not in self._spreads:
            self._spreads[c] = check_constant_curvature(self.entry, c, self.points())
        return self._spreads[c]


def _samples(entry: CatalogEntry, points) -> Samples:
    """``points`` if it is a shared ``Samples``, else the entry's own ``Samples`` of them."""
    return points if isinstance(points, Samples) else Samples(entry, points)


# ---------------------------------------------------------------------------
# Space forms
# ---------------------------------------------------------------------------

def check_constant_curvature(entry: CatalogEntry, c, points):
    """Sectional spread over random planes; NotConstantCurvature above 1e-4."""
    rng = np.random.default_rng(0)
    pts = np.asarray(points, float)
    sel = pts[rng.choice(len(pts), size=min(10, len(pts)), replace=False)]
    planes = rng.standard_normal((len(sel), 5, 2, 3))  # 5 planes (v, w) per point
    values = sectional(entry.manifold, np.repeat(sel, 5, axis=0),
                       planes[:, :, 0].reshape(-1, 3), planes[:, :, 1].reshape(-1, 3))
    spread = float(values.max() - values.min())
    if spread > 1e-4 or abs(values.mean() - c) > 1e-4:
        raise NotConstantCurvature(
            f"{entry.name}: sectional values in [{values.min():.6f}, {values.max():.6f}], "
            f"expected constant {c}")
    return spread


def verify_space_form(entry: CatalogEntry, c: float, points=None,
                      theorem: str = "T5.1", tol: Optional[Tolerances] = None) -> TheoremReport:
    """Eigenvalue bounds (T5.1) or contact conclusions (C5.2) on a space form.

    For curvature c the real eigenvalues of the shape operator must be
    absent (c > 0), zero (c = 0) or bounded by sqrt(|c|) in absolute value
    (c < 0); the corollary form translates these into contact verdicts.
    """
    tol = tol or Tolerances()
    if theorem not in ("T5.1", "C5.2"):
        raise ConfigError(f"verify_space_form handles T5.1/C5.2, not {theorem!r}")
    samples = _samples(entry, points)
    spread = samples.curvature_spread(c)
    diag = samples.diagnosis()
    # a real pair within the bound sqrt(|c|)
    bounded = ~diag.complex & (np.abs(diag.eig_re).max(axis=1) <= np.sqrt(abs(c)) + tol.hypothesis)
    if theorem == "T5.1":
        concl = diag.complex | (bounded & (c <= 0))
    else:
        defect = np.abs(diag.contact_defect)
        is_contact = defect > tol.contact_floor
        if c > 0:
            concl = is_contact
        elif c == 0:
            nonzero_beta = np.linalg.norm(diag.B, axis=(1, 2)) > tol.hypothesis
            concl = is_contact == nonzero_beta
        else:
            concl = (defect > tol.not_contact) | bounded
    # constant curvature holds globally (prechecked)
    return _finish(theorem, entry.name, diag, True, concl,
                   details={"c": c, "sectional_spread": spread})


# ---------------------------------------------------------------------------
# Ricci criteria
# ---------------------------------------------------------------------------

def verify_ricci(entry: CatalogEntry, points=None, theorem: str = "C3.2",
                 tol: Optional[Tolerances] = None) -> TheoremReport:
    """Nonnegative-Ricci contact criterion (C3.2) or the non-contact
    dichotomy (T3.1): at a non-contact sample either Ric(X) < 0 or both
    Ric(X) and beta vanish. Both assume a complete flow, as T6.1 does; on the
    README's warped chart, whose flow is not complete, both report violations."""
    tol = tol or Tolerances()
    if theorem not in ("C3.2", "T3.1"):
        raise ConfigError(f"verify_ricci handles C3.2/T3.1, not {theorem!r}")
    diag = _samples(entry, points).diagnosis()
    small_beta = np.linalg.norm(diag.B, axis=(1, 2)) <= tol.hypothesis
    defect = np.abs(diag.contact_defect)
    if theorem == "C3.2":
        hyp = (diag.ric_X >= -tol.hypothesis) & ~small_beta
        concl = defect > tol.contact_floor
    else:
        hyp = defect <= tol.not_contact
        flat = (np.abs(diag.ric_X) <= tol.hypothesis) & small_beta
        concl = (diag.ric_X < tol.hypothesis) | flat
    return _finish(theorem, entry.name, diag, hyp, concl)


# ---------------------------------------------------------------------------
# Parallel Jacobi tensor criterion
# ---------------------------------------------------------------------------

def verify_parallel_jacobi(entry: CatalogEntry, points=None,
                           tol: Optional[Tolerances] = None) -> TheoremReport:
    """Contact criterion for fields with flow-parallel Jacobi tensor (T6.1).

    From every seed (by default the 3 x 3 x 3 subgrid) a flow segment of
    length ``T61_T_END``, at the step the report's ``orbit_step`` gives,
    measures ||nabla_X R_X|| (``_jacobi_tensor_drift``); where that
    hypothesis holds and either the largest mixed curvature is positive or it
    vanishes with full-rank beta, the sample must be contact.

    Completeness of the field, which the underlying statement needs, is not
    measurable from finitely many samples and is assumed (it holds for every
    catalog entry by construction).
    """
    tol = tol or Tolerances()
    pts = _samples(entry, points).given
    if pts is None:
        if entry.grid is None:
            raise ConfigError(f"{entry.name} has no sample grid; provide seeds")
        pts = entry.grid.subgrid((3, 3, 3)).points()
    # diagnose rows do not depend on their batch; T6.1 runs its own because its
    # 3 x 3 x 3 seeds need not be grid points
    diag = diagnose(entry.manifold, entry.field, pts)
    drift = _jacobi_tensor_drift(entry, pts)
    rank_ii = (np.abs(diag.Delta) <= tol.hypothesis) & (diag.beta_rank == 2)
    hyp = (drift < tol.hypothesis) & ((diag.Delta > tol.hypothesis) | rank_ii)
    man = entry.manifold
    step = T61_STEP if _exact(man, man.metric_exprs) else T61_CENTRAL_STEP
    return _finish("T6.1", entry.name, diag, hyp, np.abs(diag.contact_defect) > tol.contact_floor,
                   details={"max_jacobi_tensor_drift": float(np.max(drift)),
                            "orbit_t_end": T61_T_END, "orbit_step": step})


#: T6.1's flow segment from each seed: its length, and its RK4 step on a chart
#: ``_jet`` differentiates exactly, which is its sample spacing: the drift read
#: at each sample is exact, so the step only places the points, and RK4 at 1e-2
#: places them within 3.8e-8 of a step-1e-3 orbit, far below
#: ``tolerances.hypothesis``. On a chart differentiated centrally M is
#: differenced along the orbit, at the finer step.
T61_T_END = 0.1
T61_STEP = 1e-2
T61_CENTRAL_STEP = 1e-3


def _jacobi_tensor_drift(entry: CatalogEntry, pts):
    """Per seed of pts (N, 3), the largest ||nabla_X R_X|| along its flow
    segment, from t = 0 to ``T61_T_END``: the hypothesis of T6.1 is about the
    flow line, not the seed.

    Where ``_jet`` differentiates the metric exactly, the segment is points
    alone (``orbit_points``) at step ``T61_STEP``, and ``jacobi_tensor_drift``
    gives the exact g-Frobenius norm at every sample the seed keeps: 11 for a
    whole segment, of which 0 is the seed. As each read is exact, the step is
    the sample spacing; it only places the points. On a chart differentiated
    centrally, a third partial by nested central differences would be noise
    (about eps / h^3), so the estimate is the orbit's: M in the transported
    frame, differenced over a window of half the segment
    (``max_parallel_jacobi_defect``), from the orbits ``integrate_orbits``
    gives at step ``T61_CENTRAL_STEP``. Their blocks need Gamma's partials at
    every stage, so a seed stops before its first step with a stage whose
    curvature stencil (2 diff_step) leaves the chart, or whose end's stencil
    does. Where a stage's stencil leaves the chart while Gamma's own (a
    diff_step reach) and its step end's stencil do not, the seed stops before
    a step that Gamma at the stages alone, with the end check, would let it
    make.
    """
    man, X = entry.manifold, entry.field
    if not _exact(man, man.metric_exprs):
        return np.array([max_parallel_jacobi_defect(traj, window=T61_T_END / 2)
                         for traj in integrate_orbits(man, X, pts, T61_T_END, T61_CENTRAL_STEP)])
    points, samples = orbit_points(man, X, pts, T61_T_END, T61_STEP)
    rows = np.arange(points.shape[1]) < samples[:, None]
    return np.maximum.reduceat(jacobi_tensor_drift(man, X, points[rows]),
                               np.cumsum(samples) - samples)


# ---------------------------------------------------------------------------
# Contact volume
# ---------------------------------------------------------------------------

@dataclass
class VolumeResult:
    value: float
    nodes: int
    estimated_error: float
    parametrization: str

    def to_dict(self):
        return asdict(self)


#: grid rows per block of the volume quadrature: two planes of a 64-node grid.
#: Interleaved over 25 rounds in one process on a 2-vCPU Xeon VM (numpy 2.4),
#: the two 64-node volumes took medians of 145-148 ms in blocks of 4,096 rows,
#: 128-129 ms at 8,192, 127-128 ms at 12,288 and 135-136 ms at 16,384: 8,192
#: is the smallest block as fast as any, and the peak memory grows with it.
VOLUME_BLOCK_ROWS = 8192


def _grid_blocks(nodes: int, size: int) -> list:
    """The rows of the nodes^3 grid, in ``meshgrid(..., indexing="ij")`` order,
    as blocks of at most ``size`` rows (one row of nodes at least), each a
    box (i, a, j, b): u1-planes i:i+a, their u2-rows j:j+b and every u3 node,
    so a contiguous range of rows. A block is k whole planes where a plane
    fits in ``size`` rows, else k u2-rows of one plane; blocks run in row order."""
    if nodes * nodes <= size:
        a = size // (nodes * nodes)
        return [(i, min(a, nodes - i), 0, nodes) for i in range(0, nodes, a)]
    b = max(1, size // nodes)
    return [(i, 1, j, min(b, nodes - j)) for i in range(nodes) for j in range(0, nodes, b)]


def _midpoint_value(entry: CatalogEntry, nodes: int) -> float:
    """Midpoint rule on the nodes^3 tensor grid, in ``_grid_blocks`` of at
    most VOLUME_BLOCK_ROWS rows, in row order.

    Each block hands the parametrization its box as open-grid axis slices and
    writes ``_contact_form`` times the Jacobian at the chart points into its
    rows of one array, and one ``np.sum`` adds them as a single kernel call's
    array would (pairwise summation depends on the array, so per-block sums
    would not). The value does not depend on the block size, and the error
    raised is that of the first block that fails."""
    rows = nodes ** 3
    try:
        products = np.empty(rows)
    except (MemoryError, ValueError):  # ValueError: more bytes than numpy can address
        raise ConfigError(f"nodes = {nodes} makes {rows} grid rows, more than fit in memory") \
            from None
    param = entry.manifold.volume_param
    u1, u2, u3 = ((np.arange(nodes) + 0.5) * (hi - lo) / nodes + lo for lo, hi in param.box)
    cell = np.prod([(hi - lo) / nodes for lo, hi in param.box])
    for i, a, j, b in _grid_blocks(nodes, VOLUME_BLOCK_ROWS):
        params = (u1[i:i + a, None, None], u2[None, j:j + b, None], u3[None, None, :])
        points = param.chart_map(params)
        start = (i * nodes + j) * nodes
        products[start:start + a * b * nodes] = (
            _contact_form(entry.manifold, entry.field, points.reshape(-1, 3))[0]
            * param.jacobian(params, points).ravel())
    return float(np.sum(products) * cell)


def volume_integral(entry: CatalogEntry, nodes: int) -> VolumeResult:
    """Contact volume by midpoint quadrature: the integral of alpha ^ d(alpha)
    for alpha = g(X, .) with X as given, through the chart map alone, in the
    orientation of the parametrization; for a unit X, the contact defect
    integrated against the Riemannian volume. ``estimated_error`` is the
    difference against the half-resolution grid, which 4 nodes per axis or
    more keep at 2 nodes or more and apart from this one."""
    if entry.manifold.volume_param is None:
        raise NoParametrization(f"{entry.name} has no integration parametrization")
    if nodes < 4:
        raise ConfigError("need at least 4 nodes per axis")
    value = _midpoint_value(entry, nodes)
    coarse = _midpoint_value(entry, nodes // 2)
    return VolumeResult(value=value, nodes=nodes,
                        estimated_error=abs(value - coarse),
                        parametrization=entry.manifold.volume_param.name)


def reebability_verdict(volume: VolumeResult, killing_defect_max: float,
                        tol: Optional[Tolerances] = None) -> str:
    """Killing fields on closed manifolds are Reeb fields iff the contact
    volume is nonzero; decided up to the quadrature error estimate."""
    tol = tol or Tolerances()
    if killing_defect_max < tol.killing:
        if abs(volume.value) > 3.0 * volume.estimated_error:
            return "reeb-realizable"
        if abs(volume.value) <= volume.estimated_error:
            return "not-reeb"
    return "inconclusive"


def verify_reebability(entry: CatalogEntry, nodes: int = VOLUME_NODES,
                       tol: Optional[Tolerances] = None, points=None) -> TheoremReport:
    """P7.6 consistency on a closed manifold, which is assumed: a Killing field
    measured contact everywhere must have nonzero contact volume (be Reeb-realizable)."""
    tol = tol or Tolerances()
    if entry.manifold.volume_param is None:
        return TheoremReport("P7.6", entry.name, 0, 0, 0, [], "hypotheses-not-met",
                             details={"reason": "no closed-manifold parametrization"})
    diag = _samples(entry, points).diagnosis()
    killing_max = float(diag.killing_defect.max())
    volume = volume_integral(entry, nodes)
    verdict_reeb = reebability_verdict(volume, killing_max, tol)
    contact_everywhere = np.all(np.abs(diag.contact_defect) > tol.contact_floor)
    return _finish("P7.6", entry.name, diag, killing_max < tol.killing,
                   verdict_reeb == "reeb-realizable" or not contact_everywhere,
                   details={"volume": volume.to_dict(),
                            "killing_defect_max": killing_max,
                            "reebability": verdict_reeb})


# ---------------------------------------------------------------------------
# Master suite
# ---------------------------------------------------------------------------

def applicable_theorems(entry: CatalogEntry):
    ids = ["T3.1", "C3.2", "T6.1"]
    if entry.space_form_c is not None:
        ids = ["T5.1", "C5.2"] + ids
    if entry.manifold.volume_param is not None:
        ids.append("P7.6")
    return ids


def run_theorem(entry: CatalogEntry, theorem: str, c: Optional[float] = None,
                points=None, tol: Optional[Tolerances] = None,
                volume_nodes: int = VOLUME_NODES) -> TheoremReport:
    """Dispatch a single theorem suite for one entry; ``points`` is an (N, 3)
    array, a ``Samples`` shared with other suites, or None for the entry's grid."""
    if theorem in ("T5.1", "C5.2"):
        cc = entry.space_form_c if c is None else c
        if cc is None:
            raise ConfigError(f"{entry.name} has no constant-curvature value; pass c")
        return verify_space_form(entry, cc, points, theorem=theorem, tol=tol)
    if theorem in ("T3.1", "C3.2"):
        return verify_ricci(entry, points, theorem=theorem, tol=tol)
    if theorem == "T6.1":
        return verify_parallel_jacobi(entry, points, tol=tol)
    if theorem == "P7.6":
        return verify_reebability(entry, nodes=volume_nodes, tol=tol, points=points)
    raise ConfigError(f"unknown theorem id {theorem!r}; known: {THEOREM_IDS}")


def verify_entry(entry: CatalogEntry, theorems, c: Optional[float] = None,
                 tol: Optional[Tolerances] = None,
                 volume_nodes: int = VOLUME_NODES) -> list[TheoremReport]:
    """The given suites for one entry in the given order, all reading one
    ``Samples`` of the entry's grid, which is dropped on return."""
    samples = Samples(entry)
    return [run_theorem(entry, theorem, c=c, points=samples, tol=tol, volume_nodes=volume_nodes)
            for theorem in theorems]


def verify_all(entries, tol: Optional[Tolerances] = None, volume_nodes: int = VOLUME_NODES,
               theorems=()):
    """Per entry, the requested suites (all by default) in the requested order,
    skipping those that do not apply to the entry; an unknown id is a ConfigError."""
    for theorem in theorems:
        if theorem not in THEOREM_IDS:
            raise ConfigError(f"unknown theorem id {theorem!r}; known: {THEOREM_IDS}")
    reports = []
    for entry in entries:
        applicable = applicable_theorems(entry)
        reports += verify_entry(entry, [t for t in theorems or applicable if t in applicable],
                                tol=tol, volume_nodes=volume_nodes)
    return reports
