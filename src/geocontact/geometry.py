"""Charts, metrics, frames and the differentiation backend.

Points and tangent vectors are plain numpy arrays of shape (3,) in chart
coordinates; most kernels also accept an (N, 3) batch and then return
an output with a leading batch axis.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import expr
from .errors import DegenerateSeed, NotPositiveDefinite, OutOfChart, SingularMetric

Array = np.ndarray

#: default absolute step for central differences on opaque functions
DEFAULT_DIFF_STEP = 1e-5

#: residual bound enforced on constructed orthonormal frames
FRAME_TOL = 1e-10

#: sine of the angle below which a seed counts as parallel to the field
SEED_ANGLE_TOL = 1e-6

_STD_BASIS = np.eye(3)


def as_points(p):
    """Normalise input to an (N, 3) float array; report if it was a single point."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim == 1:
        if arr.shape != (3,):
            raise ValueError("a point has exactly 3 coordinates")
        return arr[None, :], True
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("expected shape (3,) or (N, 3)")
    return arr, False


@dataclass(frozen=True)
class VolumeParametrization:
    """Rectangular parameter box mapped onto the manifold for quadrature.

    ``chart_map`` sends (N, 3) parameter tuples to chart points, ``density``
    gives the Riemannian volume density relative to the parameter measure.
    """

    name: str
    box: tuple  # ((a1, b1), (a2, b2), (a3, b3))
    chart_map: Callable[[Array], Array]
    density: Callable[[Array], Array]


@dataclass
class ChartedManifold:
    """A single chart: metric field plus domain predicate on an open set.

    ``diff_mode`` and ``diff_step`` choose how ``_jet`` differentiates chart
    data: exactly with dual numbers where the data has an expression table
    (``metric_exprs`` for the metric) and the mode is "dual", by central
    differences with step ``diff_step`` otherwise.
    """

    name: str
    metric_fn: Callable[[Array], Array]  # (N, 3) -> (N, 3, 3)
    domain_fn: Callable[[Array], Array]  # (N, 3) -> (N,) bool
    metric_exprs: Optional[expr.ExprTable] = None  # the metric as a 3x3 table
    diff_mode: str = "dual"
    diff_step: float = DEFAULT_DIFF_STEP
    volume_param: Optional[VolumeParametrization] = field(default=None, repr=False)

    def metric_at(self, p) -> Array:
        """g at a point, or at an (N, 3) batch; raises NotPositiveDefinite naming
        the first point where g is not positive definite."""
        pts, single = as_points(p)
        g = np.asarray(self.metric_fn(pts), dtype=float)
        _require_positive_definite(self, pts, g)
        return g[0] if single else g

    def contains(self, p):
        pts, single = as_points(p)
        ok = np.asarray(self.domain_fn(pts), dtype=bool) & np.all(np.isfinite(pts), axis=1)
        return bool(ok[0]) if single else ok

    def require_inside(self, p):
        """Raise OutOfChart naming the first point (of a batch) outside the chart."""
        pts = as_points(p)[0]
        ok = self.contains(pts)
        if not ok.all():
            raise OutOfChart(f"point {pts[np.argmin(ok)]} outside the chart of {self.name!r}")


def _require_positive_definite(man: ChartedManifold, pts, g):
    """Raise NotPositiveDefinite naming the first point of the batch where a
    leading principal minor of g (N, 3, 3) is not positive (Sylvester's
    criterion). Every g handed out as the metric passes this check."""
    g00, g01, g02, g10, g11, g12, g20, g21, g22 = g.reshape(-1, 9).T
    minor2 = g00 * g11 - g01 * g10
    det = g22 * minor2 - g21 * (g00 * g12 - g02 * g10) + g20 * (g01 * g12 - g02 * g11)
    ok = np.minimum(np.minimum(g00, minor2), det) > 0.0  # False at NaN too
    if not ok.all():
        raise NotPositiveDefinite(
            f"metric of {man.name!r} is not positive definite at {pts[np.argmin(ok)]}")


def _require_finite_metric(man: ChartedManifold, pts, g):
    """Raise SingularMetric naming the first point of the batch where g is not finite."""
    ok = np.isfinite(g.reshape(len(pts), 9)).all(axis=1)
    if not ok.all():
        raise SingularMetric(
            f"metric of {man.name!r} numerically singular at {pts[np.argmin(ok)]}: not finite")


def manifold_from_exprs(name, entries, domain="true", **kwargs) -> ChartedManifold:
    """Build a chart from 3x3 metric expression strings and a domain expression.

    Only the upper triangle of ``entries`` is read (the metric is symmetric
    by storage). ``domain`` is either the literal "true" or an expression
    whose positivity defines the chart.
    """
    table = expr.ExprTable.of([[expr.parse(entries[min(i, j)][max(i, j)]) for j in range(3)]
                               for i in range(3)])

    if isinstance(domain, str):
        if domain.strip() == "true":
            def domain_fn(pts):
                return np.ones(pts.shape[0], dtype=bool)
        else:
            dom = expr.ExprTable.of(expr.parse(domain))

            def domain_fn(pts):
                return expr.eval_scalar(dom, pts) > 0.0
    else:
        domain_fn = domain

    return ChartedManifold(name=name, metric_fn=table.evaluate,
                           domain_fn=domain_fn, metric_exprs=table, **kwargs)


# ---------------------------------------------------------------------------
# Derivatives
# ---------------------------------------------------------------------------

def _jet(man: ChartedManifold, fn, pts, table=None, check=None):
    """Value and first partials of chart data at an (N, 3) batch.

    The one place that decides how a derivative is taken, behind the public
    ``metric_partials``, ``christoffel(_with_partials)`` and
    ``vector_jacobian``. ``fn`` maps an (N, 3) batch to values of shape
    (N, *S); ``table`` is the same data as an ``expr.ExprTable``, when there
    is one. Returns (val, d): val (N, *S) and d[:, k] = d_k val, (N, 3, *S):

    - with a table and ``man.diff_mode == "dual"``, exactly, by one call of
      the table's compiled value-and-partials code;
    - otherwise by central differences with step ``man.diff_step``: the
      centre and its six axis shifts, ordered (+1, -1, +2, -2, +3, -3), are
      one batch of ``fn`` and one chart check. ``check(man, batch, values)``,
      if given, vets the values of the whole stencil before they are
      differenced.
    """
    if table is not None and man.diff_mode == "dual":
        man.require_inside(pts)
        jet = expr.eval_dual(table, pts)
        return jet.value, jet.partials
    h = man.diff_step
    batch = (pts + _stencil(h)).reshape(-1, 3)
    man.require_inside(batch)
    out = np.asarray(fn(batch), dtype=float)
    if check is not None:
        check(man, batch, out)
    out = out.reshape((7, pts.shape[0]) + out.shape[1:])
    return out[0], ((out[1::2] - out[2::2]) / (2 * h)).swapaxes(0, 1)


@functools.lru_cache(maxsize=8)
def _stencil(h):
    """Offsets of the centre and its axis shifts (+1, -1, +2, -2, +3, -3) by h,
    shape (7, 1, 3); -0.0 where a coordinate stays, as x + -0.0 is x bit for bit."""
    shift = np.full((7, 1, 3), -0.0)
    for k in range(3):
        shift[1 + 2 * k, 0, k], shift[2 + 2 * k, 0, k] = h, -h
    return shift


def metric_partials(man: ChartedManifold, p):
    """First partials of the metric: dg[..., k, i, j] = d_k g_ij."""
    pts, single = as_points(p)
    dg = _jet(man, man.metric_fn, pts, man.metric_exprs, _require_finite_metric)[1]
    return dg[0] if single else dg


# ---------------------------------------------------------------------------
# Inner products and frames
# ---------------------------------------------------------------------------

def inner(gm, v, w):
    """g-inner product; supports (3, 3) with (3,) vectors or batched (N, ...) input."""
    gm = np.asarray(gm, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if gm.ndim == 2:
        return float(v @ gm @ w)
    return np.einsum("ni,nij,nj->n", v, gm, w)


def g_norm(gm, v):
    return np.sqrt(inner(gm, v, v))


@dataclass(frozen=True)
class Frame:
    """g-orthonormal frame (X, e1, e2) at a point, X the unit field value."""

    X: Array
    e1: Array
    e2: Array

    def basis(self):
        return self.X, self.e1, self.e2


def frame_at(gm, X, orientation: int = 1) -> Frame:
    """Orthonormal frame (X, e1, e2) at one point: the N = 1 case of ``frames_at``.

    ``X`` need not be unit; the frame carries its g-normalisation.
    """
    gm = np.asarray(gm, dtype=float)
    X = np.asarray(X, dtype=float)
    Xn = X / g_norm(gm, X)
    e1, e2 = frames_at(gm[None], Xn[None], orientation=orientation)
    return Frame(Xn, e1[0], e2[0])


def frames_at(g, X, orientation: int = 1):
    """Batched g-orthonormal frames of X-perp by greedy Gram-Schmidt.

    ``g``: (N, 3, 3), ``X``: (N, 3) with unit g-norm (not checked). Returns
    (e1, e2) of shape (N, 3) each. The candidates are the standard basis
    vectors in order; a candidate within angle SEED_ANGLE_TOL of the span of
    X and the vectors already taken is skipped. e2 is flipped where needed
    so that det[X e1 e2] has the sign of ``orientation`` in chart
    coordinates.
    """
    g = np.asarray(g, dtype=float)
    X = np.asarray(X, dtype=float)
    n = g.shape[0]
    picked = []
    used = np.zeros((n, 3), dtype=bool)  # candidate k already consumed
    for _ in range(2):
        e = np.zeros((n, 3))
        have = np.zeros(n, dtype=bool)
        for k in range(3):
            cand = np.broadcast_to(_STD_BASIS[k], (n, 3))
            v = cand - inner(g, cand, X)[:, None] * X
            for u in picked:
                v = v - inner(g, v, u)[:, None] * u
            norm = g_norm(g, v)
            ok = (~have) & (~used[:, k]) & (norm > SEED_ANGLE_TOL * g_norm(g, cand))
            e[ok] = v[ok] / norm[ok, None]
            used[ok, k] = True
            have |= ok
        if not np.all(have):
            raise DegenerateSeed("standard basis failed to span the complement")
        picked.append(e)
    e1, e2 = picked
    det = np.linalg.det(np.stack([X, e1, e2], axis=2))
    flip = orientation * det < 0
    e2[flip] = -e2[flip]
    return e1, e2
