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
from .errors import (DegenerateSeed, DomainError, NotPositiveDefinite, OutOfChart,
                     SingularMetric)
from .expr import as_points

Array = np.ndarray

#: default absolute step for central differences on opaque functions
DEFAULT_DIFF_STEP = 1e-5

#: sine of the angle below which a seed counts as parallel to the field
SEED_ANGLE_TOL = 1e-6

_STD_BASIS = np.eye(3)


@dataclass(frozen=True)
class VolumeParametrization:
    """Rectangular parameter box mapped onto the manifold for quadrature.

    ``params = (u1, u2, u3)`` are three arrays that broadcast to one shape S:
    the quadrature passes open-grid axis slices, shapes (a, 1, 1), (1, b, 1)
    and (1, 1, n), so that a map can take each function of one parameter
    once per axis node. ``chart_map(params)`` returns the chart points, shape
    S + (3,), and ``jacobian(params, chart_map(params))`` returns |det D
    chart_map| there, shape S: the chart's volume relative to the parameter
    measure, free of any metric. Rows (N, 3) of parameters are the case
    S = (N,): ``chart_map(tuple(rows.T))``."""

    name: str
    box: tuple  # ((a1, b1), (a2, b2), (a3, b3))
    chart_map: Callable[[tuple], Array]
    jacobian: Callable[[tuple, Array], Array]


@dataclass
class ChartedManifold:
    """A single chart: metric field plus domain predicate on an open set.

    ``diff_mode`` and ``diff_step`` choose how ``_jet`` differentiates chart
    data: exactly, from its differentiated expressions, where the data has a
    table (``metric_exprs`` for the metric) and the mode is "dual", by central
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
        """g at a point or an (N, 3) batch, checked by ``_require_metric``; the README's API."""
        pts, single = as_points(p)
        g = np.asarray(self.metric_fn(pts), dtype=float)
        _require_metric(self, pts, g)
        return g[0] if single else g

    def contains(self, p):
        """Whether a point (or each row of a batch) lies in the chart: its
        coordinates are finite and ``domain_fn`` holds there. An expression
        domain holds where its value is positive, so nowhere it is NaN or
        undefined (a DomainError): membership is total."""
        pts, single = as_points(p)
        f = np.isfinite(pts)  # three column ands: a reduction over axis 1 costs ten times more
        ok = np.asarray(self.domain_fn(pts), dtype=bool) & f[:, 0] & f[:, 1] & f[:, 2]
        return bool(ok[0]) if single else ok


#: largest 2-norm condition number max|lambda| / min|lambda| of an accepted metric
MAX_METRIC_CONDITION = 1e12


def _surely_conditioned(g):
    """Rows of g (N, 3, 3) certainly positive definite with condition number at
    most MAX_METRIC_CONDITION / 2, found without eigenvalues: by Sylvester's
    leading minors, and cond(g) = l1 / l3 = l1^2 l2 / det g <= (tr g)^3 / det g
    for eigenvalues l1 >= l2 >= l3 > 0. With every entry at most tr g in size,
    each product of det g's cofactor expansion is at most (tr g)^3, so at a row
    that passes, its rounding is below 0.2% of det g; det g between the smallest
    normal float and inf keeps underflow and overflow out. The factor 2 covers
    that rounding and eigvalsh's own. A row whose products overflow (entries
    above about 5e102) fails a test, silently: it goes to eigvalsh."""
    a, b, c = g[:, 0, 0], g[:, 1, 1], g[:, 2, 2]
    d, e, f = g[:, 1, 0], g[:, 2, 1], g[:, 2, 0]  # the lower triangle, as eigvalsh reads
    with np.errstate(over="ignore", invalid="ignore"):
        tr = a + b + c
        det = a * (b * c - e * e) - d * (d * c - e * f) + f * (d * e - b * f)
        return ((a > 0) & (a * b - d * d > 0) & (det >= np.finfo(float).tiny) & (det < np.inf)
                & (np.abs(g).max(axis=(1, 2)) <= tr)
                & (tr ** 3 <= 0.5 * MAX_METRIC_CONDITION * det))


def _require_metric(man: ChartedManifold, pts, g):
    """The one metric check, passed by every g handed out as the metric. Raises,
    naming the first such point of pts (N, 3): SingularMetric where g (N, 3, 3)
    is not finite; else NotPositiveDefinite at a conditioned row with an
    eigenvalue <= 0; else SingularMetric where cond(g) = max|lambda| / min|lambda|
    is infinite or above MAX_METRIC_CONDITION. An ill-conditioned row is never
    called indefinite: its smallest eigenvalue may have rounding's sign. One
    ``eigvalsh`` decides both on the rows ``_surely_conditioned`` cannot certify."""
    _require_finite_metric(man, pts, g)
    conditioned = _surely_conditioned(g)
    definite, rest = conditioned.copy(), ~conditioned
    if rest.any():
        lam = np.linalg.eigvalsh(g[rest])  # ascending
        size = np.abs(lam)
        small = size.min(axis=1)
        conditioned[rest] = (size.max(axis=1) <= MAX_METRIC_CONDITION * small) & (small > 0.0)
        definite[rest] = lam[:, 0] > 0.0
    indefinite = conditioned & ~definite
    if indefinite.any():
        raise NotPositiveDefinite(
            f"metric of {man.name!r} is not positive definite at {pts[np.argmax(indefinite)]}")
    if not conditioned.all():
        raise SingularMetric(
            f"metric of {man.name!r} numerically singular at {pts[np.argmin(conditioned)]}")


def _cholesky(g):
    """The factor L of g = L L^T at each row of a checked metric g (N, 3, 3),
    read from the lower triangle as ``eigvalsh`` reads it: (l11, l21, l31, l22,
    l32, l33), each (N,). Cholesky is backward stable on every positive definite
    g (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed. 2002,
    10.1), so l11 l22 l33 = sqrt(det g) keeps about cond(g) eps relative
    accuracy where the cofactor det g can lose every digit, and each l has the
    scale of sqrt(g), so it stays finite where det g underflows or overflows."""
    l11 = np.sqrt(g[:, 0, 0])
    l21, l31 = g[:, 1, 0] / l11, g[:, 2, 0] / l11
    l22 = np.sqrt(g[:, 1, 1] - l21 * l21)
    l32 = (g[:, 2, 1] - l31 * l21) / l22
    l33 = np.sqrt(g[:, 2, 2] - l31 * l31 - l32 * l32)
    return l11, l21, l31, l22, l32, l33


def _require_finite_metric(man: ChartedManifold, pts, g):
    """Raise SingularMetric naming the first point of the batch where g is not finite."""
    ok = np.isfinite(g).all(axis=(1, 2))  # no copy of a component-major g
    if not ok.all():
        raise SingularMetric(
            f"metric of {man.name!r} numerically singular at {pts[np.argmin(ok)]}: not finite")


def _require_finite_partials(X, pts, d):
    """Raise DegenerateSeed naming the first point of the batch where the first
    partials d (N, 3, 3) of the field X are not finite."""
    if not np.isfinite(d).all():
        ok = np.isfinite(d).all(axis=(1, 2))
        raise DegenerateSeed(f"field {X.name!r} has partials that are not finite "
                             f"at {pts[np.argmin(ok)]}")


def manifold_from_exprs(name, entries, domain="true", **kwargs) -> ChartedManifold:
    """Build a chart from 3x3 metric expression strings and a domain expression.

    Only the upper triangle of ``entries`` is read (the metric is symmetric
    by storage). ``domain`` is either the literal "true" or an expression
    whose positivity defines the chart; a chart with any other domain is a
    ``ChartedManifold`` built with its ``domain_fn``. A point where the domain
    expression raises DomainError is outside: the batch program stops at its
    first such row, so only then is each row evaluated by the scalar program.
    """
    table = expr.ExprTable.of([[expr.parse(entries[min(i, j)][max(i, j)]) for j in range(3)]
                               for i in range(3)])

    if domain.strip() == "true":
        def domain_fn(pts):
            return np.ones(pts.shape[0], dtype=bool)
    else:
        dom = expr.ExprTable.of(expr.parse(domain))

        def positive(x1, x2, x3):
            try:
                return dom.at_point(x1, x2, x3)[0] > 0.0
            except DomainError:
                return False

        def domain_fn(pts):
            try:
                return expr.eval_scalar(dom, pts) > 0.0
            except DomainError:
                return np.array([positive(*row) for row in pts.tolist()], dtype=bool)

    return ChartedManifold(name=name, metric_fn=table.evaluate,
                           domain_fn=domain_fn, metric_exprs=table, **kwargs)


# ---------------------------------------------------------------------------
# Derivatives
# ---------------------------------------------------------------------------

def _jet(man: ChartedManifold, fn, pts, table=None):
    """Value and first partials of chart data at an (N, 3) batch.

    The one place that decides how a derivative is taken, behind ``_metric_jet``,
    ``christoffel_with_partials``, ``covariant_jacobian`` and ``_contact_form``,
    and its own chart check: OutOfChart names the first point it evaluates
    (``_jet_points``) outside the chart. ``fn`` maps an (N, 3) batch to values
    of shape (N, *S); ``table`` is the same data as an ``expr.ExprTable``, when
    there is one. Returns (val, d): val (N, *S) and d[:, k] = d_k val, (N, 3, *S):

    - with a table and ``man.diff_mode == "dual"``, exactly, by one call of
      the compiled code of the table's jet (``expr.eval_dual``), component-major:
      val and d are views of (*S, N) and (3, *S, N) arrays, so each component
      is one contiguous (N,) row, as the metric check, ``curvature.christoffel``
      and ``field._contact_form`` read it;
    - otherwise by central differences with step ``man.diff_step``: the
      centre and its six axis shifts, ordered (+1, -1, +2, -2, +3, -3), are
      one batch of ``fn`` and one chart check.
    """
    batch = _jet_points(man, pts, table)
    inside = man.contains(batch)
    if not inside.all():
        raise OutOfChart(f"point {batch[np.argmin(inside)]} outside the chart of {man.name!r}")
    if batch is pts:
        jet = expr.eval_dual(table, pts)
        return jet.value, jet.partials
    out = np.asarray(fn(batch), dtype=float)
    out = out.reshape((7, pts.shape[0]) + out.shape[1:])
    return out[0], ((out[1::2] - out[2::2]) / (2 * man.diff_step)).swapaxes(0, 1)


def _jet_points(man: ChartedManifold, pts, table=None):
    """The points at which ``_jet`` evaluates and checks chart data: ``pts``
    itself where it differentiates exactly, else the central stencil, 7N rows
    in the order of ``_stencil`` with the rows of ``pts`` innermost."""
    if _exact(man, table):
        return pts
    return (pts + _stencil(man.diff_step)).reshape(-1, 3)


def _exact(man: ChartedManifold, table):
    """Whether ``_jet`` differentiates chart data with this table (or None) exactly."""
    return table is not None and man.diff_mode == "dual"


@functools.lru_cache(maxsize=8)
def _stencil(h):
    """Offsets of the centre and its axis shifts (+1, -1, +2, -2, +3, -3) by h,
    shape (7, 1, 3); -0.0 where a coordinate stays, as x + -0.0 is x bit for bit."""
    shift = np.full((7, 1, 3), -0.0)
    for k in range(3):
        shift[1 + 2 * k, 0, k], shift[2 + 2 * k, 0, k] = h, -h
    return shift


def _metric_jet(man: ChartedManifold, pts):
    """(g, dg) at an (N, 3) batch, dg[n, k, i, j] = d_k g_ij, g checked by ``_require_metric``:
    the one metric pass, behind ``metric_partials``, ``christoffel`` and ``_contact_form``."""
    def finite_metric(batch):  # a central stencil's metric, finite before it is differenced
        g = np.asarray(man.metric_fn(batch), dtype=float)
        _require_finite_metric(man, batch, g)
        return g

    g, dg = _jet(man, finite_metric, pts, man.metric_exprs)
    _require_metric(man, pts, g)
    return g, dg


def metric_partials(man: ChartedManifold, p):
    """First partials of the metric: dg[..., k, i, j] = d_k g_ij."""
    pts, single = as_points(p)
    dg = _metric_jet(man, pts)[1]
    return dg[0] if single else dg


# ---------------------------------------------------------------------------
# Inner products and frames
# ---------------------------------------------------------------------------

def inner(gm, v, w):
    """g-inner product of an (N, 3, 3) batch with (N, 3) vectors, (N,); a (3, 3)
    metric with (3,) vectors is the N = 1 row, as a float."""
    gm, v, w = (np.asarray(a, dtype=float) for a in (gm, v, w))
    if gm.ndim == 2:
        return float(inner(gm[None], v[None], w[None])[0])
    return np.einsum("ni,nij,nj->n", v, gm, w)


def g_norm(gm, v):
    return np.sqrt(inner(gm, v, v))


@dataclass(frozen=True)
class Frame:
    """g-orthonormal frame (X, e1, e2) at a point, X the unit field value."""

    X: Array
    e1: Array
    e2: Array


def frame_at(gm, X) -> Frame:
    """Orthonormal frame (X, e1, e2) at one point: the N = 1 case of ``frames_at``.

    ``X`` need not be unit; the frame carries its g-normalisation.
    """
    gm = np.asarray(gm, dtype=float)
    X = np.asarray(X, dtype=float)
    Xn = X / g_norm(gm, X)
    e1, e2 = frames_at(gm[None], Xn[None])
    return Frame(Xn, e1[0], e2[0])


def frames_at(g, X):
    """Batched g-orthonormal frames of X-perp by greedy Gram-Schmidt.

    ``g``: (N, 3, 3), ``X``: (N, 3) with unit g-norm (not checked). Returns
    (e1, e2) of shape (N, 3) each. The candidates are the standard basis
    vectors in order; a candidate within angle SEED_ANGLE_TOL of the span of
    X and the vectors already taken is skipped. e2 is flipped where needed
    so that det[X e1 e2] > 0 in chart coordinates.
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
    flip = np.linalg.det(np.stack([X, e1, e2], axis=2)) < 0
    e2[flip] = -e2[flip]
    return e1, e2
