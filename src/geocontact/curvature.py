"""Christoffel symbols, Riemann/sectional/Ricci curvature and the Jacobi tensor.

Index conventions (fixed here once and validated by the space-form tests):

    Gamma[k, i, j]    = Gamma^k_ij
    R[l, i, j, k]     = component l of R(d_i, d_j) d_k
    R(x, y)z          = nabla_x nabla_y z - nabla_y nabla_x z - nabla_[x,y] z
    K(v, w)           = <R(v, w)w, v> / (|v|^2 |w|^2 - <v, w>^2)

With these signs the round sphere has K = +1 and hyperbolic space K = -1.
"""

from __future__ import annotations

import numpy as np

from .errors import DegeneratePlane, SingularMetric
from .geometry import (ChartedManifold, _jet, _jet_points, _require_finite_metric,
                       _require_positive_definite, as_points, inner)

MAX_METRIC_CONDITION = 1e12

#: discriminants within this of zero count as a repeated real eigenvalue
EIGEN_DISC_TOL = 1e-12


def _surely_conditioned(g):
    """Rows of g (N, 3, 3) whose condition number is certainly at most
    MAX_METRIC_CONDITION / 2, found without eigenvalues.

    g is positive definite where its leading minors are positive, and then
    cond(g) = l1 / l3 = l1^2 l2 / det g <= (tr g)^3 / det g for its
    eigenvalues l1 >= l2 >= l3 > 0. With every entry at most tr g in size,
    each product of the cofactor expansion of det g is at most (tr g)^3, so
    at a row that passes, its rounding is below 0.2% of det g; det g between
    the smallest normal float and inf keeps underflow and overflow out. The
    factor 2 covers that rounding and eigvalsh's own. A row whose products
    overflow (entries above about 5e102) gets an inf or NaN that fails a
    test, silently: it goes to eigvalsh.
    """
    a, b, c = g[:, 0, 0], g[:, 1, 1], g[:, 2, 2]
    d, e, f = g[:, 1, 0], g[:, 2, 1], g[:, 2, 0]  # the lower triangle, as eigvalsh reads
    with np.errstate(over="ignore", invalid="ignore"):
        tr = a + b + c
        det = a * (b * c - e * e) - d * (d * c - e * f) + f * (d * e - b * f)
        return ((a > 0) & (a * b - d * d > 0) & (det >= np.finfo(float).tiny) & (det < np.inf)
                & (np.abs(g).max(axis=(1, 2)) <= tr)
                & (tr ** 3 <= 0.5 * MAX_METRIC_CONDITION * det))


def _require_conditioned(man, pts, g):
    """Raise SingularMetric naming the first point where g is not finite or,
    failing that, where its 2-norm condition number max|lambda| / min|lambda|
    (g is symmetric) is infinite or above MAX_METRIC_CONDITION. Only the rows
    that ``_surely_conditioned`` cannot certify go to ``eigvalsh``."""
    _require_finite_metric(man, pts, g)
    ok = _surely_conditioned(g)
    rest = ~ok
    if rest.any():
        lam = np.abs(np.linalg.eigvalsh(g[rest]))
        small = lam.min(axis=1)
        ok[rest] = (lam.max(axis=1) <= MAX_METRIC_CONDITION * small) & (small > 0.0)
    if not ok.all():
        raise SingularMetric(
            f"metric of {man.name!r} numerically singular at {pts[np.argmin(ok)]}")


def christoffel(man: ChartedManifold, p, metric_out=None):
    """Levi-Civita coefficients Gamma^k_ij by the Koszul formula, g and dg from one ``_jet``.

    ``metric_out``, a contiguous array of g's shape ((N, 3, 3), or (3, 3)
    at a point), receives g after ``metric_at``'s positive-definiteness
    check, so a caller that needs g as well makes no second metric pass.
    Without it, g is only checked to be finite and conditioned.
    """
    pts, single = as_points(p)
    g, dg = _jet(man, man.metric_fn, pts, man.metric_exprs,  # dg[n, k, i, j] = d_k g_ij
                 _require_finite_metric)
    if metric_out is not None:
        _require_positive_definite(man, pts, g)
        out = metric_out.reshape(g.shape)  # a view; g lives on only in the caller's array
        out[...] = g
        g = out
    _require_conditioned(man, pts, g)
    ginv = np.linalg.inv(g)
    # term_{ijl} = d_i g_jl + d_j g_il - d_l g_ij  (dg axes are n, k, i, j)
    term = dg + np.einsum("njil->nijl", dg) - np.einsum("nlij->nijl", dg)
    gamma = 0.5 * np.einsum("nkl,nijl->nkij", ginv, term)
    return gamma[0] if single else gamma


def christoffel_with_partials(man: ChartedManifold, p, metric_out=None):
    """Gamma and its partials: the central-difference ``_jet`` of ``christoffel``.

    Returns (gam, dgam) with gam[..., k, i, j] = Gamma^k_ij and
    dgam[..., m, k, i, j] = d_m Gamma^k_ij. The point itself and its six
    stencil shifts are one ``christoffel`` batch; ``metric_out`` receives
    the checked metric of its centre rows, as in ``christoffel``.
    """
    pts, single = as_points(p)
    stencil_g = None if metric_out is None else np.empty((7 * len(pts), 3, 3))
    gam, dgam = _jet(man, lambda q: christoffel(man, q, stencil_g), pts)
    if metric_out is not None:
        metric_out[...] = stencil_g[0] if single else stencil_g[:len(pts)]
    return (gam[0], dgam[0]) if single else (gam, dgam)


def _partials_inside(man: ChartedManifold, pts):
    """Mask of the rows of an (N, 3) batch at which ``christoffel_with_partials``
    reaches only chart points: its stencil and the jet points of each stencil
    point, so that it raises no OutOfChart at the rows of the mask."""
    reach = _jet_points(man, _jet_points(man, pts), man.metric_exprs)
    return man.contains(reach).reshape(-1, len(pts)).all(axis=0)


def assemble_riemann(gam, dgam):
    """R[l, i, j, k] from Gamma and its partials (leading batch axis)."""
    return (np.einsum("niljk->nlijk", dgam)            # d_i G^l_jk
            - np.einsum("njlik->nlijk", dgam)          # d_j G^l_ik
            + np.einsum("nlim,nmjk->nlijk", gam, gam)
            - np.einsum("nljm,nmik->nlijk", gam, gam))


def riemann_tensor(man: ChartedManifold, p):
    """Full curvature tensor R[l, i, j, k], the l-component of R(d_i, d_j) d_k."""
    pts, single = as_points(p)
    gam, dgam = christoffel_with_partials(man, pts)
    riem = assemble_riemann(gam, dgam)
    return riem[0] if single else riem


def _rows(pts, *vectors):
    """Each vector as one row per point: (3,) broadcasts, (N, 3) passes."""
    return [np.broadcast_to(np.asarray(v, dtype=float), pts.shape) for v in vectors]


def riemann(man: ChartedManifold, p, x, y, z):
    """Curvature vector R(x, y)z: (3,) at a point, (N, 3) at an (N, 3) batch.

    The vectors are (3,) or one row per point.
    """
    pts, single = as_points(p)
    x, y, z = _rows(pts, x, y, z)
    out = np.einsum("nlijk,ni,nj,nk->nl", riemann_tensor(man, pts), x, y, z)
    return out[0] if single else out


def sectional(man: ChartedManifold, p, v, w):
    """Sectional curvature of the plane spanned by v and w.

    A float at a point, (N,) at an (N, 3) batch; v and w are (3,) or one row
    per point. Raises DegeneratePlane naming the first degenerate plane.
    """
    pts, single = as_points(p)
    v, w = _rows(pts, v, w)
    g = man.metric_at(pts)
    gram = inner(g, v, v) * inner(g, w, w) - inner(g, v, w) ** 2
    bad = np.flatnonzero(gram <= 1e-12)
    if bad.size:
        raise DegeneratePlane(f"sectional curvature of a degenerate plane at {pts[bad[0]]}")
    out = inner(g, riemann(man, pts, v, w, w), v) / gram
    return float(out[0]) if single else out


def trace_discriminant(m):
    """Trace and discriminant of 2x2 matrices m[..., 2, 2].

    The discriminant is computed as (a - d)^2 + 4bc. It equals tr^2 - 4 det,
    but does not cancel when the eigenvalues nearly coincide, where an
    absolute error eps in it becomes an error sqrt(eps) in the eigenvalues.
    """
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    return a + d, (a - d) ** 2 + 4.0 * b * c


def real_eigenvalues(m):
    """Larger and smaller eigenvalue of 2x2 matrices m[..., 2, 2] with real spectrum.

    A (numerically) negative discriminant means a repeated eigenvalue, so it
    is clamped at zero.
    """
    tr, disc = trace_discriminant(m)
    root = np.sqrt(np.maximum(disc, 0.0))
    return 0.5 * (tr + root), 0.5 * (tr - root)


def jacobi_matrix(riem, g, X, e):
    """M[n, a, b] = <R(e_b, X)X, e_a> for an (N,) batch of frames.

    ``riem`` (N, 3, 3, 3, 3), ``g`` (N, 3, 3), ``X`` (N, 3) and the frame
    vectors ``e`` (N, 2, 3). With J = J_a e_a, the components of R(J, X)X
    are M @ J. The operands are taken in C order, since the einsums' loop
    order, and so M's bits, would follow their strides.
    """
    riem, g, X, e = (np.ascontiguousarray(a) for a in (riem, g, X, e))
    rx = np.einsum("nlijk,nai,nj,nk->nal", riem, e, X, X)  # R(e_a, X)X
    return np.einsum("nbl,nlm,nam->nab", rx, g, e)


# ---------------------------------------------------------------------------
# Covariant differentiation of vector fields
# ---------------------------------------------------------------------------

def covariant_jacobian(man: ChartedManifold, W, pts, wval, gam):
    """A[n, k, i] = d_i W^k + Gamma^k_ij W^j, so that nabla_v W = A v.

    ``pts`` is an (N, 3) batch, ``wval`` the field values there and ``gam``
    the Christoffel symbols there. Gamma is contracted with W once, so that
    every direction v afterwards costs one 3x3 product.
    """
    dw = _jet(man, W.component_fn, pts, W.component_exprs)[1]  # dw[n, i, k] = d_i W^k
    return np.swapaxes(dw, 1, 2) + np.einsum("nkij,nj->nki", gam, wval)
