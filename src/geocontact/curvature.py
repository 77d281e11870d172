"""Christoffel symbols, Riemann/sectional/Ricci curvature and the Jacobi tensor.

Index conventions (fixed here once and validated by the space-form tests):

    Gamma[k, i, j]    = Gamma^k_ij
    R[l, i, j, k]     = component l of R(d_i, d_j) d_k = riemann(man, p, d_i, d_j, d_k)
    R(x, y)z          = nabla_x nabla_y z - nabla_y nabla_x z - nabla_[x,y] z
    K(v, w)           = <R(v, w)w, v> / (|v|^2 |w|^2 - <v, w>^2)

With these signs the round sphere has K = +1 and hyperbolic space K = -1.

Gamma solves the Koszul system by a Cholesky factor of g (``christoffel``),
component-major (inner loops over N), into the same C-ordered (N, 3, 3, 3) bits.
Its input is component-major too: an exact jet of g (``geometry._jet``) holds
each g_ij and d_k g_ij as one contiguous (N,) row, which the metric check, the
Cholesky factor and the Koszul sums read in place.
Every reader of R uses one operator R(., y)z, built from Gamma and its partials
without the full tensor (``_curvature_operator``): ``jacobi_matrix`` at (X, X),
``sectional`` at (w, w) and ``riemann`` applied to x, the one public reader of R.
``jacobi_tensor_drift``, T6.1's kernel, differentiates the Koszul system once
more, exactly, and solves it with the same factor for nabla_X of R(., X)X.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import expr
from .errors import DegeneratePlane
from .expr import as_points
from .geometry import (ChartedManifold, _cholesky, _exact, _jet, _jet_points, _metric_jet,
                       _require_finite_partials, inner)

#: discriminants within this of zero count as a repeated real eigenvalue
EIGEN_DISC_TOL = 1e-12


def christoffel(man: ChartedManifold, p, metric_out=None):
    """Levi-Civita coefficients Gamma^k_ij by the Koszul formula, g and dg from ``_metric_jet``.

    That metric pass raises the chart and metric errors. ``metric_out``,
    a contiguous array of g's shape ((N, 3, 3), or (3, 3) at a point), receives
    it, so a caller that needs g as well makes no second metric pass.

    Gamma solves g Gamma_{.ij} = (d_i g_j. + d_j g_i. - d_. g_ij) / 2 by the
    Cholesky factor of g (``_solve``), component-major: each operation loops
    over the N rows of a (3, 3, 3, N) array, with the bits of the same
    operations on (N, 3, 3) views. The result is C-ordered (N, 3, 3, 3), and a
    row's bits depend on neither its batch nor the layout of the inputs.
    """
    pts, single = as_points(p)
    g, dg = _metric_jet(man, pts)  # dg[n, k, i, j] = d_k g_ij
    if metric_out is not None:
        out = metric_out.reshape(g.shape)  # a view; g lives on only in the caller's array
        out[...] = g
        g = out
    # d[k, i, j] is one (N,) row, contiguous if exact
    gamma = _koszul(dg.transpose(1, 2, 3, 0))
    del dg  # not held through the copy of the result, the solve's memory peak
    _solve(_cholesky(g), gamma)
    gamma = gamma.transpose(3, 0, 1, 2).copy()  # C-ordered (N, 3, 3, 3)
    return gamma[0] if single else gamma


def _koszul(d):
    """b[l, i, j, ...] = (d_i g_jl + d_j g_il - d_l g_ij) / 2, C-ordered, from a
    derivative d[k, i, j, ...] = d_k g_ij of g (or of g's partials: the trailing
    axes, N last, ride along): g Gamma = b, and its partials follow by
    differentiating b."""
    rest = tuple(range(3, d.ndim))
    b = np.add(d.transpose((2, 0, 1) + rest), d.transpose((2, 1, 0) + rest), order="C")
    b -= d
    b *= 0.5
    return b


def _forward(factor, b):
    """b <- L^-1 b in place, L the Cholesky factor ``factor`` of g (``_cholesky``)
    and b (3, ..., N): its rows b[0], b[1], b[2], N last."""
    l11, l21, l31, l22, l32, l33 = factor
    b0, b1, b2 = b
    b0 /= l11
    b1 -= l21 * b0
    b1 /= l22
    b2 -= l31 * b0
    b2 -= l32 * b1
    b2 /= l33


def _solve(factor, b):
    """b <- g^-1 b in place by g = L L^T: ``_forward``, then back substitution."""
    _forward(factor, b)
    l11, l21, l31, l22, l32, l33 = factor
    b0, b1, b2 = b
    b2 /= l33
    b1 -= l32 * b2
    b1 /= l22
    b0 -= l21 * b1
    b0 -= l31 * b2
    b0 /= l11


def christoffel_with_partials(man: ChartedManifold, p):
    """g, Gamma and its partials: the central-difference ``_jet`` of ``christoffel``.

    Returns (g, gam, dgam) with g[..., i, j] = g_ij, gam[..., k, i, j] =
    Gamma^k_ij and dgam[..., m, k, i, j] = d_m Gamma^k_ij. The point itself and
    its six stencil shifts are one ``christoffel`` batch, whose metric check
    they all pass; g is a copy of the metric of the centre rows.
    """
    pts, single = as_points(p)
    stencil_g = np.empty((7 * len(pts), 3, 3))
    gam, dgam = _jet(man, lambda q: christoffel(man, q, stencil_g), pts)
    g = stencil_g[:len(pts)].copy()
    return (g[0], gam[0], dgam[0]) if single else (g, gam, dgam)


def _partials_inside(man: ChartedManifold, pts):
    """Mask of the rows of an (N, 3) batch at which ``christoffel_with_partials``
    reaches only chart points: its stencil and the jet points of each stencil
    point, so that it raises no OutOfChart at the rows of the mask; empty at N = 0."""
    reach = _jet_points(man, _jet_points(man, pts), man.metric_exprs)
    return man.contains(reach).reshape(len(reach) // max(len(pts), 1), len(pts)).all(axis=0)


def _rows(pts, *vectors):
    """Each vector as one row per point: (3,) broadcasts, (N, 3) passes."""
    return [np.broadcast_to(np.asarray(v, dtype=float), pts.shape) for v in vectors]


def riemann(man: ChartedManifold, p, x, y, z):
    """Curvature vector R(x, y)z, the README's reader of R: (3,) at a point, (N, 3) at
    an (N, 3) batch. The vectors are (3,) or one row per point; R[l, i, j, k] is
    component l of riemann(man, p, d_i, d_j, d_k).
    """
    pts, single = as_points(p)
    x, y, z = _rows(pts, x, y, z)
    _, gam, dgam = christoffel_with_partials(man, pts)
    out = np.einsum("nli,ni->nl", _curvature_operator(gam, dgam, y, z), x)
    return out[0] if single else out


def sectional(man: ChartedManifold, p, v, w):
    """Sectional curvature of the plane spanned by v and w: <R(v, w)w, v> over
    |v|^2 |w|^2 - <v, w>^2, R(., w)w from ``_curvature_operator`` at (w, w).

    A float at a point, (N,) at an (N, 3) batch; v and w are (3,) or one row
    per point. Raises the chart and metric errors of ``christoffel_with_partials``
    first (OutOfChart where a degenerate plane's stencil leaves the chart), then
    DegeneratePlane naming the first plane whose Gram determinant is at most
    1e-12 |v|^2 |w|^2, a bound that scales with g.
    """
    pts, single = as_points(p)
    v, w = _rows(pts, v, w)
    g, gam, dgam = christoffel_with_partials(man, pts)
    vv, ww = inner(g, v, v), inner(g, w, w)
    gram = vv * ww - inner(g, v, w) ** 2
    bad = np.flatnonzero(gram <= 1e-12 * vv * ww)
    if bad.size:
        raise DegeneratePlane(f"sectional curvature of a degenerate plane at {pts[bad[0]]}")
    rv = np.einsum("nli,ni->nl", _curvature_operator(gam, dgam, w, w), v)  # R(v, w)w
    out = inner(g, rv, v) / gram
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


def _curvature_operator(gam, dgam, y, z):
    """RX[n, l, i] = R^l_ijk y^j z^k, so that R(v, y)z = RX @ v, from Gamma (N, 3,
    3, 3), its partials (N, 3, 3, 3, 3) and y, z (N, 3), without the Riemann tensor:

        RX = d_i Gamma^l_jk y^j z^k - y^j d_j Gamma^l_ik z^k
             + Gamma^l_im Gamma^m_jk y^j z^k - GY GZ,   GY[l, m] = Gamma^l_mj y^j,

    GZ likewise, the last term by the symmetry of Gamma in its lower indices.
    The operands are taken in C order: the matmuls' paths, and so RX's bits,
    would follow their strides.
    """
    gam, dgam, y, z = (np.ascontiguousarray(a) for a in (gam, dgam, y, z))
    n, yc, zc = len(y), y[:, :, None], z[:, :, None]
    dgz = (dgam.reshape(n, 27, 3) @ zc).reshape(n, 3, 9)  # d_m Gamma^l_jk z^k at [m, 3 l + j]
    gy = (gam.reshape(n, 9, 3) @ yc).reshape(n, 3, 3)
    gz = (gam.reshape(n, 9, 3) @ zc).reshape(n, 3, 3)
    rx = np.subtract(np.swapaxes((dgz.reshape(n, 9, 3) @ yc).reshape(n, 3, 3), 1, 2),
                     (y[:, None, :] @ dgz).reshape(n, 3, 3))
    rx += (gam.reshape(n, 9, 3) @ (gz @ yc)).reshape(n, 3, 3)
    rx -= gy @ gz
    return rx


def jacobi_matrix(gam, dgam, g, X, e):
    """M[n, a, b] = <R(e_b, X)X, e_a> for an (N,) batch of frames: M = E g RX E^T,
    RX from ``_curvature_operator`` at (X, X) and E the rows e_a.

    ``gam`` (N, 3, 3, 3), ``dgam`` (N, 3, 3, 3, 3), ``g`` (N, 3, 3), ``X`` (N, 3)
    and the frame vectors ``e`` (N, 2, 3). With J = J_a e_a, the components of
    R(J, X)X are M @ J. The operands are taken in C order, so that M's bits
    depend on neither the batch nor the layout.
    """
    g, e = np.ascontiguousarray(g), np.ascontiguousarray(e)
    return e @ g @ _curvature_operator(gam, dgam, X, X) @ np.swapaxes(e, 1, 2)


#: the rows of ``expr.higher_partials`` that hold d_a d_b g, at [a, b], and d_a d_b d_c g,
#: at [a, b, c]
_SECOND_ROWS, _THIRD_ROWS = (
    np.array([expr.HIGHER_PARTIALS.index(tuple(sorted(k)))
              for k in itertools.product(range(3), repeat=order)]).reshape((3,) * order)
    for order in (2, 3))


def jacobi_tensor_drift(man: ChartedManifold, X, pts):
    """|nabla_X R_X| at an (N, 3) batch, R_X = R(., X)X the Jacobi tensor of the
    field X: the g-Frobenius norm sqrt(g_ls T^l_i T^s_j g^ij) of T = nabla_X(R_X),
    (N,). For a geodesic X it is the Frobenius norm of M' in any orthonormal
    frame of X-perp, as T vanishes on X and maps X-perp to itself.

    Exact where ``_jet`` differentiates the metric exactly (a table in the
    "dual" mode); X's partials are ``_jet``'s. T is the covariant derivative
    of the operator field RX = ``_curvature_operator`` at (X, X):

        T = D_X RX + G RX - RX G,   G[l, i] = Gamma^l_ij X^j,

    D_X RX by the product rule: the operator's four terms in Gamma and its
    partials with X held, plus the operator at (X', X) and (X, X'), X' = D_X X.
    Gamma, d_a Gamma and (d_a Gamma)' = D_X d_a Gamma solve g . = b by
    ``_solve``, b the Koszul right-hand side (``_koszul``) and its derivatives,
    from g's second and third partials (``expr.higher_partials``); X is
    contracted into the third partials and into the right-hand side of
    (d_a Gamma)' before the solve. Raises ValueError on a chart differentiated
    centrally; then the chart and metric errors of ``_metric_jet``, the one
    metric pass; then DegenerateSeed where X's partials are not finite; then
    a DomainError of the partials' program.
    """
    if not _exact(man, man.metric_exprs):
        raise ValueError(f"{man.name!r} is differentiated centrally: no exact third partials")
    g, dg = _metric_jet(man, pts)
    xv, dx = _jet(man, X.component_fn, pts, X.component_exprs)
    _require_finite_partials(X, pts, dx)
    x, factor, d = xv.T, _cholesky(g), dg.transpose(1, 2, 3, 0)  # component-major: N last
    high = expr.eval_scalar(expr.higher_partials(man.metric_exprs), pts).transpose(1, 2, 3, 0)
    # X^m d_m d_a d_k g_ij at [k, i, j, a, n] first, so that the third partials'
    # gather, the largest array, is freed before the arrays below are made
    third_x = np.einsum("makijn,mn->kijan", high[_THIRD_ROWS], x)
    second = high[_SECOND_ROWS]  # d_a d_k g_ij at [a, k, i, j, n]
    del high
    gam = _koszul(d)
    _solve(factor, gam)  # Gamma^l_ij at [l, i, j, n]
    dgam = _koszul(second.transpose(1, 2, 3, 0, 4))
    dgam -= np.einsum("alsn,sijn->lijan", d, gam)
    _solve(factor, dgam)  # d_a Gamma^l_ij at [l, i, j, a, n]
    rate = np.einsum("lijan,an->lijn", dgam, x)  # Gamma' = D_X Gamma
    gx, rate_x = (np.einsum("lijn,jn->lin", a, x) for a in (gam, rate))
    dgam_x = np.einsum("lijan,jn->lian", dgam, x)
    # (d_a Gamma)' X at [l, j, a, n]: g (d_a Gamma)' = (d_a b)' - (d_a g)' Gamma
    # - (d_a g) Gamma' - g' d_a Gamma, every term contracted with X
    s = np.einsum("lijan,jn->lian", _koszul(third_x), x)
    s -= np.einsum("alsn,sjn->ljan", np.einsum("malsn,mn->alsn", second, x), gx)
    s -= np.einsum("alsn,sjn->ljan", d, rate_x)
    s -= np.einsum("lsn,sjan->ljan", np.einsum("mlsn,mn->lsn", d, x), dgam_x)
    _solve(factor, s)
    # D_X of the operator's terms with X held: d_i Gamma^l_jk X^j X^k - X^j d_j Gamma^l_ik X^k
    # by (d_a Gamma)', and Gamma^l_im Gamma(X, X)^m - G G by the product rule
    gamma, gamma_rate = (np.einsum("lin,in->ln", a, x) for a in (gx, rate_x))
    G, G_rate = gx.transpose(2, 0, 1), rate_x.transpose(2, 0, 1)  # [n, l, i]
    rx_rate = (np.einsum("ljin,jn->nli", s - s.transpose(0, 2, 1, 3), x)
               + np.einsum("limn,mn->nli", rate, gamma)
               + np.einsum("limn,mn->nli", gam, gamma_rate) - G_rate @ G - G @ G_rate)
    gam, dgam = (np.ascontiguousarray(gam.transpose(3, 0, 1, 2)),  # point-major, once
                 np.ascontiguousarray(dgam.transpose(4, 3, 0, 1, 2)))
    xd = np.einsum("ni,nik->nk", xv, dx)  # X' = D_X X
    rx = _curvature_operator(gam, dgam, xv, xv)
    rx_rate += _curvature_operator(gam, dgam, xd, xv)
    rx_rate += _curvature_operator(gam, dgam, xv, xd)
    t = rx_rate + G @ rx - rx @ G
    # |T|: W = L^-1 g T L^-T is T in the orthonormal frame L^-T, so |T| = |W|_F
    w = np.ascontiguousarray((g @ t).transpose(1, 2, 0))
    _forward(factor, w)
    w = np.ascontiguousarray(w.transpose(1, 0, 2))
    _forward(factor, w)
    return np.sqrt((w * w).sum(axis=(0, 1)))


# ---------------------------------------------------------------------------
# Covariant differentiation of vector fields
# ---------------------------------------------------------------------------

def covariant_jacobian(man: ChartedManifold, W, pts, wval, gam):
    """A[n, k, i] = d_i W^k + Gamma^k_ij W^j, so that nabla_v W = A v.

    ``pts`` is an (N, 3) batch, ``wval`` the field values there and ``gam``
    the Christoffel symbols there. Raises DegenerateSeed at the first point
    where W's partials are not finite. Gamma is contracted with W once, so that
    every direction v afterwards costs one 3x3 product. Gamma and W are taken
    in C order, as the einsum's bits would follow their strides.
    """
    gam, wval = np.ascontiguousarray(gam), np.ascontiguousarray(wval)
    dw = _jet(man, W.component_fn, pts, W.component_exprs)[1]  # dw[n, i, k] = d_i W^k
    _require_finite_partials(W, pts, dw)
    return np.swapaxes(dw, 1, 2) + np.einsum("nkij,nj->nki", gam, wval)
