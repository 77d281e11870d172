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
"""

from __future__ import annotations

import numpy as np

from .errors import DegeneratePlane
from .expr import as_points
from .geometry import (ChartedManifold, _cholesky, _jet, _jet_points, _metric_jet,
                       _require_finite_partials, inner)

#: discriminants within this of zero count as a repeated real eigenvalue
EIGEN_DISC_TOL = 1e-12


def christoffel(man: ChartedManifold, p, metric_out=None):
    """Levi-Civita coefficients Gamma^k_ij by the Koszul formula, g and dg from ``_metric_jet``.

    That metric pass raises the chart and metric errors. ``metric_out``,
    a contiguous array of g's shape ((N, 3, 3), or (3, 3) at a point), receives
    it, so a caller that needs g as well makes no second metric pass.

    Gamma solves g Gamma_{.ij} = (d_i g_j. + d_j g_i. - d_. g_ij) / 2 by the
    Cholesky factor of g (``_cholesky``), forward and back substitution in
    place, component-major: each operation loops over the N rows of a (3, 3,
    3, N) array, with the bits of the same operations on (N, 3, 3) views. The
    result is C-ordered (N, 3, 3, 3), and a row's bits depend on neither its
    batch nor the layout of the inputs.
    """
    pts, single = as_points(p)
    g, dg = _metric_jet(man, pts)  # dg[n, k, i, j] = d_k g_ij
    if metric_out is not None:
        out = metric_out.reshape(g.shape)  # a view; g lives on only in the caller's array
        out[...] = g
        g = out
    # gamma[l, i, j, n] = (d_i g_jl + d_j g_il - d_l g_ij) / 2, then L^-T L^-1 of that
    d = dg.transpose(1, 2, 3, 0)  # a view: d[k, i, j] is one (N,) row, contiguous if exact
    gamma = np.add(d.transpose(2, 0, 1, 3), d.transpose(2, 1, 0, 3), order="C")
    gamma -= d
    gamma *= 0.5
    del d, dg  # not held through the copy of the result, the solve's memory peak
    l11, l21, l31, l22, l32, l33 = _cholesky(g)
    b0, b1, b2 = gamma  # views of the rows l = 0, 1, 2, each (3, 3, N)
    b0 /= l11  # forward: L y = b
    b1 -= l21 * b0
    b1 /= l22
    b2 -= l31 * b0
    b2 -= l32 * b1
    b2 /= l33
    b2 /= l33  # back: L^T x = y
    b1 -= l32 * b2
    b1 /= l22
    b0 -= l21 * b1
    b0 -= l31 * b2
    b0 /= l11
    gamma = gamma.transpose(3, 0, 1, 2).copy()  # C-ordered (N, 3, 3, 3)
    return gamma[0] if single else gamma


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
