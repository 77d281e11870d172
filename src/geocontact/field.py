"""Pointwise analysis of a candidate geodesic unit field.

Everything here reduces to the shape operator beta(v) = nabla_v X restricted
to the orthogonal plane field: its symmetric part measures the failure of
the flow to be isometric, its antisymmetric part is the contact defect
d(alpha)(e1, e2) = B21 - B12, and its eigenvalues drive the space-form and
rank criteria.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import expr
from .curvature import (EIGEN_DISC_TOL, assemble_riemann, christoffel,
                        christoffel_with_partials, covariant_jacobian, jacobi_matrix,
                        real_eigenvalues, trace_discriminant)
from .errors import NotUnit
from .geometry import (ChartedManifold, Frame, as_points, frame_at, frames_at,
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
# Shape operator
# ---------------------------------------------------------------------------

def _frame_gram(g, A, F):
    """gram[n, a, b] = <nabla_{f_a} X, f_b> for the frame vectors f_a = F[n, :, a].

    ``A`` is the covariant Jacobian of X (``covariant_jacobian``), ``g`` the
    metric, both (N, 3, 3). Batched matmul in two stages: at N = 262,144 it
    is about five times faster than the same contraction by einsum.
    """
    return np.swapaxes(A @ F, 1, 2) @ (g @ F)


def shape_operator(man: ChartedManifold, X: UnitField, pts, g, xv, e1, e2):
    """B[n, i, j] = <beta(e_j), e_i> at an (N, 3) batch in the frames (e1, e2)."""
    A = covariant_jacobian(man, X, pts, xv, christoffel(man, pts))
    return np.swapaxes(_frame_gram(g, A, np.stack([e1, e2], axis=2)), 1, 2)


@dataclass(frozen=True)
class BetaMatrix:
    """2x2 matrix B_ij = <beta(e_j), e_i> of the shape operator in a frame.

    ``tangency`` records max |<nabla_{e_i} X, X>|, which must vanish for a
    unit field (the image of beta lies in X-perp).
    """

    B: np.ndarray
    frame: Frame
    tangency: float


def _require_unit(X: UnitField, pts, unit_defects, unit_tol):
    bad = np.flatnonzero(unit_defects > unit_tol)
    if bad.size:
        k = bad[0]
        raise NotUnit(f"field {X.name!r} has unit defect {unit_defects[k]:.3e} at {pts[k]}")


def beta_matrix(man: ChartedManifold, X: UnitField, p, frame: Frame | None = None,
                unit_tol: float = UNIT_TOL) -> BetaMatrix:
    """Shape operator at one point, in ``frame`` or the standard ``frame_at`` frame."""
    pts, _ = as_points(p)
    man.require_inside(pts)
    g = np.asarray(man.metric_fn(pts), dtype=float)
    xv = np.asarray(X.component_fn(pts), dtype=float)
    _require_unit(X, pts, np.abs(inner(g, xv, xv) - 1.0), unit_tol)
    if frame is None:
        frame = frame_at(g[0], xv[0])
    A = covariant_jacobian(man, X, pts, xv, christoffel(man, pts))
    gram = _frame_gram(g, A, np.stack(frame.basis(), axis=1)[None])[0]
    return BetaMatrix(B=gram[1:, 1:].T, frame=frame, tangency=float(np.abs(gram[1:, 0]).max()))


def contact_defect(beta: BetaMatrix) -> float:
    """d(alpha)(e1, e2) = B21 - B12; zero iff beta is self-adjoint."""
    return float(beta.B[1, 0] - beta.B[0, 1])


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


def eigen_classify(beta: BetaMatrix) -> EigenClass:
    """Closed-form 2x2 eigenvalues; complex only beyond the discriminant noise floor."""
    tr, disc = trace_discriminant(beta.B)
    if disc < -EIGEN_DISC_TOL:
        return ComplexPair(a=float(0.5 * tr), b=float(0.5 * np.sqrt(-disc)))
    lam, mu = real_eigenvalues(beta.B)
    return RealPair(lam=float(lam), mu=float(mu))


def beta_rank(beta: BetaMatrix, rel_tol: float = RANK_REL_TOL,
              abs_tol: float = RANK_ABS_TOL) -> int:
    """Numerical rank of B from its singular values."""
    sv = np.linalg.svd(beta.B, compute_uv=False)
    cut = max(rel_tol * sv[0], abs_tol)
    return int(np.sum(sv > cut))


# ---------------------------------------------------------------------------
# Point diagnosis
# ---------------------------------------------------------------------------

@dataclass
class PointDiagnosis:
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
    beta: BetaMatrix


def diagnose(man: ChartedManifold, X: UnitField, pts,
             unit_tol: float = UNIT_TOL) -> list[PointDiagnosis]:
    """Every pointwise diagnostic of the field at an (N, 3) batch, in one pass.

    The metric, the field, Gamma and the Riemann tensor are evaluated once
    for the whole batch. In the frame (X, e1, e2) of ``frames_at``:

    - unit defect |<X, X> - 1|, with X as given;
    - geodesic defect |nabla_X X|, with X as given;
    - Killing defect: the largest entry of the symmetrised matrix
      <nabla_{f_i} X, f_j> over the frame; it vanishes exactly when the
      flow of X is isometric;
    - the shape operator B, its contact defect, eigenvalues and rank;
    - the Jacobi tensor: Ric(X) and its eigenvalues Delta >= delta.

    Raises NotUnit at the first point whose unit defect exceeds ``unit_tol``.
    """
    pts = as_points(pts)[0]
    man.require_inside(pts)
    g = np.asarray(man.metric_fn(pts), dtype=float)
    xv = np.asarray(X.component_fn(pts), dtype=float)
    unit = np.abs(inner(g, xv, xv) - 1.0)
    _require_unit(X, pts, unit, unit_tol)
    xn = xv / g_norm(g, xv)[:, None]
    e1, e2 = frames_at(g, xn)

    gam, dgam = christoffel_with_partials(man, pts)
    A = covariant_jacobian(man, X, pts, xv, gam)
    gram = _frame_gram(g, A, np.stack([xn, e1, e2], axis=2))
    B = np.swapaxes(gram[:, 1:, 1:], 1, 2)
    geodesic = g_norm(g, np.einsum("nki,ni->nk", A, xv))
    killing = np.abs(gram + np.swapaxes(gram, 1, 2)).max(axis=(1, 2))
    tangency = np.abs(gram[:, 1:, 0]).max(axis=1)

    M = jacobi_matrix(assemble_riemann(gam, dgam), g, xn, np.stack([e1, e2], axis=1))
    Delta, delta = real_eigenvalues(M)
    ric = M[:, 0, 0] + M[:, 1, 1]

    out = []
    for k in range(len(pts)):
        beta = BetaMatrix(B=B[k], frame=Frame(xn[k], e1[k], e2[k]), tangency=float(tangency[k]))
        out.append(PointDiagnosis(
            p=pts[k], unit_defect=float(unit[k]), geodesic_defect=float(geodesic[k]),
            killing_defect=float(killing[k]), contact_defect=contact_defect(beta),
            eigen=eigen_classify(beta), ric_X=float(ric[k]), Delta=float(Delta[k]),
            delta=float(delta[k]), beta_rank=beta_rank(beta), beta=beta))
    return out


def diagnose_point(man: ChartedManifold, X: UnitField, p,
                   unit_tol: float = UNIT_TOL) -> PointDiagnosis:
    """Every pointwise diagnostic of the field at p: ``diagnose`` with N = 1."""
    return diagnose(man, X, np.asarray(p, dtype=float)[None], unit_tol)[0]


# ---------------------------------------------------------------------------
# Vectorised contact defect (quadrature fast path)
# ---------------------------------------------------------------------------

def contact_defect_grid(man: ChartedManifold, X: UnitField, points,
                        orientation: int = 1):
    """Contact defect at an (N, 3) batch of points in oriented frames.

    Same mathematics as ``contact_defect(beta_matrix(...))`` point by point,
    without the curvature work of ``diagnose``, for quadrature over large
    grids.
    """
    pts, single = as_points(points)
    g = np.asarray(man.metric_fn(pts), dtype=float)
    xv = np.asarray(X.component_fn(pts), dtype=float)
    e1, e2 = frames_at(g, xv / g_norm(g, xv)[:, None], orientation=orientation)
    B = shape_operator(man, X, pts, g, xv, e1, e2)
    out = B[:, 1, 0] - B[:, 0, 1]
    return float(out[0]) if single else out
