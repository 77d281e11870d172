"""Closed-form oracles for the tests: exact values that the toolkit's
numerics are compared with, kept outside the package because no command,
demo or kernel reads them.

- ``jacobi_component_closed_form``: the scalar Jacobi equation of a space
  form, the reference of ``first_zero_space_form``.
- ``berger_sphere``: the Berger spheres, a one-parameter family of
  R-contact metrics on S^3 whose diagnostics are known in closed form.
- ``skew_lines``: Harrison's linear fibrations of R^3 by pairwise skew
  lines, whose unit fields are geodesic and contact everywhere.
"""

import numpy as np

from geocontact import CatalogEntry, GridSpec, OrbitSpec, UnitField, manifold_from_exprs
from geocontact.catalog import _FLAT, _HOPF_COMPONENTS


def jacobi_component_closed_form(kappa: float, j0: float, jp0: float, t):
    """Solution of j'' + kappa j = 0 with j(0) = j0, j'(0) = jp0."""
    t = np.asarray(t, dtype=float)
    if kappa > 0:
        r = np.sqrt(kappa)
        out = j0 * np.cos(r * t) + (jp0 / r) * np.sin(r * t)
    elif kappa < 0:
        r = np.sqrt(-kappa)
        out = j0 * np.cosh(r * t) + (jp0 / r) * np.sinh(r * t)
    else:
        out = j0 + jp0 * t
    return float(out) if out.ndim == 0 else out


def berger_sphere(eps: float) -> CatalogEntry:
    """The Berger sphere of fibre length 2 pi eps, in the ``s3_hopf`` chart.

    g_eps = lam I + (eps^2 - 1) lam^2 H H^T, with lam = 4 / (1 + |x|^2)^2 the
    round metric's factor and H the Hopf field (unit for lam I, so
    g_eps(H, H) = eps^2), and the unit field X = H / eps. The metric shrinks
    or stretches the Hopf circles and keeps their orthogonal planes, so X is
    Killing and geodesic, and (Blair, Riemannian Geometry of Contact and
    Symplectic Manifolds, 2nd ed. 2010) the closed forms in ``expected``
    hold at every point: |contact defect| = 2 eps and the Jacobi tensor is
    eps^2 on X's orthogonal plane, so Delta = delta = eps^2 and Ric(X) = 2 eps^2.
    """
    lam, scale = "4/(1 + x1^2 + x2^2 + x3^2)^2", eps * eps - 1.0
    metric = tuple(tuple((f"{lam} + " if hi == hj else "") + f"({scale!r})*({lam})^2*({hi})*({hj})"
                         for hj in _HOPF_COMPONENTS) for hi in _HOPF_COMPONENTS)
    return CatalogEntry(
        name=f"berger({eps!r})", manifold=manifold_from_exprs(f"berger({eps!r})", metric),
        field=UnitField.from_exprs("hopf/eps", tuple(f"({h})/{eps!r}" for h in _HOPF_COMPONENTS)),
        expected={"contact_abs": 2.0 * eps, "Delta": eps * eps, "delta": eps * eps,
                  "ric_X": 2.0 * eps * eps},
        notes="Berger sphere: the round 3-sphere with its Hopf circles scaled by eps",
        grid=GridSpec((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0), (5, 5, 5)),
        orbit=OrbitSpec((0.3, 0.2, 0.1)))


def skew_lines(A) -> CatalogEntry:
    """The fibration of flat R^3 by the lines (u, 0) + t (A u, 1), u in R^2,
    for a real 2 x 2 matrix A = ((a, b), (c, d)) without real eigenvalues.

    det(I + z A) = 1 + z tr A + z^2 det A > 0 for every z, so the point
    (x1, x2, x3) lies on the line of u = (I + x3 A)^-1 (x1, x2) alone, and the
    unit field along the lines is X = (w, 1) / sqrt(|w|^2 + 1) with w = A u.
    With the inverse by cofactors, X = (n, det) / sqrt(|n|^2 + det^2), where
    det = det(I + x3 A) and n = A adj(I + x3 A) (x1, x2). The lines are
    straight, so X is geodesic, and pairwise skew, so by Harrison's theorem
    (M. Harrison, "Contact structures induced by skew fibrations of R^3",
    Bull. LMS 2019) X is contact everywhere. ``euclidean_skew`` is the case
    A = ((0, -1), (1, 0)).
    """
    (a, b), (c, d) = ((f"({float(v)!r})" for v in row) for row in A)
    u1, u2 = f"(1 + {d}*x3)*x1 - {b}*x3*x2", f"(1 + {a}*x3)*x2 - {c}*x3*x1"
    n1, n2 = f"{a}*({u1}) + {b}*({u2})", f"{c}*({u1}) + {d}*({u2})"
    det = f"(1 + {a}*x3)*(1 + {d}*x3) - {b}*{c}*x3^2"
    norm = f"sqrt(({n1})^2 + ({n2})^2 + ({det})^2)"
    name = f"skew_lines({A!r})"
    return CatalogEntry(
        name=name, manifold=manifold_from_exprs(name, _FLAT),
        field=UnitField.from_exprs("skew_lines", tuple(f"({e})/{norm}" for e in (n1, n2, det))),
        expected={}, notes="linear fibration of flat space by pairwise skew lines",
        grid=GridSpec((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0), (5, 5, 5)),
        orbit=OrbitSpec((0.2, -0.3, 0.1)), space_form_c=0.0)
