"""Closed-form oracles for the tests: exact values that the toolkit's
numerics are compared with, kept outside the package because no command,
demo or kernel reads them.

- ``jacobi_component_closed_form``: the scalar Jacobi equation of a space
  form, the reference of ``first_zero_space_form``.
- ``berger_sphere``: the Berger spheres, a one-parameter family of
  R-contact metrics on S^3 whose diagnostics are known in closed form.
"""

import numpy as np

from geocontact import CatalogEntry, GridSpec, OrbitSpec, UnitField, manifold_from_exprs
from geocontact.catalog import _HOPF_COMPONENTS


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
