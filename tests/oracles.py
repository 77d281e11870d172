"""Closed-form oracles for the tests: exact values that the toolkit's
numerics are compared with, kept outside the package because no command,
demo or kernel reads them.

- ``jacobi_component_closed_form``: the scalar Jacobi equation of a space
  form, the reference of ``first_zero_space_form``.
- ``berger_sphere``: the Berger spheres, a one-parameter family of
  R-contact metrics on S^3 whose diagnostics are known in closed form.
- ``skew_lines``: Harrison's linear fibrations of R^3 by pairwise skew
  lines, whose unit fields are geodesic and contact everywhere.
- ``gluck_warner``: great-circle fibrations of S^3 from Gluck and Warner's
  parametrization, whose unit fields are geodesic and, by Gluck's theorem,
  contact everywhere.
- ``linear_pullback``: an entry in the chart y = A^-1 x of a linear map A,
  whose invariant diagnostics are the entry's own.
"""

import re

import numpy as np

from geocontact import CatalogEntry, GridSpec, OrbitSpec, UnitField, manifold_from_exprs
from geocontact.expr import parse, to_string
from geocontact.catalog import _FLAT, _HOPF_COMPONENTS, _ROUND_S3, _hopf_parametrization


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
    With g_eps(X, .) = eps g_round(H, .), the contact volume is eps^2 times the
    round one, 4 pi^2 eps^2, over the Hopf coordinates of ``s3_hopf``.
    """
    lam, scale = "4/(1 + x1^2 + x2^2 + x3^2)^2", eps * eps - 1.0
    metric = tuple(tuple((f"{lam} + " if hi == hj else "") + f"({scale!r})*({lam})^2*({hi})*({hj})"
                         for hj in _HOPF_COMPONENTS) for hi in _HOPF_COMPONENTS)
    return CatalogEntry(
        name=f"berger({eps!r})", manifold=manifold_from_exprs(
            f"berger({eps!r})", metric, volume_param=_hopf_parametrization()),
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


def gluck_warner(b, M, eps: float, iterations: int = 200) -> CatalogEntry:
    """A great-circle fibration of the round 3-sphere, in the ``s3_hopf`` chart.

    Gluck and Warner (Duke Math. J. 50, 1983) send the oriented plane of
    orthonormal x, y in R^4 = H to (y x-bar, x-bar y), a pair of unit imaginary
    quaternions; the great-circle fibrations are the graphs of the
    distance-decreasing maps f: S^2 -> S^2. Here f(u) = (b + eps M u) /
    |b + eps M u| with |b| = 1 and ||M||_2 = 1, whose Lipschitz constant
    eps / (1 - eps) is below 1 for eps < 1/2. The fibre through q has the
    direction y = q w, with w the fixed point of the contraction
    w -> f(q w q-bar), found by iteration; eps = 0 is a Hopf fibration.

    The chart point x is q = (|x|^2 - 1, 2 x) / (|x|^2 + 1), the inverse of
    phi(q) = (q1, q2, q3) / (1 - q0), so the field is d phi(y), unit for the
    round metric. Raises ArithmeticError if the fixed-point residual is above
    1e-14 after ``iterations`` steps. By Gluck's theorem, which the source
    paper re-proves, the field is contact everywhere; it is geodesic, and
    Killing only when eps = 0.
    """
    b, M = np.asarray(b, dtype=float), np.asarray(M, dtype=float)

    def fibre(pts):
        r2 = (pts * pts).sum(axis=1)[:, None, None]
        a, v = (r2 - 1.0) / (r2 + 1.0), 2.0 * pts[:, :, None] / (r2 + 1.0)  # q = (a, v)
        cross = np.cross(v[:, None, :, 0], np.eye(3))  # cross[n, j] = v x e_j
        rotation = (2.0 * a * a - 1.0) * np.eye(3) + 2.0 * v * np.swapaxes(v, 1, 2) \
            + 2.0 * a * np.swapaxes(cross, 1, 2)  # u -> q u q-bar on imaginary u
        step, w = eps * M @ rotation, np.broadcast_to(b, pts.shape)[..., None]
        for _ in range(iterations):
            nxt = b[:, None] + step @ w
            nxt /= np.sqrt((nxt * nxt).sum(axis=1, keepdims=True))
            w, residual = nxt, np.abs(nxt - w).max(initial=0.0)
            if residual <= 1e-14:
                break
        else:
            raise ArithmeticError(f"fixed point not reached: residual {residual:.3e}")
        a, v, w = a[:, :, 0], v[..., 0], w[..., 0]
        y0, y = -(v * w).sum(axis=1, keepdims=True), a * w + np.cross(v, w)  # q w
        return y / (1.0 - a) + v * (y0 / (1.0 - a) ** 2)

    name = f"gluck_warner({eps!r})"
    man = manifold_from_exprs(name, _ROUND_S3)
    man.volume_param = _hopf_parametrization()
    return CatalogEntry(
        name=name, manifold=man, field=UnitField.from_callable("great_circles", fibre),
        expected={}, notes="great-circle fibration of the round 3-sphere (Gluck-Warner)",
        grid=GridSpec((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0), (5, 5, 5)),
        orbit=OrbitSpec((0.3, 0.2, 0.1)), space_form_c=1.0)


def _cells(table):
    """The ``to_string`` text of each cell of an ``ExprTable``, as nested lists."""
    cells = np.empty(table.shape, dtype=object)
    for ast, slots in table.groups:
        for slot in slots:
            cells[slot] = to_string(ast)
    return cells.tolist()


def linear_pullback(entry: CatalogEntry, A, domain="true") -> CatalogEntry:
    """``entry`` pulled back by the linear map y -> x = A y, in the chart y:
    g'(y) = A^T g(A y) A, X'(y) = A^-1 X(A y) and the domain expression
    ``domain`` (the entry's chart's, "true" or an expression) at A y.

    Each expression is the entry's ``to_string`` text with every x_k replaced
    by (sum_j A_kj x_j); that text is fully parenthesised, so the substitution
    keeps its meaning. Coefficients are written as ``repr(float(a))``, which
    the grammar reads (numpy's own repr is ``np.float64(a)``). The orbit start
    is A^-1 of the entry's; the pullback has no grid or volume
    parametrization, so its suites take points. A pullback is an isometry
    onto the entry's chart: every invariant diagnostic at y equals the
    entry's at A y, and the contact defect's sign flips with det A < 0, as
    frames are oriented by the chart.
    """
    A = np.asarray(A, dtype=float)
    inv = np.linalg.inv(A)
    image = {str(k + 1): "(" + " + ".join(f"({float(A[k, j])!r})*x{j + 1}" for j in range(3)) + ")"
             for k in range(3)}

    def at_image(text):
        return "(" + re.sub(r"x([123])", lambda m: image[m[1]], text) + ")"

    def combination(terms):
        return " + ".join(f"({float(c)!r})*{at_image(e)}" for c, e in terms if e != "0.0") or "0"

    g, x = _cells(entry.manifold.metric_exprs), _cells(entry.field.component_exprs)
    metric = [[combination((A[k, i] * A[l, j], g[k][l]) for k in range(3) for l in range(3))
               for j in range(3)] for i in range(3)]
    field = [combination((inv[i, k], x[k]) for k in range(3)) for i in range(3)]
    if domain.strip() != "true":
        domain = at_image(to_string(parse(domain)))
    name = f"{entry.name}@{A.tolist()!r}"
    return CatalogEntry(
        name=name, manifold=manifold_from_exprs(name, metric, domain=domain),
        field=UnitField.from_exprs(entry.field.name, field), expected={},
        notes=f"{entry.name} pulled back by a linear map", grid=None,
        orbit=OrbitSpec(tuple(inv @ np.asarray(entry.orbit.start))),
        space_form_c=entry.space_form_c)
