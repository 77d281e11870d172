"""Christoffel symbols, curvature tensors and the Jacobi tensor.

Closed-form oracle values for the half-space and product metrics were
derived symbolically (Koszul formula on g = delta/x3^2 and on the product
metric) and are frozen here.
"""

import numpy as np
import pytest

import geocontact as gc
from conftest import ENTRY_NAMES
from geocontact.curvature import (_surely_conditioned, christoffel, covariant_jacobian,
                                  jacobi_matrix, riemann, riemann_tensor, sectional)
from geocontact.errors import DegeneratePlane, SingularMetric
from geocontact.field import diagnose
from geocontact.geometry import inner


def flat():
    return gc.manifold_from_exprs("flat", (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1")))


def covariant_derivative(man, p, W, v):
    """nabla_v W at p: the ``covariant_jacobian`` of the N = 1 batch, applied to v."""
    pts = p[None]
    return covariant_jacobian(man, W, pts, W.value(pts), christoffel(man, pts))[0] @ v


def jacobi_matrices(man, X, pts):
    """The diagnosis of X at pts and the matrix M of v -> R(v, X)X in each of its frames."""
    d = diagnose(man, X, pts)
    M = jacobi_matrix(riemann_tensor(man, d.p), man.metric_at(d.p), d.frame[:, :, 0],
                      np.swapaxes(d.frame[:, :, 1:], 1, 2))
    return d, M


# ---------------------------------------------------------------------------
# Christoffel symbols
# ---------------------------------------------------------------------------

def test_flat_christoffel_zero():
    gam = christoffel(flat(), np.array([0.4, 0.2, -1.0]))
    assert np.abs(gam).max() == 0.0


def h3_christoffel_oracle(x3):
    gam = np.zeros((3, 3, 3))
    gam[0, 0, 2] = gam[0, 2, 0] = -1.0 / x3
    gam[1, 1, 2] = gam[1, 2, 1] = -1.0 / x3
    gam[2, 0, 0] = gam[2, 1, 1] = 1.0 / x3
    gam[2, 2, 2] = -1.0 / x3
    return gam


def test_h3_christoffel(entries):
    man = entries["h3_vertical"].manifold
    for x3 in (0.5, 1.0, 2.0):
        gam = christoffel(man, np.array([0.0, 0.0, x3]))
        np.testing.assert_allclose(gam, h3_christoffel_oracle(x3), atol=1e-13)


def h2xr_christoffel_oracle(x2):
    gam = np.zeros((3, 3, 3))
    gam[0, 0, 1] = gam[0, 1, 0] = -1.0 / x2
    gam[1, 0, 0] = 1.0 / x2
    gam[1, 1, 1] = -1.0 / x2
    return gam


def test_h2xr_christoffel(entries):
    man = entries["h2xr_vertical"].manifold
    gam = christoffel(man, np.array([0.0, 1.0, 0.0]))
    np.testing.assert_allclose(gam, h2xr_christoffel_oracle(1.0), atol=1e-13)
    assert np.abs(gam[2]).max() == 0.0  # nothing involving the flat factor


def test_lower_index_symmetry(entries):
    rng = np.random.default_rng(5)
    man = entries["heisenberg_reeb"].manifold
    for _ in range(10):
        gam = christoffel(man, rng.uniform(-1.5, 1.5, 3))
        np.testing.assert_allclose(gam, np.swapaxes(gam, 1, 2), atol=1e-10)


def test_singular_metric_raises():
    man = gc.manifold_from_exprs(
        "pinch", (("x1^2", "0", "0"), ("0", "1", "0"), ("0", "0", "1")))
    with pytest.raises(SingularMetric):
        christoffel(man, np.array([1e-9, 0.0, 0.0]))


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_catalog_metrics_skip_eigvalsh(entries, monkeypatch, name):
    """On every catalog grid, the trace-determinant bound certifies each row's
    condition, so christoffel runs no eigvalsh."""
    entry = entries[name]
    pts = entry.grid.points()
    pts = pts[entry.manifold.contains(pts)]
    assert _surely_conditioned(entry.manifold.metric_at(pts)).all()
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    christoffel(entry.manifold, pts)


# ---------------------------------------------------------------------------
# Covariant derivative
# ---------------------------------------------------------------------------

def test_flat_constant_field():
    W = gc.UnitField.from_exprs("const", ("0", "1", "0"))
    out = covariant_derivative(flat(), np.array([0.3, 0.3, 0.3]), W, np.array([1.0, 2, 3]))
    np.testing.assert_allclose(out, 0.0, atol=1e-15)


def test_h3_vertical_is_geodesic(entries):
    entry = entries["h3_vertical"]
    p = np.array([0.0, 0.0, 1.0])
    out = covariant_derivative(entry.manifold, p, entry.field, np.array([0.0, 0, 1]))
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_h3_shape_operator_direction(entries):
    entry = entries["h3_vertical"]
    p = np.array([0.0, 0.0, 1.0])
    out = covariant_derivative(entry.manifold, p, entry.field, np.array([1.0, 0, 0]))
    np.testing.assert_allclose(out, [-1.0, 0.0, 0.0], atol=1e-12)


# ---------------------------------------------------------------------------
# Riemann tensor and sectional curvature
# ---------------------------------------------------------------------------

def test_flat_riemann_zero():
    out = riemann(flat(), np.array([0.1, 0.2, 0.3]),
                  np.array([1.0, 0, 0]), np.array([0.0, 1, 0]), np.array([0.0, 0, 1]))
    np.testing.assert_allclose(out, 0.0, atol=1e-14)


def test_s3_constant_curvature_identity(entries):
    """<R(x,y)y,x> = |x|^2 |y|^2 - <x,y>^2 on the unit round sphere."""
    man = entries["s3_hopf"].manifold
    rng = np.random.default_rng(17)
    for _ in range(10):
        p = rng.uniform(-1, 1, 3)
        g = man.metric_at(p)
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        lhs = inner(g, riemann(man, p, x, y, y), x)
        rhs = inner(g, x, x) * inner(g, y, y) - inner(g, x, y) ** 2
        assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(rhs))


def test_h3_constant_negative_curvature(entries):
    man = entries["h3_vertical"].manifold
    rng = np.random.default_rng(19)
    for _ in range(10):
        p = rng.uniform([-1, -1, 0.3], [1, 1, 2.5])
        g = man.metric_at(p)
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        lhs = inner(g, riemann(man, p, x, y, y), x)
        rhs = -(inner(g, x, x) * inner(g, y, y) - inner(g, x, y) ** 2)
        assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(rhs))


def test_sectional_examples(entries):
    assert abs(sectional(flat(), np.array([0.0, 0, 0]),
                         np.array([1.0, 0, 0]), np.array([0.0, 1, 0]))) < 1e-14
    p = np.array([0.0, 0.0, 1.5])
    man3 = entries["h3_vertical"].manifold
    K = sectional(man3, p, np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.5]))
    assert abs(K - (-1.0)) < 1e-9
    q = np.array([0.3, 0.8, -0.2])
    man2 = entries["h2xr_vertical"].manifold
    K = sectional(man2, q, np.array([0.0, 0.0, 1.0]), np.array([0.0, q[1], 0.0]))
    assert abs(K) < 1e-9


def test_sectional_degenerate_plane():
    with pytest.raises(DegeneratePlane):
        sectional(flat(), np.array([0.0, 0, 0]),
                  np.array([1.0, 0, 0]), np.array([2.0, 0, 0]))
    pts = np.array([[0.0, 0.0, 0.0], [0.5, 0.25, 0.125]])
    with pytest.raises(DegeneratePlane, match="0.125"):
        sectional(flat(), pts, np.array([1.0, 0, 0]),
                  np.array([[0.0, 1.0, 0.0], [3.0, 0.0, 0.0]]))


def test_batched_curvature_matches_single_points(entries):
    """riemann and sectional at an (N, 3) batch equal their N = 1 calls."""
    man = entries["heisenberg_reeb"].manifold
    rng = np.random.default_rng(29)
    pts = rng.uniform(-1, 1, (6, 3))
    v, w = rng.standard_normal((2, 6, 3))
    K = sectional(man, pts, v, w)
    R = riemann(man, pts, v, w, w)
    for k in range(len(pts)):
        assert abs(K[k] - sectional(man, pts[k], v[k], w[k])) < 1e-12
        np.testing.assert_allclose(R[k], riemann(man, pts[k], v[k], w[k], w[k]), atol=1e-12)
    # a single vector applies to every point
    np.testing.assert_allclose(sectional(man, pts, v[0], w[0]),
                               [sectional(man, p, v[0], w[0]) for p in pts], atol=1e-12)


def test_sectional_basis_invariance(entries):
    man = entries["heisenberg_reeb"].manifold
    rng = np.random.default_rng(23)
    p = np.array([0.4, -0.3, 0.8])
    v, w = rng.standard_normal(3), rng.standard_normal(3)
    base = sectional(man, p, v, w)
    for _ in range(5):
        a, b, c, d = rng.standard_normal(4)
        if abs(a * d - b * c) < 0.1:
            continue
        K = sectional(man, p, a * v + b * w, c * v + d * w)
        assert abs(K - base) < 1e-8 * max(1.0, abs(base))


# ---------------------------------------------------------------------------
# Symmetries of the curvature tensor
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["s3_hopf", "h2xr_vertical", "heisenberg_reeb"])
def test_riemann_symmetries_and_bianchi(entries, name):
    entry = entries[name]
    man = entry.manifold
    rng = np.random.default_rng(abs(hash(name)) % 2**32)
    pts = entry.grid.points()
    for p in pts[rng.choice(len(pts), 5, replace=False)]:
        g = man.metric_at(p)
        x, y, z, w = (rng.standard_normal(3) for _ in range(4))
        rxy_z = riemann(man, p, x, y, z)
        assert abs(inner(g, rxy_z, w) + inner(g, riemann(man, p, y, x, z), w)) < 1e-6
        assert abs(inner(g, rxy_z, w) - inner(g, riemann(man, p, z, w, x), y)) < 1e-6
        bianchi = rxy_z + riemann(man, p, y, z, x) + riemann(man, p, z, x, y)
        assert np.abs(bianchi).max() < 1e-6


# ---------------------------------------------------------------------------
# Ricci and the Jacobi tensor
# ---------------------------------------------------------------------------

def constant_field(v):
    return gc.UnitField.from_callable("const", lambda pts: np.tile(v, (len(pts), 1)))


def test_ricci_examples(entries):
    z = gc.UnitField.from_exprs("z", ("0", "0", "1"))
    assert abs(diagnose(flat(), z, [[0.0, 0, 0]]).ric_X[0]) < 1e-14

    # Ric in a random unit direction v: the column of a field equal to v at p
    man_s3 = entries["s3_hopf"].manifold
    p = np.array([0.2, -0.1, 0.4])
    g = man_s3.metric_at(p)
    rng = np.random.default_rng(2)
    v = rng.standard_normal(3)
    v = v / np.sqrt(inner(g, v, v))
    assert abs(diagnose(man_s3, constant_field(v), p[None]).ric_X[0] - 2.0) < 1e-8

    entry = entries["h2xr_vertical"]
    q = np.array([[0.0, 1.0, 0.0]])
    assert abs(diagnose(entry.manifold, entry.field, q).ric_X[0] - (-1.0)) < 1e-8


def test_jacobi_tensor_examples(entries):
    z = gc.UnitField.from_exprs("z", ("0", "0", "1"))
    d, M = jacobi_matrices(flat(), z, np.array([[0.0, 0, 0]]))
    assert np.abs(M).max() < 1e-14 and d.Delta[0] == d.delta[0] == 0.0

    entry = entries["h3_vertical"]
    d, M = jacobi_matrices(entry.manifold, entry.field, np.array([[0.0, 0.0, 1.0]]))
    np.testing.assert_allclose(M[0], -np.eye(2), atol=1e-9)
    assert abs(d.Delta[0] + 1) < 1e-9 and abs(d.delta[0] + 1) < 1e-9

    entry = entries["h2xr_vertical"]
    d, M = jacobi_matrices(entry.manifold, entry.field, np.array([[0.0, 1.0, 0.0]]))
    np.testing.assert_allclose(M[0], np.diag([-1.0, 0.0]), atol=1e-9)
    assert abs(d.Delta[0]) < 1e-9 and abs(d.delta[0] + 1) < 1e-9


@pytest.mark.parametrize("name", ["s3_hopf", "heisenberg_reeb", "s3_weighted(2,3)"])
def test_jacobi_tensor_self_adjoint(entries, name):
    entry = entries[name]
    d, M = jacobi_matrices(entry.manifold, entry.field, entry.grid.points()[::11])
    assert np.abs(M[:, 0, 1] - M[:, 1, 0]).max() < 1e-6
    assert np.all(d.Delta >= d.delta)


@pytest.mark.parametrize("n", [1, 2, 7, 50])
def test_jacobi_matrix_bits_do_not_depend_on_the_frames_layout(n):
    """Frames passed as a strided swapaxes view give M bit for bit as their
    C-ordered copy, as do strided R, g and X: the einsums' loop order would
    otherwise follow the strides."""
    rng = np.random.default_rng(n)
    for _ in range(200):
        riem = rng.standard_normal((n, 3, 3, 3, 3))
        g = rng.standard_normal((n, 3, 3))
        x = rng.standard_normal((n, 3))
        cols = rng.standard_normal((n, 3, 2))  # frame vectors as columns
        e = np.swapaxes(cols, 1, 2)
        assert not e.flags.c_contiguous
        expected = jacobi_matrix(riem, g, x, np.ascontiguousarray(e))
        assert np.array_equal(jacobi_matrix(riem, g, x, e), expected)
        strided = (np.swapaxes(np.swapaxes(riem, 1, 4).copy(), 1, 4),
                   np.swapaxes(np.swapaxes(g, 1, 2).copy(), 1, 2),
                   np.asfortranarray(x))
        assert np.array_equal(jacobi_matrix(*strided, e), expected)


def test_metric_compatibility_along_curve(entries, orbit_cache):
    """d/dt g(V, W) = g(DV, W) + g(V, DW) for coordinate-constant V, W."""
    entry = entries["h3_vertical"]
    man = entry.manifold
    traj = orbit_cache("h3_vertical")
    V = np.array([1.0, 0.0, 0.0])
    W = np.array([0.3, -0.2, 0.5])
    k = 700
    h = traj.step
    vals = [inner(man.metric_at(traj.points[k + s]), V, W) for s in (-1, 0, 1)]
    lhs = (vals[2] - vals[0]) / (2 * h)
    p = traj.points[k]
    xv = traj.X_along[k]
    g = man.metric_at(p)
    gam = christoffel(man, p)
    dV = np.einsum("kij,i,j->k", gam, xv, V)  # constant components
    dW = np.einsum("kij,i,j->k", gam, xv, W)
    rhs = inner(g, dV, W) + inner(g, V, dW)
    assert abs(lhs - rhs) < 1e-5


@pytest.mark.parametrize("name,tol", [("h3_vertical", 1e-5),
                                      ("heisenberg_reeb", 1e-6),
                                      ("h2xr_vertical", 1e-6)])
def test_parallel_jacobi_defect_small(orbit_cache, name, tol):
    """||M(t + h) - M(t)||_F / h between two samples in the parallel frame."""
    traj = orbit_cache(name)
    mid = len(traj) // 2
    defect = np.linalg.norm(traj.M[mid + 1] - traj.M[mid]) / traj.step
    assert defect < tol
