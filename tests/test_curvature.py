"""Christoffel symbols, curvature tensors and the Jacobi tensor.

Closed-form oracle values for the half-space and product metrics were
derived symbolically (Koszul formula on g = delta/x3^2 and on the product
metric) and are frozen here.
"""

import tracemalloc

import numpy as np
import pytest

import geocontact as gc
from conftest import ENTRY_NAMES
from geocontact import curvature, field, geometry
from geocontact.curvature import (christoffel, christoffel_with_partials, covariant_jacobian,
                                  jacobi_matrix, riemann, sectional)
from geocontact.errors import DegeneratePlane, OutOfChart, SingularMetric
from geocontact.field import diagnose
from geocontact.flow import integrate_orbit
from geocontact.geometry import _surely_conditioned, inner


def flat():
    return gc.manifold_from_exprs("flat", (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1")))


def covariant_derivative(man, p, W, v):
    """nabla_v W at p: the ``covariant_jacobian`` of the N = 1 batch, applied to v."""
    pts = p[None]
    return covariant_jacobian(man, W, pts, W.value(pts), christoffel(man, pts))[0] @ v


def jacobi_matrices(man, X, pts):
    """The diagnosis of X at pts and the matrix M of v -> R(v, X)X in each of its frames."""
    d = diagnose(man, X, pts)
    g, gam, dgam = christoffel_with_partials(man, d.p)
    M = jacobi_matrix(gam, dgam, g, d.frame[:, :, 0], np.swapaxes(d.frame[:, :, 1:], 1, 2))
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


def christoffel_by_rows(g, dg):
    """Gamma from g (N, 3, 3) and dg[n, k, i, j] = d_k g_ij by the solve of
    ``christoffel`` on (N, 3, 3) views of the (N, 3, 3, 3) result, with the
    factors broadcast as (N, 1, 1): the reference its bits are pinned to."""
    gamma = np.add(dg.transpose(0, 3, 1, 2), dg.transpose(0, 3, 2, 1), order="C")
    gamma -= dg
    gamma *= 0.5
    l11, l21, l31, l22, l32, l33 = (f[:, None, None] for f in geometry._cholesky(g))
    b0, b1, b2 = gamma[:, 0], gamma[:, 1], gamma[:, 2]
    b0 /= l11
    b1 -= l21 * b0
    b1 /= l22
    b2 -= l31 * b0
    b2 -= l32 * b1
    b2 /= l33
    b2 /= l33
    b1 -= l32 * b2
    b1 /= l22
    b0 -= l21 * b1
    b0 -= l31 * b2
    b0 /= l11
    return gamma


def assert_christoffel_bits(man, pts):
    """``christoffel`` at pts is a C-ordered (N, 3, 3, 3) array, bit for bit the
    reference solve of the same jet, and hands that jet's g to ``metric_out``."""
    g, dg = geometry._jet(man, man.metric_fn, pts, man.metric_exprs)
    g_out = np.empty((len(pts), 3, 3))
    gam = christoffel(man, pts, g_out)
    assert gam.shape == (len(pts), 3, 3, 3) and gam.flags.c_contiguous
    assert gam.tobytes() == christoffel_by_rows(g, dg).tobytes()
    assert g_out.tobytes() == np.ascontiguousarray(g).tobytes()
    return gam


#: a metric whose Cholesky factor is dense (every off-diagonal term nonzero), so
#: that no term of the substitution vanishes; diagonally dominant on |x| <= 1.5
DENSE_G = (("2 + x1^2", "0.3*sin(x2)", "0.2*x3"),
           ("0.3*sin(x2)", "3 + cos(x1*x3)", "0.1*x1*x2"),
           ("0.2*x3", "0.1*x1*x2", "2.5 + x3^2/4"))


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_christoffel_bits_are_the_reference_solves_on_the_catalog_grids(entries, name):
    entry = entries[name]
    pts = entry.grid.points()
    assert_christoffel_bits(entry.manifold, pts[entry.manifold.contains(pts)])


def test_christoffel_bits_are_the_reference_solves_with_central_differences():
    entry = gc.builtin("s3_hopf")
    entry.manifold.diff_mode = "central"
    assert_christoffel_bits(entry.manifold, entry.grid.points())


@pytest.mark.parametrize("mode", ["dual", "central"])
@pytest.mark.parametrize("n", [1, 4, 7, 1600])
def test_christoffel_bits_do_not_depend_on_the_batch_or_the_layout(mode, n):
    """Every batch size runs the one solve: N = 1 as a (3,) point and as a batch
    of one, and a strided batch gives the bits of its C-ordered copy."""
    man = gc.manifold_from_exprs("dense", DENSE_G)
    man.diff_mode = mode
    wide = np.random.default_rng(n).uniform(-1.5, 1.5, (3, 2 * n))
    strided = wide.T[::2]
    assert not strided.flags.c_contiguous
    gam = assert_christoffel_bits(man, np.ascontiguousarray(strided))
    assert christoffel(man, strided).tobytes() == gam.tobytes()
    assert christoffel(man, strided[0]).tobytes() == gam[0].tobytes()


def test_christoffel_peak_memory_is_bounded(entries):
    """At 20,000 rows the tracemalloc peak of ``christoffel`` stays within 2.75
    times its result: the solve holds no copy of dg, and releases dg before
    the result is copied out (the (N, 3, 3)-view solve read 2.92)."""
    man = entries["s3_hopf"].manifold
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, (20_000, 3))
    christoffel(man, pts[:2])  # compiles the metric's program outside the measurement
    tracemalloc.start()
    try:
        gam = christoffel(man, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * gam.nbytes


def test_default_orbit_peak_memory_is_bounded(entries):
    """The tracemalloc peak of the default h3_vertical orbit, 2000 steps with the
    Jacobi pair, stays under 10 MB. Its samples keep g, Gamma and its partials
    from their blocks, 117 floats each (1.9 MB), in place of a post-pass
    stencil: the peak read 9.3 MB, against 8.4 MB with the post-pass, and 12.5
    MB when the kept rows were views that held each block's whole curvature
    batch through the next block."""
    entry = entries["h3_vertical"]
    start = np.asarray(entry.orbit.start, dtype=float)
    integrate_orbit(entry.manifold, entry.field, start, 0.01, entry.orbit.step)  # compiles
    tracemalloc.start()
    try:
        traj = integrate_orbit(entry.manifold, entry.field, start, entry.orbit.t_end,
                               entry.orbit.step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj) == 2001
    assert peak <= 10e6


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


@pytest.mark.parametrize("n", [1, 2, 7, 50])
def test_covariant_jacobian_bits_do_not_depend_on_the_layout(entries, n):
    """Gamma and W passed as strided copies give A bit for bit as their
    C-ordered originals: the einsum's path would otherwise follow the strides."""
    entry = entries["s3_weighted(2,3)"]
    pts = entry.grid.points()[:n]
    gam, wval = christoffel(entry.manifold, pts), entry.field.value(pts)
    expected = covariant_jacobian(entry.manifold, entry.field, pts, wval, gam)
    strided = (np.asfortranarray(wval), np.swapaxes(np.swapaxes(gam, 1, 3).copy(), 1, 3))
    assert not strided[1].flags.c_contiguous
    assert np.array_equal(covariant_jacobian(entry.manifold, entry.field, pts, *strided),
                          expected)


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


def test_sectional_raises_the_stencil_errors_before_a_degenerate_plane():
    """The curvature stencil, diff_step around p, is checked first: at a point
    within diff_step of the chart's edge a degenerate plane raises OutOfChart."""
    man = gc.manifold_from_exprs("half", (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1")),
                                 domain="x3")
    v = np.array([1.0, 0, 0])
    with pytest.raises(DegeneratePlane):
        sectional(man, np.array([0.0, 0.0, 1.0]), v, 2 * v)
    with pytest.raises(OutOfChart):
        sectional(man, np.array([0.0, 0.0, 0.1 * man.diff_step]), v, 2 * v)


def test_sectional_checks_the_metric_once(entries, monkeypatch):
    """One ``_require_metric`` call per ``sectional`` call: on the stencil batch
    of ``christoffel_with_partials``, whose centre rows give g."""
    calls, original = [], geometry._require_metric

    def counting(man, pts, g):
        calls.append(len(pts))
        return original(man, pts, g)

    for module in (geometry, curvature, field):
        monkeypatch.setattr(module, "_require_metric", counting)
    pts = np.random.default_rng(31).uniform(-1, 1, (4, 3))
    sectional(entries["heisenberg_reeb"].manifold, pts, [1.0, 0, 0], [0.0, 1, 0])
    assert calls == [7 * len(pts)]


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
    C-ordered copy, as do strided Gamma, its partials, g and X: the matmuls'
    paths would otherwise follow the strides."""
    rng = np.random.default_rng(n)
    for _ in range(200):
        gam = rng.standard_normal((n, 3, 3, 3))
        dgam = rng.standard_normal((n, 3, 3, 3, 3))
        g = rng.standard_normal((n, 3, 3))
        x = rng.standard_normal((n, 3))
        cols = rng.standard_normal((n, 3, 2))  # frame vectors as columns
        e = np.swapaxes(cols, 1, 2)
        assert not e.flags.c_contiguous
        expected = jacobi_matrix(gam, dgam, g, x, np.ascontiguousarray(e))
        assert np.array_equal(jacobi_matrix(gam, dgam, g, x, e), expected)
        strided = (np.swapaxes(np.swapaxes(gam, 1, 3).copy(), 1, 3),
                   np.swapaxes(np.swapaxes(dgam, 1, 4).copy(), 1, 4),
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
