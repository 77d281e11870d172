"""Shape operator, defects, eigenvalue classification and point diagnosis."""

import tracemalloc

import numpy as np
import pytest

import geocontact as gc
from conftest import ENTRY_NAMES
from geocontact import catalog
from geocontact.curvature import (EIGEN_DISC_TOL, christoffel_with_partials,
                                  real_eigenvalues, trace_discriminant)
from geocontact.errors import (DegenerateSeed, DomainError, GeoContactError, NotPositiveDefinite,
                               NotUnit, OutOfChart, SingularMetric)
from geocontact.field import (ComplexPair, RealPair, UnitField, beta_ranks,
                              _contact_form, _require_nonzero, contact_defect_grid, diagnose,
                              diagnose_point, eigen_columns, frame_terms)
from geocontact.geometry import Frame, _jet, _require_finite_metric, _require_metric, frame_at
from oracles import berger_sphere, skew_lines


def flat():
    return gc.manifold_from_exprs("flat", (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1")))


# ---------------------------------------------------------------------------
# Defects
# ---------------------------------------------------------------------------

def test_unit_defect_examples(entries):
    z = UnitField.from_exprs("z", ("0", "0", "1"))
    assert diagnose_point(flat(), z, np.array([0.0, 0, 0])).unit_defect == 0.0
    entry = entries["h3_vertical"]
    p = np.array([0.3, -0.1, 0.7])
    assert diagnose_point(entry.manifold, entry.field, p).unit_defect < 1e-15
    twice = UnitField.from_exprs("2z", ("0", "0", "2"))
    d = diagnose_point(flat(), twice, np.array([0.0, 0, 0]), unit_tol=np.inf)
    assert abs(d.unit_defect - 3.0) < 1e-15


def test_geodesic_defect_h3(entries):
    entry = entries["h3_vertical"]
    d = diagnose_point(entry.manifold, entry.field, np.array([0.2, 0.1, 1.4]))
    assert d.geodesic_defect < 1e-12


def skew_flat_acceleration(fld, p, h=1e-6):
    """Independent flat-space oracle: (X . grad) X by central differences."""
    xv = fld.value(p)
    jac = np.empty((3, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        jac[:, j] = (fld.value(p + e) - fld.value(p - e)) / (2 * h)
    return jac @ xv


def test_geodesic_defect_skew_with_oracle(entries):
    entry = entries["euclidean_skew"]
    rng = np.random.default_rng(31)
    for _ in range(10):
        p = rng.uniform(-2, 2, 3)
        assert diagnose_point(entry.manifold, entry.field, p).geodesic_defect < 1e-6
        assert np.abs(skew_flat_acceleration(entry.field, p)).max() < 1e-4


def test_geodesic_defect_nonzero_witness():
    tilted = UnitField.from_exprs(
        "tilt", ("1/sqrt(1 + x1^2)", "0", "x1/sqrt(1 + x1^2)"))
    d = diagnose_point(flat(), tilted, np.array([0.0, 0.0, 0.0])).geodesic_defect
    assert abs(d - 1.0) < 1e-10  # flat-space oracle: (X.grad)X = (0,0,1) at x1=0


def test_killing_defect_examples(entries):
    def killing(entry, p):
        return diagnose_point(entry.manifold, entry.field, np.array(p)).killing_defect

    assert killing(entries["s3_hopf"], [0.4, -0.2, 0.3]) < 1e-8
    assert killing(entries["heisenberg_reeb"], [0.5, 0.1, -0.9]) < 1e-8
    d = killing(entries["h3_vertical"], [0.0, 0.0, 1.0])
    assert abs(d - 2.0) < 1e-9  # symmetric part of beta is -id


# ---------------------------------------------------------------------------
# Shape operator
# ---------------------------------------------------------------------------

def test_beta_h3_minus_identity(entries):
    entry = entries["h3_vertical"]
    d = diagnose(entry.manifold, entry.field, [[0.1, -0.2, x3] for x3 in (0.5, 1.0, 2.0)])
    np.testing.assert_allclose(d.B, np.broadcast_to(-np.eye(2), d.B.shape), atol=1e-10)
    assert d.tangency.max() < 1e-10


def test_beta_h2xr_rank_one(entries):
    entry = entries["h2xr_vertical"]
    d = diagnose(entry.manifold, entry.field, np.array([[0.0, 1.0, 0.0]]))
    assert not d.complex[0]
    lo, hi = sorted(d.eig_re[0])
    assert abs(hi) < 1e-10
    assert lo < -0.1
    assert d.beta_rank[0] == 1
    # measured value of the nonzero eigenvalue, reported for the record:
    # it is -1 independent of x2 (matches a direct Christoffel computation)
    d = diagnose(entry.manifold, entry.field, [[0.3, x2, -0.4] for x2 in (0.5, 1.0, 2.0)])
    assert not d.complex.any()
    assert np.abs(d.eig_re.min(axis=1) - (-1.0)).max() < 1e-9


def test_beta_flat_parallel_zero():
    z = UnitField.from_exprs("z", ("0", "0", "1"))
    d = diagnose(flat(), z, np.array([[0.0, 0, 0]]))
    assert np.abs(d.B).max() == 0.0
    assert d.beta_rank[0] == 0


def test_beta_requires_unit_field():
    twice = UnitField.from_exprs("2z", ("0", "0", "2"))
    with pytest.raises(NotUnit):
        diagnose(flat(), twice, np.array([[0.0, 0, 0]]))


def test_beta_image_tangent_to_complement(entries):
    for name in ("s3_hopf", "heisenberg_reeb", "euclidean_skew", "s3_weighted(2,3)"):
        entry = entries[name]
        d = diagnose(entry.manifold, entry.field, entry.grid.points()[::17])
        assert d.tangency.max() < 1e-6


# ---------------------------------------------------------------------------
# Contact defect
# ---------------------------------------------------------------------------

def test_contact_defect_examples(entries):
    h3 = entries["h3_vertical"]
    assert abs(diagnose(h3.manifold, h3.field, [[0.0, 0, 1.0]]).contact_defect[0]) < 1e-12
    h2 = entries["h2xr_vertical"]
    assert abs(diagnose(h2.manifold, h2.field, [[0.0, 1.0, 0.0]]).contact_defect[0]) < 1e-12


def hopf_ambient_defect(u):
    """Ambient R^4 oracle for |d(alpha)(e1, e2)| of the unit Hopf field.

    Works directly on the sphere: builds an orthonormal basis of the
    orthogonal complement of {q, V(q)} and evaluates
    d(alpha) = 2(dx1^dy1 + dx2^dy2) on it.
    """
    s = u @ u
    q = np.array([2 * u[0], 2 * u[1], 2 * u[2], s - 1.0]) / (1.0 + s)
    V = np.array([-q[1], q[0], -q[3], q[2]])
    basis = []
    for seed in np.eye(4):
        v = seed - (seed @ q) * q - (seed @ V) * V
        for b in basis:
            v = v - (v @ b) * b
        n = np.linalg.norm(v)
        if n > 1e-8:
            basis.append(v / n)
        if len(basis) == 2:
            break
    E1, E2 = basis
    form = 2.0 * (E1[0] * E2[1] - E1[1] * E2[0] + E1[2] * E2[3] - E1[3] * E2[2])
    return abs(form)


def test_hopf_contact_defect_against_ambient_oracle(entries):
    entry = entries["s3_hopf"]
    pts = np.random.default_rng(41).uniform(-1.5, 1.5, (10, 3))
    defects = diagnose(entry.manifold, entry.field, pts).contact_defect
    for u, measured in zip(pts, np.abs(defects)):
        assert abs(measured - hopf_ambient_defect(u)) < 1e-9
        assert abs(measured - 2.0) < 1e-9


# ---------------------------------------------------------------------------
# Eigenvalue classification
# ---------------------------------------------------------------------------

def test_eigen_classify_cases():
    cplx, re, im = eigen_columns(np.array([[[-1.0, 0.0], [0.0, -1.0]],
                                           [[0.0, -1.0], [1.0, 0.0]],
                                           [[0.0, 0.0], [0.0, -1.0]]]))
    assert cplx.tolist() == [False, True, False]
    assert re.tolist() == [[-1.0, -1.0], [0.0, 0.0], [0.0, -1.0]]
    assert im.tolist() == [[0.0, 0.0], [1.0, -1.0], [0.0, 0.0]]


def test_eigen_discriminant_noise_floor():
    # a tiny negative discriminant still counts as a repeated real pair
    eps = 1e-7
    cplx, _, _ = eigen_columns(np.array([[0.0, -eps], [eps, 0.0]]))
    assert not cplx


def test_beta_rank_tolerances():
    B = np.array([[[0.0, 0.0], [0.0, 0.0]], [[1e-12, 0.0], [0.0, 1e-13]],
                  [[1.0, 0.0], [0.0, 1e-10]], [[1.0, 0.0], [0.0, 0.5]]])
    assert beta_ranks(B).tolist() == [0, 0, 1, 2]


def test_batched_eigen_columns_and_ranks_match_per_matrix_reference():
    """Equal, bit for bit, to the closed forms and the SVD applied one matrix at a time."""
    rng = np.random.default_rng(3)
    B = np.concatenate([rng.standard_normal((200, 2, 2)),
                        [[[0.0, -1e-7], [1e-7, 0.0]], [[0.0, 0.0], [0.0, 0.0]],
                         [[1.0, 0.0], [0.0, 1e-10]]]])
    cplx, re, im = eigen_columns(B)
    assert 0 < cplx.sum() < len(B)
    assert not np.signbit(im[~cplx]).any() and np.all(im[~cplx] == 0.0)
    np.testing.assert_array_equal(im[cplx, 1], -im[cplx, 0])
    ranks = beta_ranks(B)
    for k, b in enumerate(B):
        tr, disc = trace_discriminant(b)
        if disc < -EIGEN_DISC_TOL:
            assert cplx[k]
            assert (re[k, 0], re[k, 1], im[k, 0]) == (0.5 * tr, 0.5 * tr, 0.5 * np.sqrt(-disc))
        else:
            assert not cplx[k] and tuple(re[k]) == tuple(real_eigenvalues(b))
        sv = np.linalg.svd(b, compute_uv=False)
        assert ranks[k] == np.sum(sv > max(1e-6 * sv[0], 1e-9))
        # the N = 1 batch is row k, bit for bit
        assert beta_ranks(b[None])[0] == ranks[k]
        one = eigen_columns(b[None])
        assert [col[0].tobytes() for col in one] == [col[k].tobytes() for col in (cplx, re, im)]


# ---------------------------------------------------------------------------
# Point diagnosis
# ---------------------------------------------------------------------------

def test_diagnose_h3(entries):
    entry = entries["h3_vertical"]
    d = diagnose_point(entry.manifold, entry.field, np.array([0.0, 0.0, 1.0]))
    assert d.geodesic_defect < 1e-12
    assert abs(d.contact_defect) < 1e-12
    assert d.eigen == RealPair(-1.0, -1.0)
    assert abs(d.ric_X + 2.0) < 1e-9
    assert abs(d.Delta + 1.0) < 1e-9 and abs(d.delta + 1.0) < 1e-9
    assert d.beta_rank == 2
    assert d.contact_defect == d.B[1, 0] - d.B[0, 1]


def test_diagnose_h2xr(entries):
    entry = entries["h2xr_vertical"]
    d = diagnose_point(entry.manifold, entry.field, np.array([0.0, 1.0, 0.0]))
    assert abs(d.contact_defect) < 1e-12
    assert d.beta_rank == 1
    assert abs(d.Delta) < 1e-9 and abs(d.delta + 1.0) < 1e-9


def _diagnosis_arrays(d):
    eig = (d.eigen.lam, d.eigen.mu) if isinstance(d.eigen, RealPair) else (d.eigen.a, d.eigen.b)
    return np.concatenate([
        d.p, [d.unit_defect, d.geodesic_defect, d.killing_defect, d.contact_defect,
              d.ric_X, d.Delta, d.delta, d.beta_rank, d.tangency], eig,
        d.B.ravel(), d.frame.ravel()])


@pytest.mark.parametrize("name", ["s3_hopf", "h2xr_vertical", "heisenberg_reeb",
                                  "euclidean_skew"])
def test_diagnose_batch_matches_single_points(entries, name):
    entry = entries[name]
    pts = entry.grid.points()[::9]
    batch = diagnose(entry.manifold, entry.field, pts)
    assert len(batch) == len(pts)
    for p, d in zip(pts, batch):
        single = diagnose_point(entry.manifold, entry.field, p)
        assert type(d.eigen) is type(single.eigen)
        np.testing.assert_allclose(_diagnosis_arrays(d), _diagnosis_arrays(single),
                                   rtol=0, atol=1e-12)
    perm = np.random.default_rng(7).permutation(len(pts))
    shuffled = diagnose(entry.manifold, entry.field, pts[perm])
    for k, d in zip(perm, shuffled):
        np.testing.assert_allclose(_diagnosis_arrays(d), _diagnosis_arrays(batch[k]),
                                   rtol=0, atol=1e-12)


def test_diagnosis_rows_are_its_columns(entries):
    entry = entries["s3_weighted(2,3)"]
    diag = diagnose(entry.manifold, entry.field, entry.grid.points()[::7])
    for k, row in enumerate(diag):
        np.testing.assert_array_equal(row.p, diag.p[k])
        for name in ("unit_defect", "killing_defect", "contact_defect", "Delta", "beta_rank"):
            assert getattr(row, name) == getattr(diag, name)[k]
        np.testing.assert_array_equal(row.B, diag.B[k])
        np.testing.assert_array_equal(row.frame, diag.frame[k])
        assert row.tangency == diag.tangency[k]
    assert k == len(diag) - 1


def test_diagnose_makes_one_svd_call(entries, monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    entry = entries["heisenberg_reeb"]
    diagnose(entry.manifold, entry.field, entry.grid.points())
    assert calls == [(125, 2, 2)]


def test_diagnose_names_first_non_unit_point():
    bump = UnitField.from_exprs("bump", ("0", "0", "1 + x1^2"))
    pts = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(NotUnit, match=r"unit defect 5\.625e-01 at \[0\.5 0\.  0\. \]"):
        diagnose(flat(), bump, pts)


def test_diagnose_names_first_vanishing_point():
    """A field that is zero or not finite somewhere is named there, after the
    unit check and before the frame is normalised (so no numpy warning)."""
    vanishing = UnitField.from_exprs("vanishing", ("0", "0", "x1 - 0.5"))
    pts = np.array([[0.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.5, 0.0, 0.0]])
    with pytest.raises(DegenerateSeed, match=r"zero or not finite at \[0\.5 1\.  0\. \]"):
        diagnose(flat(), vanishing, pts, unit_tol=np.inf)
    with pytest.raises(NotUnit, match=r"at \[0\. 0\. 0\.\]"):
        diagnose(flat(), vanishing, pts)
    with pytest.raises(DegenerateSeed, match=r"zero or not finite at \[0\.5 0\.  0\. \]"):
        diagnose(flat(), UnitField.from_callable("nan", lambda p: np.where(
            p[:, :1] == 0.5, np.nan, 1.0) * [0.0, 0.0, 1.0]), pts[::2], unit_tol=np.inf)


@pytest.mark.parametrize("name,value", [("s3_hopf", 1.0), ("heisenberg_reeb", 0.25)])
def test_mixed_curvature_eigenvalues_accurate(entries, name, value):
    """Delta and delta of a Jacobi tensor proportional to the identity.

    The eigenvalues nearly coincide there, where tr^2 - 4 det cancels and
    its rounding error enters through a square root.
    """
    entry = entries[name]
    diags = diagnose(entry.manifold, entry.field, entry.grid.points())
    assert max(abs(d.Delta - value) for d in diags) < 1e-9
    assert max(abs(d.delta - value) for d in diags) < 1e-9


def test_diagnose_flat_parallel():
    z = UnitField.from_exprs("z", ("0", "0", "1"))
    d = diagnose_point(flat(), z, np.array([0.5, -0.5, 0.5]))
    assert d.unit_defect == d.geodesic_defect == d.killing_defect == 0.0
    assert abs(d.contact_defect) <= 1e-15 and d.beta_rank == 0


# ---------------------------------------------------------------------------
# Frame invariance
# ---------------------------------------------------------------------------

def rotated_frame(g, fr, theta):
    e1 = np.cos(theta) * fr.e1 + np.sin(theta) * fr.e2
    e2 = -np.sin(theta) * fr.e1 + np.cos(theta) * fr.e2
    return Frame(fr.X, e1, e2)


def shape_operators(entry, p, frames):
    """B at p in each of ``frames``, one ``frame_terms`` batch."""
    pts = np.repeat(p[None], len(frames), axis=0)
    g, gam, dgam = christoffel_with_partials(entry.manifold, pts)
    frame = np.array([np.stack([fr.X, fr.e1, fr.e2], axis=1) for fr in frames])
    gram = frame_terms(entry.manifold, entry.field, pts, g, gam, dgam, entry.field.value(pts),
                       frame)[1]
    return np.swapaxes(gram[:, 1:, 1:], 1, 2)


@pytest.mark.parametrize("name", ["s3_hopf", "heisenberg_reeb", "h3_vertical",
                                  "euclidean_skew"])
def test_frame_invariance(entries, name):
    entry = entries[name]
    rng = np.random.default_rng(abs(hash(name)) % 2**32)
    p = np.asarray(entry.orbit.start, float)
    g = entry.manifold.metric_at(p)
    fr = frame_at(g, entry.field.value(p))
    # the frame, four rotations of it and (last) the orientation reversal
    frames = [fr, *(rotated_frame(g, fr, rng.uniform(0, 2 * np.pi)) for _ in range(4)),
              Frame(fr.X, fr.e2, fr.e1)]
    B = shape_operators(entry, p, frames)
    defect = B[:, 1, 0] - B[:, 0, 1]
    cplx = eigen_columns(B)[0]
    b = B[0]
    for b_rot, defect_rot, cplx_rot in zip(B[1:5], defect[1:5], cplx[1:5]):
        assert abs(np.trace(b_rot) - np.trace(b)) < 1e-8
        assert abs(np.linalg.det(b_rot) - np.linalg.det(b)) < 1e-8
        assert abs(abs(defect_rot) - abs(defect[0])) < 1e-8
        assert cplx_rot == cplx[0]
    # orientation reversal flips the sign of the defect
    assert abs(defect[5] + defect[0]) < 1e-10


# ---------------------------------------------------------------------------
# Mutual consistency (self-adjointness vs defect vs eigenvalues)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["euclidean_parallel", "euclidean_skew", "s3_hopf",
                                  "h2xr_vertical", "h3_vertical", "heisenberg_reeb"])
def test_selfadjoint_defect_eigen_consistency(entries, name):
    entry = entries[name]
    for p in entry.grid.points()[::13]:
        d = diagnose_point(entry.manifold, entry.field, p)
        b = d.B
        sym_defect = abs(b[1, 0] - b[0, 1])
        assert abs(abs(d.contact_defect) - sym_defect) < 1e-14
        if sym_defect < 1e-8:
            assert isinstance(d.eigen, RealPair)
        if isinstance(d.eigen, ComplexPair):
            assert sym_defect > 1e-8


@pytest.mark.parametrize("name", ["s3_hopf", "heisenberg_reeb", "s3_weighted(2,3)",
                                  "euclidean_parallel"])
def test_killing_implies_skew(entries, name):
    entry = entries[name]
    for p in entry.grid.points()[::13]:
        d = diagnose_point(entry.manifold, entry.field, p)
        if d.killing_defect < 1e-8:
            sym = 0.5 * (d.B + d.B.T)
            assert np.linalg.norm(sym) < 1e-6


# ---------------------------------------------------------------------------
# Vectorised defect
# ---------------------------------------------------------------------------

def test_central_difference_backend_agrees(entries):
    """Opaque callables (no expressions) go through central differences and
    must reproduce the dual-number diagnostics to truncation accuracy."""
    exact = entries["heisenberg_reeb"]
    man = gc.manifold_from_exprs(
        "heis_central",
        (("1", "0", "0"), ("0", "1 + x1^2", "-x1"), ("0", "-x1", "1")),
        diff_mode="central")
    fld = UnitField.from_callable(
        "z_callable", lambda pts: np.tile([0.0, 0.0, 1.0], (pts.shape[0], 1)))
    p = np.array([0.4, -0.3, 0.8])
    d_exact = diagnose_point(exact.manifold, exact.field, p)
    d_central = diagnose_point(man, fld, p)
    assert np.abs(d_central.B - d_exact.B).max() < 1e-9
    assert abs(d_central.contact_defect - d_exact.contact_defect) < 1e-9
    assert abs(d_central.Delta - d_exact.Delta) < 1e-6
    assert abs(d_central.ric_X - d_exact.ric_X) < 1e-6


def test_contact_defect_grid_matches_pointwise(entries):
    entry = entries["s3_weighted(2,3)"]
    pts = entry.grid.points()[::7]
    batch = contact_defect_grid(entry.manifold, entry.field, pts)
    for k, p in enumerate(pts):
        d = diagnose_point(entry.manifold, entry.field, p).contact_defect
        assert abs(batch[k] - d) < 1e-12


def diag_chart(name, entries, domain="true"):
    """A chart with the diagonal metric ``entries``."""
    return gc.manifold_from_exprs(name, ((entries[0], "0", "0"), ("0", entries[1], "0"),
                                         ("0", "0", entries[2])), domain=domain)


#: the batch of the error cases: fine, indefinite, ill-conditioned, outside a unit ball
ERROR_ROWS = np.array([[0.5, 0.0, 0.0], [-0.5, 0.1, 0.0], [0.0, 0.2, 0.0], [2.0, 0.0, 0.0]])


@pytest.mark.parametrize("mode", ["dual", "central"])
@pytest.mark.parametrize("man, error, message", [
    (diag_chart("indefinite", ("x1", "1", "1")), NotPositiveDefinite,
     "not positive definite at [-0.5  0.1  0. ]"),
    (diag_chart("ill", ("1", "1", "1e-13 + x1^2")), SingularMetric,
     "numerically singular at [0.  0.2 0. ]"),
    (diag_chart("ball", ("1", "1", "1"), domain="1 - x1^2 - x2^2 - x3^2"), OutOfChart,
     "point [2. 0. 0.] outside the chart"),
    (diag_chart("pole", ("1/x1", "1", "1")), DomainError, "division by zero in '(1.0 / x1)'"),
    # the chart is checked before the metric, positive definiteness before conditioning
    (diag_chart("indefinite_ball", ("x1", "1", "1"), domain="1 - x1^2 - x2^2 - x3^2"),
     OutOfChart, "point [2. 0. 0.] outside the chart"),
    (diag_chart("ill_indefinite", ("1.5 - x1", "1", "1e-13 + x1^2")), NotPositiveDefinite,
     "not positive definite at [2. 0. 0.]"),
], ids=["indefinite", "ill-conditioned", "outside", "division-by-zero", "chart-first",
        "definiteness-before-conditioning"])
def test_contact_defect_grid_names_the_first_bad_point(man, error, message, mode):
    """The metric checks of the shape-operator path, with their errors, first
    points and order: chart, finiteness, positive definiteness, conditioning."""
    man.diff_mode = mode
    with pytest.raises(error) as info:
        contact_defect_grid(man, UnitField.from_exprs("z", ("0", "0", "1")), ERROR_ROWS)
    assert message in str(info.value)


def test_contact_defect_grid_of_a_non_unit_field(entries):
    """For any nonzero X the defect is d(alpha)(e1, e2) of alpha = gX: scaling X
    by 2 doubles it. A field that vanishes is named at its first zero."""
    entry = entries["s3_hopf"]
    pts = entry.grid.points()[::9]
    double = UnitField.from_exprs("double", [f"2*({c})" for c in catalog._HOPF_COMPONENTS])
    np.testing.assert_allclose(contact_defect_grid(entry.manifold, double, pts),
                               2 * contact_defect_grid(entry.manifold, entry.field, pts),
                               rtol=0, atol=1e-12)
    vanishing = UnitField.from_exprs("vanishing", ("0", "0", "x1 - 0.5"))
    with pytest.raises(DegenerateSeed, match=r"zero or not finite at \[0.5 0.  0. \]"):
        contact_defect_grid(entry.manifold, vanishing, ERROR_ROWS)


# ---------------------------------------------------------------------------
# Contact-form kernel
# ---------------------------------------------------------------------------

def contact_form_by_matmuls(man, X, pts):
    """The wedge of ``field._contact_form`` as three batched 3x3 matmuls on
    point-major jets, the kernel it replaced: the reference its bits are pinned
    to. The jets are C-ordered copies, the layout these matmuls read before."""
    g, dg = (np.ascontiguousarray(a) for a in
             _jet(man, man.metric_fn, pts, man.metric_exprs, _require_finite_metric))
    _require_metric(man, pts, g)
    xv, dx = (np.ascontiguousarray(a) for a in _jet(man, X.component_fn, pts, X.component_exprs))
    alpha = (g @ xv[..., None])[..., 0]
    norm2 = alpha[:, 0] * xv[:, 0] + alpha[:, 1] * xv[:, 1] + alpha[:, 2] * xv[:, 2]
    _require_nonzero(X, pts, norm2)
    da = (dg @ xv[:, None, :, None])[..., 0] + dx @ g  # da[n, j, k] = d_j alpha_k, g symmetric
    curl = (da - np.swapaxes(da, 1, 2))[:, [1, 2, 0], [2, 0, 1]]
    return alpha[:, 0] * curl[:, 0] + alpha[:, 1] * curl[:, 1] + alpha[:, 2] * curl[:, 2]


def contact_form_cases():
    """(id, entry, pts): every catalog grid, 4,096 rows of each volume box,
    skew-line fibrations on their grids, and single rows."""
    cases = []
    for name in ENTRY_NAMES:
        entry = gc.builtin(name)
        pts = entry.grid.points()
        cases += [(f"{name}/grid", entry, pts[entry.manifold.contains(pts)]),
                  (f"{name}/one", entry, pts[62:63])]
        param = entry.manifold.volume_param
        if param is not None:
            rng = np.random.default_rng(4096)
            params = tuple(rng.uniform(lo, hi, 4096) for lo, hi in param.box)
            cases.append((f"{name}/volume", entry, param.chart_map(params)))
    for entry in (skew_lines(((0.0, -1.0), (1.0, 0.0))), skew_lines(((1.0, -2.0), (3.0, 0.5)))):
        cases += [(f"{entry.name}/grid", entry, entry.grid.points()),
                  (f"{entry.name}/one", entry, entry.grid.points()[7:8])]
    return cases


CONTACT_FORM_CASES = contact_form_cases()


@pytest.mark.parametrize("mode", ["dual", "central"])
@pytest.mark.parametrize("name, entry, pts", CONTACT_FORM_CASES,
                         ids=[case[0] for case in CONTACT_FORM_CASES])
def test_contact_form_has_the_bits_of_the_matmul_kernel(name, entry, pts, mode, monkeypatch):
    monkeypatch.setattr(entry.manifold, "diff_mode", mode)
    wedge = _contact_form(entry.manifold, entry.field, pts)[0]
    assert wedge.tobytes() == contact_form_by_matmuls(entry.manifold, entry.field, pts).tobytes()


@pytest.mark.parametrize("mode", ["dual", "central"])
@pytest.mark.parametrize("eps", [0.3, 0.5, 1.7, 3.0])
def test_contact_form_of_a_dense_metric_is_the_matmul_kernel_to_rounding(eps, mode):
    """On a dense g, a Berger sphere's, the matmuls' BLAS kernel rounds in an
    order of its own where the component rows round each product and sum left
    to right, so the two differ in their last bits: by at most 6.6e-16 of the
    batch's largest value (measured on an AVX-512 host; 17 ulp at berger(0.3)),
    held to 1e-15."""
    entry = berger_sphere(eps)
    entry.manifold.diff_mode = mode
    pts = entry.grid.points()
    wedge = _contact_form(entry.manifold, entry.field, pts)[0]
    reference = contact_form_by_matmuls(entry.manifold, entry.field, pts)
    assert np.abs(wedge - reference).max() <= 1e-15 * np.abs(reference).max()


def _raised(call):
    """The type and message of the error ``call`` raises, or None."""
    try:
        call()
    except GeoContactError as err:
        return type(err), str(err)
    return None


#: zero at the origin, not finite at x3 = 1 (exp overflows)
ZERO_OR_INF = ("x1", "x2", "x3*exp(1000*x3)")


@pytest.mark.parametrize("mode", ["dual", "central"])
@pytest.mark.parametrize("rows, error, first", [
    ([[0.5, 0.5, 0.1], [0.0, 0.0, 0.0], [0.1, 0.2, 1.0]], DegenerateSeed, [0.0, 0.0, 0.0]),
    ([[0.5, 0.5, 0.1], [0.1, 0.2, 1.0], [0.0, 0.0, 0.0]], DegenerateSeed, [0.1, 0.2, 1.0]),
    ([[0.0, 0.0, 0.0], [0.5, 0.5, 0.1], [-2.0, 0.3, 0.1]], NotPositiveDefinite, [-2.0, 0.3, 0.1]),
], ids=["zero-first", "inf-first", "metric-before-field"])
def test_contact_form_raises_as_the_matmul_kernel(rows, error, first, mode):
    """The field's DegenerateSeed names the first zero or non-finite row, after
    every metric check, on the component-major jets as on C-ordered copies."""
    man = diag_chart("tilted", ("1", "1", "1 + x1/1.5"))
    man.diff_mode = mode
    X, pts = UnitField.from_exprs("zero_or_inf", ZERO_OR_INF), np.array(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        raised = _raised(lambda: _contact_form(man, X, pts))
        assert raised == _raised(lambda: contact_form_by_matmuls(man, X, pts))
    assert raised[0] is error and raised[1].endswith(f"at {np.array(first)}")


#: finite everywhere below x3 = 0.7000; with central differences its partials at
#: x3 = 0.7 are not, as exp overflows within the stencil
STEEP = ("0", "0", "1 + 0*exp(1013.97*x3)")


@pytest.mark.parametrize("kernel", [diagnose, _contact_form, contact_defect_grid])
def test_field_partials_that_are_not_finite_raise_degenerate_seed(kernel):
    """Every kernel that differentiates the field names the first row where
    its partials are not finite, after every row's value check: a value that
    is not finite at a later row is named first."""
    man = flat()
    man.diff_mode = "central"
    X = UnitField.from_exprs("steep", STEEP)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DegenerateSeed, match=r"'steep' has partials that are not finite "
                                                 r"at \[0\. +0\. +0\.7\]"):
            kernel(man, X, np.array([[0.0, 0.0, 0.5], [0.0, 0.0, 0.7], [0.0, 0.0, 0.6]]))
        with pytest.raises(DegenerateSeed, match=r"'steep' is zero or not finite "
                                                 r"at \[0\. +0\. +0\.8\]"):
            kernel(man, X, np.array([[0.0, 0.0, 0.7], [0.0, 0.0, 0.8]]))


def test_contact_form_peak_memory_is_bounded(entries):
    """At 4,096 rows of the s3_hopf volume box, the tracemalloc peak of
    ``_contact_form`` stays within 2.1 times the metric's jet (4 x 9 x N floats):
    it read 1.97, 6% below the bound, and 2.37 with the matmul kernel, whose
    (N, 3, 3) products the component rows do not allocate."""
    entry = entries["s3_hopf"]
    param = entry.manifold.volume_param
    rng = np.random.default_rng(0)
    pts = param.chart_map(tuple(rng.uniform(lo, hi, 4096) for lo, hi in param.box))
    _contact_form(entry.manifold, entry.field, pts[:2])  # compiles outside the measurement
    tracemalloc.start()
    try:
        _contact_form(entry.manifold, entry.field, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * (4 * 9 * len(pts) * 8)
