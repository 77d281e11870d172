"""Charts, metric derivatives and orthonormal frames."""

import itertools
import re

import numpy as np
import pytest

import geocontact as gc
from geocontact.errors import NotPositiveDefinite, OutOfChart, SingularMetric
from geocontact.field import diagnose
from geocontact.geometry import (_require_metric, frame_at, frames_at, g_norm, inner,
                                 metric_partials)


def flat():
    return gc.manifold_from_exprs("flat", (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1")))


# ---------------------------------------------------------------------------
# Metric partials
# ---------------------------------------------------------------------------

def test_flat_partials_vanish():
    dg = metric_partials(flat(), np.array([0.3, -0.7, 1.1]))
    assert np.abs(dg).max() == 0.0


def test_metric_at_rejects_indefinite_metrics():
    """The leading-minor test agrees with the eigenvalues and names the first bad point."""
    rng = np.random.default_rng(11)
    g = rng.standard_normal((400, 3, 3))
    g = g + np.swapaxes(g, 1, 2) + rng.uniform(0.0, 8.0, (400, 1, 1)) * np.eye(3)
    definite = np.linalg.eigvalsh(g).min(axis=1) > 0.0
    assert 0 < definite.sum() < len(g)
    man = gc.ChartedManifold("table", lambda pts: g[pts[:, 0].astype(int)],
                             lambda pts: np.ones(len(pts), dtype=bool))
    pts = np.zeros((len(g), 3))
    pts[:, 0] = np.arange(len(g))
    np.testing.assert_array_equal(man.metric_at(pts[definite]), g[definite])
    first = np.flatnonzero(~definite)[0]
    with pytest.raises(NotPositiveDefinite, match=rf"at \[{first}\. +0\. +0\.\]"):
        man.metric_at(pts)


def h3_partials_oracle(p):
    # g_ij = delta_ij / x3^2 differentiates to d3 g_ij = -2 delta_ij / x3^3
    dg = np.zeros((3, 3, 3))
    dg[2] = -2.0 * np.eye(3) / p[2] ** 3
    return dg


def test_h3_partials_match_analytic(entries):
    man = entries["h3_vertical"].manifold
    p = np.array([0.0, 0.0, 2.0])
    dg = metric_partials(man, p)
    assert abs(dg[2, 0, 0] - (-0.25)) < 1e-14
    np.testing.assert_allclose(dg, h3_partials_oracle(p), atol=1e-14)


def test_h2xr_partials_match_analytic(entries):
    man = entries["h2xr_vertical"].manifold
    dg = metric_partials(man, np.array([0.0, 1.0, 0.0]))
    assert abs(dg[1, 0, 0] - (-2.0)) < 1e-14
    assert abs(dg[1, 1, 1] - (-2.0)) < 1e-14
    assert np.abs(dg[0]).max() == 0.0 and np.abs(dg[2]).max() == 0.0


def test_central_differences_second_order():
    """Halving the step shrinks the central-difference error by >= 3x."""
    man = gc.builtin("h3_vertical").manifold  # fresh copy, mode gets mutated
    p = np.array([0.2, -0.4, 1.3])
    exact = metric_partials(man, p)  # dual-number backend
    man.diff_mode = "central"
    errors = []
    for h in (1e-3, 5e-4):
        man.diff_step = h
        errors.append(np.abs(metric_partials(man, p) - exact).max())
    assert errors[0] / errors[1] >= 3.0


def test_partials_out_of_chart():
    man = gc.builtin("h3_vertical").manifold
    with pytest.raises(OutOfChart):
        metric_partials(man, np.array([0.0, 0.0, -1.0]))
    # central-difference stencil must stay inside as well
    man.diff_mode = "central"
    man.diff_step = 1e-2
    with pytest.raises(OutOfChart):
        metric_partials(man, np.array([0.0, 0.0, 5e-3]))


@pytest.mark.parametrize("diff_mode", ["dual", "central"])
def test_partials_of_a_metric_that_is_not_finite_name_the_point(diff_mode):
    """exp(800) overflows: both modes raise, where the dual jet alone would give inf."""
    man = gc.manifold_from_exprs("exp", (("exp(x1)", "0", "0"), ("0", "1", "0"),
                                         ("0", "0", "1")), diff_mode=diff_mode)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            SingularMetric, match=re.escape("'exp' numerically singular at [800.   0.   0.]")):
        metric_partials(man, np.array([800.0, 0.0, 0.0]))


def test_out_of_chart_names_the_first_point_outside():
    man = gc.builtin("h3_vertical").manifold
    pts = np.array([[0.0, 0.0, 1.0], [0.5, 0.0, -1.0], [0.0, 0.0, -2.0]])
    with pytest.raises(OutOfChart, match=re.escape(str(pts[1]))):
        metric_partials(man, pts)
    # the first stencil point outside: the centre shifted by -h along x3
    man.diff_mode = "central"
    man.diff_step = 1e-2
    with pytest.raises(OutOfChart, match=re.escape(str(np.array([0.0, 0.0, 5e-3 - 1e-2])))):
        metric_partials(man, np.array([0.0, 0.0, 5e-3]))


#: metric rows by kind: fine, not finite, indefinite (eigenvalue -1) and ill-conditioned
METRIC_ROWS = {"fine": np.diag([2.0, 1.0, 3.0]), "nan": np.diag([1.0, np.nan, 1.0]),
               "indefinite": np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
               "ill": np.diag([1.0, 1.0, 1e-13])}


@pytest.mark.parametrize("kinds", list(itertools.permutations(("nan", "indefinite", "ill")))
                         + [("ill", "indefinite"), ("indefinite", "ill"), ("ill",)])
def test_the_metric_check_reads_a_component_major_g_as_a_c_ordered_one(kinds):
    """The one metric check raises the same error at the same point on g laid out
    as an exact jet's value (each g_ij a contiguous (N,) row) and on a C-ordered
    copy: not finite first, then indefinite, then ill-conditioned."""
    rows = ("fine",) + kinds + ("fine",)
    c_ordered = np.array([METRIC_ROWS[kind] for kind in rows])
    component_major = np.ascontiguousarray(c_ordered.transpose(1, 2, 0)).transpose(2, 0, 1)
    pts = np.arange(3.0 * len(rows)).reshape(-1, 3)
    raised = []
    for g in (component_major, c_ordered):
        with pytest.raises((SingularMetric, NotPositiveDefinite)) as err:
            _require_metric(flat(), pts, g)
        raised.append((err.type, str(err.value)))
    first = next(k for k in ("nan", "indefinite", "ill") if k in kinds)
    assert raised[0] == raised[1]
    assert raised[0][0] is (NotPositiveDefinite if first == "indefinite" else SingularMetric)
    assert f"at {pts[rows.index(first)]}" in raised[0][1]


# ---------------------------------------------------------------------------
# Inner products
# ---------------------------------------------------------------------------

def test_inner_examples(entries):
    assert inner(np.eye(3), np.array([1.0, 0, 0]), np.array([0.0, 1, 0])) == 0.0
    g = entries["h3_vertical"].manifold.metric_at(np.array([0.0, 0.0, 2.0]))
    assert abs(inner(g, np.array([0.0, 0, 1]), np.array([0.0, 0, 1])) - 0.25) < 1e-15


def test_inner_positive_definite(entries):
    rng = np.random.default_rng(3)
    man = entries["heisenberg_reeb"].manifold
    for _ in range(25):
        p = rng.uniform(-1.5, 1.5, 3)
        v = rng.standard_normal(3)
        assert inner(man.metric_at(p), v, v) > 0.0


def test_a_points_inner_product_is_its_batch_row(entries):
    """One point's g(v, w) is row 0 of the batched kernel bit for bit, so
    ``frame_at`` is its row of ``frames_at``: on 2,000 dense metrics a BLAS
    product v @ g @ w rounded otherwise in 1,281, and 4 of s3_hopf's 125
    frames moved."""
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = rng.standard_normal((3, 3))
        g, (v, w) = a @ a.T + np.eye(3), rng.standard_normal((2, 3))
        assert inner(g, v, w) == inner(g[None], v[None], w[None])[0]
    entry = entries["s3_hopf"]
    pts = entry.grid.points()
    g, xv = entry.manifold.metric_at(pts), entry.field.value(pts)
    xn = xv / g_norm(g, xv)[:, None]
    e1, e2 = frames_at(g, xn)
    for k in range(len(pts)):
        fr = frame_at(g[k], xv[k])
        assert np.array_equal(np.stack([fr.X, fr.e1, fr.e2]), np.stack([xn[k], e1[k], e2[k]]))


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------

def test_complement_identity_vertical():
    fr = frame_at(np.eye(3), np.array([0.0, 0, 1]))
    np.testing.assert_allclose(fr.e1, [1, 0, 0])
    np.testing.assert_allclose(fr.e2, [0, 1, 0])


def test_complement_first_seed_rejected():
    # the first standard basis vector is parallel to X and is skipped
    fr = frame_at(np.eye(3), np.array([1.0, 0, 0]))
    np.testing.assert_allclose(fr.e1, [0, 1, 0])
    np.testing.assert_allclose(fr.e2, [0, 0, 1])


def test_complement_h3(entries):
    g = entries["h3_vertical"].manifold.metric_at(np.array([0.0, 0.0, 2.0]))
    fr = frame_at(g, np.array([0.0, 0.0, 2.0]))
    np.testing.assert_allclose(fr.e1, [2, 0, 0], atol=1e-12)
    np.testing.assert_allclose(fr.e2, [0, 2, 0], atol=1e-12)


def test_frame_residual_small_everywhere(entries):
    rng = np.random.default_rng(11)
    for name in ("s3_hopf", "heisenberg_reeb", "h3_vertical"):
        entry = entries[name]
        pts = entry.grid.points()[rng.choice(125, 20, replace=False)]
        F = diagnose(entry.manifold, entry.field, pts).frame
        gram = np.swapaxes(F, 1, 2) @ entry.manifold.metric_at(pts) @ F
        assert np.abs(gram - np.eye(3)).max() < 1e-10


def test_frame_orientation_positive(entries):
    entry = entries["s3_hopf"]
    for p in entry.grid.points()[::13]:
        fr = frame_at(entry.manifold.metric_at(p), entry.field.value(p))
        assert np.linalg.det(np.stack([fr.X, fr.e1, fr.e2], axis=1)) > 0


def test_frames_at_matches_single_points(entries):
    entry = entries["heisenberg_reeb"]
    pts = entry.grid.points()[::7]
    g = entry.manifold.metric_at(pts)
    xv = entry.field.value(pts)
    xn = xv / g_norm(g, xv)[:, None]
    e1, e2 = frames_at(g, xn)
    for k, p in enumerate(pts):
        fr = frame_at(entry.manifold.metric_at(p), entry.field.value(p))
        np.testing.assert_allclose(e1[k], fr.e1, atol=1e-12)
        np.testing.assert_allclose(e2[k], fr.e2, atol=1e-12)


def test_domain_predicate_strict(entries):
    man = entries["h3_vertical"].manifold
    assert not man.contains(np.array([0.0, 0.0, 0.0]))  # boundary is outside
    assert man.contains(np.array([0.0, 0.0, 1e-8]))
    assert not man.contains(np.array([0.0, 0.0, np.inf]))


def test_a_point_where_the_domain_is_undefined_or_nan_is_outside():
    """log(x3) + 30 raises DomainError at x3 <= 0: such rows are outside, in a
    batch as alone, and the rows where it is defined keep their verdict; so is
    a row where the domain is NaN (inf - inf at x1 = 1)."""
    man = gc.manifold_from_exprs("log", (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1")),
                                 domain="log(x3) + 30")
    pts = np.array([[0.0, 0.0, 1e-6], [0.0, 0.0, -9e-6], [0.0, 0.0, 1e-14], [0.0, 0.0, 0.0],
                    [0.0, 0.0, np.nan], [0.0, 0.0, 2.0]])
    expected = [True, False, False, False, False, True]
    assert man.contains(pts).tolist() == expected
    assert [man.contains(p) for p in pts] == expected
    nan = gc.manifold_from_exprs("nan", (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1")),
                                 domain="exp(1000*x1) - exp(1000*x1) + 1")
    with np.errstate(over="ignore", invalid="ignore"):
        assert nan.contains(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])).tolist() == [True, False]
