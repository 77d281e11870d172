"""Oracle families: closed-form diagnostics over a parameter space, checked
as Hypothesis properties. The families live in ``oracles.py``.

Each bound is the largest error measured over the family, times at most 4:
for the Berger spheres over eps in [0.3, 3] on the 5 x 5 x 5 grid over
[-1, 1]^3, where the curvature errors are the central stencil's, largest at
eps = 0.3; for the skew-line fibrations over 298 matrices A (every one with
entries in {-2, -1, 0, 1, 2} that qualifies, and 150 uniform draws), each at
500 random points of [-2, 2]^3 and the 5 x 5 x 5 grid; for the Gluck-Warner
fibrations over 300 draws of b and M with uniform entries in [-1, 1] and 285
with normal ones, eps uniform in [0, 0.35] and 0.35 in every fifth draw, each
at 300 random points of [-1, 1]^3 and the 5 x 5 x 5 grid, and their orbits
(4 random starts each) and verdicts over 84 further uniform draws.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import geocontact as gc
from geocontact.field import contact_defect_grid
from geocontact.verify import verify_entry, verify_parallel_jacobi, verify_ricci
from oracles import berger_sphere, gluck_warner, skew_lines


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(st.floats(0.3, 3.0))
def test_berger_spheres_meet_their_closed_forms(eps):
    """X = H / eps is unit, geodesic and Killing, with |contact defect| = 2 eps
    (measured 3.6e-15), Delta = delta = eps^2 (7.0e-9) and Ric(X) = 2 eps^2
    (1.4e-8). Ric(X) > 0 and contact everywhere: C3.2 and T6.1 hold, and
    T3.1, which is about non-contact samples, has none."""
    entry = berger_sphere(eps)
    diag = gc.diagnose(entry.manifold, entry.field, entry.grid.points())
    assert diag.unit_defect.max() <= 4e-15  # measured 1.8e-15
    assert diag.geodesic_defect.max() <= 4e-14  # 1.3e-14
    assert diag.killing_defect.max() <= 1e-13  # 2.6e-14
    assert np.abs(np.abs(diag.contact_defect) - 2.0 * eps).max() <= 1e-14
    assert np.abs(diag.Delta - eps * eps).max() <= 2e-8
    assert np.abs(diag.delta - eps * eps).max() <= 2e-8
    assert np.abs(diag.ric_X - 2.0 * eps * eps).max() <= 4e-8
    assert verify_ricci(entry, theorem="C3.2").verdict == "consistent"
    assert verify_parallel_jacobi(entry).verdict == "consistent"
    assert verify_ricci(entry, theorem="T3.1").verdict == "hypotheses-not-met"


def _well_inside_complex_eigenvalues(A):
    """(tr A)^2 <= 4 det A - 0.5: no real eigenvalues, with a margin."""
    (a, b), (c, d) = A
    return (a + d) ** 2 <= 4.0 * (a * d - b * c) - 0.5


_COEFFICIENT = st.floats(-2.0, 2.0)


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(st.tuples(st.tuples(_COEFFICIENT, _COEFFICIENT), st.tuples(_COEFFICIENT, _COEFFICIENT))
       .filter(_well_inside_complex_eigenvalues))
def test_linear_skew_line_fibrations_are_contact(A):
    """Harrison's theorem on its linear family: X along pairwise skew lines is
    unit (measured 5.6e-16) and geodesic (6.2e-15), the frame-free contact
    defect is diagnose's (3.6e-15), and X is contact with B's eigenvalues
    complex at every point (smallest |contact defect| 0.037). On the grid the
    flat space-form suites and C3.2 hold; T3.1, which is about non-contact
    samples, has none."""
    entry = skew_lines(A)
    pts = np.vstack([np.random.default_rng(0).uniform(-2.0, 2.0, (500, 3)),
                     entry.grid.points()])
    diag = gc.diagnose(entry.manifold, entry.field, pts)
    assert diag.unit_defect.max() <= 2e-15
    assert diag.geodesic_defect.max() <= 2e-14
    frame_free = contact_defect_grid(entry.manifold, entry.field, pts)
    assert np.abs(frame_free - diag.contact_defect).max() <= 1.4e-14
    assert diag.complex.all()
    assert (np.abs(diag.contact_defect) > gc.Tolerances().contact_floor).all()
    reports = verify_entry(entry, ("T5.1", "C5.2", "T3.1", "C3.2", "T6.1"), c=0.0)
    assert [r.verdict for r in reports] == ["consistent", "consistent", "hypotheses-not-met",
                                            "consistent", "consistent"]


def great_circle_lift(points):
    """Chart points back on the unit sphere of R^4: the inverse of the
    stereographic chart of ``s3_hopf``, (|x|^2 - 1, 2 x) / (|x|^2 + 1)."""
    r2 = (points * points).sum(axis=1, keepdims=True)
    return np.hstack([r2 - 1.0, 2.0 * points]) / (r2 + 1.0)


_BOX = st.floats(-1.0, 1.0)


@settings(max_examples=2, deadline=None, derandomize=True, database=None)
@given(st.tuples(_BOX, _BOX, _BOX).filter(lambda b: np.linalg.norm(b) >= 0.1),
       st.tuples(*[_BOX] * 9).filter(lambda m: np.linalg.norm(m) >= 0.1),
       st.floats(0.05, 0.35))
@example(b=(0.0, 0.0, 1.0), m=(1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0), eps=0.0)
def test_gluck_warner_great_circle_fibrations_are_contact(b, m, eps):
    """Gluck's theorem on Gluck and Warner's family: the fibre field is unit
    (measured 1.8e-15) and geodesic (1.6e-9), Delta = delta = 1 (1.7e-10) and
    Ric(X) = 2 (2.8e-10) as on any unit geodesic field of the unit sphere, the
    frame-free contact defect is diagnose's (3.8e-15), and X is contact with
    B's eigenvalues complex at every point (smallest |contact defect| 0.84).
    At c = 1, T5.1, C5.2, C3.2 and T6.1 hold and T3.1 has no non-contact
    sample; P7.6 holds for the Hopf field (eps = 0) and otherwise finds X not
    Killing. The orbits are great circles: lifted to R^4 over t in [0, 0.5],
    each spans a plane through 0, its third singular value at most 5.6e-11."""
    b = np.array(b) / np.linalg.norm(b)
    M = np.reshape(m, (3, 3)) / np.linalg.norm(np.reshape(m, (3, 3)), 2)
    entry = gluck_warner(b, M, eps)
    pts = np.vstack([np.random.default_rng(0).uniform(-1.0, 1.0, (300, 3)),
                     entry.grid.points()])
    diag = gc.diagnose(entry.manifold, entry.field, pts)
    assert diag.unit_defect.max() <= 4e-15
    assert diag.geodesic_defect.max() <= 4e-9
    assert np.abs(diag.Delta - 1.0).max() <= 4e-10
    assert np.abs(diag.delta - 1.0).max() <= 4e-10
    assert np.abs(diag.ric_X - 2.0).max() <= 8e-10
    frame_free = contact_defect_grid(entry.manifold, entry.field, pts)
    assert np.abs(frame_free - diag.contact_defect).max() <= 1e-14
    assert diag.complex.all()
    assert np.abs(diag.contact_defect).min() >= 0.25
    reports = verify_entry(entry, ("T5.1", "C5.2", "T3.1", "C3.2", "T6.1", "P7.6"),
                           volume_nodes=8)
    assert [r.verdict for r in reports] == [
        "consistent", "consistent", "hypotheses-not-met", "consistent", "consistent",
        "consistent" if eps == 0.0 else "hypotheses-not-met"]
    starts = np.array([[0.3, 0.2, 0.1], [-0.5, 0.4, 0.2], [0.1, -0.7, -0.3], [0.6, 0.6, -0.6]])
    for traj in gc.integrate_orbits(entry.manifold, entry.field, starts, 0.5, 0.5 / 80,
                                    with_jacobi=False):
        assert len(traj) == 81
        assert np.linalg.svd(great_circle_lift(traj.points), compute_uv=False)[2] <= 1e-10


def test_gluck_warner_raises_when_its_fixed_point_is_not_reached():
    """Two iterations of the contraction at eps = 0.35 leave a residual far
    above 1e-14: the field refuses to return an unconverged direction."""
    entry = gluck_warner((1.0, 0.0, 0.0), np.eye(3), 0.35, iterations=2)
    with pytest.raises(ArithmeticError, match="fixed point not reached"):
        entry.field.value(np.array([[0.3, 0.2, 0.1]]))
