"""Oracle families: closed-form diagnostics over a parameter space, checked
as Hypothesis properties. The families live in ``oracles.py``.

Each bound is the largest error measured over the family, times at most 4:
for the Berger spheres over eps in [0.3, 3] on the 5 x 5 x 5 grid over
[-1, 1]^3, where the curvature errors are the central stencil's, largest at
eps = 0.3; for the skew-line fibrations over 298 matrices A (every one with
entries in {-2, -1, 0, 1, 2} that qualifies, and 150 uniform draws), each at
500 random points of [-2, 2]^3 and the 5 x 5 x 5 grid.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import geocontact as gc
from geocontact.field import contact_defect_grid
from geocontact.verify import verify_entry, verify_parallel_jacobi, verify_ricci
from oracles import berger_sphere, skew_lines


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
