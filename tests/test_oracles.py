"""Oracle families: closed-form diagnostics over a parameter space, checked
as Hypothesis properties. The families live in ``oracles.py``.

Each bound is the largest error measured over eps in [0.3, 3] on the 5 x 5 x
5 grid over [-1, 1]^3, times at most 4; the curvature errors are the central
stencil's, largest at eps = 0.3.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import geocontact as gc
from geocontact.verify import verify_parallel_jacobi, verify_ricci
from oracles import berger_sphere


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
