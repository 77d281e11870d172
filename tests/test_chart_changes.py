"""Chart changes as an oracle: a quantity the paper's theorems read is
geometric, so an entry pulled back by a linear map (``oracles.linear_pullback``)
must give it unchanged at the pulled-back points. A random map makes every
metric dense, which the catalog's diagonal metrics are not, so index, sign and
layout slips show here.

The maps are A = I + 0.3 N(0, 1), drawn from seed 26, two per entry: the first
orientation-preserving, the second orientation-reversing (the first row of A
negated where needed). Both ``diagnose`` calls run at the entry's default grid
x and its image y = A^-1 x. Each bound is the largest difference measured
over these 12 maps, times at most 4: 2.6e-14 for the unit, geodesic and
signed contact defects, and 2.7e-8 for Ric(X), Delta and delta, the central
stencil's error, both on h3_vertical under its orientation-reversing map
(det A = -0.08). One pullback and its two diagnoses take 12 to 77 ms on a 2-vCPU host.
T6.1's exact ||nabla_X R_X|| along the 125 seeds' flow segments is an invariant
too, the orbits of a linear chart change being the pulled-back orbits up to
rounding: its largest difference was 7.0e-12 (s3_weighted(2,3), orientation-reversing
map), bound 3e-11.
"""

import functools

import numpy as np
import pytest

import geocontact as gc
from geocontact import catalog
from geocontact.verify import run_theorem
from oracles import linear_pullback

NAMES = ("s3_hopf", "h3_vertical", "s3_weighted(2,3)", "heisenberg_reeb", "euclidean_skew",
         "h2xr_vertical")


@functools.lru_cache(maxsize=None)
def _maps():
    """{(name, orientation): A}, the orientation +1 or -1 the sign of det A."""
    rng, maps = np.random.default_rng(26), {}
    for name in NAMES:
        for orientation in (1, -1):
            a = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
            a[0] *= orientation * np.sign(np.linalg.det(a))
            maps[name, orientation] = a
    return maps


@functools.lru_cache(maxsize=None)
def _pulled_back(name, orientation):
    """The entry, its pullback by A, the grid x, its image y and both diagnoses."""
    entry, a = gc.builtin(name), _maps()[name, orientation]
    pulled = linear_pullback(entry, a, catalog._FIXED.get(name, {}).get("domain", "true"))
    x = entry.grid.points()
    y = x @ np.linalg.inv(a).T
    return (entry, pulled, x, y, gc.diagnose(entry.manifold, entry.field, x),
            gc.diagnose(pulled.manifold, pulled.field, y))


CASES = [(name, orientation) for name in NAMES for orientation in (1, -1)]


@pytest.mark.parametrize("name,orientation", CASES)
def test_invariant_columns_and_verdicts_do_not_depend_on_the_chart(name, orientation):
    """unit, geodesic, Ric(X), Delta and delta agree within their bounds; the
    contact defect agrees after the factor sign(det A), as frames are
    oriented by the chart; the T3.1 and C3.2 verdicts agree, and T5.1 and C5.2
    on the space forms."""
    entry, pulled, x, y, diag, pulled_diag = _pulled_back(name, orientation)
    assert np.sign(np.linalg.det(_maps()[name, orientation])) == orientation
    for column, bound in (("unit_defect", 1e-13), ("geodesic_defect", 1e-13),
                          ("ric_X", 1e-7), ("Delta", 1e-7), ("delta", 1e-7)):
        assert np.abs(getattr(pulled_diag, column) - getattr(diag, column)).max() <= bound, column
    assert np.abs(pulled_diag.contact_defect - orientation * diag.contact_defect).max() <= 1e-13
    theorems = ["T3.1", "C3.2"] + (["T5.1", "C5.2"] if entry.space_form_c is not None else [])
    for theorem in theorems:
        assert (run_theorem(pulled, theorem, points=y).verdict
                == run_theorem(entry, theorem, points=x).verdict), theorem


CHART_DEPENDENT_KILLING = pytest.mark.xfail(strict=True, reason=(
    "killing_defect is the largest entry of S = <nabla_{f_i} X, f_j> + <nabla_{f_j} X, f_i> "
    "in a frame seeded from the chart's basis, so a chart change rotates (e1, e2) and moves "
    "it: by up to 0.85 here; its spectral and Frobenius norms agree across charts"))


@pytest.mark.parametrize("name,orientation", [
    pytest.param(name, orientation, marks=CHART_DEPENDENT_KILLING)
    if name in ("euclidean_skew", "h2xr_vertical") else (name, orientation)
    for name, orientation in CASES])
def test_the_killing_defect_does_not_depend_on_the_chart(name, orientation):
    """Agrees to 1.6e-13 (h3_vertical) on the four entries whose symmetrised
    frame matrix S is zero or a multiple of the identity on X's plane; moves
    by up to 0.19 on euclidean_skew and 0.85 on h2xr_vertical."""
    *_, diag, pulled_diag = _pulled_back(name, orientation)
    assert np.abs(pulled_diag.killing_defect - diag.killing_defect).max() <= 6e-13


@pytest.mark.parametrize("name,orientation", CASES)
def test_the_parallel_jacobi_suite_does_not_depend_on_the_chart(name, orientation):
    """T6.1's verdict and its exact max ||nabla_X R_X|| over the seeds' flow segments agree."""
    entry, pulled, x, y, *_ = _pulled_back(name, orientation)
    report, pulled_report = (run_theorem(e, "T6.1", points=p) for e, p in ((entry, x), (pulled, y)))
    assert pulled_report.verdict == report.verdict
    drifts = [r.details["max_jacobi_tensor_drift"] for r in (report, pulled_report)]
    assert abs(drifts[1] - drifts[0]) <= 3e-11
