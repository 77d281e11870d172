"""Theorem verdict suites and the contact-volume quadrature."""

import tracemalloc

import numpy as np
import pytest

import geocontact as gc
from geocontact import verify
from geocontact.catalog import CatalogEntry, GridSpec, OrbitSpec
from geocontact.cli import resolve_config
from geocontact.errors import ConfigError, NoParametrization, NotConstantCurvature
from geocontact.field import contact_defect_grid
from geocontact.geometry import VolumeParametrization, manifold_from_exprs
from geocontact.verify import (Tolerances, reebability_verdict, run_theorem,
                               verify_parallel_jacobi, verify_reebability,
                               verify_ricci, verify_space_form, volume_integral)


# ---------------------------------------------------------------------------
# Space forms
# ---------------------------------------------------------------------------

def test_space_form_s3(entries):
    report = verify_space_form(entries["s3_hopf"], 1.0)
    assert report.verdict == "consistent"
    assert report.hypothesis_satisfied == report.samples == 125
    assert report.conclusion_satisfied == 125


def test_space_form_h3_boundary_case(entries):
    report = verify_space_form(entries["h3_vertical"], -1.0)
    assert report.verdict == "consistent"  # |lambda| = sqrt(|c|) saturates the bound


def test_space_form_flat(entries):
    report = verify_space_form(entries["euclidean_parallel"], 0.0)
    assert report.verdict == "consistent"


def test_space_form_corollary(entries):
    assert verify_space_form(entries["euclidean_skew"], 0.0, theorem="C5.2").verdict \
        == "consistent"
    assert verify_space_form(entries["h3_vertical"], -1.0, theorem="C5.2").verdict \
        == "consistent"


def test_not_constant_curvature(entries):
    with pytest.raises(NotConstantCurvature):
        verify_space_form(entries["heisenberg_reeb"], 0.0)
    with pytest.raises(NotConstantCurvature):
        verify_space_form(entries["h3_vertical"], -0.25)


def flat_slab_entry(field_components, name="synthetic"):
    man = manifold_from_exprs(name, (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1")))
    fld = gc.UnitField.from_exprs(name, field_components)
    return CatalogEntry(name=name, manifold=man, field=fld, expected={}, notes="",
                        grid=GridSpec((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0), (3, 3, 3)),
                        orbit=OrbitSpec((0.0, 0.0, 0.0)), space_form_c=0.0)


def test_space_form_violation_detected():
    """A unit field that is not geodesic breaks the flat eigenvalue bound;
    the suite must flag it rather than stay silent."""
    entry = flat_slab_entry(("1/sqrt(1 + x1^2)", "0", "x1/sqrt(1 + x1^2)"))
    report = verify_space_form(entry, 0.0)
    assert report.verdict == "violated"
    assert len(report.violations) > 0
    assert report.violations[0]["eigen"]["kind"] == "real"


# ---------------------------------------------------------------------------
# Ricci suites
# ---------------------------------------------------------------------------

def test_ricci_corollary_s3(entries):
    report = verify_ricci(entries["s3_hopf"], theorem="C3.2")
    assert report.verdict == "consistent"
    assert report.hypothesis_satisfied == 125


def test_ricci_dichotomy_cases(entries):
    # negative Ricci branch
    report = verify_ricci(entries["h3_vertical"], theorem="T3.1")
    assert report.verdict == "consistent"
    assert report.hypothesis_satisfied == 125
    # zero Ricci, vanishing shape operator branch
    report = verify_ricci(entries["euclidean_parallel"], theorem="T3.1")
    assert report.verdict == "consistent"
    # contact everywhere: nothing to check
    report = verify_ricci(entries["s3_hopf"], theorem="T3.1")
    assert report.verdict == "hypotheses-not-met"


def test_ricci_unknown_theorem(entries):
    with pytest.raises(ConfigError):
        verify_ricci(entries["s3_hopf"], theorem="T9.9")


# ---------------------------------------------------------------------------
# Parallel Jacobi criterion
# ---------------------------------------------------------------------------

def test_parallel_jacobi_heisenberg(entries):
    report = verify_parallel_jacobi(entries["heisenberg_reeb"])
    assert report.verdict == "consistent"
    assert report.hypothesis_satisfied == report.samples
    assert report.details["max_jacobi_tensor_drift"] < 1e-6


def test_parallel_jacobi_rank_gap(entries):
    report = verify_parallel_jacobi(entries["h2xr_vertical"])
    assert report.verdict == "hypotheses-not-met"
    assert report.hypothesis_satisfied == 0


def test_parallel_jacobi_negative_curvature(entries):
    report = verify_parallel_jacobi(entries["h3_vertical"])
    assert report.verdict == "hypotheses-not-met"


# ---------------------------------------------------------------------------
# Volume quadrature
# ---------------------------------------------------------------------------

def test_volume_hopf_value(entries):
    result = volume_integral(entries["s3_hopf"], 16)
    assert abs(result.value - 4 * np.pi ** 2) < 0.1
    assert result.estimated_error > 0
    assert result.parametrization == "hopf"


def test_volume_refinement_errors_shrink(entries):
    errs = [volume_integral(entries["s3_hopf"], n).estimated_error for n in (8, 16, 32)]
    assert errs[0] > errs[1] > errs[2]


def test_volume_orientation_flip(entries):
    plus = volume_integral(entries["s3_hopf"], 8)
    minus = volume_integral(entries["s3_hopf"], 8, orientation=-1)
    assert abs(plus.value + minus.value) < 1e-10
    assert abs(abs(plus.value) - abs(minus.value)) < 1e-10


def test_volume_weighted_closed_form(entries):
    """Reduction to a 1d integral gives vol = 4 pi^2 / (k1 k2) for the
    weighted entries (substitute u = sin^2(eta) in the fibre integral)."""
    result = volume_integral(entries["s3_weighted(2,3)"], 32)
    assert abs(abs(result.value) - 4 * np.pi ** 2 / 6.0) < 3 * result.estimated_error + 1e-6


def test_volume_requires_parametrization(entries):
    with pytest.raises(NoParametrization):
        volume_integral(entries["h3_vertical"], 16)


def test_volume_zero_defect_fixture():
    """Flat box chart with a parallel field: the integrand vanishes."""
    man = manifold_from_exprs("box", (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1")))
    man.volume_param = VolumeParametrization(
        name="unit_box", box=((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)),
        chart_map=lambda params: params,
        density=lambda params: np.ones(params.shape[0]))
    entry = CatalogEntry(name="box", manifold=man,
                         field=gc.UnitField.from_exprs("z", ("0", "0", "1")),
                         expected={}, notes="",
                         grid=GridSpec((0.1, 0.1, 0.1), (0.9, 0.9, 0.9), (3, 3, 3)),
                         orbit=OrbitSpec((0.5, 0.5, 0.1)))
    result = volume_integral(entry, 8)
    assert abs(result.value) < 1e-12


def unblocked_midpoint_value(entry, nodes):
    """The midpoint rule as one kernel call on the whole meshgrid."""
    param = entry.manifold.volume_param
    axes = [(np.arange(nodes) + 0.5) * (hi - lo) / nodes + lo for lo, hi in param.box]
    cell = np.prod([(hi - lo) / nodes for lo, hi in param.box])
    params = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    defect = contact_defect_grid(entry.manifold, entry.field, param.chart_map(params))
    return float(np.sum(defect * param.density(params)) * cell)


@pytest.mark.parametrize("name", ["s3_hopf", "s3_weighted(2,3)"])
def test_volume_blocks_keep_the_unblocked_bytes(entries, name, monkeypatch):
    """12^3 = 1,728 rows in blocks of 500 (3.456 blocks; 6^3 = 216 rows, less
    than one block, on the coarse grid) give the one-call value bit for bit."""
    expected = [unblocked_midpoint_value(entries[name], n) for n in (12, 6)]
    monkeypatch.setattr(verify, "VOLUME_BLOCK_ROWS", 500)
    result = volume_integral(entries[name], 12)
    assert result.value == expected[0]
    assert result.estimated_error == abs(expected[0] - expected[1])


def test_volume_traced_peak_is_bounded(entries):
    """The traced peak of one 40-node volume (64,000 rows, then 8,000 for the
    coarse grid) stays under 16 MB. Measured with numpy 2.4 on CPython 3.11:
    8.0 MB in blocks of VOLUME_BLOCK_ROWS, 64.5 MB as one kernel call on the
    whole grid."""
    entry = entries["s3_hopf"]
    volume_integral(entry, 2)  # compile the expression tables outside the trace
    tracemalloc.start()
    try:
        volume_integral(entry, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


# ---------------------------------------------------------------------------
# Reebability
# ---------------------------------------------------------------------------

def test_reebability_verdicts(entries):
    vol = volume_integral(entries["s3_hopf"], 16)
    assert reebability_verdict(entries["s3_hopf"], vol, killing_defect_max=1e-12) \
        == "reeb-realizable"
    assert reebability_verdict(entries["s3_hopf"], vol, killing_defect_max=0.5) \
        == "inconclusive"
    tiny = gc.VolumeResult(value=1e-12, nodes=16, estimated_error=1e-6,
                           parametrization="hopf")
    assert reebability_verdict(entries["s3_hopf"], tiny, killing_defect_max=1e-12) \
        == "not-reeb"


def test_reebability_reports(entries):
    report = verify_reebability(entries["s3_hopf"], nodes=16)
    assert report.verdict == "consistent"
    assert report.details["reebability"] == "reeb-realizable"
    report = verify_reebability(entries["s3_weighted(2,3)"], nodes=16)
    assert report.verdict == "consistent"
    assert report.details["reebability"] == "reeb-realizable"
    report = verify_reebability(entries["h3_vertical"])
    assert report.verdict == "hypotheses-not-met"


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

def test_report_invariant_and_serialisation(entries):
    report = verify_space_form(entries["s3_hopf"], 1.0)
    assert (report.verdict == "violated") == bool(report.violations)
    doc = report.to_dict()
    assert doc["theorem"] == "T5.1"
    assert doc["samples"] == 125
    entry = flat_slab_entry(("1/sqrt(1 + x1^2)", "0", "x1/sqrt(1 + x1^2)"))
    bad = verify_space_form(entry, 0.0)
    assert (bad.verdict == "violated") == bool(bad.violations)
    doc = bad.to_dict()
    assert doc["violations"][0]["eigen"]["kind"] == "real"


def test_run_theorem_dispatch(entries):
    assert run_theorem(entries["s3_hopf"], "T5.1").theorem == "T5.1"
    with pytest.raises(ConfigError):
        run_theorem(entries["s3_hopf"], "T0.0")
    with pytest.raises(ConfigError):
        run_theorem(entries["heisenberg_reeb"], "T5.1")  # no constant curvature


def test_tolerances_mapping():
    tol = resolve_config({"manifold": "h3_vertical",
                          "tolerances": {"contact_floor": 1e-5}}).tolerances
    assert tol.contact_floor == 1e-5
    with pytest.raises(ConfigError):
        resolve_config({"manifold": "h3_vertical", "tolerances": {"frobnication": 1.0}})
