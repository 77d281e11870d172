"""Theorem verdict suites and the contact-volume quadrature."""

import dataclasses
import json
import tracemalloc
import weakref

import numpy as np
import pytest

import geocontact as gc
from conftest import WARPED_DOC, blas_note
from geocontact import catalog, cli, curvature, field, flow, geometry, verify
from geocontact.catalog import CatalogEntry, GridSpec, OrbitSpec
from geocontact.cli import resolve_config
from geocontact.errors import (ConfigError, NoParametrization, NotConstantCurvature, NotUnit,
                               OutOfChart)
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


def test_parallel_jacobi_drift_decides_on_the_warped_chart(tmp_path):
    """On the warped chart Delta = 2/(2 - x3^2) > 0 at every seed, so only the
    drift of the Jacobi tensor along the flow keeps T6.1 from 27 violations.
    The drift is exact: |nabla_X R_X| = sqrt(2) |(f''/f)'| = sqrt(2) 4 x3 / (2 - x3^2)^2,
    largest at the highest segment end, x3 = 0.6 (measured 1.1e-15 relative)."""
    report = verify_parallel_jacobi(resolve_config(WARPED_DOC).entry)
    assert report.verdict == "hypotheses-not-met"
    assert report.hypothesis_satisfied == 0 and report.samples == 27
    drift = report.details["max_jacobi_tensor_drift"]
    assert abs(drift - 1.261939526210376) <= 1e-13 * 1.261939526210376
    assert drift > Tolerances().hypothesis
    assert report.details["orbit_step"] == verify.T61_STEP
    path = tmp_path / "config.json"
    path.write_text(json.dumps(WARPED_DOC), encoding="utf-8")
    assert cli.main(["verify", "T6.1", "--config", str(path)]) == 0


#: per catalog entry, 4x the measured maxima of T6.1's segments at T61_STEP:
#: |p - p_ref| against a step-1e-3 orbit at the shared sample times, and the
#: exact drift, against measured 1.1e-14 and 0 (euclidean_parallel), 2.2e-14
#: and 0 (euclidean_skew), 1.9e-10 and 1.9e-14 (s3_hopf), 3.8e-8 and 7.5e-13
#: (s3_weighted(2,3)), 2.5e-11 and 7.8e-15 (h2xr_vertical), 2.5e-11 and
#: 1.1e-14 (h3_vertical), 1.1e-14 and 0 (heisenberg_reeb)
T61_COARSE_BOUNDS = {
    "euclidean_parallel": (4.4e-14, 0.0),
    "euclidean_skew": (8.8e-14, 0.0),
    "s3_hopf": (7.6e-10, 7.6e-14),
    "s3_weighted(2,3)": (1.5e-7, 3.0e-12),
    "h2xr_vertical": (1.0e-10, 3.1e-14),
    "h3_vertical": (1.0e-10, 4.3e-14),
    "heisenberg_reeb": (4.4e-14, 0.0),
}


@pytest.mark.parametrize("name", sorted(T61_COARSE_BOUNDS))
def test_parallel_jacobi_reads_whole_segments_at_its_sample_spacing(
        entries, monkeypatch, name):
    """On an exactly differentiated chart T6.1 integrates at step T61_STEP and
    reads nabla_X R_X at every sample: each of the 27 seeds keeps its whole
    segment, 11 samples, and all of them are read. The coarse step only places
    the points, and places them far below ``tolerances.hypothesis`` (1e-6)."""
    entry = entries[name]
    seeds = entry.grid.subgrid((3, 3, 3)).points()
    nsteps = flow.orbit_steps(verify.T61_T_END, verify.T61_STEP)
    coarse, samples = flow.orbit_points(entry.manifold, entry.field, seeds,
                                        verify.T61_T_END, verify.T61_STEP)
    assert nsteps + 1 == 11 and (samples == nsteps + 1).all()
    rows = count_calls(monkeypatch, verify, "jacobi_tensor_drift")
    drift = verify._jacobi_tensor_drift(entry, seeds)
    assert rows == [samples.sum()]
    fine, _ = flow.orbit_points(entry.manifold, entry.field, seeds, verify.T61_T_END, 1e-3)
    shared = fine[:, ::flow.orbit_steps(verify.T61_T_END, 1e-3) // nsteps]
    place, drift_bound = T61_COARSE_BOUNDS[name]
    assert np.abs(coarse - shared).max() <= place
    assert drift.max() <= drift_bound


#: T6.1 on every catalog entry differentiated centrally: the verdict and
#: ``max_jacobi_tensor_drift`` (as ``float.hex``) that the orbit estimator
#: gives, M differenced along the Jacobi orbits
CENTRAL_T61 = [
    ("euclidean_parallel", "hypotheses-not-met", "0x0.0p+0"),
    ("euclidean_skew", "consistent", "0x0.0p+0"),
    ("s3_hopf", "hypotheses-not-met", "0x1.6ae01d53d191fp-12"),
    ("s3_weighted(2,3)", "hypotheses-not-met", "0x1.909a10cf68ed7p-9"),
    ("h2xr_vertical", "hypotheses-not-met", "0x1.1b86026578000p-13"),
    ("h3_vertical", "hypotheses-not-met", "0x1.90f676471844ap-13"),
    ("heisenberg_reeb", "consistent", "0x1.4e373a1af7f9ep-45"),
]


@pytest.mark.parametrize("name,verdict,drift", CENTRAL_T61, ids=[row[0] for row in CENTRAL_T61])
def test_parallel_jacobi_on_central_charts_keeps_its_verdicts_and_drifts(
        entries, name, verdict, drift):
    """On a chart differentiated centrally T6.1 reads the drift from orbits;
    every catalog entry keeps its verdict and drift bit for bit. Only
    s3_hopf's report is also a golden (``verify-central:T6.1:s3_hopf``)."""
    entry = entries[name]
    central = dataclasses.replace(entry.manifold, diff_mode="central")
    report = verify_parallel_jacobi(dataclasses.replace(entry, manifold=central))
    assert report.verdict == verdict and report.details["orbit_step"] == verify.T61_CENTRAL_STEP
    assert report.details["max_jacobi_tensor_drift"].hex() == drift, (
        f"{name}: the drift moved; {blas_note()}")


def test_ricci_suites_assume_a_complete_flow(tmp_path, capsys):
    """The warped chart's flow leaves it in finite time, and the README's
    example holds: T3.1 is violated at all 125 samples and C3.2 at 100."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(WARPED_DOC), encoding="utf-8")
    assert cli.main(["verify", "T3.1", "C3.2", "--config", str(path)]) == 1
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert [(r["theorem"], r["verdict"], len(r["violations"])) for r in reports] == [
        ("T3.1", "violated", 125), ("C3.2", "violated", 100)]


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


def test_volume_weighted_closed_form(entries):
    """Reduction to a 1d integral gives vol = 4 pi^2 / (k1 k2) for the
    weighted entries (substitute u = sin^2(eta) in the fibre integral)."""
    result = volume_integral(entries["s3_weighted(2,3)"], 32)
    assert abs(abs(result.value) - 4 * np.pi ** 2 / 6.0) < 3 * result.estimated_error + 1e-6


def test_volume_needs_no_christoffel_symbols_or_frames(entries, monkeypatch):
    """The quadrature integrates alpha ^ d(alpha) through the chart map alone:
    with Gamma, frames, the shape operator and the Cholesky factor of
    sqrt(det g) unavailable, an 8-node volume keeps its bytes."""
    expected = volume_integral(entries["s3_hopf"], 8)

    def unavailable(*args, **kwargs):
        raise AssertionError("called on the volume path")

    for module in (curvature, geometry, field):
        for name in ("christoffel", "christoffel_with_partials", "covariant_jacobian",
                     "frames_at", "frame_terms", "_cholesky"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, unavailable)
    assert volume_integral(entries["s3_hopf"], 8) == expected


def test_volume_requires_parametrization(entries):
    with pytest.raises(NoParametrization):
        volume_integral(entries["h3_vertical"], 16)


def box_entry(domain="true"):
    """Flat box chart with a parallel field, integrated over the unit cube."""
    man = manifold_from_exprs("box", (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1")),
                              domain=domain)
    man.volume_param = VolumeParametrization(
        name="unit_box", box=((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)),
        chart_map=lambda params: np.stack(np.broadcast_arrays(*params), axis=-1),
        jacobian=lambda params, points: np.ones(points.shape[:-1]))
    return CatalogEntry(name="box", manifold=man,
                        field=gc.UnitField.from_exprs("z", ("0", "0", "1")),
                        expected={}, notes="",
                        grid=GridSpec((0.1, 0.1, 0.1), (0.9, 0.9, 0.9), (3, 3, 3)),
                        orbit=OrbitSpec((0.5, 0.5, 0.1)))


def test_volume_zero_defect_fixture():
    """Flat box chart with a parallel field: the integrand vanishes."""
    result = volume_integral(box_entry(), 8)
    assert abs(result.value) < 1e-12


def midpoint_axes(param, nodes):
    """The midpoint nodes of each axis of the parameter box, as the quadrature takes them."""
    return [(np.arange(nodes) + 0.5) * (hi - lo) / nodes + lo for lo, hi in param.box]


def unblocked_midpoint_value(entry, nodes):
    """The midpoint rule as one kernel call on the rows of the whole meshgrid."""
    param = entry.manifold.volume_param
    cell = np.prod([(hi - lo) / nodes for lo, hi in param.box])
    params = tuple(m.ravel() for m in np.meshgrid(*midpoint_axes(param, nodes), indexing="ij"))
    points = param.chart_map(params)
    wedge = field._contact_form(entry.manifold, entry.field, points)[0]
    return float(np.sum(wedge * param.jacobian(params, points)) * cell)


@pytest.mark.parametrize("size", [500, 100, 2000, 144, 12, 1])
@pytest.mark.parametrize("name", ["s3_hopf", "s3_weighted(2,3)"])
def test_volume_blocks_keep_the_unblocked_bytes(entries, name, size, monkeypatch):
    """12^3 = 1,728 rows in blocks of at most 500 rows, three 144-row planes
    each (6^3 = 216 rows, less than one block, on the coarse grid), of at
    most 100 rows, 8 or 4 u2-rows of one plane, in one block of the whole
    grid (2,000), one plane (144), one u2-row (12), or one u2-row where less
    than a row is asked for (1), give the one-call value bit for bit."""
    expected = [unblocked_midpoint_value(entries[name], n) for n in (12, 6)]
    monkeypatch.setattr(verify, "VOLUME_BLOCK_ROWS", size)
    result = volume_integral(entries[name], 12)
    assert result.value == expected[0]
    assert result.estimated_error == abs(expected[0] - expected[1])


@pytest.mark.parametrize("name", ["s3_hopf", "s3_weighted(2,3)"])
def test_parametrization_on_axis_slices_is_the_per_row_call(entries, name):
    """``chart_map`` and ``jacobian`` on open-grid axis slices, shapes (3, 1, 1),
    (1, 4, 1) and (1, 1, 5), give the values of the per-row call on the rows
    of their meshgrid, bit for bit, in the grid's shape."""
    param = entries[name].manifold.volume_param
    rng = np.random.default_rng(36)
    axes = [rng.uniform(lo, hi, n) for (lo, hi), n in zip(param.box, (3, 4, 5))]
    grid = (axes[0][:, None, None], axes[1][None, :, None], axes[2][None, None, :])
    rows = tuple(m.ravel() for m in np.meshgrid(*axes, indexing="ij"))
    points, row_points = param.chart_map(grid), param.chart_map(rows)
    jac, row_jac = param.jacobian(grid, points), param.jacobian(rows, row_points)
    assert points.shape == (3, 4, 5, 3) and row_points.shape == (60, 3)
    assert jac.shape == (3, 4, 5) and row_jac.shape == (60,)
    assert np.array_equal(points.reshape(-1, 3), row_points)
    assert np.array_equal(jac.ravel(), row_jac)


@pytest.mark.parametrize("size", [16384, 8192, 4096])
@pytest.mark.parametrize("nodes", [12, 20, 100])
@pytest.mark.parametrize("name", ["s3_hopf", "s3_weighted(2,3)"])
def test_volume_blocks_tile_the_grid(entries, name, nodes, size, monkeypatch):
    """The blocks of the midpoint rule hand the parametrization open-grid axis
    slices that cover each row of the nodes^3 grid exactly once, in row order,
    each block a contiguous range of at most VOLUME_BLOCK_ROWS rows: whole
    planes where a plane fits (every case at 12 and 20 nodes, and at 100
    nodes in blocks of 16,384 rows), else rows of one plane (100 nodes in
    blocks of 8,192 or 4,096 rows). The integrand is replaced by zeros, so only the
    parametrization runs."""
    entry = dataclasses.replace(entries[name], manifold=dataclasses.replace(entries[name].manifold))
    param, blocks = entry.manifold.volume_param, []
    axes = midpoint_axes(param, nodes)

    def chart_map(params):
        assert all(p.ndim == 3 and p.size == p.shape[k] for k, p in enumerate(params))
        assert params[2].size == nodes  # every u3 node
        i1, i2, i3 = (np.searchsorted(ax, p) for ax, p in zip(axes, params))
        blocks.append(((i1 * nodes + i2) * nodes + i3).ravel())
        return param.chart_map(params)

    entry.manifold.volume_param = dataclasses.replace(param, chart_map=chart_map)
    monkeypatch.setattr(verify, "VOLUME_BLOCK_ROWS", size)
    monkeypatch.setattr(verify, "_contact_form", lambda man, X, pts: (np.zeros(len(pts)),))
    assert verify._midpoint_value(entry, nodes) == 0.0
    for rows in blocks:
        assert np.array_equal(rows, np.arange(rows[0], rows[0] + len(rows)))
        assert len(rows) <= size
        assert (len(rows) % nodes ** 2 == 0) == (nodes ** 2 <= size)
    assert np.array_equal(np.concatenate(blocks), np.arange(nodes ** 3))
    assert (nodes ** 2 <= size) == (nodes < 100 or size == 16384)


@pytest.mark.parametrize("size, expected", [
    (500, [432] * 2), (300, [288] * 3), (144, [144] * 5)])
def test_volume_error_is_the_first_failing_blocks(size, expected, monkeypatch, capsys):
    """The chart ends at x1 = 0.3, so on a 12-node grid in blocks of three
    planes (432 rows) blocks 1, 2 and 3 each leave it at a different first
    point (rows 576, 864 and 1296). The quadrature raises the OutOfChart of
    the first block holding row 576 (block 1 of three planes, 2 of two, 4 of
    one) and runs no block after it, and the `volume` command exits 1
    without a traceback."""
    entry = box_entry(domain="0.3 - x1")
    blocks = []
    param = entry.manifold.volume_param

    def chart_map(params):  # called once per block
        blocks.append(np.broadcast(*params).size)
        return param.chart_map(params)

    entry.manifold.volume_param = dataclasses.replace(param, chart_map=chart_map)
    monkeypatch.setattr(verify, "VOLUME_BLOCK_ROWS", size)
    with pytest.raises(OutOfChart) as failed:
        volume_integral(entry, 12)
    assert "[0.375      0.04166667 0.04166667]" in str(failed.value)  # row 576
    assert blocks == expected  # up to the failing block, none after it
    monkeypatch.setitem(catalog._FIXED, "box", dict(  # the same chart as a catalog row
        metric=catalog._FLAT, domain="0.3 - x1", field=("z", ("0", "0", "1")), expected={},
        notes="", box=((0.1, 0.1, 0.1), (0.9, 0.9, 0.9)), start=(0.5, 0.5, 0.1),
        volume=entry.manifold.volume_param))
    assert cli.main(["volume", "--entry", "box", "--nodes", "12"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {failed.value}\n"


def test_volume_traced_peak_is_bounded(entries):
    """The traced peak of one 40-node volume (64,000 rows, then 8,000 for the
    coarse grid) stays under 16 MB. Measured with numpy 2.4 on CPython 3.11:
    5.3 MB in blocks of five 1,600-row planes, 38.9 MB as one kernel call on
    the rows of the whole grid."""
    entry = entries["s3_hopf"]
    volume_integral(entry, 4)  # compile the expression tables outside the trace
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
    assert reebability_verdict(vol, killing_defect_max=1e-12) == "reeb-realizable"
    assert reebability_verdict(vol, killing_defect_max=0.5) == "inconclusive"
    tiny = gc.VolumeResult(value=1e-12, nodes=16, estimated_error=1e-6,
                           parametrization="hopf")
    assert reebability_verdict(tiny, killing_defect_max=1e-12) == "not-reeb"


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


# ---------------------------------------------------------------------------
# Shared samples
# ---------------------------------------------------------------------------

def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so that each call appends the row count of its third
    argument: the points of ``diagnose``, the first plane vectors of ``sectional``."""
    calls, original = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(len(args[2]))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_survey_diagnoses_each_grid_once(monkeypatch, capsys):
    """The grid suites of an entry read one diagnosis, and the space-form
    suites one curvature check: 7 grids, 4 of them space forms. An entry's
    diagnosis is dropped before the next entry's is computed."""
    diagnose, made, alive = verify.diagnose, [], []

    def tracking(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in made))
        diag = diagnose(*args, **kwargs)
        made.append(weakref.ref(diag))
        return diag

    monkeypatch.setattr(verify, "diagnose", tracking)
    diagnoses = count_calls(monkeypatch, verify, "diagnose")
    sectionals = count_calls(monkeypatch, verify, "sectional")
    assert cli.main(["verify", "T3.1", "C3.2", "T5.1", "C5.2", "--all"]) == 0
    assert diagnoses == [125] * 7
    assert sectionals == [50] * 4
    assert alive == [0] * 7


def test_parallel_jacobi_keeps_its_own_seed_batch(monkeypatch, capsys):
    diagnoses = count_calls(monkeypatch, verify, "diagnose")
    assert cli.main(["verify", "T6.1", "--entry", "s3_hopf"]) == 0
    assert diagnoses == [27]


def test_verify_entry_shares_across_suites(entries, monkeypatch):
    diagnoses = count_calls(monkeypatch, verify, "diagnose")
    sectionals = count_calls(monkeypatch, verify, "sectional")
    reports = verify.verify_entry(entries["s3_hopf"], ["T5.1", "T3.1", "C5.2", "C3.2", "P7.6"],
                                  volume_nodes=4)
    assert [r.theorem for r in reports] == ["T5.1", "T3.1", "C5.2", "C3.2", "P7.6"]
    assert diagnoses == [125] and sectionals == [50]
    # the same reports as each suite run alone
    assert [r.to_dict() for r in reports] == [
        run_theorem(entries["s3_hopf"], r.theorem, volume_nodes=4).to_dict() for r in reports]


#: a flat chart with a constant field of length 2
NON_UNIT_DOC = {"manifold": {"metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
                "field": {"components": ["0", "0", "2"]},
                "grid": {"min": [-1, -1, -1], "max": [1, 1, 1], "counts": [3, 3, 3]}}


@pytest.mark.parametrize("theorems, c, error, message", [
    (["T5.1", "T3.1"], 1.0, NotConstantCurvature,
     "custom: sectional values in [0.000000, 0.000000], expected constant 1.0"),
    (["T3.1", "T5.1"], 0.0, NotUnit, "field 'custom' has unit defect 3.000e+00 at [-1. -1. -1.]"),
    (["T5.1", "C5.2"], 0.0, NotUnit, "field 'custom' has unit defect 3.000e+00 at [-1. -1. -1.]"),
], ids=["curvature-first", "unit-first", "space-forms"])
def test_shared_samples_keep_the_first_error(tmp_path, capsys, theorems, c, error, message):
    """Bad input raises the error of the first suite that reads the bad
    quantity, as when every suite computed its own."""
    entry = resolve_config(NON_UNIT_DOC).entry
    with pytest.raises(error) as info:
        verify.verify_entry(entry, theorems, c=c)
    assert str(info.value) == message
    path = tmp_path / "config.json"
    path.write_text(json.dumps(NON_UNIT_DOC), encoding="utf-8")
    assert cli.main(["verify", *theorems, "--c", str(c), "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


def test_verify_names_a_vanishing_field(tmp_path, capsys):
    """A field with zeros fails the unit check first in ``verify`` and is
    named at its first zero in ``analyze``, which skips the unit check."""
    doc = {"manifold": "s3_hopf", "field": {"components": ["0", "0", "x1"]},
           "grid": {"min": [-1, -1, -1], "max": [1, 1, 1], "counts": [3, 3, 3]}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["verify", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: field 'custom' has unit defect 7.500e-01 at [-1. -1. -1.]\n"
    assert cli.main(["analyze", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: field 'custom' is zero or not finite at [ 0. -1. -1.]\n"


def test_tolerances_mapping():
    tol = resolve_config({"manifold": "h3_vertical",
                          "tolerances": {"contact_floor": 1e-5}}).tolerances
    assert tol.contact_floor == 1e-5
    with pytest.raises(ConfigError):
        resolve_config({"manifold": "h3_vertical", "tolerances": {"frobnication": 1.0}})
