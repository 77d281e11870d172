"""Command-line interface: formats, exit codes, determinism."""

import hashlib
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import ENTRY_NAMES, blas_note
import geocontact as gc
from geocontact import cli, expr, flow
from test_reports import DIGESTS


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def test_catalog_listing(capsys):
    code, out, _ = run(capsys, ["catalog"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 7
    assert lines[0].startswith("euclidean_parallel")


def test_catalog_json(capsys):
    code, out, _ = run(capsys, ["catalog", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 7
    assert {"name", "description"} <= set(doc[0])


def test_unknown_subcommand(capsys):
    code, _, _ = run(capsys, ["frobnicate"])
    assert code == 2


@pytest.mark.parametrize("argv", [["analyze", "--entry", "s3_hopf", "--json"],
                                  ["orbit", "--entry", "h3_vertical", "--json"],
                                  ["verify", "T5.1", "--entry", "s3_hopf", "--json"],
                                  ["volume", "--entry", "s3_hopf", "--json"],
                                  ["catalog", "--config", "missing.json"],
                                  ["verify", "T6.1", "--entry", "s3_hopf", "--c", "1"],
                                  ["verify", "--entry", "h2xr_vertical", "--c", "-1"]])
def test_a_flag_its_command_would_not_read_is_a_usage_error(capsys, argv):
    """``--json`` belongs to ``catalog`` alone, ``--config`` to every other
    command and ``--c`` to the space-form suites T5.1 and C5.2, so none is
    accepted and then ignored."""
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    flag = next(a for a in argv if a.startswith("--") and a != "--entry")
    assert f"unrecognized arguments: {flag}" in err and "Traceback" not in err


@pytest.mark.parametrize("command", [["analyze"], ["orbit"], ["verify", "T3.1"], ["volume"]])
def test_entry_and_config_exclude_each_other(tmp_path, capsys, command):
    """A command reads its setup from one of the two, so the other would be ignored."""
    cfg = write_config(tmp_path, {"manifold": "s3_hopf"})
    code, out, err = run(capsys, [*command, "--entry", "h3_vertical", "--config", cfg])
    assert code == 2 and out == ""
    assert "argument --config: not allowed with argument --entry" in err


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

H3_GRID = {"min": [-1.0, -1.0, 0.5], "max": [1.0, 1.0, 2.5], "counts": [3, 3, 3]}


def test_analyze_h3(tmp_path, capsys):
    cfg = write_config(tmp_path, {"manifold": "h3_vertical", "grid": H3_GRID})
    code, out, _ = run(capsys, ["analyze", "--config", cfg])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == ("x1,x2,x3,unit_defect,geodesic_defect,killing_defect,"
                        "contact_defect,eig_kind,eig_re1,eig_im1,eig_re2,eig_im2,"
                        "ric_X,Delta,delta,beta_rank")
    rows = [l for l in lines[1:] if not l.startswith("#")]
    assert len(rows) == 27
    defects = [abs(float(r.split(",")[6])) for r in rows]
    assert max(defects) < 1e-8
    assert all(r.split(",")[7] == "real" for r in rows)


def test_analyze_s3_complex(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "manifold": "s3_hopf",
        "grid": {"min": [-0.5, -0.5, -0.5], "max": [0.5, 0.5, 0.5], "counts": [2, 2, 2]}})
    code, out, _ = run(capsys, ["analyze", "--config", cfg])
    assert code == 0
    rows = [l for l in out.strip().split("\n")[1:] if not l.startswith("#")]
    assert all(r.split(",")[7] == "complex" for r in rows)


def test_analyze_out_of_chart_block(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "manifold": "h3_vertical",
        "grid": {"min": [0.0, 0.0, -1.0], "max": [0.0, 0.0, 1.0], "counts": [1, 1, 5]}})
    code, out, _ = run(capsys, ["analyze", "--config", cfg])
    assert code == 0
    lines = out.strip().split("\n")
    rows = [l for l in lines[1:] if not l.startswith("#")]
    assert len(rows) == 2  # x3 = 0.5, 1.0 survive; -1, -0.5, 0 are out
    block = [l for l in lines if l.startswith("# out_of_chart")]
    assert block == ["# out_of_chart: 3"]
    # no point inside the chart: the header, then every point as out of chart
    cfg = write_config(tmp_path, {"manifold": "h3_vertical", "grid": {
        "min": [0, 0, -2], "max": [0, 0, -1], "counts": [1, 1, 2]}}, name="outside.json")
    code, out, err = run(capsys, ["analyze", "--config", cfg])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == cli.ANALYZE_HEADER and lines[1].startswith("# version")
    assert lines[3:] == ["# out_of_chart: 2", "# 0,0,-2", "# 0,0,-1"]


@pytest.mark.parametrize("mode", ["dual", "central"])
def test_analyze_lists_a_point_whose_curvature_stencil_leaves_the_chart(tmp_path, capsys, mode):
    """x3 = 1e-6 is inside h3_vertical's chart, but the curvature stencil there
    reaches x3 < 0: the point is listed under out_of_chart, as one outside is."""
    cfg = write_config(tmp_path, {"manifold": "h3_vertical", "diff": {"mode": mode}, "grid": {
        "min": [0, 0, 1e-6], "max": [0, 0, 1], "counts": [1, 1, 3]}})
    code, out, err = run(capsys, ["analyze", "--config", cfg])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert [row.split(",")[2] for row in lines[1:3]] == ["0.50000049999999996", "1"]
    assert lines[3].startswith("# version")
    assert lines[5:] == ["# out_of_chart: 1", "# 0,0,9.9999999999999995e-07"]


def test_analyze_checks_the_stencil_only_of_points_inside_the_chart(tmp_path, capsys):
    """The chart log(x3) > 0 is x3 > 1. x3 = 1e-6 is outside it, and its
    stencil reaches x3 < 0, where log is undefined: the point is listed once,
    as outside; x3 = 1.0000007 is inside, but its stencil is not."""
    cfg = write_config(tmp_path, {
        "manifold": {"metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                     "domain": "log(x3)"},
        "field": {"components": ["0", "0", "1"]},
        "grid": {"min": [0, 0, 1e-6], "max": [0, 0, 3], "counts": [1, 1, 4]}})
    code, out, err = run(capsys, ["analyze", "--config", cfg])
    assert code == 0 and err == ""
    assert out.splitlines()[-3:] == ["# out_of_chart: 2", "# 0,0,9.9999999999999995e-07",
                                     "# 0,0,1.0000006666666665"]


def log_chart(tmp_path, x3):
    """A flat chart on x3 > e^-30 whose domain log(x3) + 30 is undefined at
    x3 <= 0, with the grid x3 in {x3, 1} and an orbit from (0, 0, x3)."""
    return write_config(tmp_path, {
        "manifold": {"metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                     "domain": "log(x3) + 30"},
        "field": {"components": ["0", "0", "1"]},
        "grid": {"min": [0, 0, x3], "max": [0, 0, 1], "counts": [1, 1, 2]},
        "orbit": {"start": [0, 0, x3], "t_end": 0.01, "step": 0.001}})


def test_a_stencil_where_the_domain_is_undefined_leaves_the_chart(tmp_path, capsys):
    """The curvature stencil of x3 = 1e-6 reaches x3 = -9e-6, where log is
    undefined: outside the chart, so ``analyze`` lists the point under
    out_of_chart and ``orbit`` names the start's stencil, as for a chart whose
    domain is defined there."""
    cfg = log_chart(tmp_path, 1e-6)
    code, out, err = run(capsys, ["analyze", "--config", cfg])
    assert (code, err) == (0, "")
    assert out.splitlines()[1].startswith("0,0,1,")
    assert out.splitlines()[-2:] == ["# out_of_chart: 1", "# 0,0,9.9999999999999995e-07"]
    code, out, err = run(capsys, ["orbit", "--config", cfg])
    assert (code, out) == (1, "")
    assert err == ("error: orbit start [0.e+00 0.e+00 1.e-06]: its curvature stencil "
                   "(diff_step 1e-05) leaves the chart of 'custom'\n")


def test_csv_rows_are_the_per_cell_format(tmp_path):
    """Each row's one ``%`` template gives the bytes of formatting each cell on
    its own, the string as given and a number as ``f"{float(c):.17g}"``."""
    def per_cell(row):  # the reference: the writer's format before its row templates
        return ",".join(c if isinstance(c, str) else f"{float(c):.17g}" for c in row) + "\n"

    specials = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e300, 0.1, 1 / 3]
    rows = [["real", 0, specials[k], -7, np.float64(specials[-1 - k]), "%s,%d", 2 ** 70]
            for k in range(len(specials))]
    args = SimpleNamespace(out=str(tmp_path / "report.csv"))
    cli._emit_csv(args, SimpleNamespace(echo={}), "h", rows)
    text = (tmp_path / "report.csv").read_text(encoding="utf-8")
    assert text.startswith("h\n" + "".join(map(per_cell, rows)) + "# version: ")
    assert "\nreal,0,-0,-7,4.9406564584124654e-324,%s,%d,1.1805916207174113e+21\n" in text


def test_analyze_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, {"manifold": "heisenberg_reeb",
                                  "grid": {"min": [-1, -1, -1], "max": [1, 1, 1],
                                           "counts": [2, 2, 2]}})
    _, first, _ = run(capsys, ["analyze", "--config", cfg])
    _, second, _ = run(capsys, ["analyze", "--config", cfg])
    assert first == second


def test_analyze_nongeodesic_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "manifold": {"metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                     "domain": "true"},
        "field": {"components": ["1/sqrt(1 + x1^2)", "0", "x1/sqrt(1 + x1^2)"]},
        "grid": {"min": [-1, 0, 0], "max": [1, 0, 0], "counts": [3, 1, 1]}})
    code, out, _ = run(capsys, ["analyze", "--config", cfg])
    assert code == 1  # unit but not geodesic


def test_analyze_names_the_first_point_where_the_field_is_undefined(tmp_path, capsys):
    """sqrt(x1 + 2) fails at the grid points with x1 < -2, inside the chart:
    exit 2, naming the first of them."""
    cfg = write_config(tmp_path, {
        "manifold": "euclidean_parallel",
        "field": {"components": ["0", "0", "sqrt(x1+2)/sqrt(x1+2)"]},
        "grid": {"min": [-3, -1, -1], "max": [1, 1, 1], "counts": [5, 3, 3]}})
    code, out, err = run(capsys, ["analyze", "--config", cfg])
    assert code == 2 and out == ""
    match = re.fullmatch(r"error: sqrt of a negative value in 'sqrt\(\(x1 \+ 2\.0\)\)' "
                         r"at \[(.*)\]\n", err)
    point = np.array(match.group(1).split(), dtype=float)
    assert point[0] < -2


def test_analyze_custom_field_on_catalog_manifold(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "manifold": "h3_vertical",
        "field": {"components": ["0", "0", "x3"]},
        "grid": H3_GRID})
    code, _, _ = run(capsys, ["analyze", "--config", cfg])
    assert code == 0


def test_analyze_writes_file(tmp_path, capsys):
    cfg = write_config(tmp_path, {"manifold": "h3_vertical", "grid": H3_GRID})
    out_path = tmp_path / "report.csv"
    code, out, _ = run(capsys, ["analyze", "--config", cfg, "--out", str(out_path)])
    assert code == 0 and out == ""
    text = out_path.read_text(encoding="utf-8")
    assert text.startswith("x1,x2,x3,")
    assert "# config:" in text


# ---------------------------------------------------------------------------
# orbit
# ---------------------------------------------------------------------------

def test_orbit_h3(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "manifold": "h3_vertical",
        "orbit": {"start": [0.0, 0.0, 1.0], "t_end": 2.0, "step": 1e-3}})
    code, out, _ = run(capsys, ["orbit", "--config", cfg])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("t,x1,x2,x3,tr_beta,det_beta,discriminant,contact_defect,")
    rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
    assert len(rows) == 2001
    a_num = np.array([float(r[8]) for r in rows])
    a_exp = np.array([float(r[9]) for r in rows])
    t = np.array([float(r[0]) for r in rows])
    assert np.abs(a_num / np.exp(-2 * t) - 1).max() < 1e-4
    assert np.abs(a_exp / np.exp(-2 * t) - 1).max() < 1e-4


def test_orbit_flat_residuals_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "manifold": "euclidean_parallel",
        "orbit": {"start": [0.0, 0.0, 0.0], "t_end": 0.5, "step": 1e-2}})
    code, out, _ = run(capsys, ["orbit", "--config", cfg])
    assert code == 0
    rows = [l.split(",") for l in out.strip().split("\n")[1:] if not l.startswith("#")]
    interior = rows[1:-1]
    assert max(abs(float(r[10])) for r in interior) == 0.0  # riccati
    assert max(abs(float(r[11])) for r in rows) == 0.0      # adaptedness


@pytest.mark.parametrize("not_contact, printed", [(None, False), (1e-6, True)])
def test_orbit_reads_the_not_contact_tolerance(tmp_path, capsys, not_contact, printed):
    """The contact defect is -1e-7 at every sample: not contact at 1e-6, contact
    at the default 1e-8, so the non-contact eigenvalue drift is reported only
    at 1e-6."""
    doc = {"manifold": {"metric": [["1", "0", "0"], ["0", "1 + 1e-14*x1^2", "-1e-7*x1"],
                                   ["0", "-1e-7*x1", "1"]]},
           "field": {"components": ["0", "0", "1"]},
           "orbit": {"start": [0.3, -0.2, 0.1], "t_end": 0.05, "step": 0.001}}
    if not_contact is not None:
        doc["tolerances"] = {"not_contact": not_contact}
    code, out, _ = run(capsys, ["orbit", "--config", write_config(tmp_path, doc)])
    assert code == 0
    rows = [l.split(",") for l in out.split("\n")[1:] if l and not l.startswith("#")]
    assert {float(r[7]) for r in rows} == {-1e-7}
    assert ("# noncontact_eigen_drift: " in out) == printed


def test_orbit_uses_catalog_default(tmp_path, capsys):
    cfg = write_config(tmp_path, {"manifold": "euclidean_parallel"})
    code, out, _ = run(capsys, ["orbit", "--config", cfg])
    assert code == 0
    assert len(out.strip().split("\n")) > 100


@pytest.mark.parametrize("t_end", [-1.0, 0.0, 0.001])
def test_orbit_shorter_than_two_steps_exits_two(tmp_path, capsys, t_end):
    cfg = write_config(tmp_path, {
        "manifold": "h3_vertical", "orbit": {"start": [0.0, 0.0, 1.0], "t_end": t_end}})
    code, out, err = run(capsys, ["orbit", "--config", cfg])
    assert code == 2 and out == ""
    assert "t_end" in err and "Traceback" not in err


def test_orbit_of_two_steps_runs(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "manifold": "h3_vertical", "orbit": {"start": [0.0, 0.0, 1.0], "t_end": 0.002}})
    code, out, _ = run(capsys, ["orbit", "--config", cfg])
    assert code == 0
    assert len([l for l in out.split("\n")[1:] if l and not l.startswith("#")]) == 3


def test_orbit_start_whose_stencil_leaves_the_chart_names_the_start(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "manifold": "h3_vertical",
        "orbit": {"start": [0.0, 0.0, 0.000005], "t_end": 0.01, "step": 0.001}})
    code, out, err = run(capsys, ["orbit", "--config", cfg])
    assert code == 1 and out == ""
    assert "orbit start [0.e+00 0.e+00 5.e-06]" in err and "diff_step 1e-05" in err
    assert "Traceback" not in err


def test_orbit_leaving_chart_before_third_sample_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "manifold": {"metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                     "domain": "1 - x3"},
        "field": {"components": ["0", "0", "1"]},
        "orbit": {"start": [0.0, 0.0, 0.9995], "t_end": 0.01, "step": 0.001}})
    code, out, err = run(capsys, ["orbit", "--config", cfg])
    assert code == 1 and out == ""
    assert "0.9995" in err and "1 sample" in err
    assert "Traceback" not in err


def cap_orbit(tmp_path, capsys, x3_component):
    """``orbit`` on diag(1, 1, 1/x3^2) over 0 < x3 < 1.2 with the field
    (0, 0, x3_component) from [0, 0, 1]; the orbit x3 = e^t leaves at t = 0.18."""
    cfg = write_config(tmp_path, {
        "manifold": {"metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1/x3^2"]],
                     "domain": "x3 * (1.2 - x3)"},
        "field": {"components": ["0", "0", x3_component]},
        "orbit": {"start": [0, 0, 1], "t_end": 0.5, "step": 0.01}})
    return run(capsys, ["orbit", "--config", cfg])


def test_orbit_whose_field_is_undefined_beyond_the_chart_truncates(tmp_path, capsys):
    """The field's sqrt fails only above the cap, where the orbit has left the
    chart: the report is that of the field x3, truncated after 19 samples."""
    code, out, err = cap_orbit(tmp_path, capsys, "x3 + 0*sqrt(1.2 - x3)")
    assert (code, err) == (0, "")
    plain = cap_orbit(tmp_path, capsys, "x3")
    assert plain[0] == 0
    rows = [[line for line in text.split("\n") if not line.startswith("# config:")]
            for text in (out, plain[1])]
    assert rows[0] == rows[1]
    assert "# truncated: true" in rows[0]
    assert len([line for line in rows[0][1:] if line and not line.startswith("#")]) == 19


def test_orbit_whose_field_is_undefined_inside_the_chart_exits_two(tmp_path, capsys):
    """sqrt(1.1 - x3) fails inside the chart: the expression is at fault, and
    the error names the first stage point where it fails, x3 = e^0.1."""
    code, out, err = cap_orbit(tmp_path, capsys, "x3 + 0*sqrt(1.1 - x3)")
    assert code == 2 and out == ""
    assert err == ("error: sqrt of a negative value in 'sqrt((1.1 - x3))' "
                   "at [0.         0.         1.10517101]\n")


def test_orbit_start_where_the_field_is_not_finite_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "manifold": "euclidean_parallel",
        "field": {"components": ["0", "0", "exp(1000*x1)-exp(1000*x1)+1"]},
        "orbit": {"start": [1.0, 0.0, 0.0]}})
    code, out, err = run(capsys, ["orbit", "--config", cfg])
    assert code == 1 and out == ""
    assert "field 'custom' is zero or not finite at [1. 0. 0.]" in err
    assert "Traceback" not in err


def steep_doc(x3, k, mode):
    """The flat chart 0 < x3 < 1.2 whose field (0, 0, 1 + 0*exp(k (x3 - c))) is 1
    below x3 and NaN above it (exp overflows at 709.78), with a 3-point grid and
    a 50-step orbit from x3 = 0.75 upwards, which leaves the chart."""
    c = x3 - 709.78 / k
    shift = f"x3 - {c:.9f}" if c >= 0 else f"x3 + {-c:.9f}"
    return {"manifold": {"metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                         "domain": "x3*(1.2 - x3)"},
            "field": {"components": ["0", "0", f"1 + 0*exp({k:.6f}*({shift}))"]},
            "diff": {"mode": mode},
            "grid": {"min": [0, 0, 0.6], "max": [0, 0, 1.1], "counts": [1, 1, 3]},
            "orbit": {"start": [0, 0, 0.75], "t_end": 0.5, "step": 0.01}}


#: command -> the error of a field NaN above x3 = 0.7098 (exp(1000 x3) overflows),
#: and of one that is finite at x3 = 0.7 but whose central stencil there overflows
STEEP_ERRORS = {
    ("orbit", "dual"): "error: field 'custom' is not finite at [0.   0.   0.71]\n",
    ("analyze", "dual"): "error: field 'custom' is zero or not finite at [0.  0.  0.8]\n",
    ("verify", "dual"): "error: field 'custom' is zero or not finite at [0.  0.  0.8]\n",
    ("orbit", "central"): "error: field 'custom' is not finite at [0.    0.    0.705]\n",
    ("analyze", "central"): ("error: field 'custom' has partials that are not finite "
                             "at [0.  0.  0.7]\n"),
    ("verify", "central"): ("error: field 'custom' has partials that are not finite "
                            "at [0.  0.  0.7]\n"),
}


@pytest.mark.parametrize("command, mode", sorted(STEEP_ERRORS))
def test_a_field_not_finite_inside_the_chart_exits_one(tmp_path, capsys, command, mode):
    """A field that is not finite inside the chart is at fault: each command
    exits 1 naming the first point where its value, or with central
    differences its partials, are not finite, not a chart exit or a traceback."""
    doc = {"manifold": {"metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
           "field": {"components": ["0", "0", "1 + 0*exp(1000*x3)"]},
           "orbit": {"start": [0, 0, 0.5], "t_end": 0.5, "step": 0.01},
           "grid": {"min": [0, 0, 0.5], "max": [0, 0, 0.8], "counts": [1, 1, 4]}}
    if mode == "central":
        doc.update(diff={"mode": "central"},
                   field={"components": ["0", "0", "1 + 0*exp(1013.97*x3)"]},
                   grid={"min": [0, 0, 0.5], "max": [0, 0, 0.7], "counts": [1, 1, 3]})
    code, out, err = run(capsys, [command, "--config", write_config(tmp_path, doc)])
    assert (code, out, err) == (1, "", STEEP_ERRORS[command, mode])


def riccati_nan_at_sample_2(traj):
    return np.where(np.arange(len(traj)) == 2, np.nan, flow.riccati_residuals(traj))


@pytest.mark.parametrize("name, fake, note", [
    ("riccati_residuals", riccati_nan_at_sample_2, "max_riccati_residual"),
    ("trace_evolution_residual", lambda traj: np.nan, "max_trace_residual")])
def test_orbit_exits_one_on_a_nan_residual(capsys, monkeypatch, name, fake, note):
    """A residual that is NaN at an interior sample fails the orbit, wherever it
    comes in the exit rule; the Riccati residual's NaN end samples do not."""
    monkeypatch.setattr(cli, name, fake)
    code, out, _ = run(capsys, ["orbit", "--entry", "h3_vertical"])
    assert code == 1 and f"# {note}: nan\n" in out


@settings(max_examples=24, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sample=st.integers(0, 60), offset=st.floats(-2e-5, 2e-5), k=st.floats(300.0, 3000.0),
       mode=st.sampled_from(["dual", "central"]))
def test_overflowing_fields_keep_the_exit_code_contract(tmp_path, capsys, sample, offset, k,
                                                        mode):
    """On the chart 0 < x3 < 1.2, a field that overflows within a central
    stencil of an orbit sample x3 = 0.75 + 0.01 j (a grid point at j = 10 and
    35), inside or beyond the chart, in either ``diff.mode``: ``analyze``,
    ``orbit`` and ``verify`` return 0, 1 or 2 and raise nothing, and an orbit
    that exits 0 reports only finite residuals."""
    x3 = 0.75 + 0.01 * sample + offset
    cfg = write_config(tmp_path, steep_doc(x3, k, mode))
    for command in ("analyze", "orbit", "verify"):
        code, out, err = run(capsys, [command, "--config", cfg])
        assert code in (0, 1, 2) and "Traceback" not in err
        if command == "orbit" and code == 0:
            residuals = [line.split(": ")[1] for line in out.splitlines()
                         if line.startswith("# max_")]
            assert len(residuals) == 4 and all(np.isfinite(float(r)) for r in residuals)


def test_floating_point_warnings_stay_off_stderr(tmp_path):
    """The overflow and the invalid subtraction inside the field's expression
    code print no RuntimeWarning: stderr is the named error line alone."""
    cfg = write_config(tmp_path, {
        "manifold": {"metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
        "field": {"components": ["exp(1000*x1)-exp(1000*x1)+1", "0", "0"]},
        "orbit": {"start": [1, 0, 0]}})
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "geocontact", "orbit", "--config", cfg],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: field 'custom' is zero or not finite at [1. 0. 0.]\n"


def test_orbit_needs_orbit_section_for_custom(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "manifold": {"metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
        "field": {"components": ["0", "0", "1"]}})
    code, _, err = run(capsys, ["orbit", "--config", cfg])
    assert code == 2
    assert "orbit" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_space_form_cli(capsys):
    code, out, _ = run(capsys, ["verify", "T5.1", "--entry", "s3_hopf", "--c", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["reports"][0]["verdict"] == "consistent"
    assert doc["reports"][0]["theorem"] == "T5.1"


def test_verify_c_reaches_the_space_form_suites_of_the_default_list(capsys):
    code, out, _ = run(capsys, ["verify", "--entry", "s3_hopf", "--c", "1"])
    assert code == 0
    reports = json.loads(out)["reports"]
    assert [r["theorem"] for r in reports][:2] == ["T5.1", "C5.2"]
    assert reports[0]["details"]["c"] == 1.0


def test_verify_t61_h2xr(capsys):
    code, out, _ = run(capsys, ["verify", "T6.1", "--entry", "h2xr_vertical"])
    assert code == 0
    doc = json.loads(out)
    assert doc["reports"][0]["verdict"] == "hypotheses-not-met"


def test_verify_custom_manifold_config(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "manifold": {"metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
        "field": {"components": ["0", "0", "1"]},
        "grid": {"min": [-1, -1, -1], "max": [1, 1, 1], "counts": [2, 2, 2]}})
    code, out, _ = run(capsys, ["verify", "T5.1", "--config", cfg, "--c", "0"])
    assert code == 0
    assert json.loads(out)["reports"][0]["verdict"] == "consistent"


def test_unit_tolerance_is_read_by_analyze_alone(tmp_path, capsys):
    """A field of norm 1.0001 with tolerances.unit_defect 1e-2: analyze takes
    the config's floor and exits 0, while verify requires a unit field to
    field.UNIT_TOL and exits 1, naming the defect."""
    cfg = write_config(tmp_path, {
        "manifold": "euclidean_parallel", "field": {"components": ["0", "0", "1.0001"]},
        "grid": {"min": [-1, -1, -1], "max": [1, 1, 1], "counts": [2, 2, 2]},
        "tolerances": {"unit_defect": 1e-2}})
    assert run(capsys, ["analyze", "--config", cfg])[0] == 0
    code, out, err = run(capsys, ["verify", "T3.1", "--config", cfg])
    assert (code, out) == (1, "") and "unit defect 2.000e-04" in err


def test_verify_space_form_of_a_scaled_flat_metric(tmp_path, capsys):
    """1e-7 I with the unit field (0, 0, 1e3.5) is flat, as I is: the
    degenerate-plane bound of the sectional curvature scales with g, so the
    suite's random planes pass and T5.1 is consistent at either scale."""
    cfg = write_config(tmp_path, {
        "manifold": {"metric": [["1e-7", "0", "0"], ["0", "1e-7", "0"], ["0", "0", "1e-7"]]},
        "field": {"components": ["0", "0", "3162.2776601683795"]},
        "grid": {"min": [-1, -1, -1], "max": [1, 1, 1], "counts": [3, 3, 3]}})
    code, out, err = run(capsys, ["verify", "T5.1", "--config", cfg, "--c", "0"])
    assert (code, err) == (0, "")
    assert json.loads(out)["reports"][0]["verdict"] == "consistent"


def test_verify_deterministic_json(capsys):
    _, first, _ = run(capsys, ["verify", "T5.1", "--entry", "s3_hopf", "--c", "1"])
    _, second, _ = run(capsys, ["verify", "T5.1", "--entry", "s3_hopf", "--c", "1"])
    assert first == second


def test_analyze_central_mode(tmp_path, capsys):
    cfg = write_config(tmp_path, {"manifold": "h3_vertical", "grid": H3_GRID,
                                  "diff": {"mode": "central", "step": 1e-5}})
    code, out, _ = run(capsys, ["analyze", "--config", cfg])
    assert code == 0
    rows = [l.split(",") for l in out.strip().split("\n")[1:] if not l.startswith("#")]
    # Delta column still lands on -1 to central-difference accuracy
    assert all(abs(float(r[13]) + 1.0) < 1e-6 for r in rows)


def test_verify_all_compiles_each_distinct_table_once_per_process(capsys, cold_caches):
    for _ in range(2):
        code, out, _ = run(capsys, ["verify", "--all"])
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS["verify:all"], (
            f"verify:all: the report moved; {blas_note()}")
        # none the second time; T6.1's orbit starts and the space-form suites'
        # sectional curvatures take g from the metric's dual jet, so they
        # compile no metric-value program of their own
        assert expr._compile.cache_info().misses == 20


def test_verify_bad_theorem(capsys):
    code, _, err = run(capsys, ["verify", "T42", "--entry", "s3_hopf"])
    assert code == 2


def test_verify_all_rejects_unknown_theorem(capsys):
    code, out, err = run(capsys, ["verify", "X9", "--all"])
    assert code == 2
    assert out == ""
    assert "X9" in err and "Traceback" not in err


@pytest.mark.parametrize("flags", [["--entry", "h3_vertical"], ["--c", "0.5"], ["--c", "0"]])
def test_verify_all_rejects_entry_and_c(capsys, flags):
    """``--all`` runs every catalog entry, each with its own curvature, so an
    entry or a curvature given with it would be ignored."""
    code, out, err = run(capsys, ["verify", "T5.1", "--all", *flags])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and flags[0] in err


@pytest.mark.parametrize("doc", [{}, {"tolerances": {"contact_floor": 1e-5}}],
                         ids=["empty", "tolerances"])
def test_verify_all_config_with_only_what_it_reads_runs(tmp_path, capsys, doc):
    """``--all`` reads the tolerances (and the volume nodes) alone; a config of
    them needs no manifold, and the echo is the document as applied."""
    code, out, err = run(capsys, ["verify", "T3.1", "--all", "--config",
                                  write_config(tmp_path, doc)])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["config"] == doc
    assert len(report["reports"]) == len(ENTRY_NAMES)


@pytest.mark.parametrize("section", ["manifold", "field", "grid", "orbit", "diff"])
def test_verify_all_config_rejects_sections_it_would_not_apply(tmp_path, capsys, section):
    """Every catalog entry runs on its own setup under ``--all``, so a section
    that sets up an entry is a usage error naming it, even a valid one."""
    doc = {"manifold": "h3_vertical", "field": {"components": ["0", "0", "x3"]},
           "grid": H3_GRID, "orbit": {"start": [0, 0, 1], "t_end": 0.01, "step": 0.001},
           "diff": {"mode": "central", "step": 1e-5}}
    cfg = write_config(tmp_path, {section: doc[section], "tolerances": {}})
    code, out, err = run(capsys, ["verify", "T3.1", "--all", "--config", cfg])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"config section {section!r}" in err and "Traceback" not in err


def test_a_negated_power_base_in_a_config_is_a_usage_error(tmp_path, capsys):
    """-x1^2 is rejected rather than read as (-x1)^2 (see ``expr``'s grammar)."""
    cfg = write_config(tmp_path, {"manifold": {"metric": [["1", "0", "0"], ["0", "1", "0"],
                                                          ["0", "0", "2 + -x1^2"]]},
                                  "field": {"components": ["0", "0", "1"]}})
    code, out, err = run(capsys, ["analyze", "--config", cfg])
    assert code == 2 and out == ""
    assert err == ("error: invalid config expression manifold.metric[2][2] '2 + -x1^2': "
                   "a negated base needs parentheses before '^' at offset 4\n")


_FLAT_CELLS = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


@pytest.mark.parametrize("doc, message", [
    ({"manifold": {"metric": [["1", "0", "0"], ["0", "1 +", "0"], ["0", "0", "1"]]},
      "field": {"components": ["0", "0", "1"]}},
     "manifold.metric[1][1] '1 +': unexpected end of input at offset 3"),
    ({"manifold": {"metric": _FLAT_CELLS}, "field": {"components": ["y", "0", "1"]}},
     "field.components[0] 'y': unknown identifier 'y' at offset 0"),
    ({"manifold": {"metric": _FLAT_CELLS, "domain": "x1 +"},
      "field": {"components": ["0", "0", "1"]}},
     "manifold.domain 'x1 +': unexpected end of input at offset 4"),
], ids=["metric", "field", "domain"])
def test_a_syntax_error_in_a_config_expression_names_its_key_and_cell(tmp_path, capsys, doc,
                                                                       message):
    code, out, err = run(capsys, ["analyze", "--config", write_config(tmp_path, doc)])
    assert code == 2 and out == ""
    assert err == f"error: invalid config expression {message}\n"


def test_verify_unknown_entry(capsys):
    code, _, _ = run(capsys, ["verify", "T5.1", "--entry", "mystery"])
    assert code == 2


# ---------------------------------------------------------------------------
# volume
# ---------------------------------------------------------------------------

def test_volume_json(capsys):
    code, out, _ = run(capsys, ["volume", "--entry", "s3_hopf", "--nodes", "16"])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["result"]["value"] - 4 * np.pi ** 2) < 0.1
    assert doc["result"]["nodes"] == 16


@pytest.mark.parametrize("nodes", [2, 3])
def test_volume_below_four_nodes_exits_two(tmp_path, capsys, nodes):
    """Below 4 nodes the half-resolution grid of the error estimate has fewer
    than 2 nodes, or at 2 was the fine grid itself, an estimated error of 0
    that P7.6 read as a sure verdict. The flag names the bound, the config
    key its own name."""
    code, out, err = run(capsys, ["volume", "--entry", "s3_hopf", "--nodes", str(nodes)])
    assert code == 2 and out == "" and "need at least 4 nodes per axis" in err
    cfg = write_config(tmp_path, {"manifold": "s3_hopf", "volume": {"nodes": nodes}})
    for argv in (["volume", "--config", cfg], ["verify", "P7.6", "--config", cfg]):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and "volume.nodes" in err and "Traceback" not in err
    code, out, _ = run(capsys, ["volume", "--entry", "s3_hopf", "--nodes", "4"])
    assert code == 0 and json.loads(out)["result"]["estimated_error"] > 0.0


def test_cold_volume_keeps_its_report(capsys, cold_caches):
    _, out, _ = run(capsys, ["volume", "--entry", "s3_hopf", "--nodes", "16"])
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS["volume:s3_hopf:16"]


@pytest.mark.parametrize("argv", [["volume", "--entry", "s3_hopf", "--nodes", "32"],
                                  ["verify", "P7.6", "--entry", "s3_hopf"]])
def test_no_command_starts_a_thread(capsys, monkeypatch, argv):
    """The volume quadrature and the P7.6 suite run on the calling thread
    alone: with ``Thread.start`` raising, each command still exits 0 and
    leaves the thread count as it was."""
    def refuse(thread):
        raise AssertionError(f"thread started: {thread!r}")

    baseline = threading.active_count()
    monkeypatch.setattr(threading.Thread, "start", refuse)
    code, _, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert threading.active_count() == baseline


def test_volume_refinement(capsys):
    _, out8, _ = run(capsys, ["volume", "--entry", "s3_hopf", "--nodes", "8"])
    _, out16, _ = run(capsys, ["volume", "--entry", "s3_hopf", "--nodes", "16"])
    err8 = json.loads(out8)["result"]["estimated_error"]
    err16 = json.loads(out16)["result"]["estimated_error"]
    assert err16 < err8


def test_volume_no_parametrization(capsys):
    code, _, err = run(capsys, ["volume", "--entry", "h3_vertical"])
    assert code == 2
    assert "parametrization" in err


# ---------------------------------------------------------------------------
# report writers: the CSV and JSON contract of every command
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [["catalog"], ["catalog", "--json"],
                                  ["analyze", "--entry", "h3_vertical"],
                                  ["orbit", "--entry", "h3_vertical"],
                                  ["verify", "T3.1", "--entry", "s3_hopf"],
                                  ["volume", "--entry", "s3_hopf", "--nodes", "8"]])
def test_out_file_holds_the_bytes_of_stdout(tmp_path, capsys, argv):
    """``--out`` writes what stdout would show, with LF line ends and one
    final newline."""
    code, out, _ = run(capsys, argv)
    out_path = tmp_path / "report"
    assert run(capsys, argv + ["--out", str(out_path)])[:2] == (code, "")
    data = out_path.read_bytes()
    assert data == out.encode("utf-8")
    assert b"\r" not in data and data.endswith(b"\n") and not data.endswith(b"\n\n")


@pytest.mark.parametrize("target", ["", "missing/report"])
def test_out_that_cannot_be_written_is_a_usage_error(tmp_path, capsys, target):
    """An ``--out`` path that is a directory or lies in a missing one exits 2
    with one error line."""
    code, out, err = run(capsys, ["catalog", "--out", str(tmp_path / target)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def csv_columns(text):
    """Column name -> array of the cells of a CSV report's rows, as strings."""
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    return {name: np.array(cells) for name, cells in zip(lines[0].split(","), zip(*rows))}


def test_orbit_report_floats_parse_back_exactly(capsys):
    entry = gc.builtin("h3_vertical")
    spec = entry.orbit
    traj = gc.integrate_orbit(entry.manifold, entry.field, np.asarray(spec.start, float),
                              spec.t_end, spec.step, with_jacobi=True)
    _, out, _ = run(capsys, ["orbit", "--entry", "h3_vertical"])
    cols = {k: v.astype(float) for k, v in csv_columns(out).items()}
    assert np.array_equal(cols["t"], traj.t)
    for i in range(3):
        assert np.array_equal(cols[f"x{i + 1}"], traj.points[:, i])
    assert np.array_equal(cols["A_numeric"], traj.A)
    assert np.array_equal(cols["adapted_residual"], traj.adapted)
    riccati = cols["riccati_residual"]
    assert np.isnan(riccati[[0, -1]]).all() and np.isfinite(riccati[1:-1]).all()


def test_analyze_report_floats_parse_back_exactly(capsys):
    entry = gc.builtin("s3_hopf")
    diag = gc.diagnose(entry.manifold, entry.field, entry.grid.points(), unit_tol=np.inf)
    _, out, _ = run(capsys, ["analyze", "--entry", "s3_hopf"])
    cols = csv_columns(out)
    expected = {"unit_defect": diag.unit_defect, "geodesic_defect": diag.geodesic_defect,
                "killing_defect": diag.killing_defect, "contact_defect": diag.contact_defect,
                "ric_X": diag.ric_X, "Delta": diag.Delta, "delta": diag.delta,
                **{f"x{i + 1}": diag.p[:, i] for i in range(3)},
                **{f"eig_{part}{k + 1}": getattr(diag, f"eig_{part}")[:, k]
                   for part in ("re", "im") for k in range(2)}}
    for name, column in expected.items():
        assert np.array_equal(cols[name].astype(float), column), name
    assert list(cols["eig_kind"]) == ["complex"] * len(diag.p)
    assert list(cols["beta_rank"]) == [str(r) for r in diag.beta_rank]


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_unknown_config_key(tmp_path, capsys):
    cfg = write_config(tmp_path, {"manifold": "h3_vertical", "turbo": True})
    code, _, err = run(capsys, ["analyze", "--config", cfg])
    assert code == 2
    assert "turbo" in err


def test_unknown_nested_key(tmp_path, capsys):
    cfg = write_config(tmp_path, {"manifold": "h3_vertical",
                                  "grid": {"min": [0, 0, 1], "max": [1, 1, 2],
                                           "counts": [2, 2, 2], "spacing": "log"}})
    code, _, err = run(capsys, ["analyze", "--config", cfg])
    assert code == 2


def test_bad_expression_in_config(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "manifold": {"metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "oops"]]},
        "field": {"components": ["0", "0", "1"]},
        "grid": {"min": [0, 0, 0], "max": [1, 1, 1], "counts": [2, 2, 2]}})
    code, _, _ = run(capsys, ["analyze", "--config", cfg])
    assert code == 2


@pytest.mark.parametrize("doc, key", [
    ({"grid": {"max": [1, 1, 2], "counts": [2, 2, 2]}}, "grid.min"),
    ({"grid": 5}, "grid"),
    ({"volume": {"nodes": "abc"}}, "volume.nodes"),
    ({"tolerances": {"unit_defect": "abc"}}, "tolerances.unit_defect"),
    ({"diff": {"step": "abc"}}, "diff.step"),
    ({"diff": {"mode": "central", "step": 0}}, "diff.step"),
    ({"orbit": {"start": [0, 0, 1], "t_end": "x"}}, "orbit.t_end"),
    ({"manifold": {"metric": 5}}, "manifold.metric"),
    ({"manifold": {"metric": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}}, "manifold.metric"),
    ({"manifold": {"metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], "domain": 5},
      "field": {"components": ["0", "0", "1"]}}, "manifold.domain"),
    ({"field": {"components": [0, 0, 1]}}, "field.components"),
    ({"orbit": {"start": [0, 0, 1], "t_end": float("inf")}}, "orbit.t_end"),
    ({"orbit": {"start": [0, 0, 1], "step": float("nan")}}, "orbit.step"),
    ({"diff": {"mode": "central", "step": float("inf")}}, "diff.step"),
    # finite, but its trajectory buffer would be larger than numpy can address
    ({"orbit": {"start": [0, 0, 1], "t_end": 1e300}}, "orbit.t_end"),
    # a NaN tolerance would make every comparison with it False
    ({"tolerances": {"orbit_residual": float("nan")}}, "tolerances.orbit_residual"),
    ({"tolerances": {"contact_floor": float("inf")}}, "tolerances.contact_floor"),
    ({"grid": {"min": [float("nan"), 0, 0], "max": [1, 1, 2]}}, "grid.min"),
    ({"grid": {"min": [0, 0, 1], "max": [1, float("inf"), 2]}}, "grid.max"),
    ({"orbit": {"start": [float("nan"), 0, 1]}}, "orbit.start"),
    # a JSON number of the wrong sign, fraction or type is not converted
    ({"tolerances": {"orbit_residual": -1}}, "tolerances.orbit_residual"),
    ({"grid": {"min": [0, 0, 1], "max": [1, 1, 2], "counts": [2.7, 2, 2]}}, "grid.counts"),
    ({"grid": {"min": [0, 0, 1], "max": [1, 1, 2], "counts": ["3", True, 2]}}, "grid.counts"),
    ({"grid": {"min": ["0", "0", "1"], "max": [1, 1, 2]}}, "grid.min"),
    ({"volume": {"nodes": 2.9}}, "volume.nodes"),
    ({"diff": {"step": True}}, "diff.step"),
    ({"tolerances": {"unit_defect": True}}, "tolerances.unit_defect"),
    # t_end / step overflows to inf
    ({"orbit": {"start": [0, 0, 1], "step": 5e-324}}, "orbit.t_end"),
], ids=["missing-grid-min", "grid-not-object", "volume-nodes", "tolerance",
        "diff-step", "diff-step-zero", "orbit-t-end", "metric-not-table",
        "metric-numbers", "domain-not-string", "components-numbers",
        "orbit-t-end-infinite", "orbit-step-nan", "diff-step-infinite", "orbit-t-end-huge",
        "tolerance-nan", "tolerance-infinite", "grid-min-nan", "grid-max-infinite",
        "orbit-start-nan", "tolerance-negative", "counts-fractional", "counts-not-numbers",
        "grid-min-strings", "nodes-fractional", "diff-step-bool", "tolerance-bool",
        "orbit-step-subnormal"])
def test_bad_config_value_exits_two(tmp_path, capsys, doc, key):
    cfg = write_config(tmp_path, {"manifold": "h3_vertical", **doc})
    code, out, err = run(capsys, ["analyze", "--config", cfg])
    assert code == 2 and out == ""
    assert key.split(".")[-1] in err and "Traceback" not in err


@pytest.mark.parametrize("command, doc, message", [
    # a point array larger than numpy can address: rejected before any allocation
    ("analyze", {"grid": {"min": [0, 0, 1], "max": [1, 1, 2], "counts": [1000000] * 3}},
     "grid.counts"),
    # addressable, but far more than any machine holds: numpy's MemoryError
    ("analyze", {"grid": {"min": [0, 0, 1], "max": [1, 1, 2],
                          "counts": [1000000, 1000000, 100000]}},
     "not enough memory for grid.counts"),
    ("orbit", {"orbit": {"start": [0, 0, 1], "t_end": 1e13}},
     "not enough memory for orbit.t_end"),
    # the volume's product array, allocated before any grid row is evaluated
    ("volume", {"manifold": "s3_hopf", "volume": {"nodes": 1000000}}, "nodes = 1000000"),
    ("volume", {"manifold": "s3_hopf", "volume": {"nodes": 1500000}}, "nodes = 1500000"),
], ids=["grid-unaddressable", "grid-too-large", "orbit-too-long", "volume-beyond-memory",
        "volume-bytes-unaddressable"])
def test_input_too_large_to_hold_exits_two(tmp_path, capsys, command, doc, message):
    cfg = write_config(tmp_path, {"manifold": "h3_vertical", **doc})
    code, out, err = run(capsys, [command, "--config", cfg])
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


def test_readme_config_table_matches_the_schema():
    """The README's config table lists exactly the (section, key) pairs of the schema."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \|", readme, flags=re.MULTILINE)
    assert len(rows) == len(set(rows))
    assert set(rows) == {(section, key) for section, (_, keys) in cli._SCHEMA.items()
                         for key in keys}


#: metric diag(x1, 1, 1): positive definite only where x1 > 0
SIGNED_METRIC_DOC = {
    "manifold": {"metric": [["x1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
    "field": {"components": ["0", "0", "1"]},
    "grid": {"min": [-1, -1, -1], "max": [1, 1, 1], "counts": [3, 3, 3]},
    "orbit": {"start": [-0.5, 0.0, 0.0], "t_end": 0.01, "step": 0.001}}


@pytest.mark.parametrize("command, point", [
    ("analyze", "[-1. -1. -1.]"), ("verify", "[-1. -1. -1.]"), ("orbit", "[-0.5  0.   0. ]")])
def test_metric_not_positive_definite(tmp_path, capsys, command, point):
    cfg = write_config(tmp_path, SIGNED_METRIC_DOC)
    code, _, err = run(capsys, [command, "--config", cfg])
    assert code == 1
    assert "not positive definite at " + point in err and "Traceback" not in err


def test_invalid_json_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, _ = run(capsys, ["analyze", "--config", str(path)])
    assert code == 2
    path = tmp_path / "not_utf8.json"
    path.write_bytes(b"\xff\xfe{")
    code, out, err = run(capsys, ["analyze", "--config", str(path)])
    assert code == 2 and out == "" and "Traceback" not in err


def test_missing_config(tmp_path, capsys):
    code, _, _ = run(capsys, ["analyze", "--config", "/nonexistent/config.json"])
    assert code == 2
    code, out, err = run(capsys, ["analyze", "--config", str(tmp_path)])  # a directory
    assert code == 2 and out == "" and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["volume", "--entry", "s3_hopf", "--nodes", "0"],
    ["verify", "T5.1", "--entry", "h3_vertical", "--c", "nan"],
    ["verify", "T5.1", "--entry", "h3_vertical", "--c", "inf"],
    # nodes^3 grid rows are more than numpy can index
    ["volume", "--entry", "s3_hopf", "--nodes", "2097152"],
    # nodes^3 products of more bytes than numpy can address, or than memory holds:
    # the product array fails to allocate before any grid row is evaluated
    ["volume", "--entry", "s3_hopf", "--nodes", "1500000"],
    ["volume", "--entry", "s3_hopf", "--nodes", "1000000"],
], ids=["nodes-zero", "c-nan", "c-inf", "nodes-unindexable", "nodes-bytes-unaddressable",
        "nodes-beyond-memory"])
def test_bad_numeric_flag_exits_two(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and "Traceback" not in err


def test_tolerance_override(tmp_path, capsys):
    # the skew field has roundoff-level geodesic defect (~1e-16), so an
    # impossible tolerance must flip the exit code
    cfg = write_config(tmp_path, {
        "manifold": "euclidean_skew",
        "grid": {"min": [-1, -1, -1], "max": [1, 1, 1], "counts": [2, 2, 2]},
        "tolerances": {"geodesic_defect": 1e-20}})
    code, _, _ = run(capsys, ["analyze", "--config", cfg])
    assert code == 1
    cfg = write_config(tmp_path, {
        "manifold": "euclidean_skew",
        "grid": {"min": [-1, -1, -1], "max": [1, 1, 1], "counts": [2, 2, 2]}},
        name="default_tol.json")
    code, _, _ = run(capsys, ["analyze", "--config", cfg])
    assert code == 0
