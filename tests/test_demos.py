"""Every demo script runs to completion without writing to stderr, and the
public surface that the demos, the commands and the README read is pinned."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import geocontact as gc

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs_clean(script):
    src = str(script.parent.parent / "src")
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout


#: ``geocontact.__all__``: adding or removing a public name is a diff here
PUBLIC = {
    # the submodules
    "catalog", "curvature", "errors", "expr", "field", "flow", "geometry", "verify",
    # expressions and charts
    "DualScalar", "ExprAst", "eval_dual", "eval_scalar", "parse", "to_string",
    "ChartedManifold", "Frame", "VolumeParametrization", "frame_at", "frames_at", "inner",
    "manifold_from_exprs", "metric_partials",
    # curvature and the field diagnosis
    "christoffel", "riemann", "sectional",
    "ComplexPair", "Diagnosis", "PointDiagnosis", "RealPair", "UnitField", "beta_ranks",
    "contact_defect_grid", "diagnose", "diagnose_point", "eigen_columns",
    # orbits and the space-form zero
    "Trajectory", "WronskianResult", "arcoth", "first_zero_space_form", "integrate_orbit",
    "integrate_orbits", "max_parallel_jacobi_defect", "riccati_residual", "rk4_step",
    "trace_evolution_residual", "wronskian",
    # the catalog and the verdict suites
    "NAMES", "CatalogEntry", "GridSpec", "OrbitSpec", "all_entries", "builtin", "self_check",
    "TheoremReport", "Tolerances", "VolumeResult", "reebability_verdict", "run_theorem",
    "verify_all", "verify_parallel_jacobi", "verify_ricci", "verify_space_form",
    "volume_integral",
}


def test_public_surface_is_pinned():
    assert set(gc.__all__) == PUBLIC
