"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
Every tolerance is pinned here; the shared session fixtures integrate each
catalog orbit once (t in [0, 2], step 1e-3).
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

import geocontact as gc
from geocontact import cli
from geocontact.curvature import sectional
from geocontact.expr import eval_dual, eval_scalar, parse
from geocontact.field import ComplexPair, beta_matrix, diagnose_point
from geocontact.flow import (first_zero_space_form, max_parallel_jacobi_defect,
                             riccati_residual, rk4_step, trace_evolution_residual,
                             wronskian)
from geocontact.geometry import frame_at
from geocontact.verify import run_theorem, volume_integral

from conftest import ENTRY_NAMES
from test_expr import CORPUS


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL [{num:2d}] {description}")
        raise
    print(f"ACCEPTANCE PASS [{num:2d}] {description}")


def test_criterion_01_h3_shape_operator(entries):
    with criterion(1, "H3: beta = -I, mixed curvature -1, zero contact defect"):
        entry = entries["h3_vertical"]
        pts = entry.grid.points()
        assert len(pts) == 125
        for p in pts:
            g = entry.manifold.metric_at(p)
            fr = frame_at(g, entry.field.value(p))
            b = beta_matrix(entry.manifold, entry.field, p, frame=fr)
            assert np.abs(b.B + np.eye(2)).max() < 1e-6
            assert abs(b.B[1, 0] - b.B[0, 1]) < 1e-8
            for e in (fr.e1, fr.e2):
                assert abs(sectional(entry.manifold, p, e, fr.X) - (-1.0)) < 1e-6


def test_criterion_02_h2xr_rank_one(entries):
    with criterion(2, "H2xR: rank-1 beta, Delta=0, delta=-1, zero contact defect"):
        entry = entries["h2xr_vertical"]
        measured = []
        for p in entry.grid.points():
            d = diagnose_point(entry.manifold, entry.field, p)
            assert d.beta_rank == 1
            lo, hi = sorted((d.eigen.lam, d.eigen.mu))
            assert abs(hi) < 1e-6
            assert lo < -0.1
            assert abs(d.contact_defect) < 1e-8
            assert abs(d.Delta) < 1e-6
            assert abs(d.delta + 1.0) < 1e-6
            measured.append(lo)
        print(f"  [2] measured nonzero eigenvalue: mean {np.mean(measured):+.9f}, "
              f"spread {np.ptp(measured):.2e} (constant -1 across the half-space)")


def test_criterion_03_s3_hopf_complex_eigenvalues(entries):
    with criterion(3, "S3 Hopf: discriminant < -0.5, |defect| = 2, curvature 1"):
        entry = entries["s3_hopf"]
        pts = entry.grid.points()
        assert len(pts) == 125
        for p in pts:
            d = diagnose_point(entry.manifold, entry.field, p)
            b = d.beta.B
            disc = (b[0, 0] + b[1, 1]) ** 2 - 4 * (b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0])
            assert disc < -0.5
            assert isinstance(d.eigen, ComplexPair)
            assert abs(abs(d.contact_defect) - 2.0) < 1e-5
        rng = np.random.default_rng(101)
        for _ in range(50):
            p = rng.uniform(-1.5, 1.5, 3)
            v, w = rng.standard_normal(3), rng.standard_normal(3)
            assert abs(sectional(entry.manifold, p, v, w) - 1.0) < 1e-5


def test_criterion_04_riccati_and_trace_residuals(entries, orbit_cache):
    with criterion(4, "Riccati and trace-evolution residuals < 1e-4 on all orbits"):
        for name in ENTRY_NAMES:
            entry = entries[name]
            traj = orbit_cache(name)
            assert riccati_residual(traj) < 1e-4, name
            assert trace_evolution_residual(traj) < 1e-4, name


def test_criterion_05_wronskian_identity(orbit_cache):
    with criterion(5, "Wronskian matches exp(int tr B) on all orbits; H3 gives exp(-2t)"):
        for name in ENTRY_NAMES:
            wr = wronskian(orbit_cache(name))
            rel = np.abs(wr.A - wr.A_expected) / np.maximum(1.0, np.abs(wr.A))
            assert rel.max() < 1e-4, name
        wr = wronskian(orbit_cache("h3_vertical"))
        assert np.abs(wr.A / np.exp(-2.0 * wr.t) - 1.0).max() < 1e-4


def integrate_component_first_zero(c, lam, t_max=2.0, h=1e-4):
    """Independent oracle: RK4-integrate j'' + c j = 0 and bracket the zero."""
    def f(t, y):
        return np.array([y[1], -c * y[0]])

    y = np.array([1.0, lam])
    prev = y[0]
    for k in range(int(round(t_max / h))):
        y = rk4_step(f, k * h, y, h)
        if prev > 0.0 and y[0] <= 0.0:
            # linear interpolation inside the bracketing step
            return k * h + h * prev / (prev - y[0])
        prev = y[0]
    return None


def test_criterion_06_closed_form_zero_times():
    with criterion(6, "closed-form first zeros match the integrated component"):
        for (c, lam), expected in (((1.0, 0.0), np.pi / 2), ((0.0, -2.0), 0.5),
                                   ((-1.0, -2.0), gc.arcoth(2.0))):
            t0 = first_zero_space_form(c, lam)
            assert abs(t0 - expected) < 1e-12
            numeric = integrate_component_first_zero(c, lam)
            assert numeric is not None
            assert abs(numeric - t0) < 1e-5
        assert first_zero_space_form(-1.0, -0.5) is None
        assert integrate_component_first_zero(-1.0, -0.5, t_max=20.0, h=1e-3) is None


def test_criterion_07_adaptedness(orbit_cache):
    with criterion(7, "adapted Jacobi residual |J' - beta(J)| < 1e-4 on all orbits"):
        for name in ENTRY_NAMES:
            assert orbit_cache(name).adapted_residual < 1e-4, name


def test_criterion_08_hopf_volume(entries):
    with criterion(8, "vol(S3 Hopf) = 4 pi^2 within 1% at 64^3 nodes in < 60 s"):
        entry = entries["s3_hopf"]
        start = time.time()
        result = volume_integral(entry, 64)
        elapsed = time.time() - start
        assert elapsed < 60.0
        assert abs(abs(result.value) - 4 * np.pi ** 2) / (4 * np.pi ** 2) < 0.01
        errs = [volume_integral(entry, n).estimated_error for n in (8, 16, 32, 64)]
        assert errs[0] > errs[1] > errs[2] > errs[3]
        # magnitude cross-check: |vol| = tau^2 |e| with period 2 pi, |e| = 1
        assert abs(abs(result.value) - (2 * np.pi) ** 2 * 1.0) < 0.01 * (2 * np.pi) ** 2


def test_criterion_09_skew_fibration_contact(entries):
    with criterion(9, "skew line fibration: unit, geodesic, defect > 1e-3 on [-2,2]^3"):
        entry = entries["euclidean_skew"]
        for p in entry.grid.points():
            d = diagnose_point(entry.manifold, entry.field, p)
            assert d.unit_defect < 1e-10
            assert d.geodesic_defect < 1e-6
            assert abs(d.contact_defect) > 1e-3


def test_criterion_10_heisenberg(entries, orbit_cache):
    with criterion(10, "Heisenberg: Killing Reeb field, curvatures 1/4 and -3/4, defect 1"):
        entry = entries["heisenberg_reeb"]
        for p in entry.grid.points():
            d = diagnose_point(entry.manifold, entry.field, p)
            assert d.killing_defect < 1e-8
            assert abs(abs(d.contact_defect) - 1.0) < 1e-6
        for p in entry.grid.subgrid((3, 3, 3)).points():
            g = entry.manifold.metric_at(p)
            fr = frame_at(g, entry.field.value(p))
            assert abs(sectional(entry.manifold, p, fr.e1, fr.X) - 0.25) < 1e-5
            assert abs(sectional(entry.manifold, p, fr.e2, fr.X) - 0.25) < 1e-5
            assert abs(sectional(entry.manifold, p, fr.e1, fr.e2) - (-0.75)) < 1e-5
        assert max_parallel_jacobi_defect(orbit_cache("heisenberg_reeb")) < 1e-6
        report = run_theorem(entry, "T6.1")
        assert report.verdict == "consistent"


def test_criterion_11_master_suite(tmp_path):
    with criterion(11, "verify --all over the full catalog exits 0"):
        out = tmp_path / "verify_all.json"
        code = cli.main(["verify", "--all", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        verdicts = {r["verdict"] for r in doc["reports"]}
        assert "violated" not in verdicts
        assert "consistent" in verdicts


def central_difference_partials(ast, p, h=1e-6):
    out = np.empty(3)
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        out[k] = (eval_scalar(ast, p + e) - eval_scalar(ast, p - e)) / (2 * h)
    return out


def test_criterion_12_backends(entries):
    with criterion(12, "dual partials match differencing; RK4 error falls 8x per halving"):
        assert len(CORPUS) >= 20
        for source in CORPUS:
            ast = parse(source)
            rng = np.random.default_rng(abs(hash(source)) % 2**32)
            for _ in range(10):
                p = rng.uniform(0.2, 1.5, 3)
                dual = eval_dual(ast, p)
                fd = central_difference_partials(ast, p)
                scale = np.maximum(1.0, np.abs(dual.partials))
                assert np.all(np.abs(dual.partials - fd) / scale < 1e-6), source
        entry = entries["h3_vertical"]
        p0 = np.array([0.0, 0.0, 1.0])
        errors = []
        for h in (0.02, 0.01):
            traj = gc.integrate_orbit(entry.manifold, entry.field, p0, 1.0, h,
                                      with_jacobi=False)
            errors.append(abs(traj.points[-1, 2] - np.e))
        assert errors[0] / errors[1] >= 8.0
