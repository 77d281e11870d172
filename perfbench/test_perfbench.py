"""Tests of the benchmark itself: exact counters, a transparent tracer,
failure counting and the seeded inputs.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import signal
import sys
import time
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import geocontact  # noqa: E402
import hostprobe  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

H3_GRID = {"min": [-1.0, -1.0, 0.25], "max": [1.0, 1.0, 2.75], "counts": [2, 2, 2]}


def tiny_orbit(tmp_path, steps=10):
    op = workloads.Op("orbit:tiny", ["orbit"], steps, partial(workloads.check_orbit, steps),
                      config={"manifold": "h3_vertical",
                              "orbit": {"start": [0.0, 0.0, 1.0], "t_end": steps * 1e-3,
                                        "step": 1e-3}})
    return workloads.with_config(op, tmp_path / "tiny.json")


def test_tiny_orbit_counters_are_exact(tmp_path):
    t = tracer.Tracer()
    with t:
        result = run.run_op(tiny_orbit(tmp_path), t)
    assert result.problems == []
    m = t.metrics(report_bytes=result.report_bytes, overhead_frac=0.0)
    assert m["flow.rk4_step.calls"] == 10
    assert m["flow.rows_per_step"] == 1.0
    assert m["flow.integrate_orbit.calls"] == 1
    assert m["flow.truncated"] == 0
    assert m["curvature.stencil_ratio"] == 7.0
    assert m["catalog.builtin.calls"] == 1
    assert set(m) == {name for name, _, _ in tracer.PER_LAYER}


def test_tracer_leaves_reports_and_bindings_unchanged(tmp_path):
    op = tiny_orbit(tmp_path)
    christoffel = geocontact.curvature.christoffel
    plain = run.run_op(op)
    with tracer.Tracer() as t:
        assert geocontact.flow.christoffel is not christoffel
        traced = run.run_op(op, t)
    assert traced.digest == plain.digest
    assert geocontact.flow.christoffel is christoffel
    assert geocontact.field.christoffel is christoffel


def test_host_probe_samples_during_the_block_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with hostprobe.HostProbe() as probe:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(probe.samples) >= 5
    assert probe.busy_s > sum(probe.samples) > 0.0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_wrong_verdict_and_usage_error_count_as_failed(tmp_path):
    wrong = workloads.with_config(workloads.Op(
        "verify:wrong", ["verify", "T3.1"], 8,
        partial(workloads.check_verdicts, [("h3_vertical", "T3.1")], 8,
                expected_verdicts={("h3_vertical", "T3.1"): "violated"}),
        config={"manifold": "h3_vertical", "grid": H3_GRID}), tmp_path / "wrong.json")
    right = workloads.with_config(workloads.Op(
        "verify:right", ["verify", "T3.1"], 8,
        partial(workloads.check_verdicts, [("h3_vertical", "T3.1")], 8),
        config={"manifold": "h3_vertical", "grid": H3_GRID}), tmp_path / "right.json")
    usage = workloads.Op("verify:usage", ["verify", "--entry", "no_such_entry"], 1,
                         lambda text: (0.0, []))
    results = run.measure([wrong, right, usage], seconds=0.0)
    assert [bool(r.problems) for r in results] == [True, False, True]
    assert results[2].rc == 2


def test_seed_zero_is_the_plain_entry_command(tmp_path):
    ops = workloads.build("orbit_long", 0, tmp_path)
    assert [op.argv for op in ops] == [["orbit", "--entry", "h3_vertical"],
                                       ["orbit", "--entry", "s3_hopf"]]


def test_seeded_inputs_stay_in_chart_and_keep_work(tmp_path):
    for name in workloads.WORKLOADS:
        base = workloads.build(name, 0, tmp_path)
        for seed in (1, 7, 12345):
            ops = workloads.build(name, seed, tmp_path)
            assert [op.work for op in ops] == [op.work for op in base]
            assert workloads.build(name, seed, tmp_path)[0].config == ops[0].config
            for op in ops:
                doc = op.config or {}
                boxes = [doc["grid"]["min"]] if "grid" in doc else []
                boxes += [doc["orbit"]["start"]] if "orbit" in doc else []
                for lo in boxes:
                    if doc["manifold"] == "h2xr_vertical":
                        assert lo[1] > 0
                    if doc["manifold"] == "h3_vertical":
                        assert lo[2] > 0


def test_benchmark_json_lists_the_printed_metrics():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        list(tracer.PER_LAYER)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
