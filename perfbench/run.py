"""Benchmark of the geocontact CLI, one workload per process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload orbit_long --seed 0 --seconds 15 --trace 0

The workload's ops (see ``workloads.py``) run in this process through
``geocontact.cli.main(argv)`` with stdout captured, so ``peak_rss_mb``
belongs to one workload. After one warm-up op, the ops run round after
round, and new ops start until ``--seconds`` have passed; the first round
always runs in full. Every report is checked against the paper's exact
values and the expected verdicts.

The host's speed drifts by up to 2x within minutes, and every op of a run
slows with it, so each untraced op runs under the host probe
(``hostprobe.py``) and its time, probe time taken out, is divided by the
host factor measured during the op. Set-up times are rescaled by a factor
measured in the same fresh interpreter right after the timed section. The
raw times stay in the run record.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:

- ``setup_s``: median time of ``import geocontact`` plus building the seven
  catalog entries, each in a fresh interpreter, rescaled;
- ``wall_s``: one pass over the ops, the sum of each op's median time,
  each time divided by its host factor (seconds on a host that runs the
  probe in ``PROBE_REFERENCE_S``);
- ``work_per_s``: the workload's work units (RK4 seed-steps, point
  diagnoses or quadrature nodes, counted from the inputs) per ``wall_s``;
- ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` one untraced round runs, then one round under the
outside-in tracer (``tracer.py``), and the last line holds the per-layer
metrics; traced reports must equal the untraced ones.

The full run record (raw samples, failed fraction, oracle errors, report
digests, machine and version data, self-time table, spans) goes to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from hostprobe import PROBE_INTERVAL_S, PROBE_REFERENCE_S, HostProbe
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
END_TO_END_UNITS = {"wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_REPEATS = 9
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: probe samples taken after each timed set-up
SETUP_PROBES = 50

#: runs in a fresh interpreter; argv[1] is the checkout's src directory,
#: argv[2] the benchmark's. Prints the set-up seconds and the host factor.
SETUP_CODE = f"""\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import geocontact
geocontact.all_entries()
seconds = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
from hostprobe import HostProbe
probe = HostProbe()
for _ in range({SETUP_PROBES}):
    probe.sample()
print(repr(seconds), repr(probe.factor()))
"""

#: small op run before timing, so lazy numpy set-up stays out of wall_s
WARMUP = workloads.Op(
    "warmup", ["analyze"], 8, lambda text: (0.0, []),
    config={"manifold": "h3_vertical",
            "grid": {"min": [-1.0, -1.0, 0.25], "max": [1.0, 1.0, 2.75], "counts": [2, 2, 2]}})


@dataclass
class OpResult:
    op: str
    seconds: float          # wall time of the op, probe time taken out
    rc: int | None
    digest: str
    report_bytes: int
    oracle_err: float
    host_factor: float = 1.0  # mean probe time during the op / PROBE_REFERENCE_S
    probes: int = 0
    problems: list = field(default_factory=list)

    @property
    def rescaled(self):
        return self.seconds / self.host_factor


def run_op(op, tracer=None, op_id=0):
    """Run one op through the CLI in this process and check its report.

    Untraced ops run under the host probe; a traced op runs without it, so
    that no probe time falls into the layers' spans.
    """
    from geocontact import cli

    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.begin_op(op_id)
    probe = HostProbe()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                (contextlib.nullcontext() if tracer is not None else probe):
            rc = cli.main(list(op.argv))
    except Exception:  # a crash of the program is a failed op, not of the benchmark
        rc, error = None, traceback.format_exc(limit=-3)
    seconds = time.perf_counter() - start - probe.busy_s
    probes = len(probe.samples)
    text = out.getvalue()
    raw = text.encode("utf-8")
    result = OpResult(op.name, seconds, rc, hashlib.sha256(raw).hexdigest(), len(raw), math.nan,
                      probe.factor(), probes)
    if error is not None:
        result.problems.append(f"exception: {error}")
    elif rc != 0:
        result.problems.append(f"exit code {rc}: {err.getvalue().strip()[:300]}")
    else:
        try:
            result.oracle_err, found = op.check(text)
        except (ValueError, KeyError, TypeError) as exc:
            found = [f"unreadable report: {exc!r}"]
        result.problems.extend(found)
    return result


def measure(ops, seconds):
    """Run the ops round after round, starting ops until ``seconds`` have passed.

    The first round always runs in full. Returns the results in run order,
    so op ``i`` has the results ``[i::len(ops)]``.
    """
    results = []
    start = time.perf_counter()
    for i in itertools.count():
        if i >= len(ops) and time.perf_counter() - start >= seconds:
            return results
        results.append(run_op(ops[i % len(ops)]))


def measure_setup(src, repeats=SETUP_REPEATS):
    """(set-up seconds, host factor) pairs from fresh interpreters; the first,
    which may compile, is dropped."""
    samples = []
    for _ in range(repeats + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(src), str(HERE)],
                              capture_output=True, text=True, timeout=120, check=True)
        seconds, factor = done.stdout.strip().splitlines()[-1].split()
        samples.append((float(seconds), float(factor)))
    return samples[1:]


def summary(values):
    """Median, quartiles and count of a sample."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def worst(values):
    return max((v if v == v else math.inf for v in values), default=math.nan)


def git_sha(root):
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def machine(root):
    import numpy

    return {"git_sha": git_sha(root), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV}}


def import_program(root):
    """Import geocontact from the checkout's src directory, or raise ImportError."""
    src = root / "src"
    if not (src / "geocontact" / "__init__.py").is_file():
        raise ImportError(f"no geocontact package under {src}")
    sys.path.insert(0, str(src))
    import geocontact

    if Path(geocontact.__file__).resolve().parent != (src / "geocontact").resolve():
        raise ImportError(f"geocontact was imported from {geocontact.__file__}, not {src}")
    return src


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    out_dir = root / OUT_DIR
    try:
        src = import_program(root)
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    out_dir.mkdir(parents=True, exist_ok=True)
    setup_samples = [] if args.trace else measure_setup(src)

    ops = workloads.build(args.workload, args.seed, out_dir / "inputs")
    warmup = run_op(workloads.with_config(WARMUP, out_dir / "inputs" / "warmup.json"))
    # a traced run needs one untraced round, the reference for its reports
    results = measure(ops, 0.0 if args.trace else args.seconds)
    op_samples = [[r.rescaled for r in results[i::len(ops)]] for i in range(len(ops))]
    wall_s = sum(statistics.median(times) for times in op_samples)
    raw_wall_s = sum(statistics.median(r.seconds for r in results[i::len(ops)])
                     for i in range(len(ops)))
    work = sum(op.work for op in ops)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(root),
        "ops": [{"name": op.name, "argv": op.argv, "work": op.work,
                 "rescaled_seconds": {**summary(times), "samples": times}}
                for op, times in zip(ops, op_samples)],
        "warmup": vars(warmup),
        "probe": {"interval_s": PROBE_INTERVAL_S, "reference_s": PROBE_REFERENCE_S},
        "wall_s": wall_s,
        "raw_wall_s": raw_wall_s,
        "work_units": work,
        workloads.WORKLOADS[args.workload].work_unit: work / wall_s,
        "results": [vars(r) for r in results],
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        tracer = tracing.Tracer()
        with tracer:
            traced = [run_op(op, tracer, i) for i, op in enumerate(ops)]
        for r, ref in zip(traced, results):
            if r.digest != ref.digest:
                r.problems.append("traced report differs from the untraced one")
        results += traced
        traced_wall = sum(r.seconds for r in traced)
        metrics = tracer.metrics(report_bytes=sum(r.report_bytes for r in traced),
                                 overhead_frac=(traced_wall - raw_wall_s) / raw_wall_s)
        table = tracer.self_time_table()
        print(table, file=sys.stderr)
        spans_path = out_dir / f"{stem}-spans.csv.gz"
        tracer.write_spans(spans_path)
        record.update(traced=[vars(r) for r in traced], traced_wall_s=traced_wall,
                      self_time_table=table.splitlines(), spans=str(spans_path.relative_to(root)),
                      counters=dict(tracer.counters),
                      calls_by_op={ops[i].name: c for i, c in tracer.calls_by_op().items()})
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        metrics = {
            "wall_s": wall_s,
            "work_per_s": work / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(seconds / factor for seconds, factor in setup_samples),
        }
        units = END_TO_END_UNITS
        record["setup_s"] = {**summary([s / f for s, f in setup_samples]),
                             "raw_samples": [s for s, _ in setup_samples],
                             "host_factors": [f for _, f in setup_samples]}

    failed = sum(1 for r in results if r.problems)
    record.update(attempted=len(results), failed=failed, failed_frac=failed / len(results),
                  oracle_err=worst(r.oracle_err for r in results), metrics=metrics)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n",
                                          encoding="utf-8")
    for r in results:
        for problem in r.problems:
            print(f"perfbench: {r.op}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": len(results), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
