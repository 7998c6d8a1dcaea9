"""Benchmark of the overdensity pipeline: synth -> features -> fit -> score.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lhc-scan --seed 1 --seconds 30 --trace 0

Each run makes its inputs from --seed, times passes of the workload's
subcommands (called in-process through ``overdensity.cli.main``) for at
most --seconds, checks every output, and prints as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The line before
it holds the run's details: environment, per-step wall and CPU seconds,
output hashes, absent trace targets and failed checks.  Work files go to
.perfbench_work/<workload>/ under the current directory.

With --trace 0 the metrics are the end-to-end ones, measured with nothing
patched:

- setup_s: median over three set-ups of a fresh interpreter importing the
  package plus making the workload's inputs.
- pass_ref: median over passes of the pass's wall time in units of a
  reference loop timed just before and after each subcommand (see
  workloads.reference_s).  On a shared machine, core speed drifts by tens
  of percent for minutes at a time; the ratio cancels most of that drift,
  and a slower program still shows one for one.  Raw seconds are in the
  details line.
- peak_rss_mb: the process's peak resident memory.

With --trace 1 one untraced pass is followed by traced passes, and the
metrics are the per-layer ones taken from the spans, plus the tracing
overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import layers
import tracer as tracing
from workloads import WORKLOADS, Ops, sha256

SETUP_REPS = 3

END_TO_END_UNITS = {"setup_s": "s", "pass_ref": "ref", "peak_rss_mb": "MB"}

# per-layer metrics that come from step timings, output files and the
# quality checks rather than from spans; 0 where a workload has none
EXTRA_UNITS = {
    "cli.fit_s": "s", "cli.score_s": "s", "cli.score_mt_s": "s", "cli.features_s": "s",
    "flow.model_bytes": "bytes",
    "anomaly.score_mt_speedup": "ratio", "anomaly.clamped_frac": "ratio",
    "anomaly.underflow_count": "count",
    "jets.accept_frac": "ratio",
    "synth.generate_s": "s",
    "quality.heldout_nll": "nats",
    "quality.null_alpha_factor": "ratio",
    "quality.peak_purity": "ratio",
    "quality.alpha_max_peak_offset": "GeV",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads():
    """OpenBLAS thread count of numpy's bundled library, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(nproc):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {"nproc": nproc, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_name, "blas_threads": blas_threads(),
            "thread_env": {k: os.environ[k] for k in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                           if k in os.environ}}


@contextlib.contextmanager
def _traced(ops, tracer):
    """Install the tracer (if any) for the block; while installed, ops
    wraps each subcommand in a cli.main span."""
    if tracer is None:
        yield
        return
    with tracer.active():
        ops.tracer = tracer
        try:
            yield
        finally:
            ops.tracer = None


def _import_s(src):
    """Time for a fresh interpreter to import the package's CLI, or None
    if the import fails."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", "import overdensity.cli"],
                          env={**os.environ, "PYTHONPATH": src}, check=False)
    return time.perf_counter() - start if done.returncode == 0 else None


def _pass_wall(steps):
    return sum(s.wall_s for s in steps.values())


def _pass_ref(steps):
    return sum(s.in_ref for s in steps.values())


def run(workload, seconds, tracer, src):
    ops = Ops()
    setup_s, generate_s = [], []
    for _ in range(SETUP_REPS):
        imports = _import_s(src)
        ops.check("package imports in a fresh interpreter", lambda: imports is not None)
        start = time.perf_counter()
        with _traced(ops, tracer):
            workload.setup(ops)
        setup_s.append((imports or 0.0) + time.perf_counter() - start)
        if tracer is not None:
            generate_s.append(sum(s.end - s.start for s in tracer.spans
                                  if s.name == "synth.generate_lhc_like"))
            tracer.clear()

    prepared = workload.prepare(ops)
    untraced, traced, layer_rows, latencies = [], [], [], {c: [] for c in layers.EVENT_CLASSES}
    durations = []
    started = time.perf_counter()

    def timed_pass(traced_pass):
        begun = time.perf_counter()
        with _traced(ops, tracer if traced_pass else None):
            steps = workload.run_pass(ops)
        workload.check_pass(ops)
        durations.append(time.perf_counter() - begun)
        return steps

    def more():
        """Start another pass only if it should end within the run."""
        return time.perf_counter() - started + statistics.median(durations) <= seconds

    # untraced passes; in a traced run, one pass as the overhead reference
    while True:
        untraced.append(timed_pass(False))
        if tracer is not None or not more():
            break
    chunk_rows = None
    if tracer is not None:
        from overdensity import anomaly
        chunk_rows = getattr(anomaly, "_CHUNK_ROWS", None)
        while True:
            tracer.clear()
            traced.append(timed_pass(True))
            layer_rows.append(layers.span_metrics(tracer.spans, chunk_rows))
            for cls, values in layers.event_latencies(tracer.spans).items():
                latencies[cls].extend(values)
            if not more():
                break

    try:
        extras, hash_paths = workload.finish(ops)
    except Exception as exc:  # counted like a failed check, never raised
        print(f"perfbench: finishing {workload.name} failed: {exc!r}", file=sys.stderr)
        ops.attempted += 1
        ops.failed += 1
        ops.failures.append("finish")
        extras, hash_paths = {}, {}
    hashes = {label: _hash_or_none(path) for label, path in hash_paths.items()}

    def step_median(name):
        values = [p[name].wall_s for p in [prepared, *untraced] if name in p]
        return statistics.median(values) if values else 0.0

    step_times = {f"cli.{name}_s": step_median(name)
                  for name in ("fit", "score", "score_mt", "features")}
    workload_metrics = {**step_times, **extras}
    if step_times["cli.score_mt_s"]:
        workload_metrics["anomaly.score_mt_speedup"] = (step_times["cli.score_s"]
                                                        / step_times["cli.score_mt_s"])

    if tracer is None:
        metrics = {"setup_s": statistics.median(setup_s),
                   "pass_ref": statistics.median(_pass_ref(p) for p in untraced),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = END_TO_END_UNITS
    else:
        metrics = {name: 0.0 for name in EXTRA_UNITS}
        metrics.update({key: float(np.median([row[key] for row in layer_rows]))
                        for key in layer_rows[0]})
        metrics.update(layers.latency_metrics(latencies))
        metrics.update(workload_metrics)
        metrics["synth.generate_s"] = statistics.median(generate_s)
        # in reference units, so core-speed drift between the passes cancels
        ref_s = statistics.median(s.ref_s for p in traced for s in p.values())
        metrics["trace.overhead_s"] = ref_s * (statistics.median(_pass_ref(p) for p in traced)
                                               - statistics.median(_pass_ref(p) for p in untraced))
        units = {**layers.UNITS, **EXTRA_UNITS}
        _write_spans(workload.path("spans.jsonl"), tracer.spans)

    absent = list(tracer.absent) if tracer is not None else []
    if tracer is not None and chunk_rows is None:
        absent.append("overdensity.anomaly._CHUNK_ROWS")
    info = {
        "workload": workload.name, "seed": workload.seed, "seconds": seconds,
        "trace": int(tracer is not None), "environment": environment(workload.nproc),
        "setup_s": setup_s,
        "pass_s": [_pass_wall(p) for p in untraced + traced],
        "steps": [{name: {"wall_s": s.wall_s, "cpu_s": s.cpu_s, "ref_s": s.ref_s}
                   for name, s in p.items()} for p in untraced + traced],
        "workload_metrics": {k: {"value": v, "unit": EXTRA_UNITS[k]}
                             for k, v in workload_metrics.items()},
        "sha256": hashes, "absent_targets": absent, "failures": ops.failures,
    }
    result = {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    return result, info


def _hash_or_none(path):
    try:
        return sha256(path)
    except OSError:
        return None


def _write_spans(path, spans):
    with open(path, "w") as fh:
        for record in tracing.span_records(spans):
            fh.write(json.dumps(record) + "\n")
        for (name, thread), self_s in sorted(tracing.self_by_thread(spans).items()):
            fh.write(json.dumps({"self_by_thread": name, "thread": thread,
                                 "self_s": self_s}) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "overdensity", "__init__.py")):
        print(f"perfbench: no src/overdensity under {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    sys.path.insert(0, src)
    import overdensity.cli

    if not os.path.abspath(overdensity.cli.__file__).startswith(src + os.sep):
        print("perfbench: imported overdensity from outside src/", file=sys.stderr)
        return 2

    work_dir = os.path.join(root, ".perfbench_work", args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    nproc = len(os.sched_getaffinity(0))
    workload = WORKLOADS[args.workload](work_dir, args.seed, nproc)
    tracer = tracing.Tracer(layers.TARGETS) if args.trace else None
    result, info = run(workload, args.seconds, tracer, src)
    print(json.dumps({"perfbench": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
