"""The benchmark's workloads: the ``overdensity`` subcommands, called
in-process through ``overdensity.cli.main`` on seeded generated inputs.

A workload makes its inputs in ``setup`` (repeatable, same files each
time), runs one pass of its subcommands in ``run_pass``, checks that
pass's outputs in ``check_pass`` and, after the timed loop, computes its
quality metrics and output hashes in ``finish``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass

import numpy as np

import dijet


_REFERENCE_DATA = np.random.default_rng(0).standard_normal(1 << 19)


def reference_s() -> float:
    """Fastest of five runs of a fixed interpreter loop plus fastest of
    five sorts of 512k floats (~4 ms each).

    The speed of a core on a shared machine drifts by tens of percent
    over seconds to minutes, in interpreted code and in memory-bound
    numpy code alike.  A step's wall time divided by this time, taken
    just before and just after the step, cancels most of the drift.
    """
    loop = sort = math.inf
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(60000):
            acc += (i * i) % 7
        loop = min(loop, time.perf_counter() - start)
        start = time.perf_counter()
        np.sort(_REFERENCE_DATA)
        sort = min(sort, time.perf_counter() - start)
    return loop + sort


@dataclass
class Step:
    wall_s: float
    cpu_s: float
    ref_s: float  # reference loop time around the step
    rc: int | None

    @property
    def in_ref(self) -> float:
        """Wall time in units of the reference loop's time."""
        return self.wall_s / self.ref_s


class Ops:
    """Counts operations - every subcommand call and every correctness
    check - and the ones that failed.  A failure is counted, never
    raised, so one broken step cannot hide the others."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tracer = None

    def check(self, name, predicate) -> bool:
        self.attempted += 1
        try:
            ok = bool(predicate())
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            self.failed += 1
            self.failures.append(name)
        return ok

    def cli(self, argv) -> Step:
        """Run one subcommand; its standard output is discarded."""
        from overdensity.cli import main

        rc = None
        ref_before = reference_s()
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            with redirect_stdout(io.StringIO()):
                if self.tracer is None:
                    rc = main(argv)
                else:
                    with self.tracer.span("cli.main"):
                        rc = main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            rc = exc.code
        except Exception:
            traceback.print_exc()
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        step = Step(wall, cpu, 0.5 * (ref_before + reference_s()), rc)
        self.check(f"{argv[0]} exits 0", lambda: rc == 0)
        return step


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _manifest(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def hottest_bin(scan_path):
    """(m_lo, m_hi) of the scan bin with the largest alpha_max."""
    _, rows = _read_csv(scan_path)
    best = max((r for r in rows if r[3] != ""), key=lambda r: float(r[3]))
    return float(best[0]), float(best[1])


def _score_columns(scores_path):
    _, rows = _read_csv(scores_path)
    ids = [r[0] for r in rows]
    m = np.array([float(r[1]) for r in rows])
    alpha = np.array([float(r[2]) for r in rows])
    return ids, m, alpha


class _Workload:
    """A workload: ``setup`` makes the inputs, ``prepare`` runs untimed
    subcommands once before the timed passes, ``run_pass`` runs the timed
    ones, both returning their Steps by name, ``check_pass`` checks a
    pass's outputs, and ``finish`` returns (metrics, paths to hash)."""

    name = ""

    def __init__(self, work_dir, seed, nproc):
        self.dir = work_dir
        self.seed = seed
        self.nproc = nproc
        self._hashes_seen: dict[str, str] = {}

    def path(self, *parts):
        return os.path.join(self.dir, *parts)

    def prepare(self, ops):
        return {}

    def _same_as_before(self, ops, label, path):
        """Check a pass reproduces the bytes of the run's first pass."""
        def same():
            digest = sha256(path)
            return digest == self._hashes_seen.setdefault(label, digest)

        ops.check(f"{label} identical across passes", same)

    def score_counts(self, manifest):
        counts = _manifest(manifest)["counts"]
        return {"anomaly.clamped_frac": counts["clamped"] / counts["scored"],
                "anomaly.underflow_count": counts["underflow"]}


class LhcScan(_Workload):
    """Resonance scan: synth lhc and fit (8 layers, 40 bins) once, then
    each pass scores at 1 thread and at nproc threads.  The fit is timed
    on lhc-fit-heldout; leaving it out of the pass here gives scoring
    three samples per run instead of two.

    16384 events make two 8192-row scoring chunks, each with the same
    per-chunk work as the 100k-event configuration, so thread scaling is
    still measured.  At 400 events per bin, 64 knots over-fit and alpha
    reaches 1e5 on plain background; 16 knots keep the events per knot
    within a factor of two of the 100k, 64-knot configuration's.
    """

    name = "lhc-scan"
    mass = 3823.0

    def __init__(self, work_dir, seed, nproc, n_background=16184, n_signal=200,
                 iterations=8, bins=40, knots=16):
        super().__init__(work_dir, seed, nproc)
        self.n_background, self.n_signal = n_background, n_signal
        self.iterations, self.bins, self.knots = iterations, bins, knots

    def setup(self, ops):
        ops.cli(["synth", "lhc", "--out-dir", self.path("data"), "--seed", str(self.seed),
                 "--n-background", str(self.n_background), "--n-signal", str(self.n_signal),
                 "--mass", repr(self.mass)])

    def _score(self, ops, out, threads):
        return ops.cli(["score", "--features", self.path("data", "features.csv"),
                        "--model", self.path("model.txt"), "--out-dir", self.path(out),
                        "--sigma", "250", "--threads", str(threads)])

    def prepare(self, ops):
        return {"fit": ops.cli(["fit", "--features", self.path("data", "features.csv"),
                                "--model-out", self.path("model.txt"),
                                "--iterations", str(self.iterations), "--bins", str(self.bins),
                                "--knots", str(self.knots), "--seed", str(self.seed),
                                "--quiet"])}

    def run_pass(self, ops):
        return {"score": self._score(ops, "score1", 1),
                "score_mt": self._score(ops, "scoreN", self.nproc)}

    def check_pass(self, ops):
        ops.check("signal is most of the top-80 alpha events near the resonance",
                  lambda: self.purity() >= 0.5)
        for name in ("scores.csv", "scan.csv", "summary.txt"):
            ops.check(f"{name} identical at 1 and {self.nproc} threads",
                      lambda: sha256(self.path("score1", name))
                      == sha256(self.path("scoreN", name)))
        self._same_as_before(ops, "scores", self.path("score1", "scores.csv"))

    def purity(self):
        """Signal share of the 80 highest-alpha events within 150 of the
        resonance mass: the acceptance test's selection, centred on the
        planted mass rather than on the scan's peak bin."""
        ids, m, alpha = _score_columns(self.path("score1", "scores.csv"))
        _, label_rows = _read_csv(self.path("data", "labels.csv"))
        labels = {r[0]: int(r[1]) for r in label_rows}
        order = np.argsort(alpha)[::-1]
        selection = order[(np.abs(m - self.mass) < 150.0)[order]][:80]
        return float(np.mean([labels[ids[i]] for i in selection]))

    def finish(self, ops):
        # The acceptance test finds the resonance as the scan bin with the
        # largest alpha_max.  At this size a sparse, over-fitted background
        # bin wins on some seeds, so the distance is reported, not checked.
        lo, hi = hottest_bin(self.path("score1", "scan.csv"))
        metrics = {"flow.model_bytes": os.path.getsize(self.path("model.txt")),
                   "quality.peak_purity": self.purity(),
                   "quality.alpha_max_peak_offset": abs(0.5 * (lo + hi) - self.mass),
                   **self.score_counts(self.path("score1", "manifest.json"))}
        hashes = {"model": self.path("model.txt"), "scores": self.path("score1", "scores.csv"),
                  "features": self.path("data", "features.csv")}
        return metrics, hashes


class LhcFitHeldout(_Workload):
    """Fit-dominated: each pass fits (24 layers, 20 bins) on pure
    background.  After the timed passes, a held-out background sample
    drawn from an independent seed is scored once, untimed and untraced,
    for the held-out log-likelihood and median alpha; keeping it out of
    the pass gives the fit more samples per run."""

    name = "lhc-fit-heldout"

    def __init__(self, work_dir, seed, nproc, n_train=24576, n_heldout=2048,
                 iterations=24, bins=20):
        super().__init__(work_dir, seed, nproc)
        self.n_train, self.n_heldout = n_train, n_heldout
        self.iterations, self.bins = iterations, bins

    def setup(self, ops):
        # independent seeds for the training and the held-out sample
        for out, seed, n in (("train", 2 * self.seed, self.n_train),
                             ("heldout", 2 * self.seed + 1, self.n_heldout)):
            ops.cli(["synth", "lhc", "--out-dir", self.path(out), "--seed", str(seed),
                     "--n-background", str(n), "--n-signal", "0"])

    def run_pass(self, ops):
        fit = ops.cli(["fit", "--features", self.path("train", "features.csv"),
                       "--model-out", self.path("model.txt"), "--iterations", str(self.iterations),
                       "--bins", str(self.bins), "--seed", str(self.seed), "--quiet"])
        return {"fit": fit}

    def check_pass(self, ops):
        self._same_as_before(ops, "model", self.path("model.txt"))

    def finish(self, ops):
        from overdensity.dataio import read_features
        from overdensity.flow import load_model

        score = ops.cli(["score", "--features", self.path("heldout", "features.csv"),
                         "--model", self.path("model.txt"), "--out-dir", self.path("score"),
                         "--sigma", "250", "--threads", "1"])
        metrics = {"cli.score_s": score.wall_s,
                   "flow.model_bytes": os.path.getsize(self.path("model.txt")),
                   **self.score_counts(self.path("score", "manifest.json"))}

        def heldout_loglik():
            table = read_features(self.path("heldout", "features.csv"))
            logp = load_model(self.path("model.txt")).log_density(table.features,
                                                                   table.conditionals)
            metrics["quality.heldout_nll"] = -float(np.mean(logp))
            return bool(np.all(np.isfinite(logp)))

        def null_alpha():
            median = float(np.median(_score_columns(self.path("score", "scores.csv"))[2]))
            metrics["quality.null_alpha_factor"] = max(median, 1.0 / median)
            return math.isfinite(median) and median > 0

        ops.check("every held-out log-density is finite", heldout_loglik)
        ops.check("held-out median alpha is positive and finite", null_alpha)
        hashes = {"model": self.path("model.txt"), "scores": self.path("score", "scores.csv"),
                  "features": self.path("train", "features.csv")}
        return metrics, hashes


class DijetFeatures(_Workload):
    """features on generated particle events, alternating 50 and 200
    particles, which separates per-event cost from growth with
    multiplicity."""

    name = "dijet-features"

    def __init__(self, work_dir, seed, nproc, n_events=100):
        super().__init__(work_dir, seed, nproc)
        # alternated so both classes see the same warm-up and drift
        self.multiplicities = [(50, 200)[i % 2] for i in range(n_events)]
        self.planted = {}

    def setup(self, ops):
        os.makedirs(self.dir, exist_ok=True)
        self.planted = dijet.write_events(self.path("particles.csv"), self.seed,
                                          self.multiplicities)

    def run_pass(self, ops):
        return {"features": ops.cli(["features", "--particles", self.path("particles.csv"),
                                     "--out", self.path("features.csv")])}

    def check_pass(self, ops):
        def planted_mass_recovered():
            _, rows = _read_csv(self.path("features.csv"))
            dev = [abs(float(r[1]) / self.planted[r[0]] - 1.0) for r in rows]
            return len(dev) > 0 and max(dev) <= dijet.MASS_TOLERANCE

        ops.check(f"m_jj within {dijet.MASS_TOLERANCE:.0%} of the planted mass",
                  planted_mass_recovered)
        self._same_as_before(ops, "features", self.path("features.csv"))

    def finish(self, ops):
        manifest = _manifest(self.path("features.csv.manifest.json"))
        metrics = {"jets.accept_frac":
                   manifest["outputs"][0]["rows"] / manifest["counts"]["events_read"]}
        hashes = {"features": self.path("features.csv")}
        return metrics, hashes


WORKLOADS = {w.name: w for w in (LhcScan, LhcFitHeldout, DijetFeatures)}
