"""Patch points of the traced run and the per-layer metrics made from
its spans.  The layers are the package's modules."""

from __future__ import annotations

import math
import os

import numpy as np

from tracer import SpanStats, Target, summarize


def _rows(index):
    return lambda args, result: len(args[index])


def _size(index):
    return lambda args, result: int(np.size(args[index]))


def _returned(args, result):
    return int(result)


TARGETS = [
    Target("overdensity.cli", "fit_gis", "flow.fit_gis", _rows(0)),
    Target("overdensity.cli", "save_model", "flow.save_model"),
    Target("overdensity.cli", "load_model", "flow.load_model"),
    Target("overdensity.flow:FlowModel", "log_density", "flow.log_density", _rows(1)),
    Target("overdensity.flow:FlowModel", "forward", "flow.forward", _rows(1)),
    Target("overdensity.flow", "wasserstein_1d_to_gaussian", "transforms.wasserstein", _size(0)),
    Target("overdensity.flow", "fit_marginal_transform", "transforms.fit_marginal", _size(0)),
    Target("overdensity.flow", "interpolated_transform", "conditional.interpolated_transform",
           _size(4)),
    Target("overdensity.conditional", "eval_binned", "conditional.eval_binned", _size(2)),
    Target("overdensity.conditional:ConditionalBinning", "interp_weights",
           "conditional.interp_weights", _size(1)),
    Target("overdensity.transforms:Marginal1DTransform", "transform", "transforms.transform",
           _size(1)),
    Target("overdensity.anomaly", "score_events", "anomaly.score_events",
           lambda args, result: len(result.alphas)),
    Target("overdensity.anomaly", "scan_profile", "anomaly.scan_profile"),
    Target("overdensity.anomaly", "summarize", "anomaly.summarize"),
    Target("overdensity.dataio", "read_features", "dataio.read_features",
           lambda args, result: result.n_events),
    Target("overdensity.dataio", "read_particle_events", "dataio.read_particle_events",
           lambda item: len(item[1]), kind="iter"),
    Target("overdensity.dataio", "write_features", "dataio.write_features", _returned),
    Target("overdensity.dataio", "write_labels", "dataio.write_labels", _returned),
    Target("overdensity.dataio", "write_scores", "dataio.write_scores", _returned),
    Target("overdensity.dataio", "write_scan", "dataio.write_scan", _returned),
    Target("overdensity.dataio", "write_manifest", "dataio.write_manifest"),
    Target("overdensity.dataio", "file_sha256", "dataio.file_sha256",
           lambda args, result: os.path.getsize(args[0])),
    Target("overdensity.jets", "extract_features", "jets.extract_features", _rows(0)),
    Target("overdensity.jets", "cluster_antikt", "jets.cluster_antikt", _rows(0)),
    Target("overdensity.jets", "nsubjettiness", "jets.nsubjettiness"),
    Target("overdensity.synth", "generate_lhc_like", "synth.generate_lhc_like"),
]

_READS = ("dataio.read_features", "dataio.read_particle_events")
_WRITES = ("dataio.write_features", "dataio.write_labels", "dataio.write_scores",
           "dataio.write_scan", "dataio.write_manifest")

# multiplicity classes of the dijet generator; an event is put in the
# class whose particle count is nearest
EVENT_CLASSES = (50, 200)

UNITS = {
    "cli.self_s": "s",
    "dataio.read_s": "s", "dataio.rows_read": "count",
    "dataio.write_s": "s", "dataio.rows_written": "count",
    "dataio.hash_s": "s", "dataio.bytes_hashed": "bytes",
    "flow.fit.slice_search_s": "s", "flow.fit.marginal_fit_s": "s",
    "flow.fit.update_s": "s", "flow.fit.self_s": "s",
    "flow.fit.w1_calls": "count", "flow.fit.marginal_fits": "count",
    "flow.forward_calls": "count", "flow.forward_rows": "count", "flow.forward_self_s": "s",
    "flow.load_model_s": "s", "flow.save_model_s": "s",
    "conditional.eval_binned_calls": "count", "conditional.eval_binned_self_s": "s",
    "conditional.interp_transform_calls": "count", "conditional.interp_transform_self_s": "s",
    "conditional.interp_weights_s": "s",
    "transforms.transform_calls": "count", "transforms.transform_rows": "count",
    "transforms.rows_per_call": "rows/call", "transforms.transform_s": "s",
    "transforms.w1_rows_sorted": "count",
    "anomaly.self_s": "s", "anomaly.chunks": "count", "anomaly.density_passes": "count",
    "anomaly.scan_s": "s", "anomaly.summarize_s": "s",
    "jets.cluster_calls": "count", "jets.cluster_particles": "count", "jets.cluster_s": "s",
    "jets.nsubjettiness_calls": "count", "jets.nsubjettiness_s": "s",
    **{f"jets.event_ms_{q}.n{c}": "ms" for q in ("p50", "p99") for c in EVENT_CLASSES},
    **{f"jets.event_samples.n{c}": "count" for c in EVENT_CLASSES},
}


def span_metrics(spans, chunk_rows) -> dict:
    """Per-layer metrics of one traced pass (totals over the pass)."""
    every = summarize(spans)
    in_fit = summarize(spans, within="flow.fit_gis")
    in_score = summarize(spans, within="anomaly.score_events")

    def get(stats, name):
        return stats.get(name, SpanStats())

    reads = [get(every, n) for n in _READS]
    writes = [get(every, n) for n in _WRITES]
    transform = get(every, "transforms.transform")
    score = get(every, "anomaly.score_events")
    chunks = 0
    if chunk_rows:
        chunks = sum(math.ceil(s.work / chunk_rows) for s in spans
                     if s.name == "anomaly.score_events")
    return {
        "cli.self_s": get(every, "cli.main").self_s,
        "dataio.read_s": sum(s.total_s for s in reads),
        "dataio.rows_read": sum(s.work for s in reads),
        "dataio.write_s": sum(s.total_s for s in writes),
        "dataio.rows_written": sum(s.work for s in writes),
        "dataio.hash_s": get(every, "dataio.file_sha256").total_s,
        "dataio.bytes_hashed": get(every, "dataio.file_sha256").work,
        "flow.fit.slice_search_s": get(in_fit, "transforms.wasserstein").total_s,
        "flow.fit.marginal_fit_s": get(in_fit, "transforms.fit_marginal").total_s,
        "flow.fit.update_s": get(in_fit, "conditional.interpolated_transform").total_s,
        "flow.fit.self_s": get(every, "flow.fit_gis").self_s,
        "flow.fit.w1_calls": get(in_fit, "transforms.wasserstein").calls,
        "flow.fit.marginal_fits": get(in_fit, "transforms.fit_marginal").calls,
        "flow.forward_calls": get(every, "flow.forward").calls,
        "flow.forward_rows": get(every, "flow.forward").work,
        "flow.forward_self_s": get(every, "flow.forward").self_s,
        "flow.load_model_s": get(every, "flow.load_model").total_s,
        "flow.save_model_s": get(every, "flow.save_model").total_s,
        "conditional.eval_binned_calls": get(every, "conditional.eval_binned").calls,
        "conditional.eval_binned_self_s": get(every, "conditional.eval_binned").self_s,
        "conditional.interp_transform_calls":
            get(every, "conditional.interpolated_transform").calls,
        "conditional.interp_transform_self_s":
            get(every, "conditional.interpolated_transform").self_s,
        "conditional.interp_weights_s": get(every, "conditional.interp_weights").total_s,
        "transforms.transform_calls": transform.calls,
        "transforms.transform_rows": transform.work,
        "transforms.rows_per_call": transform.work / transform.calls if transform.calls else 0.0,
        "transforms.transform_s": transform.total_s,
        "transforms.w1_rows_sorted": get(every, "transforms.wasserstein").work,
        "anomaly.self_s": score.self_s,
        "anomaly.chunks": chunks,
        "anomaly.density_passes":
            get(in_score, "flow.log_density").calls / chunks if chunks else 0.0,
        "anomaly.scan_s": get(every, "anomaly.scan_profile").total_s,
        "anomaly.summarize_s": get(every, "anomaly.summarize").total_s,
        "jets.cluster_calls": get(every, "jets.cluster_antikt").calls,
        "jets.cluster_particles": get(every, "jets.cluster_antikt").work,
        "jets.cluster_s": get(every, "jets.cluster_antikt").total_s,
        "jets.nsubjettiness_calls": get(every, "jets.nsubjettiness").calls,
        "jets.nsubjettiness_s": get(every, "jets.nsubjettiness").total_s,
    }


def event_latencies(spans) -> dict:
    """extract_features wall times in ms, by multiplicity class."""
    out = {c: [] for c in EVENT_CLASSES}
    for s in spans:
        if s.name == "jets.extract_features":
            cls = min(EVENT_CLASSES, key=lambda c: abs(c - s.work))
            out[cls].append(1e3 * (s.end - s.start))
    return out


def latency_metrics(samples) -> dict:
    m = {}
    for c, values in samples.items():
        m[f"jets.event_samples.n{c}"] = len(values)
        for q, pct in (("p50", 50), ("p99", 99)):
            m[f"jets.event_ms_{q}.n{c}"] = float(np.percentile(values, pct)) if values else 0.0
    return m
