"""Command-line pipeline: synth -> features -> fit -> score.

Every command writes a manifest (resolved config, seed, input hashes, row
counts) next to its outputs; given the same inputs, config and seed the
outputs are byte-identical, independent of --threads.

Exit codes: 0 success, 1 input error, 2 config error.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import metadata
from pathlib import Path

import numpy as np

from . import anomaly, dataio, jets, synth
from .errors import ConfigError, FitError, InputError
from .flow import FitConfig, fit_gis, load_model, save_model

try:
    VERSION = metadata.version("overdensity")
except metadata.PackageNotFoundError:  # running from a source tree
    VERSION = "0.1.0"

FEATURE_WINDOW = (2250.0, 4750.0)


# -- config file ---------------------------------------------------------------


def _load_config_file(path, allowed):
    """Parse key=value lines; unknown keys are config errors."""
    values = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    with fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path} line {line_no}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in allowed:
                raise ConfigError(f"{path} line {line_no}: unknown key {key!r}")
            values[key] = value.strip()
    return values


def _resolve(args, schema):
    """Flag > config-file > default, per key; returns the resolved dict."""
    file_values = {}
    if getattr(args, "config", None):
        file_values = _load_config_file(args.config, set(schema))
    resolved = {}
    for key, (default, parse) in schema.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in file_values:
            try:
                resolved[key] = parse(file_values[key])
            except ValueError:
                raise ConfigError(f"config key {key}: cannot parse "
                                  f"{file_values[key]!r}") from None
        else:
            resolved[key] = default
    return resolved


def _parse_float_list(text):
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _atomic_write(path, write_fn):
    """Write via temp file + rename so failures leave no partial output."""
    tmp = f"{path}.tmp"
    try:
        result = write_fn(tmp)
        os.replace(tmp, path)
        return result
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _input_entry(path, rows):
    return {"path": str(path), "sha256": dataio.file_sha256(path), "rows": rows}


# -- synth ---------------------------------------------------------------------


def _given(args, *names):
    """The named flags that were given, by name: an absent flag leaves the
    config dataclass's default in place."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def cmd_synth(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    counts = _given(args, "n_background", "n_signal")
    if args.generator == "toy":
        cfg = synth.ToyConfig(**counts)
        dataset = synth.generate_toy(cfg, seed=args.seed)
        config_used = {"n_background": cfg.n_background, "n_signal": cfg.n_signal,
                       "m_range": list(cfg.m_range), "signal_m": cfg.signal_m,
                       "signal_m_width": cfg.signal_m_width,
                       "signal_x_width": list(cfg.signal_x_width)}
    else:
        rescfg = synth.Resonance(**_given(args, "mass", "m_j1", "m_j2"))
        lhc = synth.LhcLikeConfig(resonance=rescfg, **counts)
        dataset = synth.generate_lhc_like(config=lhc, seed=args.seed)
        config_used = {"n_background": lhc.n_background, "n_signal": lhc.n_signal,
                       "resonance": [rescfg.mass, rescfg.m_j1, rescfg.m_j2]}

    ids = [str(i) for i in range(dataset.n_events)]
    features_path = os.path.join(args.out_dir, "features.csv")
    labels_path = os.path.join(args.out_dir, "labels.csv")
    n_feat = _atomic_write(features_path, lambda p: dataio.write_features(
        p, ids, dataset.conditional_name, dataset.conditionals,
        dataset.feature_names, dataset.features))
    n_lab = _atomic_write(labels_path, lambda p: dataio.write_labels(
        p, ids, dataset.labels))
    dataio.write_manifest(os.path.join(args.out_dir, "manifest.json"), {
        "command": f"synth {args.generator}",
        "version": VERSION,
        "seed": args.seed,
        "config": config_used,
        "inputs": [],
        "outputs": [{"path": features_path, "rows": n_feat},
                    {"path": labels_path, "rows": n_lab}],
    })
    print(f"wrote {n_feat} events to {features_path}")
    return 0


# -- features ------------------------------------------------------------------


def cmd_features(args) -> int:
    window = None if args.no_window else tuple(args.window)
    if window is not None and not window[1] > window[0]:
        raise ConfigError("--window must be lo hi with lo < hi")
    if not args.radius > 0:
        raise ConfigError("--radius must be positive")
    if not args.eta_max > 0:
        raise ConfigError("--eta-max must be positive")

    ids = []
    rows = []
    counts = {"events_read": 0, "fewer_than_two_jets": 0,
              "tau21_undefined": 0, "outside_window": 0}
    n_particles = 0
    for event_id, particles in dataio.read_particle_events(args.particles):
        counts["events_read"] += 1
        n_particles += len(particles)
        try:
            feats = jets.extract_features(particles, R=args.radius,
                                          eta_max=args.eta_max)
        except jets.EventRejected as exc:
            counts[exc.reason] = counts.get(exc.reason, 0) + 1
            continue
        if window is not None and not (window[0] < feats.m_jj < window[1]):
            counts["outside_window"] += 1
            continue
        ids.append(event_id)
        rows.append(feats.to_row())

    matrix = np.array(rows, dtype=float) if rows else np.zeros((0, 5))
    written = _atomic_write(args.out, lambda p: dataio.write_features(
        p, ids, "m_jj", matrix[:, 0] if len(ids) else np.zeros(0),
        ["m_j1", "dm", "tau21_1", "tau21_2"],
        matrix[:, 1:] if len(ids) else np.zeros((0, 4))))
    dataio.write_manifest(f"{args.out}.manifest.json", {
        "command": "features",
        "version": VERSION,
        "config": {"radius": args.radius, "eta_max": args.eta_max,
                   "window": list(window) if window else None},
        "inputs": [_input_entry(args.particles, n_particles)],
        "outputs": [{"path": args.out, "rows": written}],
        "counts": counts,
    })
    print(f"extracted features for {written}/{counts['events_read']} events -> {args.out}")
    return 0


# -- fit -----------------------------------------------------------------------


_FIT_SCHEMA = {
    "iterations": (FitConfig.n_iterations, int),
    "slices": (FitConfig.n_slices, int),
    "bins": (FitConfig.n_conditional_bins, int),
    "knots": (FitConfig.n_knots, int),
    "candidates": (FitConfig.n_candidates, int),
    "derivative_floor": (FitConfig.derivative_floor, float),
    "seed": (FitConfig.rng_seed, int),
}


def cmd_fit(args) -> int:
    cfg = _resolve(args, _FIT_SCHEMA)
    table = dataio.read_features(args.features)
    fit_cfg = FitConfig(n_iterations=cfg["iterations"], n_slices=cfg["slices"],
                        n_conditional_bins=cfg["bins"], n_knots=cfg["knots"],
                        n_candidates=cfg["candidates"],
                        derivative_floor=cfg["derivative_floor"],
                        rng_seed=cfg["seed"])

    def report(i, before, after):
        print(f"iteration {i + 1:3d}/{cfg['iterations']}  "
              f"slice-W1 before {before:.5f}  after {after:.5f}")

    model = fit_gis(table.features, table.conditionals, fit_cfg,
                    on_iteration=None if args.quiet else report)
    _atomic_write(args.model_out, lambda p: save_model(model, p))
    dataio.write_manifest(f"{args.model_out}.manifest.json", {
        "command": "fit",
        "version": VERSION,
        "seed": cfg["seed"],
        "config": {k: cfg[k] for k in _FIT_SCHEMA},
        "inputs": [_input_entry(args.features, table.n_events)],
        "outputs": [{"path": args.model_out, "rows": table.n_events}],
        "feature_names": [table.conditional_name, *table.feature_names],
    })
    print(f"fitted {len(model.layers)} layers on {table.n_events} events -> {args.model_out}")
    return 0


# -- score ---------------------------------------------------------------------


_SCORE_SCHEMA = {
    "sigma": (anomaly.ScoreConfig.sigma, float),
    "n_quad": (anomaly.ScoreConfig.n_quad, int),
    "exclusion": (anomaly.ScoreConfig.exclusion_halfwidth, float),
    "signal_sigma": (anomaly.ScoreConfig.signal_sigma, float),
    "thresholds": (anomaly.ScoreConfig.thresholds, _parse_float_list),
    "scan_bin_width": (100.0, float),
    "threads": (1, int),
}


def _summary_text(report, names) -> str:
    lines = []
    for thr in report.thresholds:
        summary = report.summaries[thr]
        if summary.n_selected == 0:
            lines.append(f"alpha > {thr:g}: no events pass cut")
            continue
        suffix = " (single event; std set to 0)" if summary.degenerate else ""
        lines.append(f"alpha > {thr:g}: {summary.n_selected} events{suffix}")
        for st in summary.stats:
            lines.append(f"  {st.name} = {st.mean:.6g} ± {st.sem:.6g}")
    return "\n".join(lines) + "\n"


def cmd_score(args) -> int:
    cfg = _resolve(args, _SCORE_SCHEMA)
    if cfg["threads"] < 1:
        raise ConfigError("threads must be at least 1")
    model = load_model(args.model)
    table = dataio.read_features(args.features)
    if table.n_events and table.features.shape[1] != model.dim:
        raise ConfigError(f"model expects {model.dim} features but "
                          f"{args.features} has {table.features.shape[1]}")
    score_cfg = anomaly.ScoreConfig(sigma=cfg["sigma"], n_quad=cfg["n_quad"],
                                    exclusion_halfwidth=cfg["exclusion"],
                                    thresholds=tuple(cfg["thresholds"]),
                                    signal_sigma=cfg["signal_sigma"])
    names = [table.conditional_name, *table.feature_names]
    report = anomaly.score_events(model, table.event_arrays(), score_cfg,
                                  threads=cfg["threads"], feature_names=names)

    os.makedirs(args.out_dir, exist_ok=True)
    scores_path = os.path.join(args.out_dir, "scores.csv")
    scan_path = os.path.join(args.out_dir, "scan.csv")
    summary_path = os.path.join(args.out_dir, "summary.txt")
    n_scores = _atomic_write(scores_path, lambda p: dataio.write_scores(
        p, table.event_ids, table.conditionals, report))
    scan_rows = anomaly.scan_profile(report, table.event_arrays(),
                                     cfg["scan_bin_width"]) if table.n_events else []
    n_scan = _atomic_write(scan_path, lambda p: dataio.write_scan(p, scan_rows))
    if table.n_events:
        text = _summary_text(report, names)
    else:
        text = "no events to score\n"
    _atomic_write(summary_path, lambda p: Path(p).write_text(text))  # closes the file

    dataio.write_manifest(os.path.join(args.out_dir, "manifest.json"), {
        "command": "score",
        "version": VERSION,
        "config": {k: (list(cfg[k]) if isinstance(cfg[k], tuple) else cfg[k])
                   for k in _SCORE_SCHEMA},
        "inputs": [_input_entry(args.features, table.n_events),
                   _input_entry(args.model, None)],
        "outputs": [{"path": scores_path, "rows": n_scores},
                    {"path": scan_path, "rows": n_scan},
                    {"path": summary_path, "rows": None}],
        "counts": {"scored": table.n_events,
                   "clamped": int(np.sum(report.clamped)),
                   "underflow": int(np.sum(report.underflow))},
    })
    sys.stdout.write(text)
    print(f"scored {n_scores} events -> {args.out_dir}")
    return 0


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overdensity",
        description="Conditional-density over-density hunting: synthesize or "
                    "extract dijet features, fit a Gaussianizing flow, and "
                    "score events by their local density excess.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a labeled synthetic benchmark")
    p_synth.add_argument("generator", choices=("toy", "lhc"))
    p_synth.add_argument("--out-dir", required=True)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--n-background", type=int)
    p_synth.add_argument("--n-signal", type=int)
    p_synth.add_argument("--mass", type=float, help="resonance pair mass (lhc)")
    p_synth.add_argument("--m1", dest="m_j1", metavar="M1", type=float,
                         help="heavy jet mass (lhc)")
    p_synth.add_argument("--m2", dest="m_j2", metavar="M2", type=float,
                         help="light jet mass (lhc)")
    p_synth.set_defaults(func=cmd_synth)

    p_feat = sub.add_parser("features", help="reduce particle CSVs to dijet features")
    p_feat.add_argument("--particles", required=True)
    p_feat.add_argument("--out", required=True)
    p_feat.add_argument("--radius", type=float, default=1.0)
    p_feat.add_argument("--eta-max", type=float, default=2.5)
    p_feat.add_argument("--window", type=float, nargs=2, default=list(FEATURE_WINDOW),
                        metavar=("LO", "HI"), help="keep events with LO < m_jj < HI")
    p_feat.add_argument("--no-window", action="store_true")
    p_feat.set_defaults(func=cmd_features)

    p_fit = sub.add_parser("fit", help="fit the conditional flow on a features CSV")
    p_fit.add_argument("--features", required=True)
    p_fit.add_argument("--model-out", required=True)
    p_fit.add_argument("--config", help="key=value config file")
    p_fit.add_argument("--iterations", type=int)
    p_fit.add_argument("--slices", type=int)
    p_fit.add_argument("--bins", type=int)
    p_fit.add_argument("--knots", type=int)
    p_fit.add_argument("--candidates", type=int)
    p_fit.add_argument("--derivative-floor", type=float)
    p_fit.add_argument("--seed", type=int)
    p_fit.add_argument("--quiet", action="store_true")
    p_fit.set_defaults(func=cmd_fit)

    p_score = sub.add_parser("score", help="score events against a fitted model")
    p_score.add_argument("--features", required=True)
    p_score.add_argument("--model", required=True)
    p_score.add_argument("--out-dir", required=True)
    p_score.add_argument("--config", help="key=value config file")
    p_score.add_argument("--sigma", type=float)
    p_score.add_argument("--n-quad", type=int)
    p_score.add_argument("--exclusion", type=float)
    p_score.add_argument("--signal-sigma", type=float)
    p_score.add_argument("--thresholds", type=float, nargs="+")
    p_score.add_argument("--scan-bin-width", type=float)
    p_score.add_argument("--threads", type=int)
    p_score.set_defaults(func=cmd_score)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "thresholds", None) is not None:
        args.thresholds = tuple(args.thresholds)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
