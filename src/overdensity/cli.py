"""Command-line pipeline: synth -> features -> fit -> score.

Every command writes a manifest (resolved config, seed, input hashes, row
counts) next to its outputs; given the same inputs, config and seed the
outputs are byte-identical, independent of --threads and of the number of
CPUs (fit's slice search and features' worker processes use every CPU the
process may run on).  That holds on one machine: another CPU or BLAS
kernel can change the last bits of models and synthetic features.

score reads, scores and writes its features file a group of scoring
chunks at a time, so its memory grows by m and alpha (16 bytes an event)
and the rows of the events above the lowest threshold; fit holds the
whole feature matrix, but not the event ids.

Exit codes: 0 success, 1 input error, 2 config error.
"""

from __future__ import annotations

import argparse
import os
import sys
from array import array
from collections import deque
from contextlib import closing, contextmanager, suppress
from functools import partial
from itertools import chain, islice
from pathlib import Path

import numpy as np

from . import __version__, anomaly, dataio, flow, jets, synth
from .errors import ConfigError, FitError, InputError
from .flow import FitConfig, fit_gis, load_model, save_model


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

    os.makedirs(args.out_dir, exist_ok=True)
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
        "version": __version__,
        "seed": args.seed,
        "config": config_used,
        "inputs": [],
        "outputs": [{"path": features_path, "rows": n_feat},
                    {"path": labels_path, "rows": n_lab}],
    })
    print(f"wrote {n_feat} events to {features_path}")
    return 0


# -- features ------------------------------------------------------------------


# events sent to a features worker at a time
_FEATURE_BLOCK = 8


def _block_features(block, radius, eta_max):
    """(event_id, particle count, feature row or rejection reason) for each
    event of a block of (event_id, rows) from dataio.read_particle_events:
    the task of a features worker."""
    out = []
    for event_id, rows in block:
        particles = [jets.Particle(*row) for row in rows.tolist()]
        try:
            row = jets.extract_features(particles, R=radius, eta_max=eta_max).to_row()
        except jets.EventRejected as exc:
            row = exc.reason
        out.append((event_id, len(particles), row))
    return out


def _map_in_order(fn, items, workers):
    """Yield fn(item) for each item, in input order.

    With more than one worker and more than one item, the calls run on a
    pool of worker processes, with at most 2 * workers items in flight,
    so memory does not grow with the input.  When items raises, the
    pending calls are cancelled and every worker is joined before the
    error goes on.  fn must be picklable: a module-level function or a
    partial of one.
    """
    items = iter(items)
    head = list(islice(items, 2))
    if workers < 2 or len(head) < 2:
        yield from map(fn, chain(head, items))
        return
    # imported here, not with the CLI: it costs milliseconds of start-up
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork starts no resource-tracker or forkserver process that could
    # outlive the command; the pool forks every worker at its first
    # submit, before it starts a thread of its own
    methods = multiprocessing.get_all_start_methods()
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context(
        "fork" if "fork" in methods else None))
    pending = deque()
    try:
        for item in chain(head, items):
            pending.append(pool.submit(fn, item))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def cmd_features(args) -> int:
    window = None if args.no_window else tuple(args.window)
    if window is not None and not window[1] > window[0]:
        raise ConfigError("--window must be lo hi with lo < hi")
    jets.check_radius(args.radius, "--radius")
    if not args.eta_max > 0:
        raise ConfigError("--eta-max must be positive")

    # read and validated here, in file order, so the first bad row is the
    # error whatever the number of workers
    events = dataio.read_particle_events(args.particles)
    blocks = iter(lambda: list(islice(events, _FEATURE_BLOCK)), [])
    task = partial(_block_features, radius=args.radius, eta_max=args.eta_max)

    ids = []
    rows = []
    counts = {"events_read": 0, "fewer_than_two_jets": 0,
              "tau21_undefined": 0, "outside_window": 0}
    n_particles = 0
    with closing(_map_in_order(task, blocks, flow._cpu_count())) as results:
        for event_id, n, row in chain.from_iterable(results):
            counts["events_read"] += 1
            n_particles += n
            if isinstance(row, str):
                counts[row] = counts.get(row, 0) + 1
            elif window is not None and not (window[0] < row[0] < window[1]):
                counts["outside_window"] += 1
            else:
                ids.append(event_id)
                rows.append(row)

    names = synth.LHC_FEATURE_NAMES
    matrix = np.array(rows, dtype=float) if rows else np.zeros((0, 1 + len(names)))
    written = _atomic_write(args.out, lambda p: dataio.write_features(
        p, ids, synth.LHC_CONDITIONAL_NAME, matrix[:, 0], names, matrix[:, 1:]))
    dataio.write_manifest(f"{args.out}.manifest.json", {
        "command": "features",
        "version": __version__,
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
    # the fit needs the ids' count alone, not the ids (Python strings, 67 MB
    # at 1M events)
    n_events = table.n_events
    names = [table.conditional_name, *table.feature_names]
    X, m = table.event_arrays()
    del table
    fit_cfg = FitConfig(n_iterations=cfg["iterations"], n_slices=cfg["slices"],
                        n_conditional_bins=cfg["bins"], n_knots=cfg["knots"],
                        n_candidates=cfg["candidates"],
                        derivative_floor=cfg["derivative_floor"],
                        rng_seed=cfg["seed"])

    def report(i, before, after):
        print(f"iteration {i + 1:3d}/{cfg['iterations']}  "
              f"slice-W1 before {before:.5f}  after {after:.5f}")

    model = fit_gis(X, m, fit_cfg, on_iteration=None if args.quiet else report)
    _atomic_write(args.model_out, lambda p: save_model(model, p))
    dataio.write_manifest(f"{args.model_out}.manifest.json", {
        "command": "fit",
        "version": __version__,
        "seed": cfg["seed"],
        "config": {k: cfg[k] for k in _FIT_SCHEMA},
        "inputs": [_input_entry(args.features, n_events)],
        "outputs": [{"path": args.model_out, "rows": n_events}],
        "feature_names": names,
    })
    print(f"fitted {len(model.layers)} layers on {n_events} events -> {args.model_out}")
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


# scoring chunks per thread that score reads, scores and writes as one
# group: the pool waits for a group's last chunk, which idles the other
# threads for a small share of a group this size, 16,384 events a thread
_GROUP_CHUNKS = 8

# glibc's malloc raises its mmap and trim thresholds to the largest mapped
# block freed.  Scoring group by group frees none, so each chunk's
# temporaries would be mapped or trimmed and faulted in afresh (200k events
# at one thread: 560k page faults against 6k, a fifth more time).  score
# first frees a block of this many doubles, never written to nor resident.
_RELEASED_DOUBLES = 1 << 19


def _event_groups(blocks, size, width):
    """The (ids, values) blocks of dataio.read_feature_blocks cut into
    groups of `size` rows, then the rows left: at least one group, an
    empty one for a file without rows.  values has width columns."""
    ids, values, held, empty = [], [], 0, True
    for block_ids, block_values in blocks:
        ids.extend(block_ids)
        values.append(block_values)
        held += len(block_values)
        if held >= size:
            whole, group_ids = np.concatenate(values), ids
            cut = held - held % size
            # the blocks, and the rows past the groups as a copy, so that a
            # group holds no block or earlier group while it is scored
            ids, values, held, empty = ids[cut:], [whole[cut:].copy()], held - cut, False
            for start in range(0, cut, size):
                yield group_ids[start:start + size], whole[start:start + size]
    if held or empty:
        yield ids, np.concatenate(values) if values else np.zeros((0, width))


@contextmanager
def _output_dir(path):
    """Make the directory path and its missing parents; if the block
    raises, remove those of them that are left empty."""
    made = []
    head = os.path.abspath(path)
    while not os.path.isdir(head):
        made.append(head)
        head = os.path.dirname(head)
    os.makedirs(path, exist_ok=True)
    try:
        yield
    except BaseException:
        for made_dir in made:  # the deepest first
            with suppress(OSError):
                os.rmdir(made_dir)
        raise


def _summary_text(thresholds, alphas, values, names) -> str:
    """summary.txt of the events with these alphas and (conditional,
    features) rows: every scored event above the lowest threshold, in
    file order, so that each selection is the rows it is over all events."""
    lines = []
    for thr in thresholds:
        summary = anomaly.summarize((values[:, 1:], values[:, 0]),
                                    np.flatnonzero(alphas > thr), names)
        if summary.n_selected == 0:
            lines.append(f"alpha > {thr:g}: no events pass cut")
            continue
        suffix = " (single event; std set to 0)" if summary.n_selected == 1 else ""
        lines.append(f"alpha > {thr:g}: {summary.n_selected} events{suffix}")
        for st in summary.stats:
            lines.append(f"  {st.name} = {st.mean:.6g} ± {st.sem:.6g}")
    return "\n".join(lines) + "\n"


def cmd_score(args) -> int:
    """Read, score and write the features file a group of scoring chunks at
    a time (_event_groups), keeping of each group only m, alpha, the flag
    counts and the rows above the lowest threshold, from which scan.csv,
    summary.txt and the manifest are made at the end.  scores.csv is renamed
    into place only once the scan has accepted m's range; an error leaves
    no output and no directory that the command made."""
    cfg = _resolve(args, _SCORE_SCHEMA)
    model = load_model(args.model)
    score_cfg = anomaly.ScoreConfig(sigma=cfg["sigma"], n_quad=cfg["n_quad"],
                                    exclusion_halfwidth=cfg["exclusion"],
                                    thresholds=tuple(cfg["thresholds"]),
                                    signal_sigma=cfg["signal_sigma"])
    anomaly.scan_profile([], [], cfg["scan_bin_width"])  # checks the width before any work
    np.empty(_RELEASED_DOUBLES)  # allocated and freed at once
    blocks = dataio.read_feature_blocks(args.features)
    conditional_name, feature_names = next(blocks)
    names = [conditional_name, *feature_names]
    groups = _event_groups(blocks, anomaly._CHUNK_ROWS * _GROUP_CHUNKS * max(cfg["threads"], 1),
                           len(names))
    scores_path = os.path.join(args.out_dir, "scores.csv")
    scan_path = os.path.join(args.out_dir, "scan.csv")
    summary_path = os.path.join(args.out_dir, "summary.txt")

    kept, kept_alphas = [], []  # of the events above the lowest threshold
    counts = {"scored": 0, "clamped": 0, "underflow": 0}
    thresholds = None

    def score_to(path):
        nonlocal thresholds
        m, alphas = array("d"), array("d")  # of every event, for the scan
        for i, (ids, values) in enumerate(groups):
            report = anomaly.score_events(model, (values[:, 1:], values[:, 0]), score_cfg,
                                          threads=cfg["threads"])
            dataio.write_scores(path, ids, values[:, 0], report, append=i > 0)
            counts["scored"] += len(ids)
            counts["clamped"] += int(np.sum(report.clamped))
            counts["underflow"] += int(np.sum(report.underflow))
            m.frombytes(values[:, 0].tobytes())
            alphas.frombytes(report.alphas.tobytes())
            thresholds = report.thresholds
            above = report.selections[thresholds[0]]
            kept.append(values[above])
            kept_alphas.append(report.alphas[above])
            del report, above  # not held through the next group's scoring
        # m's range, and with it the scan's bins, is known only now
        return anomaly.scan_profile(np.frombuffer(alphas), np.frombuffer(m),
                                    cfg["scan_bin_width"])

    with _output_dir(args.out_dir):
        scan_rows = _atomic_write(scores_path, score_to)
    n_scores = counts["scored"]
    n_scan = _atomic_write(scan_path, lambda p: dataio.write_scan(p, scan_rows))
    if n_scores:
        text = _summary_text(thresholds, np.concatenate(kept_alphas), np.concatenate(kept),
                             names)
    else:
        text = "no events to score\n"
    _atomic_write(summary_path, lambda p: Path(p).write_text(text))  # closes the file

    dataio.write_manifest(os.path.join(args.out_dir, "manifest.json"), {
        "command": "score",
        "version": __version__,
        # the thresholds scoring used: sorted, each once
        "config": {**cfg, "thresholds": list(thresholds)},
        "inputs": [_input_entry(args.features, n_scores),
                   _input_entry(args.model, None)],
        "outputs": [{"path": scores_path, "rows": n_scores},
                    {"path": scan_path, "rows": n_scan},
                    {"path": summary_path, "rows": None}],
        "counts": counts,
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
    p_feat.add_argument("--window", type=float, nargs=2,
                        default=list(synth.LhcLikeConfig.m_window),
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
    try:
        return args.func(args)
    except (InputError, FitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
