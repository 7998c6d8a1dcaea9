"""Local over-density anomaly scoring.

For each event with features x and conditional mass m, the score is

    alpha = p(x | m) / p_background(x | m)

where the background density is the fitted conditional density averaged
over a band of nearby conditional values: a symmetric Gaussian-weighted
quadrature over m + delta with the central |delta| < exclusion_halfwidth
points left out, so a bump localized at m does not contaminate its own
background estimate.  Smooth backgrounds give alpha near 1 everywhere;
a localized over-density pushes alpha above 1 only inside the bump.

Each distinct density row is evaluated once: the interpolation weights
depend on m only through its clip to the first and last bin centers, so
an event's points past either of them share one row.  score_events
returns the scores and the events above each threshold; summarize
describes a selection, and scan_profile histograms alpha over m.

An event's score depends on no other event, and score_events works in
fixed chunks of _CHUNK_ROWS events, so a large file can be scored a group
of chunks at a time (the CLI does) with the same bits.  A chunk's working
memory is one forward pass over its distinct density rows, about
9 x _CHUNK_ROWS rows with the default quadrature.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError
from .flow import FlowModel, event_batch

# Events per scoring chunk, fixed so results never depend on the thread
# count.  Each chunk is one log_density pass over every (point, event) row,
# about 9 x _CHUNK_ROWS rows with the default quadrature.
_CHUNK_ROWS = 1024


@dataclass
class ScoreConfig:
    """Scoring knobs.

    sigma is the width of the background-averaging kernel in conditional
    units; the quadrature covers m +/- 2 sigma with n_quad equispaced
    points, Gaussian-pdf weighted and renormalized.  Points closer to m
    than exclusion_halfwidth (default sigma / 2) are excluded.  If
    signal_sigma is set, the numerator is smoothed the same way over a
    narrow +/- 2 signal_sigma band (no exclusion); by default it is the
    plain density at m.
    """

    sigma: float = 250.0
    n_quad: int = 10
    exclusion_halfwidth: float | None = None
    thresholds: tuple = (1.5, 2.5, 5.0)
    signal_sigma: float | None = None

    def validate(self) -> None:
        if not 0 < self.sigma < math.inf:
            raise ConfigError("sigma must be positive and finite")
        if self.n_quad < 2:
            raise ConfigError("n_quad must be at least 2")
        if self.exclusion_halfwidth is not None and not 0 <= self.exclusion_halfwidth < math.inf:
            raise ConfigError("exclusion_halfwidth must be non-negative and finite")
        if len(self.thresholds) == 0 or not all(0 < t < math.inf for t in self.thresholds):
            raise ConfigError("thresholds must be positive and finite")
        if self.signal_sigma is not None and not 0 < self.signal_sigma < math.inf:
            raise ConfigError("signal_sigma must be positive and finite")
        # each raises if its quadrature overflows, the background one also
        # if every point is excluded
        self.background_quadrature()
        self.signal_quadrature()

    def background_quadrature(self):
        excl = self.sigma / 2.0 if self.exclusion_halfwidth is None else self.exclusion_halfwidth
        return _quadrature(self.sigma, self.n_quad, excl)

    def signal_quadrature(self):
        if self.signal_sigma is None:
            return np.zeros(1), np.ones(1)  # the plain density at m
        return _quadrature(self.signal_sigma, self.n_quad, 0.0, "signal_sigma")


def _quadrature(sigma, n_quad, exclusion_halfwidth, name="sigma"):
    """Offsets and renormalized Gaussian weights for density averaging.

    A sigma so large that +/- 2 sigma overflows, or so small that the
    pdf's 1 / sigma does, is a ConfigError that names its field, name.
    """
    overflow = ConfigError(f"{name} = {sigma:g} overflows the quadrature")
    with np.errstate(over="ignore", invalid="ignore"):
        offsets = np.linspace(-2.0 * sigma, 2.0 * sigma, n_quad)
        if not np.isfinite(offsets).all():
            raise overflow
        keep = np.abs(offsets) >= exclusion_halfwidth
        if not np.any(keep):
            raise ConfigError("exclusion_halfwidth removes every quadrature point")
        offsets = offsets[keep]
        y = offsets / sigma
        # the N(0, sigma) pdf, written as scipy.stats.norm.pdf computes it
        weights = np.exp(-y**2 / 2.0) / np.sqrt(2 * np.pi) / sigma
        weights = weights / weights.sum()
    # an infinite pdf value leaves NaN weights, an infinite sum zeros
    if not (np.isfinite(weights).all() and weights.sum() > 0):
        raise overflow
    return offsets, weights


@dataclass
class FeatureStats:
    name: str
    mean: float
    std: float
    sem: float


@dataclass
class SelectionSummary:
    n_selected: int
    stats: list


@dataclass
class ScanRow:
    m_lo: float
    m_hi: float
    count: int
    alpha_max: float | None
    alpha_p99: float | None


@dataclass
class AnomalyReport:
    alphas: np.ndarray
    p_signal: np.ndarray
    p_background: np.ndarray
    clamped: np.ndarray
    underflow: np.ndarray
    thresholds: tuple
    selections: dict


def _averaged_densities(model, X, m, quadratures):
    """Log kernel-averaged densities log sum_j w_j p(x | m + delta_j), one
    per (offsets, weights) quadrature, then each event's clamp flag: any
    of its points, in any quadrature, outside the trained range.

    An event's rows with the same m clipped to the first and last bin
    centers have the same interpolation weights, so they have one density.
    Each distinct row goes through one stacked log_density pass, and its
    result is copied to the rows that repeat it; a row's density does not
    depend on the other rows of its pass.  Each average is the log-sum-exp
    of log p_j + log w_j, so it stays finite where every p_j underflows.
    Its sum runs in offset order, so results do not depend on the chunk
    size.
    """
    offsets = np.concatenate([q[0] for q in quadratures])
    shifted = m[None, :] + offsets[:, None]
    centers = model.binning.centers
    key = np.clip(shifted, centers[0], centers[-1])
    point = np.arange(offsets.size)[:, None]
    # the first point with the row's key
    first = np.repeat(point, m.size, axis=1)
    for j in range(offsets.size - 1, -1, -1):
        first[key == key[j]] = j
    j, i = np.nonzero(first == point)
    logp = np.empty(shifted.shape)
    logp[j, i] = model.log_density(X[i], shifted[j, i])
    logp = np.take_along_axis(logp, first, axis=0)
    out = []
    begin = 0
    for _, weights in quadratures:
        terms = logp[begin:begin + weights.size] + np.log(weights)[:, None]
        top = terms.max(axis=0)
        total = np.zeros(X.shape[0])
        for row in terms:
            total += np.exp(row - top)
        out.append(top + np.log(total))
        begin += weights.size
    return (*out, model.binning.outside(shifted).any(axis=0))


def score_events(model: FlowModel, events, config: ScoreConfig | None = None,
                 threads: int = 1) -> AnomalyReport:
    """Score events; alpha = p_signal / p_background per event, computed
    as exp(log p_signal - log p_background).  An event whose densities
    underflow to 0 is flagged in underflow and keeps a finite ratio.

    Events are one (X, m) tuple, read by flow.event_batch: n feature
    rows (a 1-D X is n events of one feature) and n finite conditionals.
    The report keeps each threshold once, in ascending order.  Work is
    split into fixed-size chunks, which a pool of `threads` worker
    threads scores, so results are independent of the thread count.
    """
    if threads < 1:
        raise ConfigError("threads must be at least 1")
    config = config or ScoreConfig()
    config.validate()
    X, mv = event_batch(*events)
    if X.shape[0] and X.shape[1] != model.dim:
        raise ConfigError(f"model expects {model.dim} features, events have {X.shape[1]}")

    quadratures = [config.signal_quadrature(), config.background_quadrature()]

    def work(begin):
        end = begin + _CHUNK_ROWS
        return _averaged_densities(model, X[begin:end], mv[begin:end], quadratures)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(work, range(0, X.shape[0], _CHUNK_ROWS)))
    if not parts:
        parts = [(np.zeros(0), np.zeros(0), np.zeros(0, dtype=bool))]
    log_sig, log_bg, clamped = (np.concatenate(column) for column in zip(*parts))

    p_signal = np.exp(log_sig)
    p_background = np.exp(log_bg)
    underflow = p_background == 0.0
    with np.errstate(over="ignore"):
        alphas = np.exp(log_sig - log_bg)

    thresholds = tuple(sorted(set(config.thresholds)))
    return AnomalyReport(alphas=alphas, p_signal=p_signal, p_background=p_background,
                         clamped=clamped, underflow=underflow, thresholds=thresholds,
                         selections={thr: np.flatnonzero(alphas > thr) for thr in thresholds})


def summarize(events, selection, feature_names) -> SelectionSummary:
    """Per-feature mean / std / standard error of the mean over a selection.

    The conditional m is summarized as the first column; feature_names
    must therefore have 1 + d entries.  An empty selection has
    n_selected = 0 and no stats; a single event has std = 0.
    """
    X, mv = event_batch(*events)
    cols = np.column_stack([mv, X])
    if len(feature_names) != cols.shape[1]:
        raise InputError(f"expected {cols.shape[1]} feature names")
    sel = np.asarray(selection, dtype=int)
    if sel.size == 0:
        return SelectionSummary(n_selected=0, stats=[])
    chosen = cols[sel]
    n = chosen.shape[0]
    means = chosen.mean(axis=0)
    stds = chosen.std(axis=0, ddof=1) if n > 1 else np.zeros(cols.shape[1])
    sems = stds / np.sqrt(n)
    stats = [FeatureStats(name=nm, mean=float(mu), std=float(sd), sem=float(se))
             for nm, mu, sd, se in zip(feature_names, means, stds, sems)]
    return SelectionSummary(n_selected=n, stats=stats)


def scan_profile(alphas, m, bin_width: float):
    """Histogram the alpha profile over m: per fixed-width bin, the event
    count, max alpha and 99th-percentile alpha (None when empty).

    alphas and m hold one value per event (a report's alphas and the
    scored conditionals); the scan reads nothing else.
    """
    if not 0 < bin_width < math.inf:
        raise ConfigError("scan_bin_width must be positive and finite")
    alphas = np.asarray(alphas, dtype=float)
    mv = np.asarray(m, dtype=float).ravel()
    if mv.size != alphas.size:
        raise InputError("alphas and conditionals differ in length")
    if not np.isfinite(mv).all():
        raise InputError("conditionals must be finite")
    if mv.size == 0:
        return []
    # bin numbers m / bin_width past 2**53 are not whole doubles; divided
    # as Python floats, an overflow is inf, not a warning
    if not max(-float(mv.min()), float(mv.max())) / bin_width < 2.0**53:
        raise ConfigError(f"scan_bin_width = {bin_width:g} numbers the bins of m beyond 2**53")
    lo = np.floor(mv.min() / bin_width) * bin_width
    n_bins = int(np.floor((mv.max() - lo) / bin_width)) + 1
    # each event's bin trunc((m - lo) / bin_width), clipped to the bins, in
    # one array of whole doubles
    idx = mv - lo
    idx /= bin_width
    np.clip(np.trunc(idx, out=idx), 0, n_bins - 1, out=idx)
    rows = []
    for b in range(n_bins):
        a = alphas[idx == b]
        rows.append(ScanRow(m_lo=lo + b * bin_width, m_hi=lo + (b + 1) * bin_width,
                            count=a.size, alpha_max=float(a.max()) if a.size else None,
                            alpha_p99=float(np.percentile(a, 99)) if a.size else None))
    return rows
