"""Local over-density anomaly scoring.

For each event with features x and conditional mass m, the score is

    alpha = p(x | m) / p_background(x | m)

where the background density is the fitted conditional density averaged
over a band of nearby conditional values: a symmetric Gaussian-weighted
quadrature over m + delta with the central |delta| < exclusion_halfwidth
points left out, so a bump localized at m does not contaminate its own
background estimate.  Smooth backgrounds give alpha near 1 everywhere;
a localized over-density pushes alpha above 1 only inside the bump.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm

from .errors import ConfigError, InputError
from .flow import FlowModel

# Events per scoring chunk, fixed so results never depend on the thread
# count.  Each chunk is one log_density pass over every (point, event) row,
# about 9 x _CHUNK_ROWS rows with the default quadrature.
_CHUNK_ROWS = 1024

ALPHA_SENTINEL = float("inf")


@dataclass
class Event:
    """One observation: feature vector x plus conditional scalar m."""

    features: np.ndarray
    m: float


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
        if not self.sigma > 0:
            raise ConfigError("sigma must be positive")
        if self.n_quad < 2:
            raise ConfigError("n_quad must be at least 2")
        if self.exclusion_halfwidth is not None and self.exclusion_halfwidth < 0:
            raise ConfigError("exclusion_halfwidth must be non-negative")
        if len(self.thresholds) == 0 or any(t <= 0 for t in self.thresholds):
            raise ConfigError("thresholds must be positive")
        if self.signal_sigma is not None and not self.signal_sigma > 0:
            raise ConfigError("signal_sigma must be positive")
        self.background_quadrature()  # raises if every point is excluded

    def background_quadrature(self):
        excl = self.sigma / 2.0 if self.exclusion_halfwidth is None else self.exclusion_halfwidth
        return _quadrature(self.sigma, self.n_quad, excl)

    def signal_quadrature(self):
        if self.signal_sigma is None:
            return np.zeros(1), np.ones(1)  # the plain density at m
        return _quadrature(self.signal_sigma, self.n_quad, 0.0)


def _quadrature(sigma, n_quad, exclusion_halfwidth):
    """Offsets and renormalized Gaussian weights for density averaging."""
    offsets = np.linspace(-2.0 * sigma, 2.0 * sigma, n_quad)
    keep = np.abs(offsets) >= exclusion_halfwidth
    if not np.any(keep):
        raise ConfigError("exclusion_halfwidth removes every quadrature point")
    offsets = offsets[keep]
    weights = norm.pdf(offsets, scale=sigma)
    weights = weights / weights.sum()
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
    degenerate: bool = False
    message: str = ""


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
    selections: dict = field(default_factory=dict)
    summaries: dict = field(default_factory=dict)


def _event_arrays(events):
    if isinstance(events, tuple) and len(events) == 2:
        X = np.asarray(events[0], dtype=float)
        m = np.asarray(events[1], dtype=float).ravel()
    else:
        X = np.array([np.asarray(e.features, dtype=float) for e in events])
        m = np.array([float(e.m) for e in events])
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[0] != m.size:
        raise InputError("one conditional value per event is required")
    return X, m


def _averaged_densities(model, X, m, quadratures):
    """Kernel-averaged densities sum_j w_j p(x | m + delta_j), one per
    (offsets, weights) quadrature, each with its clamp flag.

    Every (point, event) row goes through one stacked log_density pass;
    each sum is then built from 0 in offset order.
    """
    offsets = np.concatenate([q[0] for q in quadratures])
    shifted = m[None, :] + offsets[:, None]
    logp = model.log_density(np.tile(X, (offsets.size, 1)),
                             shifted.ravel()).reshape(shifted.shape)
    clamped = model.conditional_clamped(shifted)
    out = []
    first = 0
    for _, weights in quadratures:
        p = np.zeros(X.shape[0])
        for j, w in enumerate(weights, first):
            p += w * np.exp(logp[j])
        out.append((p, clamped[first:first + weights.size].any(axis=0)))
        first += weights.size
    return out


def signal_density(model: FlowModel, x, m, config: ScoreConfig | None = None):
    """Numerator density p(x | m) for one event, with clamp flag.

    By default the plain fitted density; with config.signal_sigma set it
    is smoothed over a narrow kernel instead.
    """
    config = config or ScoreConfig()
    X = np.atleast_1d(np.asarray(x, dtype=float)).reshape(1, -1)
    mv = np.array([float(m)])
    [(p, clamped)] = _averaged_densities(model, X, mv, [config.signal_quadrature()])
    return float(p[0]), bool(clamped[0])


def background_density(model: FlowModel, x, m, config: ScoreConfig | None = None):
    """Denominator density for one event: kernel average over nearby
    conditionals, central points excluded."""
    config = config or ScoreConfig()
    X = np.atleast_1d(np.asarray(x, dtype=float)).reshape(1, -1)
    mv = np.array([float(m)])
    [(p, clamped)] = _averaged_densities(model, X, mv, [config.background_quadrature()])
    return float(p[0]), bool(clamped[0])


def score_events(model: FlowModel, events, config: ScoreConfig | None = None,
                 threads: int = 1, feature_names=None) -> AnomalyReport:
    """Score events; alpha is exactly p_signal / p_background per event.

    Events may be a sequence of Event or a pre-stacked (X, m) tuple.
    Work is split into fixed-size chunks, so results are independent of
    the thread count.
    """
    config = config or ScoreConfig()
    config.validate()
    X, mv = _event_arrays(events)
    if X.shape[0] and X.shape[1] != model.dim:
        raise ConfigError(f"model expects {model.dim} features, events have {X.shape[1]}")

    quadratures = [config.signal_quadrature(), config.background_quadrature()]

    def work(lo_row, hi_row):
        (p_sig, clamp_sig), (p_bg, clamp_bg) = _averaged_densities(
            model, X[lo_row:hi_row], mv[lo_row:hi_row], quadratures)
        return p_sig, p_bg, clamp_sig | clamp_bg

    n = X.shape[0]
    bounds = [(i, min(i + _CHUNK_ROWS, n)) for i in range(0, n, _CHUNK_ROWS)]
    if threads > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda b: work(*b), bounds))
    else:
        parts = [work(*b) for b in bounds]

    if parts:
        p_signal = np.concatenate([p[0] for p in parts])
        p_background = np.concatenate([p[1] for p in parts])
        clamped = np.concatenate([p[2] for p in parts])
    else:
        p_signal = np.zeros(0)
        p_background = np.zeros(0)
        clamped = np.zeros(0, dtype=bool)

    underflow = p_background == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        alphas = np.where(underflow, ALPHA_SENTINEL, p_signal / np.where(underflow, 1.0, p_background))

    thresholds = tuple(sorted(config.thresholds))
    report = AnomalyReport(alphas=alphas, p_signal=p_signal,
                           p_background=p_background, clamped=clamped,
                           underflow=underflow, thresholds=thresholds)
    for thr in thresholds:
        report.selections[thr] = np.flatnonzero(alphas > thr)
    if feature_names is not None:
        for thr in thresholds:
            report.summaries[thr] = summarize((X, mv), report.selections[thr],
                                              feature_names)
    return report


def summarize(events, selection, feature_names) -> SelectionSummary:
    """Per-feature mean / std / standard error of the mean over a selection.

    The conditional m is summarized as the first column; feature_names
    must therefore have 1 + d entries.  An empty selection reports
    "no events pass cut"; a single event is flagged degenerate with
    std = 0.
    """
    X, mv = _event_arrays(events)
    cols = np.column_stack([mv, X]) if X.shape[1] else mv.reshape(-1, 1)
    if len(feature_names) != cols.shape[1]:
        raise InputError(f"expected {cols.shape[1]} feature names")
    sel = np.asarray(selection, dtype=int)
    if sel.size == 0:
        return SelectionSummary(n_selected=0, stats=[], message="no events pass cut")
    chosen = cols[sel]
    n = chosen.shape[0]
    means = chosen.mean(axis=0)
    if n == 1:
        stds = np.zeros(cols.shape[1])
    else:
        stds = chosen.std(axis=0, ddof=1)
    sems = stds / np.sqrt(n)
    stats = [FeatureStats(name=nm, mean=float(mu), std=float(sd), sem=float(se))
             for nm, mu, sd, se in zip(feature_names, means, stds, sems)]
    return SelectionSummary(n_selected=n, stats=stats, degenerate=(n == 1))


def scan_profile(report: AnomalyReport, events, bin_width: float):
    """Histogram the alpha profile over m: per fixed-width bin, the event
    count, max alpha and 99th-percentile alpha (None when empty)."""
    if not bin_width > 0:
        raise ConfigError("bin_width must be positive")
    _, mv = _event_arrays(events)
    if mv.size == 0:
        return []
    if mv.size != report.alphas.size:
        raise InputError("events do not match the report")
    lo = np.floor(mv.min() / bin_width) * bin_width
    n_bins = int(np.floor((mv.max() - lo) / bin_width)) + 1
    idx = np.clip(((mv - lo) / bin_width).astype(int), 0, n_bins - 1)
    rows = []
    for b in range(n_bins):
        mask = idx == b
        count = int(mask.sum())
        if count:
            a = report.alphas[mask]
            rows.append(ScanRow(m_lo=lo + b * bin_width, m_hi=lo + (b + 1) * bin_width,
                                count=count, alpha_max=float(a.max()),
                                alpha_p99=float(np.percentile(a, 99))))
        else:
            rows.append(ScanRow(m_lo=lo + b * bin_width, m_hi=lo + (b + 1) * bin_width,
                                count=0, alpha_max=None, alpha_p99=None))
    return rows
