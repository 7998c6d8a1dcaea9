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

from .errors import ConfigError, InputError
from .flow import FlowModel

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
    y = offsets / sigma
    # the N(0, sigma) pdf, written as scipy.stats.norm.pdf computes it
    weights = np.exp(-y**2 / 2.0) / np.sqrt(2 * np.pi) / sigma
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
    X = np.asarray(events[0], dtype=float)
    m = np.asarray(events[1], dtype=float).ravel()
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[0] != m.size:
        raise InputError("one conditional value per event is required")
    return X, m


def _averaged_densities(model, X, m, quadratures):
    """Log kernel-averaged densities log sum_j w_j p(x | m + delta_j), one
    per (offsets, weights) quadrature, each with its clamp flag.

    Every (point, event) row goes through one stacked log_density pass;
    each average is the log-sum-exp of log p_j + log w_j, so it stays
    finite where every p_j underflows.  Its sum runs in offset order, so
    results do not depend on the chunk size.
    """
    offsets = np.concatenate([q[0] for q in quadratures])
    shifted = m[None, :] + offsets[:, None]
    logp = model.log_density(np.tile(X, (offsets.size, 1)),
                             shifted.ravel()).reshape(shifted.shape)
    clamped = model.conditional_clamped(shifted)
    out = []
    first = 0
    for _, weights in quadratures:
        terms = logp[first:first + weights.size] + np.log(weights)[:, None]
        top = terms.max(axis=0)
        total = np.zeros(X.shape[0])
        for row in terms:
            total += np.exp(row - top)
        out.append((top + np.log(total), clamped[first:first + weights.size].any(axis=0)))
        first += weights.size
    return out


def score_events(model: FlowModel, events, config: ScoreConfig | None = None,
                 threads: int = 1, feature_names=None) -> AnomalyReport:
    """Score events; alpha = p_signal / p_background per event, computed
    as exp(log p_signal - log p_background).  An event whose densities
    underflow to 0 is flagged in underflow and keeps a finite ratio.

    Events are one (X, m) tuple: an (n, d) feature matrix and n conditionals.
    The report keeps each threshold once, in ascending order.  Work is
    split into fixed-size chunks, so results are independent of the
    thread count.
    """
    config = config or ScoreConfig()
    config.validate()
    X, mv = _event_arrays(events)
    if X.shape[0] and X.shape[1] != model.dim:
        raise ConfigError(f"model expects {model.dim} features, events have {X.shape[1]}")

    quadratures = [config.signal_quadrature(), config.background_quadrature()]

    def work(lo_row, hi_row):
        (log_sig, clamp_sig), (log_bg, clamp_bg) = _averaged_densities(
            model, X[lo_row:hi_row], mv[lo_row:hi_row], quadratures)
        return log_sig, log_bg, clamp_sig | clamp_bg

    n = X.shape[0]
    bounds = [(i, min(i + _CHUNK_ROWS, n)) for i in range(0, n, _CHUNK_ROWS)]
    if threads > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda b: work(*b), bounds))
    else:
        parts = [work(*b) for b in bounds]

    if not parts:
        parts = [(np.zeros(0), np.zeros(0), np.zeros(0, dtype=bool))]
    log_sig, log_bg, clamped = (np.concatenate(column) for column in zip(*parts))

    p_signal = np.exp(log_sig)
    p_background = np.exp(log_bg)
    underflow = p_background == 0.0
    with np.errstate(over="ignore"):
        alphas = np.exp(log_sig - log_bg)

    thresholds = tuple(sorted(set(config.thresholds)))
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
