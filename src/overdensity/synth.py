"""Synthetic labeled benchmarks with a known planted over-density.

Two generators:

* generate_toy - low-dimensional testbed: uniform conditional m, Gaussian
  background x drifting linearly with m, plus a compact Gaussian signal
  blob sitting on the background ridge (an in-distribution over-density,
  invisible to plain density cuts).  ToyConfig.mean is the background
  ridge, so the background density is known in closed form.

* generate_lhc_like - a dijet-shaped benchmark: steeply falling m_jj
  spectrum on [2250, 4750], smooth jet-mass / mass-splitting / tau21
  backgrounds, and a narrow three-mass resonance injected at a small
  rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

TOY_CONDITIONAL_NAME = "m"
LHC_FEATURE_NAMES = ("m_j1", "dm", "tau21_1", "tau21_2")
LHC_CONDITIONAL_NAME = "m_jj"


@dataclass
class LabeledDataset:
    """Feature matrix, conditional values, and binary signal labels."""

    features: np.ndarray
    conditionals: np.ndarray
    labels: np.ndarray
    feature_names: tuple
    conditional_name: str

    @property
    def n_events(self) -> int:
        return self.features.shape[0]

    def event_arrays(self):
        """(X, m) tuple in the form the scorer consumes."""
        return self.features, self.conditionals


@dataclass
class ToyConfig:
    """Uniform-m background with linear drift and a planted Gaussian blob.

    Background: m ~ U(m_range); x_d ~ N(intercept_d + slope_d * m, sigma_d).
    Signal: m ~ N(signal_m, signal_m_width); x ~ N(mean(signal_m),
    signal_x_width), centred on the background ridge at signal_m, making
    the blob a pure local over-density rather than an outlier.  slope and
    intercept must be finite, and the widths and m_range's span positive
    and finite; m_range holds exactly 2 values.
    """

    n_background: int = 50_000
    n_signal: int = 500
    m_range: tuple = (0.0, 1.0)
    slope: tuple = (0.5,)
    intercept: tuple = (1.0,)
    sigma: tuple = (1.0,)
    signal_m: float = 0.55
    signal_m_width: float = 0.01
    signal_x_width: tuple = (0.03,)

    def __post_init__(self):
        d = len(self.slope)
        if not (len(self.intercept) == len(self.sigma) == len(self.signal_x_width) == d):
            raise ConfigError("slope, intercept, sigma and signal_x_width must share a length")
        if len(self.m_range) != 2:
            raise ConfigError("m_range must hold exactly 2 values")
        widths = (*self.sigma, *self.signal_x_width, self.signal_m_width,
                  self.m_range[1] - self.m_range[0])
        if not all(0 < w < math.inf for w in widths):
            raise ConfigError("widths and m_range's span must be positive and finite")
        if not all(map(math.isfinite, (*self.slope, *self.intercept))):
            raise ConfigError("slope and intercept must be finite")
        if self.n_background < 0 or self.n_signal < 0:
            raise ConfigError("counts must be non-negative")
        if not self.m_range[0] <= self.signal_m <= self.m_range[1]:
            raise ConfigError("signal_m must lie inside m_range; the blob is "
                              "an over-density of the background, not a new region")

    @property
    def dim(self) -> int:
        return len(self.slope)

    def mean(self, m):
        """Background ridge mu(m), shape (..., d)."""
        m = np.asarray(m, dtype=float)
        return np.asarray(self.intercept) + np.outer(np.atleast_1d(m), self.slope).reshape(
            m.shape + (self.dim,))


def generate_toy(config: ToyConfig | None = None, seed: int = 0) -> LabeledDataset:
    """Draw the toy benchmark; deterministic for a given (config, seed)."""
    cfg = config or ToyConfig()
    rng = np.random.default_rng(seed)
    d = cfg.dim

    m_bg = rng.uniform(cfg.m_range[0], cfg.m_range[1], cfg.n_background)
    x_bg = cfg.mean(m_bg) + rng.standard_normal((cfg.n_background, d)) * np.asarray(cfg.sigma)

    m_sig = cfg.signal_m + cfg.signal_m_width * rng.standard_normal(cfg.n_signal)
    x_sig = cfg.mean(cfg.signal_m) + rng.standard_normal((cfg.n_signal, d)) \
        * np.asarray(cfg.signal_x_width)

    X = np.vstack([x_bg, x_sig])
    m = np.concatenate([m_bg, m_sig])
    labels = np.concatenate([np.zeros(cfg.n_background, dtype=int),
                             np.ones(cfg.n_signal, dtype=int)])
    order = rng.permutation(X.shape[0])
    return LabeledDataset(features=X[order], conditionals=m[order], labels=labels[order],
                          feature_names=tuple(f"x{i + 1}" for i in range(d)),
                          conditional_name=TOY_CONDITIONAL_NAME)


@dataclass
class Resonance:
    """Planted dijet resonance: pair mass and the two jet masses (GeV).
    Masses, dm and tau_mean must be finite and widths positive and finite."""

    mass: float = 3823.0
    m_j1: float = 732.0
    m_j2: float = 378.0
    width_mjj: float = 40.0
    width_mj1: float = 25.0
    width_dm: float = 25.0
    tau_mean: float = 0.2
    tau_width: float = 0.05

    def __post_init__(self):
        if not all(map(math.isfinite, (self.mass, self.m_j1, self.m_j2, self.dm, self.tau_mean))):
            raise ConfigError("resonance masses and tau_mean must be finite")
        widths = (self.width_mjj, self.width_mj1, self.width_dm, self.tau_width)
        if not all(0 < w < math.inf for w in widths):
            raise ConfigError("resonance widths must be positive and finite")

    @property
    def dm(self) -> float:
        return self.m_j1 - self.m_j2


@dataclass
class LhcLikeConfig:
    """Dijet-shaped benchmark: falling m_jj spectrum with smooth feature
    marginals; jet mass is correlated with m_jj.  m_window's span,
    m_falloff, jet_mass_logwidth, dm_shape, dm_scale, tau_beta and the
    jet-mass scale jet_mass_floor + jet_mass_fraction * m_jj at both ends
    of m_window must be positive and finite; m_window and tau_beta hold
    exactly 2 values each."""

    n_background: int = 999_200
    n_signal: int = 800
    m_window: tuple = (2250.0, 4750.0)
    m_falloff: float = 500.0
    jet_mass_floor: float = 60.0
    jet_mass_fraction: float = 0.05
    jet_mass_logwidth: float = 0.55
    dm_shape: float = 2.0
    dm_scale: float = 90.0
    tau_beta: tuple = (4.0, 3.0)
    resonance: Resonance = field(default_factory=Resonance)

    def __post_init__(self):
        if self.n_background < 0 or self.n_signal < 0:
            raise ConfigError("counts must be non-negative")
        if len(self.m_window) != 2 or len(self.tau_beta) != 2:
            raise ConfigError("m_window and tau_beta must each hold exactly 2 values")
        lo, hi = self.m_window
        scale = [self.jet_mass_floor + self.jet_mass_fraction * m for m in (lo, hi)]
        shapes = (self.m_falloff, self.jet_mass_logwidth, self.dm_shape, self.dm_scale)
        if not all(0 < v < math.inf for v in (hi - lo, *shapes, *self.tau_beta, *scale)):
            raise ConfigError("m_window's span, m_falloff, jet_mass_logwidth, dm_shape, dm_scale, "
                              "tau_beta and the jet-mass scale must be positive and finite")


def _truncated_normal(rng, mean, width, lo, hi, n):
    """Rejection-sampled normal restricted to (lo, hi)."""
    out = np.empty(n)
    filled = 0
    while filled < n:
        draw = mean + width * rng.standard_normal(n - filled)
        good = draw[(draw > lo) & (draw < hi)]
        out[filled:filled + good.size] = good
        filled += good.size
    return out


def generate_lhc_like(config: LhcLikeConfig | None = None, seed: int = 0) -> LabeledDataset:
    """Draw the dijet-shaped benchmark; deterministic for a given (config,
    seed).  The defaults plant an 0.0008 signal fraction at
    (m_jj, m_j1, m_j2) = (3823, 732, 378) GeV."""
    cfg = config or LhcLikeConfig()
    rng = np.random.default_rng(seed)
    lo, hi = cfg.m_window
    res = cfg.resonance

    # background: truncated exponential in m_jj, lognormal jet mass whose
    # scale drifts with m_jj, gamma mass splitting, beta tau21s
    u = rng.uniform(0.0, 1.0, cfg.n_background)
    span_mass = 1.0 - np.exp(-(hi - lo) / cfg.m_falloff)
    m_jj_bg = lo - cfg.m_falloff * np.log1p(-u * span_mass)
    mj1_bg = rng.lognormal(np.log(cfg.jet_mass_floor + cfg.jet_mass_fraction * m_jj_bg),
                           cfg.jet_mass_logwidth)
    dm_bg = rng.gamma(cfg.dm_shape, cfg.dm_scale, cfg.n_background)
    tau_bg = rng.beta(cfg.tau_beta[0], cfg.tau_beta[1], (cfg.n_background, 2))

    m_jj_sig = res.mass + res.width_mjj * rng.standard_normal(cfg.n_signal)
    mj1_sig = res.m_j1 + res.width_mj1 * rng.standard_normal(cfg.n_signal)
    dm_sig = res.dm + res.width_dm * rng.standard_normal(cfg.n_signal)
    tau_sig = np.column_stack([
        _truncated_normal(rng, res.tau_mean, res.tau_width, 0.0, 1.0, cfg.n_signal),
        _truncated_normal(rng, res.tau_mean, res.tau_width, 0.0, 1.0, cfg.n_signal),
    ])

    X = np.vstack([
        np.column_stack([mj1_bg, dm_bg, tau_bg]),
        np.column_stack([mj1_sig, dm_sig, tau_sig]),
    ])
    m = np.concatenate([m_jj_bg, m_jj_sig])
    labels = np.concatenate([np.zeros(cfg.n_background, dtype=int),
                             np.ones(cfg.n_signal, dtype=int)])
    order = rng.permutation(X.shape[0])
    return LabeledDataset(features=X[order], conditionals=m[order],
                          labels=labels[order], feature_names=LHC_FEATURE_NAMES,
                          conditional_name=LHC_CONDITIONAL_NAME)
