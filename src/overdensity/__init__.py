"""Conditional density estimation and local over-density anomaly hunting.

The pieces, in pipeline order:

- :mod:`overdensity.jets` — anti-kt clustering and dijet feature extraction
- :mod:`overdensity.flow` — iteratively-sliced Gaussianizing flow, fitted
  per conditional bin, giving ``log_density(x, m)``
- :mod:`overdensity.anomaly` — density-ratio scores
  ``alpha = p(x|m) / p(x|m±delta)`` and selection summaries
- :mod:`overdensity.synth` — labeled synthetic benchmarks with known answers
- :mod:`overdensity.cli` — ``overdensity synth|features|fit|score``
"""

from .anomaly import AnomalyReport, ScoreConfig, scan_profile, score_events, summarize
from .conditional import ConditionalBinning, build_binning
from .errors import ConfigError, EventRejected, FitError, InputError
from .flow import FitConfig, FlowModel, fit_gis, load_model, save_model
from .jets import Jet, Particle, cluster_antikt, extract_features, nsubjettiness, tau21
from .synth import LhcLikeConfig, Resonance, ToyConfig, generate_lhc_like, generate_toy
from .transforms import fit_marginal_transform, wasserstein_1d_to_gaussian

__version__ = "0.1.0"

__all__ = [
    "AnomalyReport",
    "ConditionalBinning",
    "ConfigError",
    "EventRejected",
    "FitConfig",
    "FitError",
    "FlowModel",
    "InputError",
    "Jet",
    "LhcLikeConfig",
    "Particle",
    "Resonance",
    "ScoreConfig",
    "ToyConfig",
    "build_binning",
    "cluster_antikt",
    "extract_features",
    "fit_gis",
    "fit_marginal_transform",
    "generate_lhc_like",
    "generate_toy",
    "load_model",
    "nsubjettiness",
    "save_model",
    "scan_profile",
    "score_events",
    "summarize",
    "tau21",
    "wasserstein_1d_to_gaussian",
]
