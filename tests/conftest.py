import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from overdensity import FitConfig, ToyConfig, fit_gis, generate_toy

settings.register_profile(
    "package",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("package")


@pytest.fixture(scope="session")
def toy_dataset():
    return generate_toy(ToyConfig(n_background=12_000, n_signal=120), seed=7)


@pytest.fixture(scope="session")
def toy_fit(toy_dataset):
    """A small but honest fit, shared across the scoring tests, and its
    (before, after) slice-W1 per iteration as on_iteration reports them."""
    cfg = FitConfig(n_iterations=5, n_conditional_bins=6, n_knots=24,
                    n_candidates=16, rng_seed=7)
    progress = []
    model = fit_gis(toy_dataset.features, toy_dataset.conditionals, cfg,
                    on_iteration=lambda i, before, after: progress.append((before, after)))
    return model, progress


@pytest.fixture(scope="session")
def toy_model(toy_fit):
    return toy_fit[0]


@pytest.fixture
def rng():
    return np.random.default_rng(42)
