import math

import numpy as np
import pytest

from overdensity.errors import ConfigError
from overdensity.synth import (
    LHC_FEATURE_NAMES,
    LhcLikeConfig,
    Resonance,
    ToyConfig,
    generate_lhc_like,
    generate_toy,
)

GAUSS_PEAK = 0.3989422804014327  # 1 / sqrt(2 pi)


def background_density(cfg, x, m):
    """Analytic conditional background density p(x | m) of a ToyConfig."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    mu = np.atleast_2d(cfg.mean(m))
    sig = np.asarray(cfg.sigma)
    z = (x - mu) / sig
    logp = -0.5 * np.sum(z * z, axis=1) - np.sum(np.log(sig)) \
        - 0.5 * cfg.dim * np.log(2.0 * np.pi)
    p = np.exp(logp)
    return float(p[0]) if p.size == 1 else p


def test_toy_shapes_and_labels():
    ds = generate_toy(ToyConfig(n_background=2000, n_signal=50), seed=1)
    assert ds.features.shape == (2050, 1)
    assert ds.conditionals.shape == (2050,)
    assert ds.labels.sum() == 50
    assert ds.feature_names == ("x1",)
    assert ds.conditional_name == "m"
    X, m = ds.event_arrays()
    assert X.shape == (2050, 1)
    assert np.array_equal(m, ds.conditionals)


def test_toy_determinism():
    a = generate_toy(ToyConfig(n_background=500, n_signal=10), seed=3)
    b = generate_toy(ToyConfig(n_background=500, n_signal=10), seed=3)
    c = generate_toy(ToyConfig(n_background=500, n_signal=10), seed=4)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.features, c.features)


def test_toy_signal_is_a_narrow_in_distribution_blob():
    cfg = ToyConfig(n_background=5000, n_signal=400)
    ds = generate_toy(cfg, seed=0)
    sig = ds.labels == 1
    m_sig = ds.conditionals[sig]
    x_sig = ds.features[sig, 0]
    assert abs(m_sig.mean() - cfg.signal_m) < 4 * cfg.signal_m_width / math.sqrt(400)
    assert m_sig.std() < 3 * cfg.signal_m_width
    # the blob rides on the background ridge, not in a low-density tail
    ridge = cfg.mean(m_sig)[:, 0]
    assert np.all(np.abs(x_sig - ridge) < 6 * cfg.signal_x_width[0])


def test_toy_background_density_oracle():
    cfg = ToyConfig()
    # on the ridge the density is the standard normal peak; one unit off
    # it falls by exp(-1/2)
    assert background_density(cfg, np.array([1.275]), 0.55) == pytest.approx(
        GAUSS_PEAK, abs=1e-12)
    assert background_density(cfg, np.array([2.275]), 0.55) == pytest.approx(
        GAUSS_PEAK * math.exp(-0.5), abs=1e-12)


def test_toy_background_matches_its_density(rng):
    cfg = ToyConfig(n_background=40_000, n_signal=0)
    ds = generate_toy(cfg, seed=5)
    centered = ds.features[:, 0] - cfg.mean(ds.conditionals)[:, 0]
    # one-sigma coverage of a unit normal
    frac = np.mean(np.abs(centered) < 1.0)
    assert frac == pytest.approx(0.6827, abs=0.01)


def test_toy_validation():
    with pytest.raises(ConfigError):
        generate_toy(ToyConfig(n_background=-1))
    with pytest.raises(ConfigError):
        generate_toy(ToyConfig(signal_m=2.0))  # outside the m range


@pytest.mark.parametrize("bad, message", [
    ({"sigma": (math.nan,)}, "widths and m_range's span must be positive and finite"),
    ({"signal_x_width": (math.inf,)}, "widths and m_range's span must be positive and finite"),
    ({"signal_m_width": math.nan}, "widths and m_range's span must be positive and finite"),
    ({"m_range": (0.0, math.inf)}, "widths and m_range's span must be positive and finite"),
    ({"m_range": (-math.inf, 1.0)}, "widths and m_range's span must be positive and finite"),
    ({"slope": (math.inf,)}, "slope and intercept must be finite"),
    ({"intercept": (math.nan,)}, "slope and intercept must be finite"),
])
def test_toy_rejects_unusable_values(bad, message):
    # each would give non-finite features, which fit rejects only after
    # they are written, or numpy's OverflowError for the infinite m_range
    with pytest.raises(ConfigError) as exc:
        ToyConfig(n_background=20, n_signal=2, **bad)
    assert str(exc.value) == message


@pytest.mark.parametrize("bad", [
    {"m_falloff": math.inf}, {"jet_mass_floor": math.nan}, {"jet_mass_fraction": math.inf},
    {"jet_mass_logwidth": math.nan}, {"jet_mass_logwidth": -1.0}, {"dm_shape": math.nan},
    {"dm_shape": -1.0}, {"dm_scale": math.inf}, {"tau_beta": (math.nan, 3.0)},
    {"tau_beta": (0.0, 3.0)}, {"m_window": (2250.0, math.inf)},
    # the jet-mass scale is negative at the low end of m_window only
    {"jet_mass_floor": -200.0},
])
def test_lhc_rejects_unusable_values(bad):
    # each would give non-finite features or numpy's ValueError
    with pytest.raises(ConfigError) as exc:
        LhcLikeConfig(n_background=20, n_signal=2, **bad)
    assert str(exc.value) == ("m_window's span, m_falloff, jet_mass_logwidth, dm_shape, "
                              "dm_scale, tau_beta and the jet-mass scale must be positive "
                              "and finite")


@pytest.mark.parametrize("make, bad", [
    (LhcLikeConfig, {"tau_beta": (4.0,)}), (LhcLikeConfig, {"tau_beta": (4.0, 3.0, 1.0)}),
    (LhcLikeConfig, {"m_window": (2250.0, 4750.0, 5000.0)}),
    (LhcLikeConfig, {"m_window": (2250.0,)}),
    (ToyConfig, {"m_range": (0.0, 1.0, 2.0)}), (ToyConfig, {"m_range": (0.0,)}),
], ids=["tau_beta-1", "tau_beta-3", "m_window-3", "m_window-1", "m_range-3", "m_range-1"])
def test_pair_fields_need_exactly_two_values(make, bad):
    # a short pair failed later with a bare IndexError or ValueError, and
    # a long one was accepted with its extra values ignored
    with pytest.raises(ConfigError) as exc:
        make(n_background=20, n_signal=2, **bad)
    assert str(exc.value) == ("m_range must hold exactly 2 values" if make is ToyConfig else
                              "m_window and tau_beta must each hold exactly 2 values")


def test_lhc_shapes_names_and_window():
    ds = generate_lhc_like(LhcLikeConfig(n_background=3000, n_signal=30), seed=2)
    assert ds.features.shape == (3030, 4)
    assert ds.feature_names == LHC_FEATURE_NAMES
    assert ds.conditional_name == "m_jj"
    assert ds.labels.sum() == 30
    assert ds.conditionals.min() >= 2250.0
    assert ds.conditionals.max() <= 4750.0
    taus = ds.features[:, 2:]
    assert np.all((taus > 0.0) & (taus < 1.0))


def test_lhc_background_mass_spectrum():
    cfg = LhcLikeConfig(n_background=30_000, n_signal=0)
    ds = generate_lhc_like(config=cfg, seed=0)
    lo, hi = cfg.m_window
    lam = cfg.m_falloff
    span = hi - lo
    # exact mean of the truncated exponential
    expected = lo + lam - span / math.expm1(span / lam)
    assert ds.conditionals.mean() == pytest.approx(expected, abs=10.0)
    # steeply falling: the lowest quarter of the window holds most events
    frac_low = np.mean(ds.conditionals < lo + span / 4)
    assert frac_low > 0.65


def test_lhc_signal_sits_at_the_resonance():
    res = Resonance()
    ds = generate_lhc_like(LhcLikeConfig(n_background=0, n_signal=500), seed=1)
    assert ds.labels.all()
    m_jj = ds.conditionals
    m_j1 = ds.features[:, 0]
    dm = ds.features[:, 1]
    assert m_jj.mean() == pytest.approx(res.mass, abs=4 * res.width_mjj / math.sqrt(500))
    assert m_j1.mean() == pytest.approx(res.m_j1, abs=4 * res.width_mj1 / math.sqrt(500))
    assert dm.mean() == pytest.approx(res.dm, abs=4 * res.width_dm / math.sqrt(500))
    assert res.dm == 354.0


def test_lhc_determinism_and_overrides():
    a = generate_lhc_like(LhcLikeConfig(n_background=800, n_signal=8), seed=9)
    b = generate_lhc_like(LhcLikeConfig(n_background=800, n_signal=8), seed=9)
    assert np.array_equal(a.features, b.features)
    moved = generate_lhc_like(
        config=LhcLikeConfig(n_background=0, n_signal=300,
                             resonance=Resonance(mass=3000.0)), seed=9)
    assert moved.conditionals.mean() == pytest.approx(3000.0, abs=10.0)


def test_lhc_validation():
    with pytest.raises(ConfigError):
        generate_lhc_like(config=LhcLikeConfig(n_background=100, n_signal=-2))
    with pytest.raises(ConfigError):
        generate_lhc_like(config=LhcLikeConfig(m_window=(4750.0, 2250.0)))
    # every drawn feature must be finite for fit to read it back
    for bad in ({"m_j2": math.inf}, {"tau_mean": math.nan}, {"m_j1": 1e308, "m_j2": -1e308}):
        with pytest.raises(ConfigError, match="must be finite"):
            Resonance(**bad)
    for bad in ({"width_mjj": 0.0}, {"width_dm": math.inf}, {"tau_width": math.nan}):
        with pytest.raises(ConfigError, match="widths must be positive and finite"):
            Resonance(**bad)
