import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose
from scipy.stats import norm

from overdensity import anomaly
from overdensity.anomaly import ScoreConfig, scan_profile, score_events, summarize
from overdensity.errors import ConfigError, InputError

# Background quadrature for sigma=250, 10 points, default half-exclusion:
# the ten points span +/-500 and the two innermost (+/-55.6) are dropped.
# Offsets and Gaussian weights recomputed by hand from exp(-d^2/(2*250^2)).
QUAD_OFFSETS = [-500.0, -388.8888888888889, -277.77777777777777,
                -166.66666666666666, 166.66666666666666, 277.77777777777777,
                388.8888888888889, 500.0]
QUAD_WEIGHTS = [0.03815024889640867, 0.08407050051260147, 0.1520559174633599,
                0.2257233331276301, 0.2257233331276301, 0.1520559174633599,
                0.08407050051260147, 0.03815024889640867]


def test_background_quadrature_frozen_values():
    offsets, weights = ScoreConfig().background_quadrature()
    assert_allclose(offsets, QUAD_OFFSETS, rtol=0, atol=1e-9)
    assert_allclose(weights, QUAD_WEIGHTS, rtol=1e-12, atol=0)
    assert weights.sum() == pytest.approx(1.0, abs=1e-14)


def test_score_config_validation():
    with pytest.raises(ConfigError):
        ScoreConfig(sigma=0.0).validate()
    with pytest.raises(ConfigError):
        ScoreConfig(n_quad=1).validate()
    with pytest.raises(ConfigError):
        ScoreConfig(thresholds=()).validate()
    with pytest.raises(ConfigError):
        ScoreConfig(thresholds=(1.5, -1.0)).validate()
    with pytest.raises(ConfigError):
        # exclusion wider than the whole quadrature window
        ScoreConfig(sigma=1.0, exclusion_halfwidth=3.0).validate()
    with pytest.raises(ConfigError):
        ScoreConfig(signal_sigma=-0.5).validate()
    # non-finite widths, and quadratures whose offsets or weights overflow,
    # are rejected before they warn, naming the field
    for field, value in (("sigma", np.inf), ("sigma", np.nan), ("sigma", 1e308),
                         ("sigma", 5e-324), ("signal_sigma", np.inf),
                         ("signal_sigma", 1e308), ("signal_sigma", 5e-324)):
        with pytest.raises(ConfigError, match=f"^{field} "):
            ScoreConfig(**{field: value}).validate()


def test_scan_bin_width_validation():
    alphas = np.ones(3)
    m = np.array([1000.0, 2500.0, 4000.0])
    for width in (0.0, -1.0, np.inf, np.nan, 1e-300, 5e-324):
        with pytest.raises(ConfigError, match="^scan_bin_width "):
            scan_profile(alphas, m, width)
    assert len(scan_profile(alphas, m, 1.0)) == 3001


def test_smooth_background_scores_near_one(toy_model, toy_dataset):
    cfg = ScoreConfig(sigma=0.15, thresholds=(1.5,))
    report = score_events(toy_model, toy_dataset.event_arrays(), cfg)
    background = toy_dataset.labels == 0
    med = np.median(report.alphas[background])
    assert 0.8 < med < 1.2
    # the injected blob floats to the top
    assert np.mean(report.alphas[~background]) > np.percentile(
        report.alphas[background], 95)


def test_alpha_is_exactly_the_density_ratio(toy_model, toy_dataset):
    cfg = ScoreConfig(sigma=0.15, thresholds=(1.5,))
    X, m = toy_dataset.event_arrays()
    report = score_events(toy_model, (X[:40], m[:40]), cfg)

    def averaged(i, quadrature):
        # sum_j w_j p(x | m + delta_j), built from 0 in offset order
        offsets, weights = quadrature
        logp = toy_model.log_density(np.tile(X[i], (offsets.size, 1)), m[i] + offsets)
        return sum(w * np.exp(lp) for w, lp in zip(weights, logp))

    for i in (0, 7, 39):
        p_sig = averaged(i, cfg.signal_quadrature())
        p_bg = averaged(i, cfg.background_quadrature())
        # the plain numerator is exp(log p) itself; the background average
        # is a log-sum-exp, equal to the plain sum up to rounding
        assert report.p_signal[i] == p_sig
        assert report.p_background[i] == pytest.approx(p_bg, rel=1e-12, abs=0)
        assert report.alphas[i] == pytest.approx(p_sig / p_bg, rel=1e-12, abs=0)


def test_selections_are_nested(toy_model, toy_dataset):
    cfg = ScoreConfig(sigma=0.15, thresholds=(2.5, 1.1, 1.7, 1.1))
    report = score_events(toy_model, toy_dataset.event_arrays(), cfg)
    assert report.thresholds == (1.1, 1.7, 2.5)
    loose = set(report.selections[1.1])
    mid = set(report.selections[1.7])
    tight = set(report.selections[2.5])
    assert tight <= mid <= loose


def test_thread_count_does_not_change_results(toy_model, toy_dataset):
    cfg = ScoreConfig(sigma=0.15, thresholds=(1.5,))
    a = score_events(toy_model, toy_dataset.event_arrays(), cfg, threads=1)
    b = score_events(toy_model, toy_dataset.event_arrays(), cfg, threads=4)
    assert np.array_equal(a.alphas, b.alphas)
    assert np.array_equal(a.p_background, b.p_background)


@pytest.mark.parametrize("threads", [0, -1])
def test_thread_count_below_one_is_a_config_error(toy_model, toy_dataset, threads):
    with pytest.raises(ConfigError, match="threads"):
        score_events(toy_model, toy_dataset.event_arrays(), threads=threads)


def test_scoring_leaves_no_pool_thread_behind(toy_model, toy_dataset, monkeypatch):
    X, m = toy_dataset.event_arrays()
    monkeypatch.setattr(anomaly, "_CHUNK_ROWS", 10)  # ten chunks for three workers
    before = threading.active_count()
    score_events(toy_model, (X[:100], m[:100]), ScoreConfig(sigma=0.15), threads=3)
    assert threading.active_count() == before


@pytest.mark.parametrize("signal_sigma", [None, 0.02])
def test_chunk_size_does_not_change_results(toy_model, toy_dataset, monkeypatch,
                                             signal_sigma):
    X, m = toy_dataset.event_arrays()
    events = (X[:60], m[:60])
    cfg = ScoreConfig(sigma=0.15, thresholds=(1.5,), signal_sigma=signal_sigma)
    ref = score_events(toy_model, events, cfg)
    assert ref.clamped.any() and not ref.clamped.all()
    for rows in (1, 7, 1024):
        monkeypatch.setattr(anomaly, "_CHUNK_ROWS", rows)
        got = score_events(toy_model, events, cfg)
        for name in ("p_signal", "p_background", "alphas", "clamped"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), (rows, name)


@pytest.mark.parametrize("sigma, signal_sigma", [(0.15, None), (0.15, 0.02), (0.5, None)])
def test_each_distinct_density_row_is_evaluated_once(toy_model, toy_dataset, monkeypatch,
                                                     sigma, signal_sigma):
    # events whose every quadrature point lies beyond the first or the
    # last bin center, where t = 0 and all of an event's rows are one row,
    # next to ordinary events; at sigma = 0.5 these have rows beyond both
    # centers, which are two rows
    X, m = toy_dataset.event_arrays()
    low, high = toy_model.binning.centers[[0, -1]] + np.array([-2.0, 2.0]) * sigma
    m = np.concatenate([[low - 0.2, low - 0.1, high + 0.1, high + 0.2], m[:6]])
    X = X[:m.size]
    cfg = ScoreConfig(sigma=sigma, thresholds=(1.5,), signal_sigma=signal_sigma)

    def stacked(quadrature):
        # every (point, event) row in one log_density pass, as the average
        # would be without the copies
        offsets, weights = quadrature
        shifted = m[None, :] + offsets[:, None]
        logp = toy_model.log_density(np.tile(X, (offsets.size, 1)),
                                     shifted.ravel()).reshape(shifted.shape)
        terms = logp + np.log(weights)[:, None]
        top = terms.max(axis=0)
        total = np.zeros(m.size)
        for row in terms:
            total += np.exp(row - top)
        return np.exp(top + np.log(total))

    p_signal = stacked(cfg.signal_quadrature())
    p_background = stacked(cfg.background_quadrature())

    passes = []
    log_density = toy_model.log_density
    monkeypatch.setattr(toy_model, "log_density",
                        lambda x, mm: passes.append((x, mm)) or log_density(x, mm))
    report = score_events(toy_model, (X, m), cfg)
    assert report.p_signal.tobytes() == p_signal.tobytes()
    assert report.p_background.tobytes() == p_background.tobytes()

    # the distinct rows, point-major: a row at t = 0 repeats the event's
    # first earlier row at t = 0 in the same lo bin
    offsets = np.concatenate([cfg.signal_quadrature()[0], cfg.background_quadrature()[0]])
    shifted = m[None, :] + offsets[:, None]
    lo, _, t = toy_model.binning.interp_weights(shifted)
    seen = set()
    rows = []
    for j in range(offsets.size):
        for i in range(m.size):
            key = (i, lo[j, i]) if t[j, i] == 0 else (i, "mixed", j)
            if key not in seen:
                seen.add(key)
                rows.append((i, j))
    (x_got, m_got), = passes
    i, j = np.array(rows).T
    assert x_got.tobytes() == X[i].tobytes()
    assert m_got.tobytes() == shifted[j, i].tobytes()
    # an edge event has one row
    assert np.bincount(i)[:4].tolist() == [1, 1, 1, 1]


def test_underflow_far_outside_support(toy_model):
    # far off the ridge both densities underflow to 0 and get the flag,
    # but the ratio comes from their logs: log p_sig is far below log p_bg,
    # so alpha is 0 and the events pass no threshold
    report = score_events(toy_model, (np.array([[60.0], [1e8]]), np.array([0.5, 0.5])),
                          ScoreConfig(sigma=0.15, thresholds=(1.5,)))
    assert report.underflow.all()
    assert np.all(np.isfinite(report.alphas))
    assert report.selections[1.5].size == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("call", ["score_events", "scan_profile", "summarize"])
def test_non_finite_conditional_is_an_input_error(toy_model, toy_dataset, call, bad):
    # each checks the batch before it uses m: a NaN conditional has a
    # dedupe key equal to no other, and would number no scan bin
    X, m = toy_dataset.event_arrays()
    X, m = X[:5], m[:5].copy()
    cfg = ScoreConfig(sigma=0.15)
    report = score_events(toy_model, (X, m), cfg)
    m[2] = bad
    calls = {
        "score_events": lambda: score_events(toy_model, (X, m), cfg),
        "scan_profile": lambda: scan_profile(report.alphas, m, 0.1),
        "summarize": lambda: summarize((X, m), np.arange(5), ["m", "x"]),
    }
    with pytest.raises(InputError, match="finite"):
        calls[call]()


def test_signal_smoothing_changes_the_numerator(toy_model, toy_dataset):
    X, m = toy_dataset.event_arrays()
    plain = ScoreConfig(sigma=0.15, thresholds=(1.5,))
    smooth = ScoreConfig(sigma=0.15, thresholds=(1.5,), signal_sigma=0.02)
    a = score_events(toy_model, (X[:10], m[:10]), plain)
    b = score_events(toy_model, (X[:10], m[:10]), smooth)
    assert np.array_equal(a.p_background, b.p_background)
    assert not np.array_equal(a.p_signal, b.p_signal)
    assert_allclose(a.p_signal, b.p_signal, rtol=0.25)


def test_summarize_by_hand():
    X = np.array([[1.0, 2.0], [3.0, 6.0]])
    m = np.array([10.0, 20.0])
    s = summarize((X, m), [0, 1], ["m", "a", "b"])
    assert s.n_selected == 2
    assert [st.name for st in s.stats] == ["m", "a", "b"]
    by_name = {st.name: st for st in s.stats}
    assert by_name["m"].mean == 15.0
    assert by_name["m"].std == pytest.approx(7.0710678118654755, abs=1e-14)
    assert by_name["m"].sem == pytest.approx(5.0, abs=1e-14)
    assert by_name["a"].mean == 2.0
    assert by_name["b"].sem == pytest.approx(2.0, abs=1e-14)


def test_summarize_edge_cases():
    X = np.array([[1.0], [2.0]])
    m = np.array([5.0, 6.0])
    empty = summarize((X, m), [], ["m", "x"])
    assert empty.n_selected == 0
    assert empty.stats == []
    single = summarize((X, m), [1], ["m", "x"])
    assert single.n_selected == 1
    assert single.stats[0].mean == 6.0
    assert single.stats[0].std == 0.0
    with pytest.raises(InputError):
        summarize((X, m), [0], ["just_m"])


def test_scan_profile_by_hand():
    alphas = np.array([1.0, 2.0, 4.0, 0.5])
    m = np.array([0.05, 0.15, 0.17, 0.35])
    rows = scan_profile(alphas, m, bin_width=0.1)
    assert len(rows) == 4
    assert rows[0].m_lo == 0.0 and rows[0].count == 1 and rows[0].alpha_max == 1.0
    assert rows[1].count == 2
    assert rows[1].alpha_max == 4.0
    # numpy linear-interpolated percentile between 2.0 and 4.0
    assert rows[1].alpha_p99 == pytest.approx(2.0 + 0.99 * 2.0, abs=1e-12)
    assert rows[2].count == 0
    assert rows[2].alpha_max is None and rows[2].alpha_p99 is None
    assert rows[3].count == 1


def test_scan_profile_empty_and_mismatched(toy_model):
    report = score_events(toy_model, (np.zeros((0, 1)), np.zeros(0)),
                          ScoreConfig(sigma=0.15, thresholds=(1.5,)))
    assert report.alphas.size == 0
    assert scan_profile(report.alphas, np.zeros(0), 0.1) == []
    with pytest.raises(InputError):
        scan_profile(report.alphas, np.arange(3.0), 0.1)


@given(st.floats(min_value=0.01, max_value=10.0),
       st.integers(min_value=2, max_value=24),
       st.floats(min_value=0.0, max_value=1.9))
def test_quadrature_weights_always_normalize(sigma, n_quad, excl_frac):
    cfg = ScoreConfig(sigma=sigma, n_quad=n_quad,
                      exclusion_halfwidth=excl_frac * sigma)
    offsets, weights = cfg.background_quadrature()
    assert offsets.size == weights.size
    assert np.all(np.abs(offsets) <= 2.0 * sigma + 1e-12)
    assert np.all(np.abs(offsets) >= excl_frac * sigma - 1e-12)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(weights > 0)


@given(st.floats(min_value=1e-3, max_value=1e4),
       st.integers(min_value=2, max_value=64),
       st.floats(min_value=0.0, max_value=1.9))
def test_quadrature_weights_match_norm_pdf_bit_for_bit(sigma, n_quad, excl_frac):
    offsets, weights = anomaly._quadrature(sigma, n_quad, excl_frac * sigma)
    expected = norm.pdf(offsets, scale=sigma)
    expected = expected / expected.sum()
    assert np.array_equal(weights.view(np.int64), expected.view(np.int64))
