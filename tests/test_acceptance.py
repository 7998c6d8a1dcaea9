"""End-to-end acceptance checks, one test per guarantee.

Each test pins its own dataset seed and fit configuration so failures are
reproducible; tolerances are stated inline next to each assertion.  These run
slower than the unit suites (the resonance recovery fits and scores a
100k-event sample) but the whole module stays within a few minutes.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from overdensity import (
    FitConfig,
    LhcLikeConfig,
    ScoreConfig,
    ToyConfig,
    fit_gis,
    generate_lhc_like,
    generate_toy,
    scan_profile,
    score_events,
    summarize,
)
from overdensity.cli import main
from overdensity.dataio import file_sha256
from overdensity.jets import Particle, cluster_antikt, tau21
from reference_clustering import ref_cluster


# -- 1. flow correctness -------------------------------------------------------


def test_flow_correctness():
    rng = np.random.default_rng(0)
    n = 20_000
    m = rng.uniform(0.0, 1.0, n)
    g = rng.standard_normal((n, 2))
    x = np.empty((n, 2))
    x[:, 0] = g[:, 0] + 0.3 * m
    x[:, 1] = 0.6 * g[:, 0] + 0.8 * g[:, 1] + 0.1 * g[:, 0] ** 2
    model = fit_gis(x, m, FitConfig(n_iterations=5, n_conditional_bins=4,
                                    n_knots=32, n_candidates=32, rng_seed=0))

    # orthonormal slices: max |W^T W - I| < 1e-10
    for layer in model.layers:
        w = layer.weights
        assert np.max(np.abs(w.T @ w - np.eye(w.shape[1]))) < 1e-10

    # invertibility: forward-then-inverse recovers inputs to < 1e-6
    idx = rng.choice(n, 500, replace=False)
    z, log_det = model.forward(x[idx], m[idx])
    assert np.max(np.abs(model.inverse(z, m[idx]) - x[idx])) < 1e-6

    # analytic log-det matches central finite differences to < 1e-4
    h = 1e-5
    for i in idx[:5]:
        jac = np.empty((2, 2))
        for j in range(2):
            up, dn = x[i].copy(), x[i].copy()
            up[j] += h
            dn[j] -= h
            zu, _ = model.forward(up[None, :], m[i : i + 1])
            zd, _ = model.forward(dn[None, :], m[i : i + 1])
            jac[:, j] = (zu[0] - zd[0]) / (2 * h)
        _, fd = np.linalg.slogdet(jac)
        _, analytic = model.forward(x[i][None, :], m[i : i + 1])
        assert abs(analytic[0] - fd) < 1e-4

    # density normalization by 2D grid quadrature: mass = 1 +/- 0.03
    lo = x.min(axis=0) - 6.0 * x.std(axis=0)
    hi = x.max(axis=0) + 6.0 * x.std(axis=0)
    g0 = np.linspace(lo[0], hi[0], 401)
    g1 = np.linspace(lo[1], hi[1], 401)
    xx, yy = np.meshgrid(g0, g1, indexing="ij")
    grid = np.column_stack([xx.ravel(), yy.ravel()])
    log_p = model.log_density(grid, np.full(grid.shape[0], 0.5))
    mass = np.trapezoid(
        np.trapezoid(np.exp(log_p).reshape(401, 401), g1, axis=1), g0)
    assert mass == pytest.approx(1.0, abs=0.03)


# -- 2. gaussianization of hard marginals --------------------------------------


def test_gaussianization_of_lognormal_and_bimodal_marginals():
    rng = np.random.default_rng(1)
    n = 40_000
    x = rng.standard_normal((n, 5))
    x[:, 0] = np.exp(0.5 * x[:, 0])                      # log-normal marginal
    x[:, 1] = np.where(rng.uniform(size=n) < 0.5, -2.0, 2.0) + 0.3 * x[:, 1]
    m = rng.uniform(0.0, 1.0, n)
    progress = []
    model = fit_gis(x, m, FitConfig(n_iterations=12, n_conditional_bins=2, rng_seed=1),
                    on_iteration=lambda i, before, after: progress.append((before, after)))

    # after fitting, the mapped data is Gaussian along every direction the
    # fit ever selected: sliced distance < 0.05 per direction
    from overdensity.transforms import wasserstein_1d_to_gaussian

    z, _ = model.forward(x, m)
    for layer in model.layers:
        for k in range(layer.weights.shape[1]):
            w1 = wasserstein_1d_to_gaussian(z @ layer.weights[:, k])
            assert w1 < 0.05
    for axis in range(5):
        assert wasserstein_1d_to_gaussian(z[:, axis]) < 0.05

    # the per-iteration distance decreases: within an iteration the update
    # never loses more than resampling noise (2e-4), and the series of
    # pre-update totals is non-increasing to within 1e-3
    befores = [b for b, _ in progress]
    for before, after in progress:
        assert after <= before + 2e-4
    for prev, nxt in zip(befores, befores[1:]):
        assert nxt <= prev + 1e-3
    assert progress[-1][1] < 0.25 * befores[0]


# -- 3. smooth-background null -------------------------------------------------


def test_smooth_background_null_scores_near_one():
    ds = generate_toy(ToyConfig(n_background=50_000, n_signal=0), seed=0)
    model = fit_gis(ds.features, ds.conditionals,
                    FitConfig(n_iterations=6, n_conditional_bins=8, n_knots=32,
                              n_candidates=16, rng_seed=0))
    report = score_events(model, ds.event_arrays(),
                          ScoreConfig(sigma=0.15, thresholds=(1.5,)))
    median = float(np.median(report.alphas))
    p99 = float(np.percentile(report.alphas, 99))
    assert 0.85 < median < 1.15
    assert p99 < 2.0


# -- 4. toy signal recovery ----------------------------------------------------


def test_toy_signal_recovery():
    ds = generate_toy(ToyConfig(n_background=50_000, n_signal=500), seed=0)
    model = fit_gis(ds.features, ds.conditionals,
                    FitConfig(n_iterations=6, n_conditional_bins=8, n_knots=32,
                              n_candidates=16, rng_seed=0))
    report = score_events(model, ds.event_arrays(), ScoreConfig(sigma=0.15))
    is_signal = ds.labels == 1

    mean_signal_alpha = report.alphas[is_signal].mean()
    background_p95 = np.percentile(report.alphas[~is_signal], 95)
    assert mean_signal_alpha > background_p95

    # a cut selecting at most 1500 of the 50500 events keeps >= 50% of the
    # injected signal; the loosest standard cut already does
    selection = report.selections[1.5]
    assert selection.size <= 1500
    recall = np.sum(is_signal[selection]) / 500
    assert recall >= 0.5


# -- 5. collider-like end-to-end recovery --------------------------------------


def test_resonance_recovery_end_to_end():
    resonance_mass, heavy_mass, mass_gap = 3823.0, 732.0, 354.0
    ds = generate_lhc_like(
        config=LhcLikeConfig(n_background=100_000, n_signal=200), seed=0)
    model = fit_gis(ds.features, ds.conditionals,
                    FitConfig(n_iterations=8, n_conditional_bins=40, rng_seed=0))
    report = score_events(model, ds.event_arrays(), ScoreConfig(sigma=250.0),
                          threads=4)

    # the most anomalous 100-unit mass bin brackets the injected resonance
    rows = scan_profile(report.alphas, ds.conditionals, bin_width=100.0)
    peak = max((r for r in rows if r.count), key=lambda r: r.alpha_max)
    assert peak.m_lo <= resonance_mass < peak.m_hi

    # inside that mass window, an alpha cut keeping the top 80 events
    # (>= 50 required) reproduces the injected masses
    center = 0.5 * (peak.m_lo + peak.m_hi)
    in_window = (np.abs(ds.conditionals - center) < 150.0)
    order = np.argsort(report.alphas)[::-1]
    selection = order[in_window[order]][:80]
    assert selection.size >= 50
    summary = summarize(ds.event_arrays(), selection,
                        ["m_jj", "m_j1", "dm", "tau21_1", "tau21_2"])
    means = {s.name: s.mean for s in summary.stats}
    assert means["m_jj"] == pytest.approx(resonance_mass, abs=50.0)
    assert means["m_j1"] == pytest.approx(heavy_mass, abs=30.0)
    assert means["dm"] == pytest.approx(mass_gap, abs=30.0)


# -- 6. jets against the brute-force oracle ------------------------------------


def test_jets_match_brute_force_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        particles = [Particle(pt=float(rng.uniform(0.5, 500.0)),
                              eta=float(rng.uniform(-4.0, 4.0)),
                              phi=float(rng.uniform(-math.pi, math.pi)),
                              mass=float(rng.choice([0.0, 0.1396, 0.4937])))
                     for _ in range(n)]
        jets = cluster_antikt(particles, R=1.0)
        ref = ref_cluster(particles, R=1.0)
        assert [sorted(j.constituent_indices) for j in jets] == \
            [sorted(j.indices) for j in ref]
        for a, b in zip(jets, ref):
            assert_allclose([a.e, a.px, a.py, a.pz],
                            [b.e, b.px, b.py, b.pz], rtol=1e-12, atol=1e-12)

    # analytic pair-mass case: back-to-back massless pt=100 gives M = 200
    pair = cluster_antikt([Particle(100.0, 0.0, 0.0),
                           Particle(100.0, 0.0, math.pi)], R=1.0)
    e = pair[0].e + pair[1].e
    p = np.array([pair[0].px + pair[1].px, pair[0].py + pair[1].py,
                  pair[0].pz + pair[1].pz])
    assert math.sqrt(e * e - p @ p) == pytest.approx(200.0, abs=1e-9)

    # two-prong limit: a jet of exactly two constituents has tau21 = 0
    prongs = cluster_antikt([Particle(80.0, -0.3, 0.1),
                             Particle(80.0, 0.3, -0.1)], R=1.0)[0]
    assert tau21(prongs) == pytest.approx(0.0, abs=1e-12)


# -- 7. pipeline determinism ---------------------------------------------------


def _run_pipeline(root, threads):
    data = root / "data"
    scores = root / f"scores_t{threads}"
    model = root / "model.txt"
    assert main(["synth", "toy", "--out-dir", str(data),
                 "--n-background", "3000", "--n-signal", "30", "--seed", "11"]) == 0
    assert main(["fit", "--features", str(data / "features.csv"),
                 "--model-out", str(model), "--iterations", "3", "--bins", "4",
                 "--knots", "16", "--candidates", "8", "--quiet"]) == 0
    assert main(["score", "--features", str(data / "features.csv"),
                 "--model", str(model), "--out-dir", str(scores),
                 "--sigma", "0.15", "--scan-bin-width", "0.25",
                 "--threads", str(threads)]) == 0
    return {
        "features": file_sha256(str(data / "features.csv")),
        "labels": file_sha256(str(data / "labels.csv")),
        "model": file_sha256(str(model)),
        "scores": file_sha256(str(scores / "scores.csv")),
        "scan": file_sha256(str(scores / "scan.csv")),
        "summary": file_sha256(str(scores / "summary.txt")),
        "synth_manifest": file_sha256(str(data / "manifest.json")),
        "fit_manifest": file_sha256(str(model) + ".manifest.json"),
    }


def test_pipeline_determinism(tmp_path):
    first = _run_pipeline(tmp_path, threads=1)
    second = _run_pipeline(tmp_path, threads=1)  # same paths, full rerun
    assert first == second

    # a different thread count changes scheduling, never results
    threaded = _run_pipeline(tmp_path, threads=3)
    for key in ("scores", "scan", "summary", "model", "features", "labels"):
        assert threaded[key] == first[key]
