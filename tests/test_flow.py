import dataclasses
import threading
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from overdensity import flow, transforms
from overdensity.anomaly import ScoreConfig, score_events
from overdensity.errors import ConfigError, FitError, InputError
from overdensity.flow import (FitConfig, FlowModel, _random_orthonormal, fit_gis, load_model,
                              save_model)
from overdensity.synth import LhcLikeConfig, generate_lhc_like
from overdensity.transforms import wasserstein_1d_to_gaussian


@pytest.fixture(scope="module")
def gauss2d_model(rng):
    """Flow fitted on correlated 2D Gaussian data with a mild m-dependence."""
    n = 8000
    m = rng.uniform(0.0, 1.0, n)
    base = rng.standard_normal((n, 2))
    x = np.empty((n, 2))
    x[:, 0] = base[:, 0] + 0.3 * m
    x[:, 1] = 0.6 * base[:, 0] + 0.8 * base[:, 1]
    cfg = FitConfig(n_iterations=4, n_conditional_bins=4, n_knots=24,
                    n_candidates=16, rng_seed=1)
    return fit_gis(x, m, cfg), x, m


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(11)


def _numerical_jacobian(model, x, m, h=1e-5):
    d = x.size
    jac = np.empty((d, d))
    for j in range(d):
        up = x.copy()
        dn = x.copy()
        up[j] += h
        dn[j] -= h
        z_up, _ = model.forward(up[None, :], np.array([m]))
        z_dn, _ = model.forward(dn[None, :], np.array([m]))
        jac[:, j] = (z_up[0] - z_dn[0]) / (2.0 * h)
    return jac


def test_layers_are_orthonormal(gauss2d_model):
    model, _, _ = gauss2d_model
    for layer in model.layers:
        w = layer.weights
        assert_allclose(w.T @ w, np.eye(w.shape[1]), atol=1e-12)


def test_forward_inverse_round_trip(gauss2d_model, rng):
    model, x, m = gauss2d_model
    idx = rng.choice(x.shape[0], 200, replace=False)
    z, _ = model.forward(x[idx], m[idx])
    back = model.inverse(z, m[idx])
    assert np.max(np.abs(back - x[idx])) < 1e-8


def test_forward_does_not_depend_on_row_order(gauss2d_model, rng):
    # scoring plans rows mixed-first and evaluates repeated rows once, so
    # each row's result must not depend on where it sits in the batch
    model, x, _ = gauss2d_model
    edges, centers = model.binning.edges, model.binning.centers
    m = np.concatenate([
        [edges[0] - 1.0, edges[0], 0.5 * (edges[0] + centers[0])],    # low edge
        centers,                                                       # t = 0
        0.5 * (centers[:-1] + centers[1:]),                            # mixed
        rng.uniform(centers[0], centers[-1], 40),                      # mixed
        [0.5 * (centers[-1] + edges[-1]), edges[-1], edges[-1] + 1.0],  # high edge
    ])
    X = x[:m.size]
    t = model.binning.interp_weights(m)[2]
    assert (t > 0).any() and (t == 0).any()
    z, log_det = model.forward(X, m)
    for perm in (rng.permutation(m.size), np.arange(m.size)[::-1]):
        z_p, log_det_p = model.forward(X[perm], m[perm])
        assert z_p.tobytes() == z[perm].tobytes()
        assert log_det_p.tobytes() == log_det[perm].tobytes()


def test_log_det_matches_finite_differences(gauss2d_model):
    model, x, m = gauss2d_model
    for i in (0, 123, 4567):
        _, log_det = model.forward(x[i][None, :], np.array([m[i]]))
        jac = _numerical_jacobian(model, x[i], m[i])
        _, fd_log_det = np.linalg.slogdet(jac)
        assert abs(log_det[0] - fd_log_det) < 1e-4


def test_density_normalizes_in_1d(toy_dataset):
    # quadrature over the feature axis at a fixed conditional
    cfg = FitConfig(n_iterations=4, n_conditional_bins=4, n_knots=24,
                    n_candidates=8, rng_seed=3)
    model = fit_gis(toy_dataset.features, toy_dataset.conditionals, cfg)
    grid = np.linspace(-6.0, 9.0, 4001)
    log_p = model.log_density(grid[None, :].T, np.full(grid.size, 0.5))
    mass = np.trapezoid(np.exp(log_p), grid)
    assert mass == pytest.approx(1.0, abs=0.02)


def test_density_tracks_the_conditional(toy_model):
    # the toy ridge sits at x = 1 + 0.5 m, so a point on the ridge for
    # m = 0.2 is well off it for m = 0.9
    x = np.array([[1.1]])
    on_ridge = toy_model.log_density(x, np.array([0.2]))[0]
    off_ridge = toy_model.log_density(x, np.array([0.9]))[0]
    assert on_ridge - off_ridge > 0.05


def test_one_dimensional_features_are_rows_everywhere(toy_model, toy_dataset):
    # fit, the maps and scoring read a 1-D x as n rows of one feature
    x, m = toy_dataset.features[:300], toy_dataset.conditionals[:300]
    assert x.shape == (300, 1)
    z, log_det = toy_model.forward(x, m)
    z1, log_det1 = toy_model.forward(x[:, 0], m)
    assert z1.tobytes() == z.tobytes() and log_det1.tobytes() == log_det.tobytes()
    assert toy_model.inverse(z[:, 0], m).tobytes() == toy_model.inverse(z, m).tobytes()
    assert (toy_model.log_density(x[:, 0], m).tobytes()
            == toy_model.log_density(x, m).tobytes())
    cfg = ScoreConfig(sigma=0.15)
    assert (score_events(toy_model, (x[:, 0], m), cfg).alphas.tobytes()
            == score_events(toy_model, (x, m), cfg).alphas.tobytes())
    # one row is a batch of one, with a scalar conditional too
    z_one, log_det_one = toy_model.forward(x[:1, 0], m[0])
    assert z_one.shape == (1, 1) and log_det_one.shape == (1,)
    assert toy_model.inverse(z[:1, 0], m[0]).shape == (1, 1)
    assert toy_model.log_density(x[:1, 0], m[0]).shape == (1,)
    assert toy_model.log_density(x[:1, 0], m[0])[0] == toy_model.log_density(x, m)[0]


def test_fit_progress_improves_each_iteration(toy_fit):
    _, progress = toy_fit
    assert len(progress) == 5
    # individual iterations may tick up by quantile-resampling noise once
    # the distance reaches the sample floor, but never meaningfully regress
    for before, after in progress:
        assert after < before + 2e-4
    assert progress[-1][1] < progress[0][0]


def test_fit_progress_reports_the_updated_rows_distance():
    # after is the summed slice W1 of the rows that iteration's update
    # left: the fitted model's first i + 1 layers map the data there, and
    # layer i's frame projects them onto its slice
    data = generate_lhc_like(LhcLikeConfig(n_background=6000, n_signal=0), seed=1)
    cfg = FitConfig(n_iterations=3, n_conditional_bins=4, n_knots=16, n_candidates=8,
                    rng_seed=2)
    progress = []
    model = fit_gis(data.features, data.conditionals, cfg,
                    on_iteration=lambda i, before, after: progress.append(after))
    assert len(progress) == 3
    for i, after in enumerate(progress):
        prefix = dataclasses.replace(model, layers=model.layers[:i + 1])
        z = prefix.forward(data.features, data.conditionals)[0]
        columns = wasserstein_1d_to_gaussian(z @ model.layers[i].weights, axis=0)
        assert after == pytest.approx(sum(columns.tolist()), rel=1e-12, abs=0)


def test_select_slice_prefers_the_non_gaussian_axis(rng):
    n = 6000
    data = rng.standard_normal((n, 3))
    # make axis 1 strongly bimodal
    data[:, 1] = np.where(rng.uniform(size=n) < 0.5, -2.0, 2.0) + 0.2 * data[:, 1]
    m = rng.uniform(size=n)
    model = fit_gis(data, m, FitConfig(n_iterations=1, n_slices=1, n_candidates=16))
    w = model.layers[0].weights
    assert w.shape == (3, 1)
    assert_allclose(w.T @ w, np.eye(1), atol=1e-12)
    # a single slice has no reason to stray from the bimodal axis, and the
    # axis-aligned candidate hits it exactly
    assert abs(w[1, 0]) == pytest.approx(1.0, abs=1e-12)


def test_fit_rejects_bad_inputs(rng):
    x = rng.standard_normal((500, 2))
    m = rng.uniform(size=500)
    bad = x.copy()
    bad[3, 1] = np.nan
    with pytest.raises(InputError):
        fit_gis(bad, m, FitConfig(n_iterations=1))
    flat = x.copy()
    flat[:, 1] = 7.0
    with pytest.raises(FitError, match="column 1"):
        fit_gis(flat, m, FitConfig(n_iterations=1, n_conditional_bins=2,
                                   n_knots=8, n_candidates=2))
    with pytest.raises(FitError):
        fit_gis(x[:40], m[:40], FitConfig(n_iterations=1))


def test_fit_config_validation():
    with pytest.raises(ConfigError):
        FitConfig(n_iterations=-1).validate(2)
    with pytest.raises(ConfigError):
        FitConfig(n_knots=4).validate(2)
    with pytest.raises(ConfigError):
        FitConfig(n_conditional_bins=1).validate(2)
    with pytest.raises(ConfigError):
        FitConfig(n_slices=5).validate(2)  # more slices than dimensions


def test_fit_is_deterministic(rng):
    x = rng.standard_normal((3000, 2))
    m = rng.uniform(size=3000)
    cfg = FitConfig(n_iterations=3, n_conditional_bins=3, n_knots=16,
                    n_candidates=8, rng_seed=5)
    a = fit_gis(x, m, cfg)
    b = fit_gis(x, m, cfg)
    probe_x = x[:50]
    probe_m = m[:50]
    assert np.array_equal(a.log_density(probe_x, probe_m),
                          b.log_density(probe_x, probe_m))
    c = fit_gis(x, m, FitConfig(n_iterations=3, n_conditional_bins=3,
                                n_knots=16, n_candidates=8, rng_seed=6))
    assert not np.array_equal(a.log_density(probe_x, probe_m),
                              c.log_density(probe_x, probe_m))


@pytest.mark.parametrize("n_candidates", [1, 16])
def test_model_does_not_depend_on_the_worker_count(monkeypatch, tmp_path, n_candidates):
    # the fit scores its candidate frames in consecutive groups on a pool
    # of one thread per CPU, and the update maps each slice over row blocks
    # of at most flow._BLOCK_ROWS rows, as many for each worker; more
    # workers than candidates leave some workers without a group, and caps
    # of 64 and 1,000 rows cut the 3,000 rows into several unequal blocks
    # per worker.  The progress reads the updated rows' slices, so it must
    # match too.
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3000, 3)) ** 3
    m = rng.uniform(size=3000)
    cfg = FitConfig(n_iterations=3, n_slices=2, n_conditional_bins=3, n_knots=16,
                    n_candidates=n_candidates, rng_seed=4)
    fits = []
    for workers, block_rows in product((1, 2, 3, n_candidates + 5),
                                       (flow._BLOCK_ROWS, 64, 1000)):
        monkeypatch.setattr(flow, "_cpu_count", lambda workers=workers: workers)
        monkeypatch.setattr(flow, "_BLOCK_ROWS", block_rows)
        threads = threading.active_count()
        progress = []
        model = fit_gis(x, m, cfg, on_iteration=lambda i, b, a: progress.append((i, b, a)))
        assert threading.active_count() == threads  # no pool thread outlives the fit
        path = tmp_path / f"workers{workers}_rows{block_rows}.txt"
        save_model(model, str(path))
        fits.append((path.read_bytes(), progress))
    assert all(fit == fits[0] for fit in fits[1:])


def test_fit_working_memory_is_bounded(monkeypatch):
    # the fit holds a fixed number of n-row arrays (the standardised rows,
    # one K x n search buffer per worker, a layer's slice coordinates and
    # their transforms) plus row blocks of at most flow._BLOCK_ROWS rows.
    # This fit at two workers peaked at 9.5 times the feature matrix above
    # its entry; with a fresh projection and a sorted copy per candidate,
    # one row block per worker and an update that was not in place, 15.2.
    # Uncapped blocks alone read 13.5, and a layer's slice arrays kept
    # through the next search 11.5.
    monkeypatch.setattr(flow, "_cpu_count", lambda: 2)
    data = generate_lhc_like(LhcLikeConfig(n_background=100_000, n_signal=0), seed=0)
    cfg = FitConfig(n_iterations=2, n_conditional_bins=40, n_knots=64, rng_seed=0)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        fit_gis(data.features, data.conditionals, cfg)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak <= 11 * data.features.nbytes


def test_fit_caches_no_sample_size_quantiles():
    # the plotting quantiles of the fit's n-row samples (16 bytes a row,
    # cached per sample size before) are computed once per fit and dropped
    # with it; only the knot count's levels stay cached
    data = generate_lhc_like(LhcLikeConfig(n_background=100_000, n_signal=0), seed=0)
    transforms._knot_levels.cache_clear()
    progress = []
    fit_gis(data.features, data.conditionals,
            FitConfig(n_iterations=1, n_conditional_bins=10, n_knots=16),
            on_iteration=lambda *scores: progress.append(scores))
    assert len(progress) == 1
    cached = transforms._knot_levels.cache_info()
    assert cached.currsize == 1
    transforms._knot_levels(16)
    assert transforms._knot_levels.cache_info().hits == cached.hits + 1


@pytest.mark.parametrize("seed", [0, 3, 2024])
@pytest.mark.parametrize("n, d, k", [(1, 1, 1), (5, 3, 2), (16, 4, 4), (64, 6, 3), (7, 5, 1)])
def test_stacked_frames_match_the_per_frame_draw(seed, n, d, k):
    frames = _random_orthonormal(np.random.default_rng(seed), n, d, k)
    assert frames.shape == (n, d, k)
    rng = np.random.default_rng(seed)
    for frame in frames:
        Q, R = np.linalg.qr(rng.standard_normal((d, k)))
        sign = np.sign(np.diag(R))
        sign[sign == 0] = 1.0
        assert frame.tobytes() == (Q * sign).tobytes()


def test_save_load_round_trip(gauss2d_model, tmp_path):
    model, x, m = gauss2d_model
    path = tmp_path / "model.txt"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded.dim == model.dim
    assert np.array_equal(loaded.log_density(x[:100], m[:100]),
                          model.log_density(x[:100], m[:100]))
    # saving the loaded model reproduces the file byte for byte
    path2 = tmp_path / "model2.txt"
    save_model(loaded, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_save_load_save_keeps_mixed_knot_counts(tmp_path):
    # features with six and eleven values tie the quantiles, so merged
    # knots leave transforms of several knot counts, which load builds
    # count by count
    rng = np.random.default_rng(11)
    x = np.column_stack([rng.standard_normal(3000), rng.integers(0, 6, 3000),
                         rng.integers(0, 11, 3000)])
    m = rng.uniform(size=3000)
    model = fit_gis(x, m, FitConfig(n_iterations=2, n_conditional_bins=3, n_knots=16,
                                    n_candidates=4))
    counts = np.concatenate([table.n_knots for layer in model.layers
                             for table in layer.tables])
    assert len(set(counts.tolist())) >= 3
    path = tmp_path / "model.txt"
    save_model(model, str(path))
    loaded = load_model(str(path))
    # the loaded tables hold the fitted tables' doubles, bit for bit
    for fitted, again in zip(model.layers, loaded.layers):
        for a, b in zip(fitted.tables, again.tables):
            for name in ("segments", "edges", "n_knots", "floor"):
                u, v = np.asarray(getattr(a, name)), np.asarray(getattr(b, name))
                assert (u.dtype, u.shape) == (v.dtype, v.shape)
                assert u.tobytes() == v.tobytes(), name
    assert np.array_equal(loaded.log_density(x, m), model.log_density(x, m))
    path2 = tmp_path / "model2.txt"
    save_model(loaded, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_load_rejects_malformed_files(tmp_path, gauss2d_model):
    model, _, _ = gauss2d_model
    path = tmp_path / "model.txt"
    save_model(model, str(path))
    lines = path.read_text().splitlines()

    truncated = tmp_path / "truncated.txt"
    truncated.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    with pytest.raises(InputError):
        load_model(str(truncated))

    wrong_header = tmp_path / "header.txt"
    wrong_header.write_text("\n".join(["NOTAMODEL v9", *lines[1:]]) + "\n")
    with pytest.raises(InputError):
        load_model(str(wrong_header))

    with pytest.raises(InputError):
        load_model(str(tmp_path / "nonexistent.txt"))


@pytest.fixture(scope="module")
def small_model_file(tmp_path_factory):
    """A valid 2D model file of a few kilobytes, plus a path to write copies to."""
    rng = np.random.default_rng(5)
    model = fit_gis(rng.standard_normal((400, 2)), rng.uniform(size=400),
                    FitConfig(n_iterations=1, n_conditional_bins=2, n_knots=8,
                              n_candidates=2))
    root = tmp_path_factory.mktemp("mutations")
    save_model(model, str(root / "model.txt"))
    return (root / "model.txt").read_bytes(), root / "mutated.txt"


@given(st.data())
def test_byte_mutation_loads_or_raises_input_error(small_model_file, data):
    original, path = small_model_file
    at = data.draw(st.integers(0, len(original) - 1), label="position")
    value = data.draw(st.integers(0, 255), label="byte")
    path.write_bytes(original[:at] + bytes([value]) + original[at + 1:])
    try:
        model = load_model(str(path))
    except InputError:
        return
    assert isinstance(model, FlowModel)


def test_forward_rejects_wrong_width(gauss2d_model):
    model, _, _ = gauss2d_model
    with pytest.raises(InputError):
        model.forward(np.zeros((4, 3)), np.zeros(4))
    with pytest.raises(InputError):
        model.log_density(np.zeros((4, 2)), np.zeros(3))
    with pytest.raises(InputError):
        model.log_density(np.array([[0.0, np.inf]]), np.zeros(1))
