import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import overdensity
from overdensity import cli, synth
from overdensity.anomaly import ScoreConfig
from overdensity.cli import main
from overdensity.dataio import file_sha256
from overdensity.flow import FitConfig, load_model


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One small synth -> fit -> score run shared by the assertions below."""
    root = tmp_path_factory.mktemp("pipeline")
    synth_dir = root / "data"
    scores_dir = root / "scores"
    model = root / "model.txt"
    assert main(["synth", "toy", "--out-dir", str(synth_dir),
                 "--n-background", "2000", "--n-signal", "20", "--seed", "5"]) == 0
    assert main(["fit", "--features", str(synth_dir / "features.csv"),
                 "--model-out", str(model), "--iterations", "2", "--bins", "3",
                 "--knots", "12", "--candidates", "4", "--quiet"]) == 0
    assert main(["score", "--features", str(synth_dir / "features.csv"),
                 "--model", str(model), "--out-dir", str(scores_dir),
                 "--sigma", "0.15", "--scan-bin-width", "0.25"]) == 0
    return root


def test_pipeline_outputs_exist(pipeline_dir):
    data = pipeline_dir / "data"
    scores = pipeline_dir / "scores"
    for f in ("features.csv", "labels.csv", "manifest.json"):
        assert (data / f).exists()
    for f in ("scores.csv", "scan.csv", "summary.txt", "manifest.json"):
        assert (scores / f).exists()
    assert (pipeline_dir / "model.txt").exists()
    assert (pipeline_dir / "model.txt.manifest.json").exists()


def test_scores_file_shape(pipeline_dir):
    lines = (pipeline_dir / "scores" / "scores.csv").read_text().splitlines()
    assert lines[0] == "event_id,m,alpha,p_signal,p_background,clamped_flag"
    assert len(lines) == 2021


def test_summary_mentions_each_threshold(pipeline_dir):
    text = (pipeline_dir / "scores" / "summary.txt").read_text()
    for thr in ("1.5", "2.5", "5"):
        assert f"alpha > {thr}" in text
    # every populated cut lists mean +/- sem per column
    assert ("±" in text) or ("no events pass cut" in text)


def test_manifests_record_hashes_and_config(pipeline_dir):
    manifest = json.loads((pipeline_dir / "scores" / "manifest.json").read_text())
    assert manifest["command"] == "score"
    assert manifest["config"]["sigma"] == 0.15
    features_entry = manifest["inputs"][0]
    assert features_entry["sha256"] == file_sha256(
        str(pipeline_dir / "data" / "features.csv"))
    assert manifest["counts"]["scored"] == 2020
    fit_manifest = json.loads(
        (pipeline_dir / "model.txt.manifest.json").read_text())
    assert fit_manifest["config"]["iterations"] == 2
    assert fit_manifest["seed"] == 0


def test_model_file_loads(pipeline_dir):
    model = load_model(str(pipeline_dir / "model.txt"))
    assert model.dim == 1
    assert len(model.layers) == 2


def test_synth_rerun_is_identical(pipeline_dir, tmp_path):
    again = tmp_path / "again"
    assert main(["synth", "toy", "--out-dir", str(again),
                 "--n-background", "2000", "--n-signal", "20", "--seed", "5"]) == 0
    assert file_sha256(str(again / "features.csv")) == file_sha256(
        str(pipeline_dir / "data" / "features.csv"))


def test_score_threads_do_not_change_output(pipeline_dir, tmp_path):
    out = tmp_path / "threaded"
    assert main(["score", "--features", str(pipeline_dir / "data" / "features.csv"),
                 "--model", str(pipeline_dir / "model.txt"), "--out-dir", str(out),
                 "--sigma", "0.15", "--scan-bin-width", "0.25",
                 "--threads", "3"]) == 0
    assert file_sha256(str(out / "scores.csv")) == file_sha256(
        str(pipeline_dir / "scores" / "scores.csv"))
    assert file_sha256(str(out / "scan.csv")) == file_sha256(
        str(pipeline_dir / "scores" / "scan.csv"))


def test_missing_input_exits_1(tmp_path, capsys):
    assert main(["fit", "--features", str(tmp_path / "nope.csv"),
                 "--model-out", str(tmp_path / "m.txt")]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("line, replacement", [
    ("layers 2 slices 1", ""),  # blank layer header
    ("layer 0", ""),            # blank layer tag
    ("dim 1", "dim x"),         # non-numeric field
    # the model is 1D: one shift, one scale and a 1 x 1 slice matrix
    pytest.param(r"shift \S+", "shift", id="shift one value short"),
    pytest.param(r"scale \S+", "scale 0", id="zero scale"),
    pytest.param(r"layer 0\n\S+", "layer 0\nnan", id="nan in a slice matrix"),
    pytest.param(r"edges \S+(.*)", r"edges nan\1", id="nan in edges"),
])
def test_malformed_model_exits_1(pipeline_dir, tmp_path, capsys, line, replacement):
    """line is a regular expression for whole model-file lines, and
    replacement its re.sub replacement."""
    text = (pipeline_dir / "model.txt").read_text()
    pattern = f"\n{line}\n"
    assert re.search(pattern, text)
    bad = tmp_path / "bad.txt"
    bad.write_text(re.sub(pattern, f"\n{replacement}\n", text, count=1))
    code = main(["score", "--features", str(pipeline_dir / "data" / "features.csv"),
                 "--model", str(bad), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("which", ["model", "features"])
def test_undecodable_byte_exits_1(pipeline_dir, tmp_path, capsys, which):
    paths = {"model": pipeline_dir / "model.txt",
             "features": pipeline_dir / "data" / "features.csv"}
    data = bytearray(paths[which].read_bytes())
    data[len(data) // 2] = 0xFF
    paths[which] = tmp_path / paths[which].name
    paths[which].write_bytes(bytes(data))
    code = main(["score", "--features", str(paths["features"]),
                 "--model", str(paths["model"]), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_unknown_config_key_exits_2(pipeline_dir, tmp_path, capsys):
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("bogus = 1\n")
    code = main(["fit", "--features", str(pipeline_dir / "data" / "features.csv"),
                 "--model-out", str(tmp_path / "m.txt"), "--config", str(cfg)])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_config_file_and_flag_precedence(pipeline_dir, tmp_path):
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("# comment line\niterations = 3\nknots = 12\nbins = 3\ncandidates = 4\n")
    model_a = tmp_path / "a.txt"
    assert main(["fit", "--features", str(pipeline_dir / "data" / "features.csv"),
                 "--model-out", str(model_a), "--config", str(cfg), "--quiet"]) == 0
    assert len(load_model(str(model_a)).layers) == 3  # file value applies
    model_b = tmp_path / "b.txt"
    assert main(["fit", "--features", str(pipeline_dir / "data" / "features.csv"),
                 "--model-out", str(model_b), "--config", str(cfg),
                 "--iterations", "1", "--quiet"]) == 0
    assert len(load_model(str(model_b)).layers) == 1  # flag wins over file


def test_dimension_mismatch_exits_2(pipeline_dir, tmp_path, capsys):
    four_col = tmp_path / "four.csv"
    assert main(["synth", "lhc", "--out-dir", str(tmp_path / "lhc"),
                 "--n-background", "300", "--n-signal", "3", "--seed", "1"]) == 0
    code = main(["score", "--features", str(tmp_path / "lhc" / "features.csv"),
                 "--model", str(pipeline_dir / "model.txt"),
                 "--out-dir", str(tmp_path / "mismatch")])
    assert code == 2
    assert "expects 1 features" in capsys.readouterr().err


def test_empty_features_score_is_clean(pipeline_dir, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("event_id,m,x1\n")
    out = tmp_path / "empty_scores"
    assert main(["score", "--features", str(empty),
                 "--model", str(pipeline_dir / "model.txt"),
                 "--out-dir", str(out), "--sigma", "0.15"]) == 0
    assert (out / "scores.csv").read_text().splitlines() == [
        "event_id,m,alpha,p_signal,p_background,clamped_flag"]
    assert "no events to score" in (out / "summary.txt").read_text()


def test_features_command_window_and_rejections(tmp_path):
    particles = tmp_path / "particles.csv"
    # ev_wide: two clear jets with substructure but low pair mass;
    # ev_thin: a single particle, rejected outright
    particles.write_text("event_id,pt,eta,phi\n"
                         "ev_wide,300.0,0.0,0.0\n"
                         "ev_wide,90.0,0.3,0.2\n"
                         "ev_wide,280.0,0.4,3.0\n"
                         "ev_wide,80.0,0.6,2.8\n"
                         "ev_thin,50.0,0.0,1.0\n")

    windowed = tmp_path / "windowed.csv"
    assert main(["features", "--particles", str(particles),
                 "--out", str(windowed)]) == 0
    manifest = json.loads((tmp_path / "windowed.csv.manifest.json").read_text())
    assert manifest["counts"]["events_read"] == 2
    assert manifest["counts"]["fewer_than_two_jets"] == 1
    assert manifest["counts"]["outside_window"] == 1  # pair mass ~ 600, not in window
    assert len(windowed.read_text().splitlines()) == 1

    unwindowed = tmp_path / "all.csv"
    assert main(["features", "--particles", str(particles),
                 "--out", str(unwindowed), "--no-window"]) == 0
    lines = unwindowed.read_text().splitlines()
    assert lines[0] == "event_id,m_jj,m_j1,dm,tau21_1,tau21_2"
    assert len(lines) == 2
    assert lines[1].split(",")[0] == "ev_wide"


def test_synth_lhc_writes_resonance_config(tmp_path):
    out = tmp_path / "lhc"
    assert main(["synth", "lhc", "--out-dir", str(out), "--n-background", "500",
                 "--n-signal", "50", "--mass", "3000", "--seed", "2"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["resonance"][0] == 3000.0
    header = (out / "features.csv").read_text().splitlines()[0]
    assert header == "event_id,m_jj,m_j1,dm,tau21_1,tau21_2"


def test_commands_without_flags_record_the_config_defaults(pipeline_dir, tmp_path,
                                                            monkeypatch):
    # the fit and the generators are stubbed with small ones; what they
    # were asked for is recorded, and must be the config dataclasses' defaults
    asked = {}

    def small_fit(X, m, cfg, on_iteration):
        asked["fit"] = cfg
        return load_model(str(pipeline_dir / "model.txt"))

    def small(name, generate, small_config):
        def run(config, seed):
            asked[name] = config
            return generate(config=small_config, seed=seed)
        return run

    monkeypatch.setattr(cli, "fit_gis", small_fit)
    monkeypatch.setattr(synth, "generate_toy", small(
        "toy", synth.generate_toy, synth.ToyConfig(n_background=200, n_signal=2)))
    monkeypatch.setattr(synth, "generate_lhc_like", small(
        "lhc", synth.generate_lhc_like, synth.LhcLikeConfig(n_background=200, n_signal=2)))
    features = str(pipeline_dir / "data" / "features.csv")
    model = tmp_path / "model.txt"
    assert main(["fit", "--features", features, "--model-out", str(model), "--quiet"]) == 0
    assert main(["score", "--features", features, "--model", str(model),
                 "--out-dir", str(tmp_path / "scores")]) == 0
    for generator in ("toy", "lhc"):
        assert main(["synth", generator, "--out-dir", str(tmp_path / generator)]) == 0

    def config(path):
        return json.loads((tmp_path / path).read_text())["config"]

    fit = FitConfig()
    assert asked["fit"] == fit
    assert config("model.txt.manifest.json") == {
        "iterations": fit.n_iterations, "slices": fit.n_slices,
        "bins": fit.n_conditional_bins, "knots": fit.n_knots,
        "candidates": fit.n_candidates, "derivative_floor": fit.derivative_floor,
        "seed": fit.rng_seed}
    score = ScoreConfig()
    assert config("scores/manifest.json") == {
        "sigma": score.sigma, "n_quad": score.n_quad,
        "exclusion": score.exclusion_halfwidth, "signal_sigma": score.signal_sigma,
        "thresholds": list(score.thresholds), "scan_bin_width": 100.0, "threads": 1}
    toy = synth.ToyConfig()
    assert asked["toy"] == toy
    assert config("toy/manifest.json") == {
        "n_background": toy.n_background, "n_signal": toy.n_signal,
        "m_range": list(toy.m_range), "signal_m": toy.signal_m,
        "signal_m_width": toy.signal_m_width, "signal_x_width": list(toy.signal_x_width)}
    lhc = synth.LhcLikeConfig()
    assert asked["lhc"] == lhc
    assert config("lhc/manifest.json") == {
        "n_background": lhc.n_background, "n_signal": lhc.n_signal,
        "resonance": [lhc.resonance.mass, lhc.resonance.m_j1, lhc.resonance.m_j2]}


def test_bad_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["score", "--nonsense"])
    assert exc.value.code == 2


def test_cli_import_leaves_scipy_stats_and_interpolate_out():
    # both cost about half a second and 40 MB on every run; the package
    # needs neither (tests use them as oracles)
    src = os.path.dirname(os.path.dirname(overdensity.__file__))
    probe = ("import sys, overdensity.cli; "
             "print(sorted(m for m in ('scipy.stats', 'scipy.interpolate') "
             "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.strip() == "[]"
