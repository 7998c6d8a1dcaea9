import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import overdensity
from overdensity import anomaly, cli, dataio, flow, synth
from overdensity.anomaly import ScoreConfig
from overdensity.cli import main
from overdensity.dataio import file_sha256, read_features
from overdensity.flow import FitConfig, load_model
from overdensity.jets import Particle, extract_features


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
    for name in ("scores.csv", "scan.csv", "summary.txt"):
        assert file_sha256(str(out / name)) == file_sha256(
            str(pipeline_dir / "scores" / name)), name


def _manifest_facts(path):
    """A score manifest without the paths, hashes and thread count that
    differ between runs on copies of one input."""
    manifest = json.loads(path.read_text())
    manifest["config"].pop("threads")
    for entry in manifest["inputs"] + manifest["outputs"]:
        entry.pop("path")
        entry.pop("sha256", None)
    return manifest


@pytest.mark.parametrize("threads", [1, 3])
def test_score_by_groups_writes_the_same_files(pipeline_dir, tmp_path, monkeypatch, threads):
    # score reads, scores and writes one group of chunks at a time; here
    # 2020 events in blocks of 7 lines and groups of 4 chunks of 64 events
    # per thread, so groups end inside blocks, against one group of the
    # whole file.  A copy with a blank line after every 100th goes through
    # the row-by-row parse.
    features = pipeline_dir / "data" / "features.csv"
    blank = tmp_path / "blank.csv"
    blank.write_bytes(b"".join(line + b"\r\n" * (i % 100 == 99) for i, line in
                               enumerate(features.read_bytes().splitlines(keepends=True))))
    monkeypatch.setattr(dataio, "_PARSE_LINES", 7)
    monkeypatch.setattr(anomaly, "_CHUNK_ROWS", 64)
    monkeypatch.setattr(cli, "_GROUP_CHUNKS", 4)
    groups = []
    score_events = anomaly.score_events
    monkeypatch.setattr(anomaly, "score_events", lambda model, events, *args, **kwargs: (
        groups.append(len(events[1])) or score_events(model, events, *args, **kwargs)))
    ref = pipeline_dir / "scores"
    for path in (features, blank):
        out = tmp_path / path.stem
        groups.clear()
        assert main(["score", "--features", str(path), "--model", str(pipeline_dir / "model.txt"),
                     "--out-dir", str(out), "--sigma", "0.15", "--scan-bin-width", "0.25",
                     "--threads", str(threads)]) == 0
        size = 256 * threads
        assert groups == [size] * (2020 // size) + [2020 % size]
        for name in ("scores.csv", "scan.csv", "summary.txt"):
            assert (out / name).read_bytes() == (ref / name).read_bytes(), (path, name)
        assert _manifest_facts(out / "manifest.json") == _manifest_facts(ref / "manifest.json")


@pytest.mark.parametrize("case", ["bad cell in the last block", "scan bin width"])
def test_score_error_after_the_first_group_leaves_nothing(pipeline_dir, tmp_path, monkeypatch,
                                                          capsys, case):
    # both fail after groups of scores went to scores.csv.tmp: a cell in the
    # file's last line, and a scan width that numbers m's bins beyond 2**53,
    # which only m's range, known at the end, shows
    features = pipeline_dir / "data" / "features.csv"
    flags = ["--scan-bin-width", "0.25"]
    if case == "scan bin width":
        flags = ["--scan-bin-width", "1e-300"]
        message = "config error: scan_bin_width = 1e-300 numbers the bins of m beyond 2**53\n"
    else:
        lines = features.read_bytes().splitlines(keepends=True)
        lines[-1] = lines[-1].rsplit(b",", 1)[0] + b",fish\r\n"
        features = tmp_path / "bad.csv"
        features.write_bytes(b"".join(lines))
        message = f"error: {features} line {len(lines)}, column 'x1': not a number: 'fish'\n"
    monkeypatch.setattr(anomaly, "_CHUNK_ROWS", 64)
    monkeypatch.setattr(cli, "_GROUP_CHUNKS", 4)
    existing = tmp_path / "existing"
    existing.mkdir()
    for out in (tmp_path / "new" / "scores", existing):
        code = main(["score", "--features", str(features), "--model",
                     str(pipeline_dir / "model.txt"), "--out-dir", str(out),
                     "--sigma", "0.15", *flags])
        assert (code, capsys.readouterr().err) == (1 + (case == "scan bin width"), message)
    assert not (tmp_path / "new").exists()
    assert list(existing.iterdir()) == []


def test_score_memory_grows_far_less_than_its_input(tmp_path):
    # score keeps m and alpha of every event (16 bytes) and the events
    # above the lowest threshold; the rest of a group is dropped once it
    # is written.  From 16,384 to 65,536 events the tracemalloc peak grew
    # 21 bytes per event here, against 122 when the whole file was read
    # and scored at once.
    data = synth.generate_lhc_like(synth.LhcLikeConfig(n_background=65_336, n_signal=200),
                                   seed=3)
    ids = [str(i) for i in range(data.n_events)]
    for n in (16_384, 65_536):
        dataio.write_features(str(tmp_path / f"{n}.csv"), ids[:n], data.conditional_name,
                              data.conditionals[:n], data.feature_names, data.features[:n])
    model = str(tmp_path / "model.txt")
    assert main(["fit", "--features", str(tmp_path / "16384.csv"), "--model-out", model,
                 "--iterations", "2", "--bins", "10", "--knots", "16", "--quiet"]) == 0

    def peak(n):
        tracemalloc.start()
        try:
            assert main(["score", "--features", str(tmp_path / f"{n}.csv"), "--model", model,
                         "--out-dir", str(tmp_path / f"scores{n}"), "--sigma", "250"]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(16_384)  # the first call's one-time allocations
    assert peak(65_536) - peak(16_384) < 32 * (65_536 - 16_384)


def test_thread_count_below_one_exits_2(pipeline_dir, tmp_path, capsys):
    out = tmp_path / "scores"
    code = main(["score", "--features", str(pipeline_dir / "data" / "features.csv"),
                 "--model", str(pipeline_dir / "model.txt"), "--out-dir", str(out),
                 "--threads", "0"])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: threads")
    assert not out.exists()


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
    pytest.param(r"layer 0\n-?1", "layer 0\n2", id="non-orthonormal slice matrix"),
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


@pytest.mark.parametrize("which", ["model", "features", "long id"])
def test_undecodable_byte_exits_1(pipeline_dir, tmp_path, capsys, which):
    # "long id" appends a features row whose id is past csv's field limit
    paths = {"model": pipeline_dir / "model.txt",
             "features": pipeline_dir / "data" / "features.csv"}
    name = "features" if which == "long id" else which
    data = bytearray(paths[name].read_bytes())
    if which == "long id":
        data += b"a" * 140000 + b",0.5,0.5\r\n"
    else:
        data[len(data) // 2] = 0xFF
    paths[name] = tmp_path / paths[name].name
    paths[name].write_bytes(bytes(data))
    code = main(["score", "--features", str(paths["features"]),
                 "--model", str(paths["model"]), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
    if which == "long id":
        assert err.endswith("line 2022: field larger than field limit (131072)\n")


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


@pytest.mark.parametrize("flag, value", [
    ("--sigma", "inf"), ("--sigma", "1e308"), ("--signal-sigma", "inf"),
    ("--scan-bin-width", "inf"), ("--scan-bin-width", "1e-300"),
])
def test_unusable_width_is_a_config_error_before_any_output(pipeline_dir, tmp_path,
                                                            capsys, flag, value):
    out = tmp_path / "scores"
    code = main(["score", "--features", str(pipeline_dir / "data" / "features.csv"),
                 "--model", str(pipeline_dir / "model.txt"), "--out-dir", str(out),
                 "--sigma", "0.15", flag, value])
    assert code == 2  # a ConfigError, not a complaint about the input file
    err = capsys.readouterr().err
    assert err.startswith("config error: " + flag[2:].replace("-", "_") + " ")
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--thresholds", "nan", "inf", "2"], "thresholds must be positive and finite"),
    (["--thresholds", "1.5", "inf"], "thresholds must be positive and finite"),
    (["--exclusion", "nan"], "exclusion_halfwidth must be non-negative and finite"),
    (["--exclusion", "inf"], "exclusion_halfwidth must be non-negative and finite"),
])
def test_non_finite_score_option_exits_2(pipeline_dir, tmp_path, capsys, flags, message):
    # a NaN or infinite threshold would be written to manifest.json as NaN
    # or Infinity, which strict JSON parsers reject
    out = tmp_path / "scores"
    code = main(["score", "--features", str(pipeline_dir / "data" / "features.csv"),
                 "--model", str(pipeline_dir / "model.txt"), "--out-dir", str(out),
                 "--sigma", "0.15", *flags])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_non_finite_derivative_floor_is_rejected(pipeline_dir, tmp_path, capsys):
    features = str(pipeline_dir / "data" / "features.csv")
    model = tmp_path / "model.txt"
    for floor in ("inf", "nan"):
        assert main(["fit", "--features", features, "--model-out", str(model),
                     "--iterations", "1", "--bins", "3", "--knots", "12", "--quiet",
                     "--derivative-floor", floor]) == 2
        assert capsys.readouterr().err == (
            "config error: derivative_floor must be positive and finite\n")
        assert not model.exists()
    # a model file whose floor reads inf is malformed: it would score NaN
    text = (pipeline_dir / "model.txt").read_text()
    assert re.search(r"\nderivative_floor \S+\n", text)
    model.write_text(re.sub(r"\nderivative_floor \S+\n", "\nderivative_floor inf\n", text))
    out = tmp_path / "scores"
    assert main(["score", "--features", features, "--model", str(model),
                 "--out-dir", str(out), "--sigma", "0.15"]) == 1
    assert capsys.readouterr().err == "error: derivative_floor must be positive and finite\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--mass", "--m1", "--m2"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_resonance_mass_exits_2(tmp_path, capsys, flag, value):
    # fit would reject the features file such a resonance writes
    out = tmp_path / "lhc"
    assert main(["synth", "lhc", "--out-dir", str(out), "--n-background", "100",
                 "--n-signal", "5", f"{flag}={value}"]) == 2
    assert capsys.readouterr().err == (
        "config error: resonance masses and tau_mean must be finite\n")
    assert not out.exists()


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


def _write_particle_events(path, n_events, seed, bad_row_after=None,
                           bad_row="-1.0,0.0,0.0,0.0"):
    """Random events of 2 to 60 particles, every fifth a single particle
    (rejected).  With bad_row_after, bad_row (pt,eta,phi,mass; negative pt
    by default) follows that many events; its line number is returned."""
    rng = np.random.default_rng(seed)
    lines = ["event_id,pt,eta,phi,mass"]
    bad_line = None
    for i in range(n_events):
        n = 1 if i % 5 == 4 else int(rng.integers(2, 61))
        for pt, eta, phi in zip(*(rng.uniform(lo, hi, n).tolist()
                                  for lo, hi in ((1.0, 200.0), (-2.0, 2.0), (-4.0, 4.0)))):
            lines.append(f"ev{i},{pt!r},{eta!r},{phi!r},0.0")
        if i + 1 == bad_row_after:
            lines.append(f"ev{i},{bad_row}")
            bad_line = len(lines)
    path.write_text("\n".join(lines) + "\n")
    return bad_line


@pytest.mark.parametrize("radius", ["inf", "1e200", "1e-200", "nan", "0"])
def test_radius_whose_square_is_not_positive_and_finite_exits_2(tmp_path, capsys, radius):
    # inf and 1e200 (whose square overflows) would count every event as
    # fewer_than_two_jets, and 1e-200 (whose square is 0) every event as
    # tau21_undefined, with exit 0
    particles = tmp_path / "particles.csv"
    _write_particle_events(particles, 10, seed=2)
    out = tmp_path / "features.csv"
    for source in (particles, tmp_path / "missing.csv"):  # raised before the read
        assert main(["features", "--particles", str(source), "--out", str(out),
                     "--radius", radius]) == 2
        assert capsys.readouterr().err == (
            "config error: --radius must be positive with a positive finite square\n")
        assert not out.exists()
        assert not (tmp_path / "features.csv.manifest.json").exists()


def test_fit_writes_the_same_model_with_and_without_quiet(pipeline_dir, tmp_path, capsys):
    # the fit skips the after-update distances when nothing reports them;
    # they must not feed back into the model
    features = str(pipeline_dir / "data" / "features.csv")
    models = []
    for quiet in ([], ["--quiet"]):
        model = tmp_path / f"model{len(models)}.txt"
        assert main(["fit", "--features", features, "--model-out", str(model),
                     "--iterations", "3", "--bins", "3", "--knots", "12",
                     "--candidates", "4", *quiet]) == 0
        models.append(model.read_bytes())
        progress = [ln for ln in capsys.readouterr().out.splitlines()
                    if ln.startswith("iteration")]
        assert len(progress) == (0 if quiet else 3)
    assert models[0] == models[1]


def _features_with_workers(monkeypatch, workers, argv):
    monkeypatch.setattr(flow, "_cpu_count", lambda: workers)
    code = main(["features", *argv])
    assert multiprocessing.active_children() == []  # every worker is joined
    return code


def test_features_do_not_depend_on_the_worker_count(monkeypatch, tmp_path):
    # 45 events are six blocks, the last one short; 9 workers are more
    # than blocks, so some of them are never handed one
    particles = tmp_path / "particles.csv"
    _write_particle_events(particles, 45, seed=3)
    outputs = []
    for workers in (1, 2, 9):
        out = tmp_path / f"workers{workers}" / "features.csv"
        out.parent.mkdir()
        monkeypatch.chdir(out.parent)  # the manifest records the paths given
        assert _features_with_workers(monkeypatch, workers, [
            "--particles", str(particles), "--out", "features.csv", "--no-window"]) == 0
        outputs.append((out.read_bytes(), (out.parent / "features.csv.manifest.json").read_bytes()))
    assert all(o == outputs[0] for o in outputs[1:])
    manifest = json.loads(outputs[0][1])
    assert manifest["counts"]["events_read"] == 45
    assert manifest["counts"]["fewer_than_two_jets"] >= 9
    assert len(outputs[0][0].splitlines()) > 1 + 20


def test_bad_particle_row_after_full_blocks_exits_1(monkeypatch, tmp_path, capsys):
    # the parent reads every row, so the first bad one is the error for
    # any number of workers, and no output is written
    particles = tmp_path / "particles.csv"
    bad_line = _write_particle_events(particles, 40, seed=4, bad_row_after=30)
    errors = []
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}.csv"
        assert _features_with_workers(monkeypatch, workers, [
            "--particles", str(particles), "--out", str(out), "--no-window"]) == 1
        assert not out.exists()
        assert not (tmp_path / f"workers{workers}.csv.manifest.json").exists()
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert f"line {bad_line}: particle pt must be positive" in errors[0]


@pytest.mark.parametrize("eta", [800.0, -800.0])
def test_particle_eta_beyond_sinh_range_exits_1(monkeypatch, tmp_path, capsys, eta):
    # math.sinh overflows at |eta| = 800: the parent rejects the row
    # before any worker clusters it
    particles = tmp_path / "particles.csv"
    bad_line = _write_particle_events(particles, 20, seed=5, bad_row_after=12,
                                      bad_row=f"5.0,{eta!r},0.0,0.0")
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}.csv"
        assert _features_with_workers(monkeypatch, workers, [
            "--particles", str(particles), "--out", str(out), "--no-window"]) == 1
        assert not out.exists()
        assert not (tmp_path / f"workers{workers}.csv.manifest.json").exists()
        assert (f"line {bad_line}: particle |eta| too large: pt * sinh(eta) overflows"
                in capsys.readouterr().err)


def test_particle_energy_overflow_exits_1(monkeypatch, tmp_path, capsys):
    # pt = 1e160 keeps pz finite, but pt^2 overflows the energy; unchecked,
    # this file clustered into jets of infinite pt and exited 0
    particles = tmp_path / "particles.csv"
    particles.write_text("event_id,pt,eta,phi,mass\n"
                         "ev0,1e160,0.0,0.0,0.0\n"
                         "ev0,1e160,0.1,0.0,0.0\n"
                         "ev0,50.0,1.0,2.0,0.0\n"
                         "ev0,40.0,-1.0,-2.0,0.0\n")
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}.csv"
        assert _features_with_workers(monkeypatch, workers, [
            "--particles", str(particles), "--out", str(out), "--no-window"]) == 1
        assert not out.exists()
        assert not (tmp_path / f"workers{workers}.csv.manifest.json").exists()
        assert "line 2: particle pt above 1e+140\n" in capsys.readouterr().err


@pytest.mark.parametrize("rows, message", [
    # pt^2 of the soft pair is subnormal: 1/pt^2 overflowed, numpy warned,
    # and the two clustered as separate zero-pt jets 0.14 apart inside R = 1
    (["ev0,1e-160,0.0,0.0,0.0", "ev0,1e-160,0.1,0.1,0.0"], "particle pt below 1e-150"),
    # each has a finite energy, but their merged jet had pt = inf
    (["ev0,1.3e154,0.0,0.0,0.0", "ev0,1.3e154,0.0,0.0,0.0"], "particle pt above 1e+140"),
    # an id past csv's field limit is an input error, not a csv traceback
    (["e" * 140000 + ",50.0,0.0,0.0,0.0"], "field larger than field limit (131072)"),
])
def test_particle_momentum_bounds_exit_1(monkeypatch, tmp_path, capsys, rows, message):
    particles = tmp_path / "particles.csv"
    particles.write_text("\n".join(["event_id,pt,eta,phi,mass", *rows,
                                     "ev0,50.0,1.0,2.0,0.0", "ev0,40.0,-1.0,-2.0,0.0"]) + "\n")
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}.csv"
        assert _features_with_workers(monkeypatch, workers, [
            "--particles", str(particles), "--out", str(out), "--no-window"]) == 1
        assert not out.exists()
        assert not (tmp_path / f"workers{workers}.csv.manifest.json").exists()
        assert f"line 2: {message}" in capsys.readouterr().err


def test_features_wrap_each_particle_phi_once(monkeypatch, tmp_path):
    # a phi just below -pi wraps to pi and pi wraps to -pi, so a second
    # wrap would move them; the file's features are those of Particles
    # built once from the values as written
    below = math.nextafter(-math.pi, -math.inf)
    rng = np.random.default_rng(6)
    events = []
    for _ in range(10):  # two blocks, so two workers take one each
        hard = [(300.0, 0.1, below), (120.0, 0.5, math.pi),
                (280.0, -0.2, 2 * math.pi + 0.1), (110.0, -0.6, -2 * math.pi - 0.2)]
        soft = zip(*(rng.uniform(lo, hi, 20).tolist()
                     for lo, hi in ((1.0, 5.0), (-2.0, 2.0), (-7.0, 7.0))))
        events.append([(pt, eta, phi, 0.0) for pt, eta, phi in [*hard, *soft]])
    particles = tmp_path / "particles.csv"
    particles.write_text("event_id,pt,eta,phi,mass\n" + "".join(
        f"ev{i},{pt!r},{eta!r},{phi!r},{mass!r}\n"
        for i, rows in enumerate(events) for pt, eta, phi, mass in rows))
    expected = [extract_features([Particle(*row) for row in rows]).to_row() for rows in events]
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}.csv"
        assert _features_with_workers(monkeypatch, workers, [
            "--particles", str(particles), "--out", str(out), "--no-window"]) == 0
        table = read_features(str(out))
        assert np.column_stack([table.conditionals, table.features]).tolist() == expected


def test_event_id_resuming_after_another_event_exits_1(tmp_path, capsys):
    particles = tmp_path / "particles.csv"
    particles.write_text("event_id,pt,eta,phi\n"
                         "a,300.0,0.0,0.0\n"
                         "b,280.0,0.4,3.0\n"
                         "a,90.0,0.3,0.2\n")
    out = tmp_path / "features.csv"
    assert main(["features", "--particles", str(particles), "--out", str(out),
                 "--no-window"]) == 1
    assert "line 4: event_id 'a' resumes after other events' rows" in capsys.readouterr().err
    assert not out.exists()


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


def _run_python(code):
    """Run code in a fresh interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(overdensity.__file__))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)


def test_thresholds_are_recorded_as_used(pipeline_dir, tmp_path):
    # scoring keeps each threshold once, sorted; so does the manifest
    configs = []
    for name, thresholds in (("twice", ["1.5", "1.5"]), ("once", ["1.5"])):
        out = tmp_path / name
        assert main(["score", "--features", str(pipeline_dir / "data" / "features.csv"),
                     "--model", str(pipeline_dir / "model.txt"), "--out-dir", str(out),
                     "--sigma", "0.15", "--thresholds", *thresholds]) == 0
        configs.append(json.loads((out / "manifest.json").read_text())["config"])
    assert configs[0] == configs[1]
    assert configs[0]["thresholds"] == [1.5]


def test_cli_import_leaves_scipy_out():
    # scipy.special alone costs about 0.4 s and 20 MB on every run; the
    # package needs no scipy module (tests use scipy as an oracle)
    done = _run_python("import sys, overdensity.cli; "
                       "print(sorted(m for m in sys.modules "
                       "if m == 'scipy' or m.startswith('scipy.')))")
    assert done.stdout.strip() == "[]"


def test_cli_import_leaves_process_pools_out():
    # multiprocessing costs milliseconds of start-up; only features uses it
    done = _run_python("import sys, overdensity.cli; "
                       "print(sorted(m for m in sys.modules if m == 'multiprocessing' "
                       "or m == 'concurrent.futures.process'))")
    assert done.stdout.strip() == "[]"


def test_score_and_features_leave_the_statistics_module_out(pipeline_dir, tmp_path):
    # the normal quantiles (statistics.NormalDist) are computed only by
    # fitting and the W1 API, and imported where they are computed: score
    # and features runs never load the module.  A fresh interpreter, since
    # pytest itself imports statistics
    particles = tmp_path / "particles.csv"
    _write_particle_events(particles, 10, seed=2)
    script = f"""
import sys
from overdensity.cli import main
codes = [main(["score", "--features", {str(pipeline_dir / "data" / "features.csv")!r},
               "--model", {str(pipeline_dir / "model.txt")!r},
               "--out-dir", {str(tmp_path / "scored")!r}, "--sigma", "0.15"]),
         main(["features", "--particles", {str(particles)!r},
               "--out", {str(tmp_path / "features.csv")!r}])]
print(codes, "statistics" in sys.modules)
"""
    done = _run_python(script)
    assert done.stdout.splitlines()[-1] == "[0, 0] False"


def test_pipeline_runs_with_scipy_unimportable(tmp_path):
    # a None entry in sys.modules makes every `import scipy...` fail
    script = f"""
import sys
sys.modules["scipy"] = None
from overdensity.cli import main
root = {str(tmp_path)!r}
codes = [main(["synth", "lhc", "--out-dir", root + "/data", "--seed", "0",
               "--n-background", "4800", "--n-signal", "200"]),
         main(["fit", "--features", root + "/data/features.csv",
               "--model-out", root + "/model.txt", "--iterations", "2", "--bins", "10",
               "--quiet"]),
         main(["score", "--features", root + "/data/features.csv",
               "--model", root + "/model.txt", "--out-dir", root + "/scored",
               "--sigma", "250"])]
print(codes)
"""
    done = _run_python(script)
    assert done.stdout.splitlines()[-1] == "[0, 0, 0]"
