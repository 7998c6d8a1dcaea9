"""Self-tests of the benchmark harness at toy sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import os
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import dijet  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from layers import TARGETS  # noqa: E402
from workloads import DijetFeatures, LhcFitHeldout, LhcScan, Ops  # noqa: E402


def _span(name, start, end, parent=None, thread=1):
    span = tracing.Span(name, start, parent, thread)
    span.end = end
    return span


# -- spans and self time ---------------------------------------------------------


def test_self_time_of_nested_spans():
    root = _span("root", 0.0, 10.0)
    a = _span("a", 1.0, 4.0, root)
    a1 = _span("a1", 2.0, 3.0, a)
    b = _span("b", 5.0, 6.0, root)
    selfs = tracing.self_times([root, a, a1, b])
    assert selfs[id(root)] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[id(a)] == pytest.approx(2.0)
    assert selfs[id(a1)] == pytest.approx(1.0)
    assert selfs[id(b)] == pytest.approx(1.0)


def test_self_time_subtracts_the_union_of_overlapping_children():
    # two pool workers run children of one call at the same time
    root = _span("root", 0.0, 10.0, thread=1)
    w1 = _span("w", 1.0, 7.0, root, thread=2)
    w2 = _span("w", 2.0, 8.0, root, thread=3)
    late = _span("w", 9.0, 12.0, root, thread=2)  # clipped to the parent
    selfs = tracing.self_times([root, w1, w2, late])
    assert selfs[id(root)] == pytest.approx(10.0 - 7.0 - 1.0)
    stats = tracing.summarize([root, w1, w2, late])
    assert stats["w"].calls == 3
    assert stats["w"].total_s == pytest.approx(6.0 + 6.0 + 3.0)
    by_thread = tracing.self_by_thread([root, w1, w2, late])
    assert by_thread[("w", 2)] == pytest.approx(9.0)


def test_summarize_within_an_ancestor():
    fit = _span("fit", 0.0, 5.0)
    inner = _span("w1", 1.0, 2.0, fit)
    outer = _span("w1", 6.0, 7.0)
    stats = tracing.summarize([fit, inner, outer], within="fit")
    assert stats["w1"].calls == 1


# -- patching --------------------------------------------------------------------


@pytest.fixture
def toy_module(monkeypatch):
    mod = types.ModuleType("perfbench_toy")
    exec("def inner(x):\n    return x + 1\n"
         "def outer(x):\n    return inner(x) * 2\n"
         "def items(n):\n    yield from range(n)\n", mod.__dict__)
    monkeypatch.setitem(sys.modules, "perfbench_toy", mod)
    return mod


def test_tracer_patches_where_the_caller_looks_and_restores(toy_module):
    original_inner = toy_module.inner
    tr = tracing.Tracer([
        tracing.Target("perfbench_toy", "outer", "toy.outer"),
        tracing.Target("perfbench_toy", "inner", "toy.inner", lambda args, result: args[0]),
        tracing.Target("perfbench_toy", "items", "toy.items", lambda item: 1, kind="iter"),
        tracing.Target("perfbench_toy", "removed_later", "toy.gone"),
        tracing.Target("perfbench_missing_module", "f", "missing.f"),
    ])
    with tr.active():
        assert toy_module.outer(3) == 8
        assert list(toy_module.items(2)) == [0, 1]
    assert toy_module.inner is original_inner
    assert tr.absent == ["perfbench_toy.removed_later", "perfbench_missing_module.f"]
    names = [s.name for s in tr.spans]
    assert names == ["toy.outer", "toy.inner", "toy.items", "toy.items", "toy.items"]
    outer, inner = tr.spans[:2]
    assert inner.parent is outer and inner.work == 3
    # the last iterator span is the exhausted next() call
    assert [s.work for s in tr.spans[2:]] == [1, 1, 0]
    toy_module.outer(1)
    assert len(tr.spans) == 5  # nothing recorded once restored


def test_method_targets_restore_the_class():
    from overdensity.transforms import Marginal1DTransform

    original = Marginal1DTransform.__dict__["transform"]
    tr = tracing.Tracer([t for t in TARGETS if t.span == "transforms.transform"])
    with tr.active():
        assert Marginal1DTransform.__dict__["transform"] is not original
    assert Marginal1DTransform.__dict__["transform"] is original


def test_pool_worker_spans_belong_to_the_submitting_call():
    from concurrent.futures import ThreadPoolExecutor

    tr = tracing.Tracer([])
    with tr.active():
        with tr.span("score") as score:
            def work(_):
                with tr.span("chunk"):
                    pass

            with ThreadPoolExecutor(max_workers=2) as pool:
                list(pool.map(work, range(4)))
    chunks = [s for s in tr.spans if s.name == "chunk"]
    assert len(chunks) == 4 and all(s.parent is score for s in chunks)


# -- operations and checks -------------------------------------------------------


def test_a_failing_check_is_counted_not_raised():
    ops = Ops()
    assert ops.check("raises", lambda: 1 / 0) is False
    assert ops.check("false", lambda: False) is False
    assert ops.check("true", lambda: True) is True
    step = ops.cli(["no-such-subcommand"])
    assert step.rc != 0
    assert (ops.attempted, ops.failed) == (4, 3)
    assert ops.failures == ["raises", "false", "no-such-subcommand exits 0"]


def test_a_failing_workload_gives_a_counted_result(tmp_path):
    workload = DijetFeatures(str(tmp_path), seed=1, nproc=1, n_events=2)
    workload.setup = lambda ops: None  # no particle file: features fails
    result, _ = run.run(workload, 0, None, SRC)
    assert result["correct"] is False
    assert result["failed"] >= 1 and result["attempted"] >= result["failed"]


# -- emitted metrics -------------------------------------------------------------


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def _toy(name, work_dir):
    if name == "lhc-scan":
        return LhcScan(work_dir, 3, 2, n_background=5800, n_signal=200, iterations=2, bins=4)
    if name == "lhc-fit-heldout":
        return LhcFitHeldout(work_dir, 3, 1, n_train=3000, n_heldout=300,
                             iterations=2, bins=4)
    return DijetFeatures(work_dir, 3, 1, n_events=4)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted_with_its_unit(tmp_path, trace):
    end_to_end, per_layer, workload_names = _declared()
    assert set(workload_names) == set(run.WORKLOADS)
    declared = per_layer if trace else end_to_end
    for name in workload_names:
        workload = _toy(name, str(tmp_path / name))
        tr = tracing.Tracer(TARGETS) if trace else None
        result, info = run.run(workload, 0, tr, SRC)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
        assert info["absent_targets"] == []
        if not trace:
            assert all(v["value"] > 0 for v in result["metrics"].values())
        json.dumps(result)


def test_a_bare_benchmark_directory_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "lhc-scan", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


# -- particle generator ----------------------------------------------------------


def _invariant_mass(rows):
    pt, eta, phi, mass = (rows[:, k] for k in range(4))
    px, py, pz = pt * np.cos(phi), pt * np.sin(phi), pt * np.sinh(eta)
    e = np.sqrt(px ** 2 + py ** 2 + pz ** 2 + mass ** 2)
    return math.sqrt(e.sum() ** 2 - px.sum() ** 2 - py.sum() ** 2 - pz.sum() ** 2)


def test_generated_events_carry_the_planted_mass():
    rng = np.random.default_rng(5)
    for n in (4, 50, 200):
        planted, rows = dijet.make_event(rng, n)
        assert rows.shape == (n, 4)
        assert dijet.MASS_RANGE[0] <= planted <= dijet.MASS_RANGE[1]
        hard = rows[:dijet.HARD_PARTICLES]
        assert _invariant_mass(hard) == pytest.approx(planted, rel=1e-9)
        assert np.all(np.abs(rows[:, 1]) < dijet.ETA_MAX)


def test_generated_file_depends_only_on_the_seed(tmp_path):
    a = dijet.write_events(str(tmp_path / "a.csv"), 9, [50, 200])
    b = dijet.write_events(str(tmp_path / "b.csv"), 9, [50, 200])
    assert a == b
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
