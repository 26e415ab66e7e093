"""Tests of the benchmark itself, on tiny inputs (seconds, not minutes).

Run with `PYTHONPATH=src python -m pytest perfbench` from the repository
root.
"""
import math
import shutil
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench_harness  # noqa: E402
import bench_spans  # noqa: E402
import bench_workloads as wl  # noqa: E402

DECLARED = bench_harness.load_declaration(ROOT)

# the real workloads at sizes that run in well under a second
TINY = {"pair512": dict(size=48, block=5),
        "range32": dict(size=96, band=(24, 72), block=5),
        "h0": dict(size=40, trials=1, block=5)}


def tiny(name, cls=None):
    return (cls or wl.WORKLOADS[name])(**TINY[name])


def test_tiny_set_covers_every_workload():
    assert set(TINY) == set(wl.WORKLOADS)
    assert [w["name"] for w in DECLARED["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_declared_metric_is_emitted(name, trace, tmp_path):
    record = bench_harness.run(tiny(name), 5, 0.0, bool(trace), DECLARED,
                               tmp_path)
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 + trace
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [d["name"] for d in declared]
    for d in declared:
        metric = result["metrics"][d["name"]]
        assert metric["unit"] == d["unit"]
        assert math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0, d["name"]


def test_traced_pair_reports_named_layers(tmp_path):
    record = bench_harness.run(tiny("pair512"), 5, 0.0, True, DECLARED,
                               tmp_path)
    metrics = {k: v["value"] for k, v in record["result"]["metrics"].items()}
    assert metrics["patch_model.jacobi_eigh.calls"] == 1
    assert metrics["patch_model.cdf_eval.calls"] > 0
    # 9 of 25 components are used per reference pixel at block side 5
    assert metrics["pipeline.reference_tables.useful_ratio"] == \
        pytest.approx(9 / 25)
    assert metrics["cli.main.self_s"] == 0


@pytest.mark.parametrize("name", ["pair512", "range32"])
def test_wrong_ground_truth_fails_the_operation(name, tmp_path):
    class WrongTruth(wl.WORKLOADS[name]):
        def setup(self, seed, workdir):
            inputs = super().setup(seed, workdir)
            return replace(inputs, gt=inputs.gt + 3)

    record = bench_harness.run(tiny(name, WrongTruth), 5, 0.0, False,
                               DECLARED, tmp_path)
    result = record["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2


def test_false_alarm_limit_fails_the_operation():
    workload = tiny("h0")
    assert workload.check(None, 0.5).ok
    assert not workload.check(None, wl.FALSE_ALARM_LIMIT + 0.5).ok


def test_inputs_follow_the_seed(tmp_path):
    workload = tiny("pair512")
    a = workload.setup(7, tmp_path).reference.pixels
    b = workload.setup(7, tmp_path).reference.pixels
    c = workload.setup(8, tmp_path).reference.pixels
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.min() == 0 and a.max() == 255


FAKE_SOURCE = """
def leaf(x):
    return x

def outer(x):
    return leaf(x) + leaf(x)

def _private(x):
    return x
"""


def test_tracer_spans_counters_and_missing_names():
    mod = types.ModuleType("fake")
    exec(FAKE_SOURCE, mod.__dict__)
    original = mod.outer
    counters = {"fake.leaf": lambda a, r: {"values": a["x"]},
                "fake.outer": lambda a, r: {"useful": a["renamed_arg"]}}
    tracer = bench_spans.Tracer({"fake": mod}, counters)
    tracer.op = 0
    with tracer:
        assert mod.outer is not original
        assert tracer.call("op", mod.outer, 3) == 6
    assert mod.outer is original
    op, outer, leaf1, leaf2 = tracer.spans
    assert [s.name for s in tracer.spans] == ["op", "fake.outer",
                                              "fake.leaf", "fake.leaf"]
    assert outer.parent == op.id and leaf1.parent == leaf2.parent == outer.id
    assert 0 <= outer.self_s <= outer.duration
    summary = bench_spans.summarize(tracer.spans, {0})
    assert summary["fake.leaf"]["calls"] == 2
    assert summary["fake.outer"]["inner"]["values"] == 6
    # a counter that no longer fits the signature is skipped, not fatal
    assert summary["fake.outer"]["counts"] == {}
    assert "fake._private" not in summary
    assert bench_spans.layer_metric(summary, "fake.leaf.values", 1) == 6
    assert bench_spans.layer_metric(summary, "fake.gone.calls", 1) == 0
    assert bench_spans.layer_metric(summary, "fake.gone.s", 1) == 0


def test_run_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "h0", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
