"""The statistics of tools/ab.py, on fixed numbers: no benchmark runs."""
import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py")
ab = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(ab)

PARENT = [float(v) for v in range(1, 11)]    # quartiles 3.25, 5.5, 7.75


def test_pairs_alternate_the_first_side():
    assert ab.schedule(4, 11) == [
        (11, ("parent", "change")), (12, ("change", "parent")),
        (13, ("parent", "change")), (14, ("change", "parent"))]


@pytest.mark.parametrize("better, want", [("lower", (1, 2)),
                                          ("higher", (2, 1))])
def test_ties_count_for_neither_side(better, want):
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 3.5, 4.0, 4.0]
    assert ab.wins(parent, change, better) == want   # (parent, change)


def test_quartiles_and_parent_iqr():
    s = ab.compare(PARENT, PARENT, "lower", 0.25)
    assert s["parent"] == s["change"]
    assert (s["parent"]["q1"], s["parent"]["median"], s["parent"]["q3"]) \
        == (3.25, 5.5, 7.75)
    assert s["parent_iqr"] == 4.5
    assert s["change_wins"] == s["parent_wins"] == 0
    assert not s["resolved"] and not s["worse"]


@pytest.mark.parametrize("better", ["lower", "higher"])
@pytest.mark.parametrize("wins, gap, resolved", [
    (9, 5.0, True),     # 9 of 10 pairs and a gap above the IQR of 4.5
    (10, 5.0, True),
    (8, 5.0, False),    # too few wins
    (9, 4.5, False),    # a gap equal to the IQR is not larger
])
def test_resolved_needs_nine_tenths_and_a_gap_above_the_iqr(
        better, wins, gap, resolved):
    step = -gap if better == "lower" else gap
    change = [p + step for p in PARENT]
    # the parent wins narrowly where the change reads worst, so the
    # change's median stays the parent's moved by the gap
    for i in range(wins, 10) if better == "lower" else range(10 - wins):
        change[i] = PARENT[i] - 0.01 * step
    s = ab.compare(PARENT, change, better, 0.25)
    assert s["change_wins"] == wins and s["parent_wins"] == 10 - wins
    assert s["resolved"] is resolved
    assert not s["worse"]


@pytest.mark.parametrize("better, factor, worse", [
    ("lower", 1.3, True), ("lower", 1.2, False),
    ("higher", 0.7, True), ("higher", 0.8, False)])
def test_worse_by_more_than_the_bound(better, factor, worse):
    s = ab.compare(PARENT, [p * factor for p in PARENT], better, 0.25)
    assert s["worse"] is worse


def test_spread_of_set_medians():
    change = [1.0, 2.0, 3.0, 4.0, 5.0, 11.0, 12.0, 13.0, 14.0, 15.0, 99.0]
    s = ab.compare(PARENT + [11.0], change, "lower", 0.25)
    # sets of five pairs; the eleventh pair starts a set it cannot fill
    assert s["parent"]["set_medians"] == [3.0, 8.0]
    assert s["change"]["set_medians"] == [3.0, 13.0]
    assert s["change"]["set_spread_pct"] == pytest.approx(100 * 10 / 11)
    assert s["parent"]["set_spread_pct"] == pytest.approx(100 * 5 / 6)


def record(op_s, failed=0, digest="ab"):
    return {"result": {"failed": failed,
                       "metrics": {"op_s": {"value": op_s, "unit": "s"}}},
            "quality": {"decisions_sha256": digest}}


def test_failed_runs_leave_their_pairs_out():
    runs = [{"seed": 1, "parent": record(2.0), "change": record(1.0)},
            {"seed": 2, "parent": record(2.0), "change": record(9.0, 1)},
            {"seed": 3, "parent": {"error": "exit 1"},
             "change": record(9.0)},
            {"seed": 4, "parent": record(4.0),
             "change": record(3.0, digest="cd")}]
    entry = ab.summarize(runs, [{"name": "op_s", "better": "lower",
                                 "bound": 0.25}])
    assert entry["failed_runs"] == 2
    assert entry["decisions_equal"] == 1
    s = entry["metrics"]["op_s"]
    assert s["pairs"] == 2 and s["change_wins"] == 2
    assert s["parent"]["median"] == 3.0 and s["change"]["median"] == 2.0
    assert entry["runs"][2] == {"seed": 3, "parent": "exit 1",
                                "change": {"op_s": 9.0}}
    assert entry["runs"][1]["change"] == "failed"
