"""Compare the benchmark of two checkouts in alternating pairs.

    python3 tools/ab.py PARENT_TREE CHANGE_TREE --pairs 10 --out BENCH.json

Each pair runs PARENT_TREE's and CHANGE_TREE's perfbench/run.py untraced
(--trace 0) on one seed, base seed + pair index, for the run length that
BENCHMARK.json sets; the parent runs first in even pairs and the change in
odd ones.  A run that exits non-zero, writes no record or reports a failed
operation counts as failed, and its pair is left out of the statistics.

For every end-to-end metric of BENCHMARK.json and every workload it prints
each side's median and quartiles, the pairs each side wins (ties count for
neither), the parent's interquartile range, the spread of each side's
medians across consecutive sets of pairs, and two verdicts: "resolved" when
the change wins at least 9 of 10 pairs and its median is better than the
parent's by more than the parent's interquartile range, and "worse" when
its median is worse than the parent's by more than the metric's bound.
--out writes the same figures, with the seeds, each run's values and the
environment, as JSON.
"""
from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
SET_SIZE = 5   # pairs per set, for the spread of each side's medians


def schedule(pairs: int, base_seed: int) -> list[tuple[int, tuple[str, str]]]:
    """(seed, run order) of each pair: the side that runs first switches
    every pair."""
    return [(base_seed + i, SIDES if i % 2 == 0 else SIDES[::-1])
            for i in range(pairs)]


def wins(parent: list[float], change: list[float],
         better: str) -> tuple[int, int]:
    """Pairs in which (parent, change) reads better; ties count for
    neither."""
    sign = 1 if better == "lower" else -1
    return (sum(sign * (p - c) < 0 for p, c in zip(parent, change)),
            sum(sign * (c - p) < 0 for p, c in zip(parent, change)))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), interpolated between the values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def set_medians(values: list[float]) -> list[float]:
    """Median of each run of SET_SIZE consecutive pairs; a shorter last
    set is dropped."""
    return [statistics.median(values[i:i + SET_SIZE])
            for i in range(0, len(values) - SET_SIZE + 1, SET_SIZE)]


def compare(parent: list[float], change: list[float], better: str,
            bound: float) -> dict:
    """Statistics of one metric over the pairs both sides ran."""
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    parent_wins, change_wins = wins(parent, change, better)
    iqr = p3 - p1
    gain = p_med - c_med if better == "lower" else c_med - p_med
    out = {"pairs": len(parent),
           "parent": {"median": p_med, "q1": p1, "q3": p3},
           "change": {"median": c_med, "q1": c1, "q3": c3},
           "change_wins": change_wins, "parent_wins": parent_wins,
           "parent_iqr": iqr,
           "median_change_pct": 100.0 * (c_med - p_med) / p_med
           if p_med else 0.0,
           "resolved": change_wins >= 0.9 * len(parent) and gain > iqr,
           "worse": -gain > bound * abs(p_med)}
    for side, values in (("parent", parent), ("change", change)):
        medians = set_medians(values)
        out[side]["set_medians"] = medians
        out[side]["set_spread_pct"] = (
            100.0 * (max(medians) - min(medians)) / statistics.median(values)
            if len(medians) > 1 and statistics.median(values) else 0.0)
    return out


def ok(record: dict) -> bool:
    """A run that wrote its record and failed no operation."""
    return "error" not in record and record["result"]["failed"] == 0


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run: its full record, or {"error": reason} when it
    exits non-zero or writes none."""
    record_path = (tree / "perfbench" / "out" /
                   f"{workload}-seed{seed}-trace0.json")
    record_path.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0 or not record_path.is_file():
        return {"error": f"exit {proc.returncode}: {proc.stderr[-400:]}"}
    return json.loads(record_path.read_text())


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Statistics of one workload's pairs, {"seed", "parent", "change"}
    each, a side holding its run's record or {"error": reason}.  A pair
    with a run that is not ok is left out of the statistics."""
    done = [p for p in runs if ok(p["parent"]) and ok(p["change"])]

    def values(p, side):
        return {k: v["value"] for k, v in
                p[side]["result"]["metrics"].items()}

    return {
        "failed_runs": sum(not ok(p[s]) for p in runs for s in SIDES),
        "decisions_equal": sum(
            p["parent"]["quality"].get("decisions_sha256")
            == p["change"]["quality"].get("decisions_sha256") for p in done),
        "metrics": {m["name"]: compare(
            [values(p, "parent")[m["name"]] for p in done],
            [values(p, "change")[m["name"]] for p in done],
            m["better"], m["bound"]) for m in end_to_end} if done else {},
        "runs": [{"seed": p["seed"], **{
            s: values(p, s) if ok(p[s]) else p[s].get("error", "failed")
            for s in SIDES}}
            for p in runs]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tools/ab.py")
    parser.add_argument("parent", type=Path, help="the parent's checkout")
    parser.add_argument("change", type=Path, help="the change's checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None,
                        help="JSON file for the statistics")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    pairs = schedule(args.pairs, args.base_seed)
    report = {"pairs": args.pairs, "seconds": seconds,
              "seeds": [seed for seed, _ in pairs],
              "first": [order[0] for _, order in pairs],
              "set_size": SET_SIZE, "environment": None, "workloads": {}}
    for workload in (w["name"] for w in declared["workloads"]):
        runs = []
        for seed, order in pairs:
            runs.append({"seed": seed})
            for side in order:
                record = run_once(trees[side], workload, seed, seconds)
                runs[-1][side] = record
                print(f"{workload} seed {seed} {side}: " + (
                    record.get("error") or " ".join(
                        f"{k} {v['value']:.4g}" for k, v in
                        record["result"]["metrics"].items())), flush=True)
                if report["environment"] is None and "error" not in record:
                    report["environment"] = {
                        **record["environment"],
                        "machine": platform.machine(),
                        "processor": platform.processor()}
        report["workloads"][workload] = summarize(runs,
                                                  declared["end_to_end"])

    for workload, entry in report["workloads"].items():
        print(f"\n{workload}: {entry['failed_runs']} failed runs, equal "
              f"decisions_sha256 (or none) in {entry['decisions_equal']} "
              f"pairs")
        for name, s in entry["metrics"].items():
            par, chg = s["parent"], s["change"]
            print(f"  {name:<12} parent {par['median']:.4g} "
                  f"[{par['q1']:.4g}, {par['q3']:.4g}]  change "
                  f"{chg['median']:.4g} [{chg['q1']:.4g}, {chg['q3']:.4g}]  "
                  f"{s['median_change_pct']:+.1f}%  wins change "
                  f"{s['change_wins']}/{s['pairs']} parent "
                  f"{s['parent_wins']}/{s['pairs']}  parent IQR "
                  f"{s['parent_iqr']:.4g}  set spread parent "
                  f"{par['set_spread_pct']:.1f}% change "
                  f"{chg['set_spread_pct']:.1f}%  resolved {s['resolved']}"
                  f"  worse {s['worse']}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
