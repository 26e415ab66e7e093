"""Measurement loop, metrics and report of the acbm benchmark.

One run = one workload in this process: set up `setups` times (setup_s is
the median), then repeat the operation in a closed loop, one at a time,
until the next operation would end past --seconds, with at least two
operations (three in a traced run) so that op_s is always a median of two
or more.  The first operation of a process is slower than the rest (by
about 10% on pair512); every run has one, so it shifts all runs alike.
Every operation's output is checked; an operation that raises or fails a
check counts as failed.

Untraced runs (--trace 0) report the end-to-end metrics declared in
BENCHMARK.json.  Traced runs (--trace 1) alternate traced and untraced
operations, at least three, starting with a traced one so that the spans
see the memory high-water being set, and report the declared per-layer
metrics.  trace.overhead_pct compares traced with untraced operations,
leaving out the first one, which is slower for being first.

The last line of standard output is the result JSON.  Lines before it give
each metric with its unit, the output-quality figures (density_pct,
bad_pct, band_accept_pct, false_alarms, decisions_sha256) and the
environment; the same, plus the spans of a traced run, go to
perfbench/out/<workload>-seed<seed>-trace<t>.json.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from acbm import cli, core, imgio, patch_model, pipeline, self_sim, validation

import bench_spans
import bench_workloads

LAYERS = {"patch_model": patch_model, "core": core, "pipeline": pipeline,
          "self_sim": self_sim, "validation": validation, "imgio": imgio,
          "cli": cli}

# work counters per span, from the bound arguments and the result
COUNTERS = {
    "patch_model.cdf_eval": lambda a, r: {"values": np.size(a["value"])},
    "patch_model.project": lambda a, r: {"rows": np.atleast_2d(r).shape[0]},
    "pipeline.candidate_nfa_block": lambda a, r: {"cells": np.size(a["hqp"])},
    "pipeline.reference_tables": lambda a, r: {"useful": np.size(r[0])},
}


def load_declaration(root: Path) -> dict:
    with open(root / "BENCHMARK.json") as fh:
        return json.load(fh)


def _attempt(workload, inputs, index, tracer):
    """Run and check one operation; returns (seconds, Check).  Exceptions
    are caught here, at the operation boundary, and count as a failure."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            output = workload.run(inputs, index)
        else:
            tracer.op = index
            with tracer:
                output = tracer.call("op", workload.run, inputs, index)
    except Exception:
        elapsed = time.perf_counter() - t0
        traceback.print_exc()
        return elapsed, bench_workloads.Check([f"operation {index} raised"])
    elapsed = time.perf_counter() - t0
    try:
        return elapsed, workload.check(inputs, output)
    except Exception:
        traceback.print_exc()
        return elapsed, bench_workloads.Check([f"check {index} raised"])


def measure(workload, seed: int, seconds: float, trace: bool,
            workdir: Path) -> dict:
    setup_s = []
    for _ in range(workload.setups):
        inputs = None   # every repetition starts from the same free memory
        t0 = time.perf_counter()
        inputs = workload.setup(seed, workdir)
        setup_s.append(time.perf_counter() - t0)

    tracer = bench_spans.Tracer(LAYERS, COUNTERS) if trace else None
    times = {True: [], False: []}   # by "was traced"
    checks, rss_first_kb = [], None
    begin = time.perf_counter()
    index = 0
    while True:
        traced = trace and index % 2 == 0
        elapsed, check = _attempt(workload, inputs, index,
                                  tracer if traced else None)
        times[traced].append(elapsed)
        if checks and "decisions_sha256" in check.quality:
            if check.quality["decisions_sha256"] != \
                    checks[0].quality.get("decisions_sha256"):
                check.problems.append("decisions differ from operation 0")
        checks.append(check)
        for problem in check.problems:
            print(f"operation {index} FAILED: {problem}", file=sys.stderr)
        if rss_first_kb is None:
            rss_first_kb = bench_spans.maxrss_kb()
        index += 1
        typical = statistics.median(times[True] + times[False])
        if (index >= (3 if trace else 2)
                and time.perf_counter() - begin + typical > seconds):
            break
    return {"setup_s": setup_s, "times": times, "checks": checks,
            "rss_first_kb": rss_first_kb, "tracer": tracer}


def end_to_end(workload, m: dict) -> dict:
    op_s = statistics.median(m["times"][False])
    return {"setup_s": statistics.median(m["setup_s"]),
            "op_s": op_s,
            "mpix_per_s": workload.reference_mpix / op_s,
            # high-water after the first operation, so that it does not
            # depend on how many operations fit into the run
            "peak_rss_mb": m["rss_first_kb"] / 1024.0}


def per_layer(names: list[str], m: dict) -> tuple[dict, dict]:
    tracer, times = m["tracer"], m["times"]
    traced_ops = {s.op for s in tracer.spans if s.name == "op"}
    summary = bench_spans.summarize(tracer.spans, traced_ops)
    values = {}
    for name in names:
        if name == "trace.overhead_pct":
            plain = statistics.median(times[False])
            warm = statistics.median(times[True][1:])
            values[name] = 100.0 * (warm - plain) / plain
        else:
            values[name] = bench_spans.layer_metric(summary, name,
                                                    len(traced_ops))
    return values, summary


def quality(checks: list) -> dict:
    """Numeric quality figures averaged over operations; the decisions
    digest of the first operation."""
    out = {}
    for key, first in checks[0].quality.items():
        if isinstance(first, str):
            out[key] = first
        else:
            vals = [c.quality[key] for c in checks if key in c.quality]
            out[key] = float(np.mean(vals))
    return out


def _blas_threads():
    libs = os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment(workload) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": _blas_threads(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "table_bytes_computed": workload.table_bytes()}


def run(workload, seed: int, seconds: float, trace: bool, declared: dict,
        outdir: Path) -> dict:
    """Measure one workload and return the full record; record["result"]
    is the object printed as the last line."""
    outdir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=outdir))
    try:
        m = measure(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {"workload": workload.name, "seed": seed, "trace": int(trace),
              "environment": environment(workload),
              "setup_samples": m["setup_s"],
              "op_samples": m["times"][False],
              "traced_op_samples": m["times"][True],
              "quality": quality(m["checks"])}
    e2e = end_to_end(workload, m)
    record["end_to_end"] = e2e
    if trace:
        names = [d["name"] for d in declared["per_layer"]]
        values, summary = per_layer(names, m)
        units = {d["name"]: d["unit"] for d in declared["per_layer"]}
        record["layers"] = summary
        record["spans"] = [s.as_dict() for s in m["tracer"].spans]
    else:
        values = e2e
        units = {d["name"]: d["unit"] for d in declared["end_to_end"]}
    failed = sum(not c.ok for c in m["checks"])
    record["result"] = {
        "correct": failed == 0,
        "attempted": len(m["checks"]),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}
    return record


def report(record: dict) -> None:
    res = record["result"]
    print(f"workload {record['workload']} seed {record['seed']} trace "
          f"{record['trace']}: {res['attempted']} operations, "
          f"{res['failed']} failed (ops_failed {res['failed']}/"
          f"{res['attempted']})")
    print(f"  setup samples {len(record['setup_samples'])}, untraced op "
          f"samples {len(record['op_samples'])}, traced op samples "
          f"{len(record['traced_op_samples'])}")
    for name, value in record["end_to_end"].items():
        print(f"  {name:<14} {value:.6g}")
    for name, value in record["quality"].items():
        text = value if isinstance(value, str) else f"{value:.6g}"
        print(f"  {name:<14} {text}")
    if "layers" in record:
        print("  spans by self time (per traced operation):")
        ops = max(1, len(record["traced_op_samples"]))
        top = sorted(record["layers"].items(),
                     key=lambda kv: -kv[1]["self_s"])[:12]
        for name, agg in top:
            print(f"    {name:<42} calls {agg['calls'] / ops:>8.1f}  "
                  f"s {agg['s'] / ops:>9.4f}  self_s "
                  f"{agg['self_s'] / ops:>9.4f}  rss_rise_mb "
                  f"{agg['rss_rise_kb'] / 1024:>8.1f}")
        for name, metric in res["metrics"].items():
            print(f"  {name:<46} {metric['value']:.6g} {metric['unit']}")
    print("environment " + json.dumps(record["environment"]))


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def main(argv: list[str], root: Path) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=sorted(bench_workloads.WORKLOADS))
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = bench_workloads.WORKLOADS[args.workload]()
    outdir = root / "perfbench" / "out"
    record = run(workload, args.seed, args.seconds, bool(args.trace),
                 load_declaration(root), outdir)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(outdir / name, "w") as fh:
        json.dump(record, fh)
    report(record)
    print(json.dumps(record["result"]), flush=True)
    return 0 if record["result"]["correct"] else 1
