"""Benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload discover-wide --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, a table

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics; with ``--trace 1``
the run is made twice, untraced and traced, and the metrics are the
per-layer ones plus each end-to-end metric's tracing overhead.  The line
before it is the run's provenance.  Everything the run writes stays under
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("discover-wide", "discover-deep", "serve-mixed")

#: End-to-end metrics, reported by every workload (see NOTES.md).
END_TO_END = {
    "setup_s": "s",
    "op_ms": "ms",
    "update_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics; a workload that does not exercise a layer reports 0.
PER_LAYER = {
    "maxent.fit_s": "s",
    "maxent.fit_calls": "count",
    "maxent.fit_sweeps": "count",
    "maxent.sweep_ms": "ms",
    "significance.scan_s": "s",
    "significance.verify_s": "s",
    "significance.scan_calls": "count",
    "significance.scan_cells": "count",
    "parallel.bytes_pickled": "B",
    "parallel.bytes_shared": "B",
    "parallel.broadcasts_total": "count",
    "parallel.broadcasts_skipped": "count",
    "parallel.attach_ms": "ms",
    "parallel.sharded_orders": "count",
    "parallel.dispatch_s": "s",
    "discovery.self_s": "s",
    "discovery.adopted": "count",
    "discovery.rerun_s": "s",
    "serve.wait_ms": "ms",
    "serve.batcher.flushes": "count",
    "serve.batcher.mean_batch": "count",
    "serve.batcher.coalesced_share": "ratio",
    "serve.parse_ms": "ms",
    "serve.encode_ms": "ms",
    "api.evaluate_ms": "ms",
    "api.cache_hit_ratio": "ratio",
    "core.clone_s": "s",
    "store.save_s": "s",
    "serve.updates_warm": "count",
    "serve.updates_cold": "count",
    "serve.query_p50_ms": "ms",
    "serve.query_p99_ms": "ms",
    "serve.query_tail_q": "quantile",
    "serve.query_samples": "count",
    "serve.query_rps": "1/s",
    "serve.mixed_p99_ms": "ms",
    "serve.mixed_tail_q": "quantile",
    "serve.mixed_samples": "count",
    "serve.p1.sent": "count",
    "serve.p1.failed": "count",
    "serve.p2.sent": "count",
    "serve.p2.failed": "count",
    "serve.p3.sent": "count",
    "serve.p3.failed": "count",
    "serve.p3.updates": "count",
    "loadgen.late_ms": "ms",
    "setup.import_s": "s",
    "data.table_build_s": "s",
    "calib_ms": "ms",
    "raw.discover_s": "s",
    "raw.update_s": "s",
    "raw.setup_s": "s",
    "samples.discover": "count",
    "trace.child_share": "ratio",
    **{f"overhead.{name}": unit for name, unit in END_TO_END.items()},
}


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """One run of ``workload``; returns its outcome dict."""
    from perfbench import launch

    workdir = launch.WORK / f"{workload}-{seed}-{time.time_ns()}"
    try:
        if workload == "serve-mixed":
            from perfbench import serve

            return serve.run(seed, seconds, trace, workdir)
        from perfbench import discover

        return discover.run(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def default_seed(workload: str) -> int:
    """The workload's registered scenario seed."""
    if workload == "serve-mixed":
        from perfbench import serve

        return serve.default_seed()
    from perfbench import discover

    return discover.default_seed(workload)


def measure_one(workload: str, seed: int, seconds: float, trace: bool):
    """Outcome, reported metric values and their units of one run.

    Traced, the workload runs twice: untraced for its counts and
    diagnostics, then traced for the span timings; the difference of
    their end-to-end metrics is the tracing overhead.
    """
    plain = run_workload(workload, seed, seconds, trace=False)
    if not trace:
        metrics = {name: plain["metrics"][name] for name in END_TO_END}
        return plain, metrics, END_TO_END
    traced = run_workload(workload, seed, seconds, trace=True)
    layers = {name: 0.0 for name in PER_LAYER}
    layers.update(plain["layers"])
    for name, value in traced["layers"].items():
        if name not in plain["layers"]:
            layers[name] = value
    for name in END_TO_END:
        layers[f"overhead.{name}"] = (
            traced["metrics"][name] - plain["metrics"][name]
        )
    traced["attempted"] += plain["attempted"]
    traced["failed"] += plain["failed"]
    return traced, layers, PER_LAYER


def main(argv=None) -> int:
    """Parse arguments, run, and print the result line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import launch, measure

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics: dict = {}
    for workload in workloads:
        seed = args.seed if args.seed is not None else default_seed(workload)
        info = measure.provenance(ROOT, workload, seed)
        outcome, values, units = measure_one(
            workload, seed, args.seconds, bool(args.trace)
        )
        attempted += outcome["attempted"]
        failed += outcome["failed"]
        prefix = f"{workload}/" if args.workload == "all" else ""
        for name, value in values.items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
            if args.workload == "all":
                print(f"{workload:14s} {name:32s} {value:14.4f} {units[name]}")
        record = {
            "provenance": info,
            "trace": args.trace,
            "seconds": args.seconds,
            "attempted": outcome["attempted"],
            "failed": outcome["failed"],
            "metrics": values,
            "end_to_end": outcome["metrics"],
            "layers": outcome["layers"],
        }
        results = launch.WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S")
        name = f"{workload}-{seed}-trace{args.trace}-{stamp}.json"
        (results / name).write_text(json.dumps(record, indent=1))
        print(json.dumps({"provenance": info}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
