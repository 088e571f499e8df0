"""The discover-wide and discover-deep workloads (benchmark side).

The benchmark generates the rows, computes the reference-backend oracle,
and then starts ``perfbench.discover_child`` processes: a few that stop
once ready, to time set-up, and one that runs discovery for the run's
seconds and reports raw timings, calibration times and the program's own
counters.
"""

from __future__ import annotations

import json
import subprocess

import numpy as np

from perfbench import launch, measure, spans
from perfbench.discover_child import keys_of

#: workload -> (scenario, worker processes)
WORLDS = {
    "discover-wide": ("stress-wide-16", 1),
    "discover-deep": ("stress-wide-order3", 2),
}
ROWS = 40_000
DELTA_ROWS = 2_000
SETUP_PROBES = 4


def default_seed(workload: str) -> int:
    """The registered seed of the workload's scenario."""
    from repro.scenarios.registry import get_scenario

    return get_scenario(WORLDS[workload][0]).seed


def prepare(workload: str, seed: int, workdir, seconds: float, trace: bool):
    """Write the child's inputs; returns the spec path and the spec."""
    from repro.data.contingency import ContingencyTable
    from repro.discovery.config import DiscoveryConfig
    from repro.discovery.engine import DiscoveryEngine
    from repro.exceptions import ConstraintError
    from repro.scenarios.registry import get_scenario

    world, workers = WORLDS[workload]
    scenario = get_scenario(world)
    population = scenario.build(smoke=True).population
    rng = np.random.default_rng(seed)
    rows = population.sample(ROWS, rng)
    delta = population.sample(DELTA_ROWS, rng)
    table = rows.to_contingency()
    merged = ContingencyTable(
        table.schema, table.counts + delta.to_contingency().counts
    )
    oracle = DiscoveryEngine(
        DiscoveryConfig(max_order=scenario.max_order),
        scan_backend="reference",
    )
    reference = oracle.run(table)
    try:
        again = oracle.rerun(merged, reference)
    except ConstraintError:
        again = oracle.run(merged)
    workdir.mkdir(parents=True, exist_ok=True)
    np.savez(workdir / "rows.npz", rows=rows.rows, delta=delta.rows)
    spec = {
        "schema": [
            [attribute.name, list(attribute.values)]
            for attribute in table.schema
        ],
        "rows": str(workdir / "rows.npz"),
        "max_order": scenario.max_order,
        "workers": workers,
        "seconds": seconds,
        "trace": trace,
        "spans": str(workdir / "spans.jsonl"),
        "expected_run": keys_of(reference),
        "expected_rerun": keys_of(again),
    }
    path = workdir / "spec.json"
    path.write_text(json.dumps(spec))
    return path, spec


def _ready(line: str) -> bool:
    return line.startswith("READY ")


def run(workload: str, seed: int, seconds: float, trace: bool, workdir):
    """One run of a discover-* workload; returns an outcome dict."""
    spec_path, spec = prepare(workload, seed, workdir, seconds, trace)
    child = launch.python("-m", "perfbench.discover_child", str(spec_path))
    probes = []
    for _ in range(SETUP_PROBES):
        started = launch.launch(child + ["--setup-only"], _ready)
        started.process.communicate(timeout=60)
        launch.stop(started.process)
        probes.append(started)
    main = launch.launch(child, _ready, calibrated=False)
    try:
        output, _ = main.process.communicate(timeout=seconds + 150)
    except subprocess.TimeoutExpired:
        launch.stop(main.process)
        raise
    launch.stop(main.process)
    if main.process.returncode != 0:
        raise RuntimeError(f"discover child exited {main.process.returncode}")
    report = json.loads(output.strip().splitlines()[-1])
    return summarise(report, probes, spec)


def summarise(report: dict, probes, spec: dict) -> dict:
    """End-to-end and per-layer metrics of one discover-* run."""
    iterations = report["iterations"]
    warm = iterations[1:]  # the first iteration warms caches and workers
    failed = sum(
        (not it["run_ok"]) + (not it["rerun_ok"]) for it in iterations
    )
    ready = [json.loads(probe.line.split(" ", 1)[1]) for probe in probes]
    last = iterations[-1]
    calibs = [c for it in iterations for c in it["run_calib_s"]]
    layers = {
        "maxent.fit_calls": last["fit_calls"],
        "maxent.fit_sweeps": last["fit_sweeps"],
        "significance.scan_calls": last["scan_calls"],
        "significance.scan_cells": last["scan_cells"],
        "parallel.bytes_pickled": last["bytes_pickled"],
        "parallel.bytes_shared": last["bytes_shared"],
        "parallel.broadcasts_total": last["broadcasts_total"],
        "parallel.broadcasts_skipped": last["broadcasts_skipped"],
        "parallel.attach_ms": last["attach_ms"],
        "parallel.sharded_orders": last["sharded_orders"],
        "discovery.adopted": last["adopted"],
        "setup.import_s": measure.median([r["import_s"] for r in ready]),
        "data.table_build_s": measure.median(
            [r["table_build_s"] for r in ready]
        ),
        "calib_ms": 1e3 * measure.median(calibs),
        "raw.discover_s": measure.median([it["run_s"] for it in warm]),
        "raw.update_s": measure.median([it["rerun_s"] for it in warm]),
        "raw.setup_s": measure.median([probe.raw_s for probe in probes]),
        "samples.discover": len(warm),
    }
    if spec["trace"]:
        layers.update(traced_layers(spec, iterations))
    return {
        "attempted": 2 * len(iterations),
        "failed": failed,
        "metrics": {
            "setup_s": measure.median([probe.setup_s for probe in probes]),
            "op_ms": 1e3
            * measure.median([_normalised(it, "run") for it in warm]),
            "update_s": measure.median(
                [_normalised(it, "rerun") for it in warm]
            ),
            "peak_rss_mb": report["peak_rss_mb"],
        },
        "layers": layers,
    }


def _normalised(iteration: dict, op: str) -> float:
    """An iteration's ``run`` or ``rerun`` time at reference speed."""
    calib = iteration[f"{op}_calib_s"]
    return measure.normalise(iteration[f"{op}_s"], sum(calib) / 2)


def traced_layers(spec: dict, iterations) -> dict:
    """Per-layer times per cold discovery, from the child's spans.

    Each span is restated at the reference host's speed with its own
    iteration's calibration, and the warm-up iteration is left out.
    """
    items = spans.load(spec["spans"])
    factor = {}
    for index, it in enumerate(iterations):
        calibs = it["run_calib_s"] + it["rerun_calib_s"]
        factor[index] = measure.normalise(1.0, sum(calibs) / len(calibs))
    roots = spans.root_of(items)
    own = spans.self_time_each(items)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    for index, (name, start, end, _parent, rid) in enumerate(items):
        if rid is None or rid < 1:
            continue
        key = f"{items[roots[index]][0]}/{name}"
        scale = factor[rid]
        total[key] = total.get(key, 0.0) + (end - start) / 1e9 * scale
        self_total[key] = self_total.get(key, 0.0) + own[index] * scale
    count = len(iterations) - 1

    def per_run(*names):
        return sum(total.get(f"discovery.run/{n}", 0.0) for n in names) / count

    fit_s = per_run("maxent.fit")
    run_s = per_run("discovery.run")
    self_s = self_total.get("discovery.run/discovery.run", 0.0) / count
    sweeps = iterations[-1]["fit_sweeps"]
    return {
        "maxent.fit_s": fit_s,
        "maxent.sweep_ms": 1e3 * fit_s / sweeps if sweeps else 0.0,
        "significance.scan_s": per_run("significance.scan", "parallel.scan"),
        "significance.verify_s": per_run(
            "significance.verify", "parallel.verify"
        ),
        "parallel.dispatch_s": per_run("parallel.dispatch"),
        "discovery.self_s": self_s,
        "discovery.rerun_s": total.get(
            "discovery.rerun/discovery.rerun", 0.0
        )
        / count,
        "trace.child_share": 1.0 - self_s / run_s if run_s else 0.0,
    }
