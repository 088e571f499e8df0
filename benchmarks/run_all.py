#!/usr/bin/env python
"""Run the benchmark suite and record a discovery-performance trajectory.

Usage::

    python benchmarks/run_all.py                 # pytest-run every bench
    python benchmarks/run_all.py --json          # + append BENCH_discovery.json
    python benchmarks/run_all.py --json --smoke  # tiny sizes (CI)
    python benchmarks/run_all.py --json --skip-suite   # metrics only
    python benchmarks/run_all.py --json --smoke --skip-suite \
        --tier stress                            # nightly stress matrix
    python benchmarks/run_all.py --json --smoke --registry runs.db \
        --scorecard scorecard.md                 # + cross-run scorecard

``--json`` measures the discovery hot path directly — per-order scan time
(scalar reference vs vectorized kernel, cold and warm), full kernel- and
reference-backed discovery runs, and the engine's per-stage split — checks
that the vectorized and reference decisions are identical, measures the
parallel subsystem (sharded scans and concurrent batch queries vs the
serial paths, equivalence asserted, ratios recorded with the machine's
CPU count), measures the serving layer (closed/open-loop RPS and latency
through the :mod:`repro.serve` network stack, served answers asserted
bit-identical to in-process queries), runs the scenario conformance
matrix (``repro.scenarios``; ``--tier`` selects registry tiers, so the
nightly job replays the stress fleet with ``--tier stress``) and embeds
its per-scenario precision/recall/KL/stage/latency-SLO metrics, and
appends one record to a trajectory file (default ``BENCH_discovery.json``
at the repo root).  The file is a JSON list, one record per invocation,
so successive runs chart scan performance, parallel speedups, and
conformance quality over time — ``check_regression.py`` gates PRs
against it.  With ``--registry`` the record also lands in the run
registry (SQLite), and ``--scorecard`` renders the cross-run scenario
scorecard (:mod:`repro.eval.scorecard`) from everything recorded there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_TRAJECTORY = REPO_ROOT / "BENCH_discovery.json"


def run_suite(smoke: bool) -> int:
    """Run every benchmark file under pytest; returns the exit code."""
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", str(REPO_ROOT / "src"))
    if smoke:
        env["REPRO_BENCH_SMOKE"] = "1"
    bench_files = sorted(
        str(path) for path in (REPO_ROOT / "benchmarks").glob("bench_*.py")
    )
    command = [sys.executable, "-m", "pytest", "-q", *bench_files]
    return subprocess.call(command, env=env)


def measure_discovery(smoke: bool) -> dict:
    """The discovery-scan trajectory metrics (and equivalence check).

    The scenario (table, warm-up state, timing policy) comes from
    ``_discovery_scenario``, the same module the enforced benchmark uses,
    so trajectory records stay comparable to the CI-asserted numbers.
    """
    from _discovery_scenario import (
        ORDER,
        best_of,
        build_table,
        order_entry_state,
        sample_size,
        timing_repeats,
    )
    from repro.discovery.config import DiscoveryConfig
    from repro.discovery.engine import DiscoveryEngine
    from repro.significance.kernels import OrderScanKernel
    from repro.significance.mml import most_significant, reference_scan_order

    n_samples = sample_size(smoke)
    repeats = timing_repeats(smoke)
    order = ORDER
    table = build_table(smoke)
    model, constraints = order_entry_state(table)

    reference_tests = reference_scan_order(table, model, order, constraints)
    warm_kernel = OrderScanKernel(table, order, constraints)
    vectorized_tests = warm_kernel.scan(model)
    if list(vectorized_tests) != reference_tests:
        raise AssertionError(
            "vectorized scan diverged from the scalar reference"
        )
    if vectorized_tests.best() != most_significant(reference_tests):
        raise AssertionError(
            "the kernel's argmax diverged from the scalar reference"
        )

    # The reference builds every CellTest and then picks one; the kernel
    # timings are the engine's scan: columns plus the argmax.
    scan_reference = best_of(
        lambda: most_significant(
            reference_scan_order(table, model, order, constraints)
        ),
        repeats,
    )
    scan_cold = best_of(
        lambda: OrderScanKernel(table, order, constraints).scan(model).best(),
        repeats,
    )
    scan_warm = best_of(lambda: warm_kernel.scan(model).best(), repeats)

    config = DiscoveryConfig(max_order=3)
    start = time.perf_counter()
    kernel_run = DiscoveryEngine(config).run(table)
    discovery_kernel = time.perf_counter() - start
    start = time.perf_counter()
    reference_run = DiscoveryEngine(config, scan_backend="reference").run(
        table
    )
    discovery_reference = time.perf_counter() - start
    if [c.key for c in kernel_run.found] != [
        c.key for c in reference_run.found
    ]:
        raise AssertionError(
            "kernel-backed discovery adopted different constraints than "
            "the reference backend"
        )

    profile = kernel_run.profile
    return {
        "scenario": "order3-medical-survey",
        "n_samples": n_samples,
        "candidate_cells": len(reference_tests),
        "scan_reference_ms": 1e3 * scan_reference,
        "scan_kernel_cold_ms": 1e3 * scan_cold,
        "scan_kernel_warm_ms": 1e3 * scan_warm,
        "scan_speedup_warm": scan_reference / scan_warm,
        "discovery_kernel_s": discovery_kernel,
        "discovery_reference_s": discovery_reference,
        "constraints_found": len(kernel_run.found),
        "stage_scan_s": profile.scan_seconds,
        "stage_fit_s": profile.fit_seconds,
        "stage_verify_s": profile.verify_seconds,
    }


def measure_parallel(smoke: bool) -> dict:
    """Parallel-subsystem trajectory metrics (equivalence always checked).

    The workload and measurement live in ``_parallel_scenario`` — the
    module the enforced ``bench_parallel.py`` (and its standalone
    ``--json`` emitter) uses — so trajectory records, CI artifacts, and
    the asserted benchmarks always measure exactly the same thing.  The
    record includes the resolved transport and its payload ledger
    (``scan_bytes_shared`` / ``scan_bytes_pickled`` and the query-side
    equivalents) alongside the cold and warm speedups.
    """
    from _parallel_scenario import measure_parallel as _measure

    return _measure(smoke)


def measure_distributed(smoke: bool) -> dict:
    """Distributed-transport trajectory metrics (bit-identity checked).

    The workload and the worker-daemon lifecycle come from
    ``_distributed_scenario`` — the module ``bench_distributed.py``
    uses — so trajectory records and the CI artifact measure the same
    thing.  Environments that cannot spawn localhost daemons (no
    subprocesses, no loopback) record a ``skipped`` reason instead of
    failing the whole emitter: the distributed metrics are additive to
    the trajectory, not a precondition for it.
    """
    try:
        from _distributed_scenario import measure_distributed as _measure

        return _measure(smoke)
    except Exception as error:  # noqa: BLE001 - recorded, not swallowed
        return {"skipped": f"{type(error).__name__}: {error}"}


def measure_serving(smoke: bool) -> dict:
    """Serving-layer trajectory metrics (bit-identity always checked).

    The workload comes from ``_serving_scenario``, the module
    ``bench_serving.py`` uses: the paper's knowledge base behind the
    full :mod:`repro.serve` network stack.  Served throughput as a
    share of in-process throughput is recorded here and gated by
    ``check_regression.py`` (``serving.served_vs_inprocess``).
    """
    from _serving_scenario import measure_serving as _measure

    return _measure(smoke)


def measure_scenarios(smoke: bool, tiers=None) -> list[dict]:
    """Per-scenario conformance metrics for the trajectory record.

    Baselines are skipped — the trajectory tracks the paper's own engine;
    the conformance runner's selector comparison lives in the CI
    scenario-matrix job and ``repro scenarios run``.  Gate misses and
    latency-SLO misses are embedded in the records (``gate_failures`` /
    ``slo_failures`` / ``passed``), not raised: the caller appends the
    record *first* and fails after, so a miss still ships the metrics
    that explain it.  ``tiers`` selects registry tiers (default: the
    smoke+full fleet; pass ``["stress"]`` for the nightly stress matrix).
    """
    from repro.scenarios import outcome_to_dict, run_matrix

    outcomes = run_matrix(smoke=smoke, include_baselines=False, tiers=tiers)
    return [outcome_to_dict(outcome) for outcome in outcomes]


def write_scorecard(registry_path: str, scorecard_path: Path) -> None:
    """Render the cross-run scenario scorecard from the run registry.

    Reads every scenario outcome the registry holds (including the ones
    the current invocation just recorded), writes the markdown report to
    ``scorecard_path`` and the JSON document next to it (``.json``).
    """
    from repro.eval.scorecard import (
        build_scorecard,
        render_scorecard_markdown,
        scenario_entries_from_registry,
    )
    from repro.store import RunRegistry

    with RunRegistry(registry_path) as registry:
        entries = scenario_entries_from_registry(registry)
    scorecard = build_scorecard(entries)
    scorecard_path.write_text(render_scorecard_markdown(scorecard))
    json_path = scorecard_path.with_suffix(".json")
    json_path.write_text(json.dumps(scorecard, indent=2) + "\n")
    print(
        f"scorecard written to {scorecard_path} and {json_path} "
        f"({scorecard['total_scenarios']} scenarios, "
        f"{scorecard['total_outcomes']} outcomes)",
        file=sys.stderr,
    )


def append_trajectory(path: Path, record: dict) -> None:
    history: list = []
    if path.exists():
        try:
            history = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            history = []
        if not isinstance(history, list):
            history = [history]
    history.append(record)
    path.write_text(json.dumps(history, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json",
        nargs="?",
        const=str(DEFAULT_TRAJECTORY),
        default=None,
        metavar="PATH",
        help=(
            "append a discovery trajectory record to PATH "
            f"(default {DEFAULT_TRAJECTORY.name})"
        ),
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI (sets REPRO_BENCH_SMOKE=1)",
    )
    parser.add_argument(
        "--skip-suite",
        action="store_true",
        help="skip the pytest benchmark suite, only emit metrics",
    )
    parser.add_argument(
        "--registry",
        metavar="PATH",
        help=(
            "also record the trajectory record in this run registry "
            "(SQLite; created if missing) under a content-derived run_id "
            "— the source check_regression.py --registry compares against"
        ),
    )
    parser.add_argument(
        "--tier",
        action="append",
        choices=["smoke", "full", "stress", "all"],
        help=(
            "scenario registry tiers to run (repeatable; default "
            "smoke+full — 'stress' selects the nightly stress matrix)"
        ),
    )
    parser.add_argument(
        "--scorecard",
        metavar="PATH",
        help=(
            "with --registry: write the cross-run scenario scorecard "
            "(markdown at PATH, JSON next to it) after recording the run"
        ),
    )
    args = parser.parse_args(argv)
    if args.registry and args.json is None:
        parser.error("--registry requires --json (it records the metrics)")
    if args.scorecard and not args.registry:
        parser.error("--scorecard requires --registry (it aggregates runs)")

    status = 0
    if not args.skip_suite:
        status = run_suite(args.smoke)
        if status != 0:
            return status

    if args.json is not None:
        if args.smoke:
            os.environ["REPRO_BENCH_SMOKE"] = "1"
        sys.path.insert(0, str(REPO_ROOT / "src"))
        from repro.store import current_git_sha

        started = time.time()
        metrics = measure_discovery(args.smoke)
        parallel = measure_parallel(args.smoke)
        distributed = measure_distributed(args.smoke)
        serving = measure_serving(args.smoke)
        scenarios = measure_scenarios(args.smoke, tiers=args.tier)
        record = {
            "timestamp": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)
            ),
            "smoke": args.smoke,
            "python": platform.python_version(),
            "git_sha": current_git_sha() or None,
            "cpus": os.cpu_count() or 1,
            "metrics": metrics,
            "parallel": parallel,
            "distributed": distributed,
            "serving": serving,
            "scenarios": scenarios,
        }
        path = Path(args.json)
        append_trajectory(path, record)
        if args.registry:
            from repro.store import RunRegistry, config_hash

            with RunRegistry(args.registry) as registry:
                run = registry.record(
                    kind="benchmark",
                    metrics=record,
                    smoke=args.smoke,
                    cpus=parallel["cpus"],
                    config_hash=config_hash(
                        {"suite": "run_all", "smoke": args.smoke}
                    ),
                    git_sha=record["git_sha"] or "",
                    created_at=record["timestamp"],
                )
            print(
                f"run {run.run_id} recorded in {args.registry}",
                file=sys.stderr,
            )
            if args.scorecard:
                write_scorecard(args.registry, Path(args.scorecard))
        failed = [
            f"{entry['scenario']}: {failure}"
            for entry in scenarios
            for failure in entry.get("gate_failures", [])
        ] + [
            f"{entry['scenario']}: SLO {failure}"
            for entry in scenarios
            for failure in entry.get("slo_failures", [])
        ]
        if failed:
            # The record (with the failing metrics embedded) is already
            # on disk — exactly the diagnostic a gate miss needs.
            print(
                f"trajectory record appended to {path}; scenario "
                f"conformance gates or latency SLOs missed:",
                file=sys.stderr,
            )
            for failure in failed:
                print(f"  {failure}", file=sys.stderr)
            return 1
        distributed_note = (
            f"tcp x{distributed['workers']} warm scan "
            f"{distributed['scan_speedup']:.1f}x, "
            if "skipped" not in distributed
            else f"distributed skipped ({distributed['skipped']}), "
        )
        print(
            f"trajectory record appended to {path} "
            f"(warm scan speedup {metrics['scan_speedup_warm']:.1f}x, "
            f"sharded x{parallel['workers']} cold scan "
            f"{parallel['scan_speedup_cold']:.1f}x on "
            f"{parallel['cpus']} cpus, "
            f"{distributed_note}"
            f"served x{serving['clients']} throughput "
            f"{serving['throughput_ratio']:.1f}x the single-client floor, "
            f"{len(scenarios)} scenarios conformant)"
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
