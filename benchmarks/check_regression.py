#!/usr/bin/env python
"""Perf-regression gate: compare a fresh trajectory record to the baseline.

Usage::

    python benchmarks/run_all.py --json candidate.json --smoke --skip-suite
    python benchmarks/check_regression.py \
        --registry runs.db --candidate candidate.json \
        --output perf-regression-diff.json

Baselines come from a :class:`repro.store.RunRegistry` (``--registry``):
every ``benchmark`` run recorded with the candidate's ``smoke`` flag.  A
flat ``BENCH_discovery.json`` trajectory becomes a registry with
``repro runs import``.

Checks, against the baseline trajectory records:

- **tracked speedup ratios** (vectorized-scan speedup, sharded-scan and
  parallel-query speedups, served throughput as a share of in-process
  throughput): fail when
  the candidate degrades more than
  ``--tolerance`` (default 30%) below the baseline.  Ratios are compared
  only between records with the same ``smoke`` flag (toy-size and
  full-size timings are not comparable), and the baseline value for a
  metric is the *minimum* across matching records — a candidate only
  fails when it is worse than every baseline run, which damps
  single-record timing noise.  Parallel ratios additionally require the
  baseline machine to have had at least as many CPUs as workers; a
  laptop baseline can't set a multicore floor.
- **tracked wire costs** (distributed bytes-on-wire per warm scan):
  the mirror image — fail when the candidate *exceeds* the best
  baseline by more than the tolerance, so re-broadcasting the joint
  every scan can't creep back in.
- **absolute floors**: the sharded-scan and parallel-query *cold*
  speedups, and the warm distributed scan/query speedups, must stay
  above fixed floors (no baseline needed) on full-size candidates
  whose machine has at least as many CPUs as that subsystem's workers
  — the shm transport's break-even contract for the first scan/batch
  after a rebuild, and TCP's steady-state break-even against serial.
- **scenario conformance gates and latency SLOs**: fail when any
  scenario that passed in the baseline fails in the candidate (and when
  the candidate has any gate or SLO failure at all — same contract as
  ``run_all``).

The full comparison is written to ``--output`` as JSON (CI uploads it as
an artifact) and embeds the cross-run scenario scorecard
(:mod:`repro.eval.scorecard`) built from the baseline records plus the
candidate, so the artifact carries per-scenario trends alongside the
verdict.  The exit code is non-zero on any regression.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Dotted paths of the speedup ratios the gate tracks.  ``cpu_bound``
#: marks ratios that only mean something when the recording machine had
#: at least ``parallel.workers`` CPUs.
TRACKED_RATIOS = (
    ("metrics.scan_speedup_warm", False),
    ("parallel.scan_speedup_cold", True),
    ("parallel.scan_speedup_warm", True),
    ("parallel.query_speedup_cold", True),
    # Multi-client served throughput over in-process warm-session QPS on
    # the same host: what the network stack keeps of the library's
    # speed.  Not cpu-bound.  (``serving.throughput_ratio``, multi- over
    # single-client RPS, stays recorded but is not gated: a faster lone
    # request lowers it.)
    ("serving.served_vs_inprocess", False),
    # Warm distributed scan over localhost TCP worker daemons.
    ("distributed.scan_speedup", True),
)

#: Dotted paths of cost metrics (lower is better): the candidate fails
#: when it exceeds every-comparable-baseline's *minimum* by more than
#: the tolerance.  Wire bytes per warm scan is the broadcast-amortization
#: contract made enforceable — re-shipping the joint every scan would
#: blow straight through it.
TRACKED_COSTS = (
    ("distributed.wire_bytes_per_scan", False),
)

#: Baseline-independent floors on the cold parallel paths, enforced only
#: for full-size candidates recorded on a machine with enough CPUs.  The
#: shm transport's contract is that the *first* scan/batch after a
#: rebuild breaks even against serial (1.0x); 0.95 leaves timing noise
#: below the bar without letting the cold-path pessimization creep back.
ABSOLUTE_FLOORS = (
    ("parallel.scan_speedup_cold", 0.95),
    ("parallel.query_speedup_cold", 0.95),
    # Warm distributed paths must at least break even against serial at
    # full size on a real multicore box — the fingerprint-amortized
    # broadcasts exist to keep TCP round trips off the steady state.
    ("distributed.scan_speedup", 1.0),
    ("distributed.query_speedup", 1.0),
)


def read_records(path: Path) -> list[dict]:
    data = json.loads(path.read_text())
    if not isinstance(data, list):
        data = [data]
    if not data:
        raise SystemExit(f"error: {path} holds no trajectory records")
    return data


def lookup(record: dict, dotted: str):
    value = record
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value


def has_enough_cpus(record: dict, metric: str = "parallel.") -> bool:
    """Did the recording machine have enough CPUs for ``metric``?

    The gate reads the section the metric lives in (``parallel.*`` or
    ``distributed.*`` — each records its own ``cpus``/``workers``), so a
    laptop baseline can't set a multicore floor for either subsystem.
    """
    section = record.get(metric.split(".", 1)[0]) or {}
    return section.get("cpus", 0) >= section.get("workers", 1)


def compare_ratios(
    baseline_records: list[dict], candidate: dict, tolerance: float
) -> list[dict]:
    rows = []
    for metric, cpu_bound in TRACKED_RATIOS:
        candidate_value = lookup(candidate, metric)
        if candidate_value is None:
            continue
        usable = [
            record
            for record in baseline_records
            if lookup(record, metric) is not None
            and (not cpu_bound or has_enough_cpus(record, metric))
        ]
        if cpu_bound and not has_enough_cpus(candidate, metric):
            status = "skipped (too few cpus on candidate)"
            rows.append(
                {
                    "metric": metric,
                    "baseline": None,
                    "candidate": candidate_value,
                    "status": status,
                }
            )
            continue
        if not usable:
            rows.append(
                {
                    "metric": metric,
                    "baseline": None,
                    "candidate": candidate_value,
                    "status": "no comparable baseline",
                }
            )
            continue
        baseline_value = min(lookup(record, metric) for record in usable)
        floor = (1.0 - tolerance) * baseline_value
        regressed = candidate_value < floor
        rows.append(
            {
                "metric": metric,
                "baseline": baseline_value,
                "candidate": candidate_value,
                "floor": floor,
                "status": "regressed" if regressed else "ok",
            }
        )
    return rows


def compare_costs(
    baseline_records: list[dict], candidate: dict, tolerance: float
) -> list[dict]:
    """Cost metrics (lower is better), mirror-imaged ``compare_ratios``:
    the ceiling is ``(1 + tolerance)`` times the best (minimum)
    comparable baseline, and a candidate above it regressed."""
    rows = []
    for metric, cpu_bound in TRACKED_COSTS:
        candidate_value = lookup(candidate, metric)
        if candidate_value is None:
            continue
        usable = [
            record
            for record in baseline_records
            if lookup(record, metric) is not None
            and (not cpu_bound or has_enough_cpus(record, metric))
        ]
        if not usable:
            rows.append(
                {
                    "metric": metric,
                    "baseline": None,
                    "candidate": candidate_value,
                    "status": "no comparable baseline",
                }
            )
            continue
        baseline_value = min(lookup(record, metric) for record in usable)
        ceiling = (1.0 + tolerance) * baseline_value
        regressed = candidate_value > ceiling
        rows.append(
            {
                "metric": metric,
                "baseline": baseline_value,
                "candidate": candidate_value,
                "ceiling": ceiling,
                "status": "regressed" if regressed else "ok",
            }
        )
    return rows


def check_absolute_floors(candidate: dict) -> list[dict]:
    """Floors that hold regardless of baseline history.

    Skipped for smoke candidates (toy sizes sit below process round-trip
    cost by design) and, per metric, for machines with fewer CPUs than
    that subsystem's workers — the same gate the benchmarks themselves
    apply.  The skip is surfaced as a status row, never silent.
    """
    rows = []
    full_size = not candidate.get("smoke", False)
    for metric, floor in ABSOLUTE_FLOORS:
        value = lookup(candidate, metric)
        if value is None:
            continue
        if not (full_size and has_enough_cpus(candidate, metric)):
            status = "skipped (smoke or too few cpus)"
        elif value < floor:
            status = "regressed"
        else:
            status = "ok"
        rows.append(
            {
                "metric": metric,
                "floor": floor,
                "candidate": value,
                "status": status,
            }
        )
    return rows


def compare_scenarios(
    baseline_records: list[dict], candidate: dict
) -> list[dict]:
    latest_passed: dict[str, bool] = {}
    for record in baseline_records:
        for entry in record.get("scenarios") or []:
            latest_passed[entry["scenario"]] = entry.get("passed", True)
    rows = []
    for entry in candidate.get("scenarios") or []:
        name = entry["scenario"]
        passed = entry.get("passed", True)
        passed_before = latest_passed.get(name)
        if not passed:
            # A gate miss only gets a pass here when the baseline already
            # failed the same scenario (known-bad); new scenarios with no
            # baseline are held to their gates like run_all itself does.
            status = (
                "failing (also in baseline)"
                if passed_before is False
                else "regressed"
            )
        else:
            status = "ok"
        rows.append(
            {
                "scenario": name,
                "baseline_passed": passed_before,
                "candidate_passed": passed,
                "gate_failures": entry.get("gate_failures", []),
                "slo_failures": entry.get("slo_failures", []),
                "status": status,
            }
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--registry",
        required=True,
        metavar="PATH",
        help="run registry (SQLite) holding the baseline benchmark runs",
    )
    parser.add_argument(
        "--candidate",
        required=True,
        help="trajectory file from the fresh run_all --json run",
    )
    parser.add_argument(
        "--output",
        help="write the full comparison as JSON here (CI artifact)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional speedup degradation (default 0.30)",
    )
    args = parser.parse_args(argv)

    candidate = read_records(Path(args.candidate))[-1]
    smoke = candidate.get("smoke", False)
    # Only same-mode records are comparable: baseline_records(smoke)
    # returns same-flag benchmark runs, so with no matching baseline the
    # ratio rows report "no comparable baseline" rather than judging
    # toy-size timings against full-size ones (or vice versa).
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.store import RunRegistry

    with RunRegistry(args.registry) as registry:
        baseline = registry.baseline_records(smoke)
    if not baseline:
        print(
            f"warning: {args.registry} holds no smoke={smoke} benchmark "
            f"runs; every ratio will report 'no comparable baseline'",
            file=sys.stderr,
        )

    ratios = compare_ratios(baseline, candidate, args.tolerance)
    costs = compare_costs(baseline, candidate, args.tolerance)
    floors = check_absolute_floors(candidate)
    scenarios = compare_scenarios(baseline, candidate)
    regressions = [
        f"{row['metric']}: {row['candidate']:.3g}x < floor "
        f"{row['floor']:.3g}x (baseline {row['baseline']:.3g}x)"
        for row in ratios
        if row["status"] == "regressed"
    ] + [
        f"{row['metric']}: {row['candidate']:.0f} > ceiling "
        f"{row['ceiling']:.0f} (baseline {row['baseline']:.0f})"
        for row in costs
        if row["status"] == "regressed"
    ] + [
        f"{row['metric']}: {row['candidate']:.2f}x < absolute floor "
        f"{row['floor']:.2f}x"
        for row in floors
        if row["status"] == "regressed"
    ] + [
        f"scenario {row['scenario']}: "
        + "; ".join(
            row["gate_failures"]
            + [f"SLO {miss}" for miss in row["slo_failures"]]
        )
        for row in scenarios
        if row["status"] == "regressed"
    ]

    from repro.eval.scorecard import (
        build_scorecard,
        scenario_entries_from_trajectory,
    )

    scorecard = build_scorecard(
        scenario_entries_from_trajectory([*baseline, candidate])
    )
    report = {
        "smoke": smoke,
        "tolerance": args.tolerance,
        "baseline_records_compared": len(baseline),
        "candidate_timestamp": candidate.get("timestamp"),
        "ratios": ratios,
        "costs": costs,
        "absolute_floors": floors,
        "scenarios": scenarios,
        "scorecard": scorecard,
        "regressions": regressions,
        "passed": not regressions,
    }
    if args.output:
        Path(args.output).write_text(json.dumps(report, indent=2) + "\n")

    for row in ratios:
        baseline_text = (
            f"{row['baseline']:.3g}x" if row["baseline"] is not None else "-"
        )
        print(
            f"{row['metric']:<32} baseline {baseline_text:>8} "
            f"candidate {row['candidate']:.3g}x  [{row['status']}]"
        )
    for row in costs:
        baseline_text = (
            f"{row['baseline']:.0f}" if row["baseline"] is not None else "-"
        )
        print(
            f"{row['metric']:<32} baseline {baseline_text:>8} "
            f"candidate {row['candidate']:.0f}  [{row['status']}]"
        )
    for row in floors:
        print(
            f"{row['metric']:<32} absolute {row['floor']:.2f}x "
            f"candidate {row['candidate']:.2f}x  [{row['status']}]"
        )
    failing = [row for row in scenarios if not row["candidate_passed"]]
    print(
        f"scenarios: {len(scenarios) - len(failing)}/{len(scenarios)} "
        f"conformant"
    )
    if regressions:
        print("\nperformance regressions detected:", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("no performance regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
