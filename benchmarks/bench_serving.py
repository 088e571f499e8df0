#!/usr/bin/env python
"""Serving-layer benchmark: network round-trip throughput and latency.

The workload comes from ``_serving_scenario`` — the paper's knowledge
base behind the full :mod:`repro.serve` stack (sockets, HTTP framing,
the coalescing batcher, the session pool).  Measured shapes:

- **closed loop, 1 client**: the per-request floor — every request pays
  a full network round trip with no coalescing opportunity.
- **closed loop, 4 clients**: concurrent independent clients; the
  micro-batcher sends a request on at once when no evaluation is
  running, and folds the requests that arrive during one into the next
  shared batch evaluation.  A lone request never waits, so the
  single-client floor is high and the multi-client ratio modest.
- **open loop**: a fixed arrival schedule at half the measured
  closed-loop capacity; latency is measured from the scheduled send
  time, so queueing delay is visible.

Shape criteria: every served answer equals in-process ``kb.query()``
bit-for-bit (the scenario raises otherwise), the batcher reports zero
evaluation errors, and — on a machine with at least as many CPUs as
clients, outside smoke mode — multi-client throughput is at least
``MIN_THROUGHPUT_RATIO`` times the single-client floor.  The ratio is
recorded in the trajectory (``serving.throughput_ratio``) as a
diagnostic; ``check_regression.py`` gates ``serving.served_vs_inprocess``,
multi-client RPS over in-process warm-session QPS on the same host.

Standalone (the CI serving artifact)::

    python benchmarks/bench_serving.py --json serving-bench.json --smoke
"""

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import pytest

from _serving_scenario import CLIENTS, measure_serving
from repro.eval.tables import format_table

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
CPUS = os.cpu_count() or 1
#: Multi-client closed-loop RPS over single-client RPS.  The floor is
#: deliberately loose — it asserts "concurrency helps", not a specific
#: machine.  A lone request never waits for company, so the ratio is
#: modest; it is unverified at full size on >= 4 CPUs, the only setting
#: that enforces it.
MIN_THROUGHPUT_RATIO = 1.3
ENFORCE_RATIOS = not SMOKE and CPUS >= CLIENTS


@pytest.fixture(scope="module")
def serving_metrics():
    return measure_serving(SMOKE)


def test_bench_serving_throughput(serving_metrics, write_report):
    metrics = serving_metrics
    open_stats = metrics["open_loop"]
    rows = [
        [
            "closed loop x1",
            f"{metrics['single_client_rps']:.0f}",
            f"{metrics['single_client_p50_ms']:.2f}",
            "-",
            "1.0x",
        ],
        [
            f"closed loop x{metrics['clients']}",
            f"{metrics['rps']:.0f}",
            f"{metrics['p50_ms']:.2f}",
            f"{metrics['p99_ms']:.2f}",
            f"{metrics['throughput_ratio']:.1f}x",
        ],
        [
            f"open loop @{open_stats['target_rps']:.0f}/s",
            f"{open_stats['achieved_rps']:.0f}",
            f"{open_stats['p50_ms']:.2f}",
            f"{open_stats['p99_ms']:.2f}",
            "-",
        ],
    ]
    coalescing = metrics["coalescing"]
    write_report(
        "serving.txt",
        f"SERVED QUERY THROUGHPUT ({metrics['query_mix']}-query mix, "
        f"{metrics['requests_per_client']} requests/client, {CPUS} cpus)\n\n"
        + format_table(
            ["load shape", "rps", "p50 (ms)", "p99 (ms)", "vs x1"], rows
        )
        + (
            f"\n\ncoalescing: {coalescing['submitted']} submissions in "
            f"{coalescing['flushes']} flushes "
            f"(mean batch {coalescing['mean_batch']:.2f}, "
            f"max {coalescing['max_batch']})\n"
            f"in-process warm session: {metrics['inprocess_qps']:.0f} "
            f"queries/sec (served = "
            f"{100 * metrics['served_vs_inprocess']:.1f}% of in-process)"
        ),
    )

    # The scenario itself raised if any served float diverged from the
    # in-process answer; assert the flag so the contract is visible here.
    assert metrics["bit_identical"]
    assert coalescing["errors"] == 0
    assert metrics["p99_ms"] >= metrics["p50_ms"]
    if ENFORCE_RATIOS:
        assert metrics["throughput_ratio"] >= MIN_THROUGHPUT_RATIO, (
            f"{metrics['clients']} concurrent clients only reached "
            f"{metrics['throughput_ratio']:.2f}x the single-client "
            f"throughput (need >= {MIN_THROUGHPUT_RATIO}x)"
        )


def test_bench_serving_open_loop_keeps_schedule(serving_metrics):
    """Open-loop dispatch at half capacity must not fall behind its own
    schedule — achieved RPS within 20% of the target arrival rate."""
    open_stats = serving_metrics["open_loop"]
    assert open_stats["achieved_rps"] >= 0.8 * open_stats["target_rps"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json",
        required=True,
        metavar="PATH",
        help="write a serving-bench record to PATH (CI artifact)",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes for CI"
    )
    args = parser.parse_args(argv)

    metrics = measure_serving(args.smoke or SMOKE)
    record = {
        "timestamp": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime(time.time())
        ),
        "smoke": args.smoke or SMOKE,
        "python": platform.python_version(),
        "cpus": CPUS,
        "serving": metrics,
    }
    Path(args.json).write_text(json.dumps(record, indent=2) + "\n")
    print(
        f"serving-bench record written to {args.json} "
        f"({metrics['rps']:.0f} rps at x{metrics['clients']}, "
        f"{metrics['throughput_ratio']:.1f}x the single-client floor, "
        f"bit-identical)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
