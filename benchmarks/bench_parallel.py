"""Sharded discovery scans against the serial kernel.

The workload comes from ``_parallel_scenario`` (the wide order-3 world —
see that module for why the paper-sized survey is below process-pool
round-trip cost):

- **sharded discovery scans**: a serial
  :class:`~repro.significance.kernels.OrderScanKernel` whole-order scan
  vs a :class:`~repro.parallel.scan.ShardedScanExecutor` at 4 workers,
  cold (data-side statistics built per shard) and warm (the engine
  loop's steady state).  Part of the parallel win is structural: workers
  ship columnar payloads and the shard-merged argmax, so the master
  never materializes the full CellTest list on the hot path — the audit
  trail decodes lazily on first read.

Shape criteria: the sharded scan's merged output — every CellTest float
and the greedy argmax — equals the serial scan exactly, and a 4-worker
discovery run on the medical-survey scenario equals the serial run
exactly (adopted constraints, fitted marginals).  At full size on a
machine with >= 4 CPUs, the warm sharded scan is at least 2x the serial
kernel and the cold one at least breaks even; under
``REPRO_BENCH_SMOKE=1`` (or fewer cores) the equivalences stay enforced
and the ratios are reported only.
"""

import argparse
import json
import multiprocessing
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from _parallel_scenario import (
    MIN_PARALLEL_COLD_SPEEDUP,
    MIN_PARALLEL_SPEEDUP,
    ORDER,
    WORKERS,
    best_of,
    build_world,
    measure_parallel,
    timing_repeats,
)
from repro.discovery.config import DiscoveryConfig
from repro.discovery.engine import DiscoveryEngine
from repro.eval.tables import format_table
from repro.parallel.scan import ShardedScanExecutor
from repro.significance.kernels import OrderScanKernel
from repro.significance.mml import most_significant

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
REPEATS = timing_repeats(SMOKE)
CPUS = os.cpu_count() or 1
#: WorkerPool runs under fork or spawn alike (module:function task
#: addressing survives a spawn re-import); only a platform with no start
#: method at all skips.
HAS_PROCESSES = bool(multiprocessing.get_all_start_methods())
#: Wall-clock floors are only meaningful with real cores to shard onto.
ENFORCE_RATIOS = not SMOKE and CPUS >= WORKERS

pytestmark = pytest.mark.skipif(
    not HAS_PROCESSES, reason="no multiprocessing start method available"
)


@pytest.fixture(scope="module")
def world():
    return build_world(SMOKE)


def test_bench_sharded_scan_speedup(world, write_report):
    table, constraints, model = world

    serial_kernel = OrderScanKernel(table, ORDER, constraints)
    serial_tests = serial_kernel.scan(model)
    serial_best = most_significant(serial_tests)

    with ShardedScanExecutor(max_workers=WORKERS) as executor:
        executor.begin_order(table, ORDER, constraints, None)
        parallel_tests, parallel_best = executor.scan(model)

        # Bit-identity: the lazy merged list equals the serial list —
        # every m1/m2/moment float — and the shard-merged argmax is the
        # same cell min() picks.
        assert parallel_tests == serial_tests
        assert parallel_best == serial_best

        # Timings.  Cold = data-side statistics rebuilt (the state after
        # an adoption invalidates a shard's subsets); warm = steady state.
        def serial_cold():
            OrderScanKernel(table, ORDER, constraints).scan(model)

        def parallel_cold():
            executor.begin_order(table, ORDER, constraints, None)
            executor.scan(model)

        serial_cold_s = best_of(serial_cold, REPEATS)
        serial_warm_s = best_of(lambda: serial_kernel.scan(model), REPEATS)
        parallel_cold_s = best_of(parallel_cold, REPEATS)
        # Re-prime, then measure the warm path.
        executor.begin_order(table, ORDER, constraints, None)
        executor.scan(model)
        parallel_warm_s = best_of(lambda: executor.scan(model), REPEATS)
        executor.end_order()

    cold_speedup = serial_cold_s / parallel_cold_s
    warm_speedup = serial_warm_s / parallel_warm_s
    counters = executor.counters
    rows = [
        ["serial kernel, cold", f"{1e3 * serial_cold_s:.2f}", "1.0x"],
        [
            f"sharded x{WORKERS}, cold",
            f"{1e3 * parallel_cold_s:.2f}",
            f"{cold_speedup:.1f}x",
        ],
        ["serial kernel, warm", f"{1e3 * serial_warm_s:.2f}", "1.0x"],
        [
            f"sharded x{WORKERS}, warm",
            f"{1e3 * parallel_warm_s:.2f}",
            f"{warm_speedup:.1f}x",
        ],
    ]
    write_report(
        "parallel_scan.txt",
        f"SHARDED ORDER-{ORDER} SCAN ({len(serial_tests)} candidate "
        f"cells, {WORKERS} workers, {CPUS} cpus, best of {REPEATS})\n\n"
        + format_table(["scan path", "per-order scan (ms)", "speedup"], rows)
        + f"\n\ntransport {executor.transport}: "
        f"{counters.bytes_shared} B shared, "
        f"{counters.bytes_pickled} B pickled, "
        f"{counters.broadcasts_skipped}/{counters.broadcasts_total} "
        f"broadcasts amortized away",
    )

    if ENFORCE_RATIOS:
        assert warm_speedup >= MIN_PARALLEL_SPEEDUP, (
            f"sharded warm scan only {warm_speedup:.1f}x the serial "
            f"kernel (need >= {MIN_PARALLEL_SPEEDUP}x)"
        )
        assert cold_speedup >= MIN_PARALLEL_COLD_SPEEDUP, (
            f"sharded cold scan only {cold_speedup:.2f}x the serial "
            f"kernel (need >= {MIN_PARALLEL_COLD_SPEEDUP}x: the shm "
            f"transport exists to keep the cold path from losing)"
        )


def test_bench_parallel_discovery_equivalence(write_report):
    """A 4-worker discovery run is indistinguishable from a serial run
    on the order-3 medical-survey scenario: same adopted constraints,
    same trace tests, same fitted marginals."""
    from _discovery_scenario import build_table

    table = build_table(smoke=True)
    config = DiscoveryConfig(max_order=3)
    serial = DiscoveryEngine(config).run(table)
    with DiscoveryEngine(
        DiscoveryConfig(max_order=3, max_workers=WORKERS)
    ) as engine:
        parallel = engine.run(table)

    assert [c.key for c in parallel.found] == [c.key for c in serial.found]
    assert [c.probability for c in parallel.found] == [
        c.probability for c in serial.found
    ]
    assert len(parallel.scans) == len(serial.scans)
    for ours, theirs in zip(parallel.scans, serial.scans):
        assert ours.tests == theirs.tests
        assert ours.chosen == theirs.chosen
    assert np.array_equal(parallel.model.joint(), serial.model.joint())
    write_report(
        "parallel_discovery_equivalence.txt",
        f"PARALLEL DISCOVERY EQUIVALENCE: {WORKERS}-worker run == serial "
        f"run on the order-3 survey scenario "
        f"({len(serial.found)} constraints, {len(serial.scans)} scans, "
        f"bit-identical traces and marginals)",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json",
        required=True,
        metavar="PATH",
        help="write a parallel-bench record to PATH (CI artifact)",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes for CI"
    )
    args = parser.parse_args(argv)

    metrics = measure_parallel(args.smoke or SMOKE)
    record = {
        "timestamp": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime(time.time())
        ),
        "smoke": args.smoke or SMOKE,
        "python": platform.python_version(),
        "cpus": CPUS,
        "parallel": metrics,
    }
    Path(args.json).write_text(json.dumps(record, indent=2) + "\n")
    shared = metrics["scan_bytes_shared"]
    pickled = metrics["scan_bytes_pickled"]
    print(
        f"parallel-bench record written to {args.json} "
        f"(transport {metrics['transport']}: cold scan "
        f"{metrics['scan_speedup_cold']:.2f}x / warm "
        f"{metrics['scan_speedup_warm']:.2f}x on {CPUS} cpus, "
        f"{shared} B shared vs {pickled} B pickled, bit-identical)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
