"""The wide order-3 scan scenario shared between ``bench_parallel.py``
and the ``run_all.py`` trajectory emitter — one definition of the
workload, so recorded parallel speedups always measure exactly what CI
asserts.

Why a *wide* scenario: the paper-sized medical survey's whole order-3
candidate pool is ~100 cells, which the vectorized kernel scans in under
a millisecond — below process-pool round-trip cost, so parallelism
cannot (and should not) win there.  Sharding pays on the production
shape the ROADMAP aims at: many attributes and higher cardinalities,
where a single order's pool is thousands of cells and the Eq-41
data-side tables dominate.  This module plants that world: a seeded
random table over ``ATTRS`` five-valued attributes with a batch of
adopted order-2 constraints, reproducing the state discovery reaches
when it enters order 3.
"""

import time

import numpy as np

from repro.data.contingency import ContingencyTable
from repro.data.schema import Attribute, Schema
from repro.exceptions import ConstraintError
from repro.maxent.constraints import ConstraintSet
from repro.maxent.model import MaxEntModel

SEED = 71
ORDER = 3
#: Enforced floor (full size, >= 4 CPUs): warm sharded-scan speedup at
#: 4 workers.
MIN_PARALLEL_SPEEDUP = 2.0
#: Cold-path floor (full size, >= 4 CPUs): with the shm transport the
#: first scan after a rebuild must no longer lose to serial — the cold
#: pessimization the zero-copy transport exists to kill.
MIN_PARALLEL_COLD_SPEEDUP = 1.0
WORKERS = 4


def dimensions(smoke: bool) -> tuple[int, int]:
    """(attribute count, cardinality): order-3 pool of ~4400 cells at
    full size, ~360 at smoke size."""
    return (5, 4) if smoke else (7, 5)


def timing_repeats(smoke: bool) -> int:
    return 3 if smoke else 5


def build_world(smoke: bool):
    """(table, constraints, model) at the entry of the order-3 scan.

    The adopted order-2 cells make the Eq-41 feasible-range tables do
    realistic sibling/sharing work, exactly like mid-discovery state.
    """
    attribute_count, cardinality = dimensions(smoke)
    rng = np.random.default_rng(SEED)
    attributes = [
        Attribute(
            f"A{index}", tuple(f"v{v}" for v in range(cardinality))
        )
        for index in range(attribute_count)
    ]
    schema = Schema(attributes)
    table = ContingencyTable(
        schema,
        rng.integers(1, 60, size=schema.shape).astype(np.int64),
    )
    constraints = ConstraintSet.first_order(table)
    adopted = 0
    for subset in table.subsets_of_order(2):
        for values in ((0, 0), (1, 2), (3, 3)):
            values = tuple(
                min(v, cardinality - 1) for v in values
            )
            try:
                constraints.add_cell(
                    constraints.cell_from_table(table, subset, values)
                )
                adopted += 1
            except ConstraintError:
                continue
        if adopted >= 18:
            break
    model = MaxEntModel.independent(
        schema,
        {
            name: table.first_order_probabilities(name)
            for name in schema.names
        },
    )
    return table, constraints, model


def best_of(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_parallel(smoke: bool) -> dict:
    """Sharded-scan trajectory metrics (equivalence always checked).

    One definition for ``run_all.py --json`` and the standalone
    ``bench_parallel.py --json`` emitter: serial-vs-sharded scan timings
    (cold and warm) and the transport ledger — payload bytes moved
    through shared memory vs pickling, broadcasts amortized away by the
    model fingerprint, worker attach time.  Speedup ratios are recorded,
    not asserted — they depend on the machine's core count (present in
    the record); the benchmark asserts them under its own CPU gate, and
    ``check_regression.py`` gates the recorded ratios against the
    baseline trajectory.
    """
    import os

    from repro.parallel.scan import ShardedScanExecutor
    from repro.significance.kernels import OrderScanKernel
    from repro.significance.mml import most_significant

    repeats = timing_repeats(smoke)
    table, constraints, model = build_world(smoke)

    serial_kernel = OrderScanKernel(table, ORDER, constraints)
    serial_tests = serial_kernel.scan(model)
    with ShardedScanExecutor(max_workers=WORKERS) as executor:
        executor.begin_order(table, ORDER, constraints, None)
        parallel_tests, parallel_best = executor.scan(model)
        if parallel_tests != serial_tests or parallel_best != (
            most_significant(serial_tests)
        ):
            raise AssertionError(
                "sharded scan diverged from the serial kernel"
            )

        def parallel_cold():
            executor.begin_order(table, ORDER, constraints, None)
            executor.scan(model)

        scan_serial_cold = best_of(
            lambda: OrderScanKernel(table, ORDER, constraints).scan(model),
            repeats,
        )
        scan_serial_warm = best_of(
            lambda: serial_kernel.scan(model), repeats
        )
        scan_parallel_cold = best_of(parallel_cold, repeats)
        executor.begin_order(table, ORDER, constraints, None)
        executor.scan(model)
        scan_parallel_warm = best_of(lambda: executor.scan(model), repeats)
        executor.end_order()
        transport = executor.transport
        scan_counters = executor.counters.to_dict()

    return {
        "workers": WORKERS,
        "cpus": os.cpu_count() or 1,
        "transport": transport,
        "candidate_cells": len(serial_tests),
        "scan_serial_cold_ms": 1e3 * scan_serial_cold,
        "scan_sharded_cold_ms": 1e3 * scan_parallel_cold,
        "scan_speedup_cold": scan_serial_cold / scan_parallel_cold,
        "scan_serial_warm_ms": 1e3 * scan_serial_warm,
        "scan_sharded_warm_ms": 1e3 * scan_parallel_warm,
        "scan_speedup_warm": scan_serial_warm / scan_parallel_warm,
        "scan_bytes_shared": scan_counters["bytes_shared"],
        "scan_bytes_pickled": scan_counters["bytes_pickled"],
        "scan_broadcasts_total": scan_counters["broadcasts_total"],
        "scan_broadcasts_skipped": scan_counters["broadcasts_skipped"],
        "scan_attach_ns": scan_counters["attach_ns"],
    }
