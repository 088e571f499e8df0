"""Discovery scan kernels: vectorized whole-order scan vs scalar reference.

The order-3 scenario (medical-survey world, planted two- and three-way
structure): the benchmark reproduces the state discovery reaches when it
enters order 3 — fitted model, adopted order-2 constraints — and times a
full per-order candidate scan both ways:

- the scalar reference path (one :func:`evaluate_cell` per candidate,
  dict-based counts, per-cell feasible ranges);
- the vectorized :class:`~repro.significance.kernels.OrderScanKernel`,
  cold (building its data-side statistics) and warm (statistics cached,
  the regime the engine's scan-adopt-refit loop actually runs in).  Both
  time what the engine runs: the columnar scan plus
  :meth:`~repro.significance.kernels.LazyScanTests.best`, which builds
  the adopted cell's CellTest only.  The reference times its scan plus
  :func:`~repro.significance.mml.most_significant`.

Shape criteria: the kernel's scan output is *bit-identical* to the
reference (every CellTest float, the cell order, the greedy argmax), a
full kernel-backed discovery run equals a reference-backed run exactly
(adopted constraints, scan records, fitted marginals), and the warm
per-order scan is at least 5x faster than the scalar path.

Set ``REPRO_BENCH_SMOKE=1`` to run the same assertions at tiny sizes in
CI: vectorized == reference stays enforced — the kernels cannot silently
diverge — but the wall-clock ratio is not, since timings at toy sizes
are noise.
"""

import os
import time

import numpy as np
import pytest

from _discovery_scenario import (
    MIN_SPEEDUP,
    ORDER,
    best_of,
    build_table,
    order_entry_state,
    sample_size,
    timing_repeats,
)
from repro.discovery.config import DiscoveryConfig
from repro.discovery.engine import DiscoveryEngine
from repro.eval.tables import format_table
from repro.significance.kernels import OrderScanKernel
from repro.significance.mml import most_significant, reference_scan_order

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

N_SAMPLES = sample_size(SMOKE)
REPEATS = timing_repeats(SMOKE)


@pytest.fixture(scope="module")
def table():
    return build_table(SMOKE)


@pytest.fixture(scope="module")
def order3_state(table):
    """Model and constraints as discovery leaves them entering order 3."""
    return order_entry_state(table)


def _best_of(fn, repeats=REPEATS) -> float:
    return best_of(fn, repeats)


def test_bench_order3_scan_speedup(table, order3_state, write_report):
    model, constraints = order3_state

    reference = reference_scan_order(table, model, ORDER, constraints)
    warm_kernel = OrderScanKernel(table, ORDER, constraints)
    vectorized = list(warm_kernel.scan(model))

    # Bit-identity: every CellTest (m1, m2, ranges, determined flags,
    # predicted, moments) and the greedy argmax, read both ways.
    assert vectorized == reference
    best_ref = most_significant(reference)
    assert warm_kernel.scan(model).best() == best_ref
    best_vec = most_significant(vectorized)
    assert (best_ref is None) == (best_vec is None)
    if best_ref is not None:
        assert vectorized.index(best_vec) == reference.index(best_ref)

    reference_seconds = _best_of(
        lambda: most_significant(
            reference_scan_order(table, model, ORDER, constraints)
        )
    )
    cold_seconds = _best_of(
        lambda: OrderScanKernel(table, ORDER, constraints).scan(model).best()
    )
    # Warm = data-side statistics cached, the engine loop's steady state.
    warm_seconds = _best_of(lambda: warm_kernel.scan(model).best())

    cold_speedup = reference_seconds / cold_seconds
    warm_speedup = reference_seconds / warm_seconds
    rows = [
        ["reference (scalar)", f"{1e3 * reference_seconds:.3f}", "1.0x"],
        ["kernel, cold", f"{1e3 * cold_seconds:.3f}", f"{cold_speedup:.1f}x"],
        ["kernel, warm", f"{1e3 * warm_seconds:.3f}", f"{warm_speedup:.1f}x"],
    ]
    text = (
        f"DISCOVERY SCAN KERNELS (order-{ORDER} scenario, N={N_SAMPLES}, "
        f"{len(reference)} candidate cells, best of {REPEATS})\n\n"
        + format_table(["scan path", "per-order scan (ms)", "speedup"], rows)
    )
    write_report("discovery_scan.txt", text)

    if not SMOKE:
        assert warm_speedup >= MIN_SPEEDUP, (
            f"warm kernel scan only {warm_speedup:.1f}x faster than the "
            f"scalar path (need >= {MIN_SPEEDUP}x)"
        )


def test_bench_full_discovery_equivalence(table, write_report):
    """A kernel-backed discovery run is indistinguishable from a
    reference-backed one: same adopted constraints, same scan records
    (bit-identical tests), same fitted marginals."""
    config = DiscoveryConfig(max_order=3)

    start = time.perf_counter()
    kernel_run = DiscoveryEngine(config).run(table)
    kernel_seconds = time.perf_counter() - start

    start = time.perf_counter()
    reference_run = DiscoveryEngine(config, scan_backend="reference").run(
        table
    )
    reference_seconds = time.perf_counter() - start

    assert [c.key for c in kernel_run.found] == [
        c.key for c in reference_run.found
    ]
    assert [c.probability for c in kernel_run.found] == [
        c.probability for c in reference_run.found
    ]
    assert len(kernel_run.scans) == len(reference_run.scans)
    for ours, theirs in zip(kernel_run.scans, reference_run.scans):
        assert ours.order == theirs.order
        assert ours.tests == theirs.tests
        assert ours.chosen == theirs.chosen
        assert ours.readopted == theirs.readopted
    assert np.array_equal(
        kernel_run.model.joint(), reference_run.model.joint()
    )

    profile = kernel_run.profile
    rows = [
        ["reference engine", f"{reference_seconds:.3f}"],
        ["kernel engine", f"{kernel_seconds:.3f}"],
        [
            "kernel stages (scan/fit/verify)",
            f"{profile.scan_seconds:.3f} / {profile.fit_seconds:.3f} / "
            f"{profile.verify_seconds:.3f}",
        ],
    ]
    write_report(
        "discovery_scan_equivalence.txt",
        f"FULL DISCOVERY: KERNEL VS REFERENCE BACKEND (N={N_SAMPLES}, "
        f"{len(kernel_run.found)} constraints, "
        f"{len(kernel_run.scans)} scans, identical results)\n\n"
        + format_table(["engine", "seconds"], rows),
    )
