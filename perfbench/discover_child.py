"""The process under test for the discover-* workloads.

Usage: ``python -m perfbench.discover_child SPEC.json [--setup-only]``.

It imports repro, builds the contingency table from the generated rows
the benchmark wrote, and prints ``READY`` with its own import and
table-build times; the benchmark times the launch-to-ready interval from
outside.  Unless ``--setup-only`` is given it then repeats, for the
spec's ``seconds``, a cold ``DiscoveryEngine.run`` on the table and a
warm ``DiscoveryEngine.rerun`` on the table plus a 2,000-row delta, each
between two calibration loops.  It prints one JSON line of raw results
and exits.  With ``"trace": true`` in the spec, spans are recorded around
the layers' functions and written to the spec's ``spans`` path.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

started = time.perf_counter()
import repro  # noqa: E402,F401  (timed: this is the import users pay)
from repro.data.contingency import ContingencyTable  # noqa: E402
from repro.data.dataset import Dataset  # noqa: E402
from repro.data.schema import Attribute, Schema  # noqa: E402
from repro.discovery.config import DiscoveryConfig  # noqa: E402
from repro.discovery.engine import DiscoveryEngine  # noqa: E402
from repro.exceptions import ConstraintError  # noqa: E402

import_s = time.perf_counter() - started

import numpy as np  # noqa: E402

from perfbench import measure, spans  # noqa: E402

#: Iterations the child completes even when ``seconds`` runs out.
MIN_ITERATIONS = 5


def keys_of(result) -> list:
    """Adopted constraint keys in adoption order, as JSON-ready lists."""
    return [
        [list(cell.attributes), [int(v) for v in cell.values]]
        for cell in result.found
    ]


def install_tracing(recorder: spans.Recorder) -> None:
    """Wrap each layer's entry points called during discovery."""
    import repro.discovery.engine as engine_module
    from repro.parallel.scan import ShardedScanExecutor
    from repro.significance.kernels import OrderScanKernel
    from repro.significance.mml import most_significant

    def kernel_kind(tests):
        found = tests is not None and most_significant(tests) is not None
        return "significance.scan" if found else "significance.verify"

    def sharded_kind(answer):
        found = answer is not None and answer[1] is not None
        return "parallel.scan" if found else "parallel.verify"

    spans.wrap(recorder, DiscoveryEngine, "run", "discovery.run")
    spans.wrap(recorder, DiscoveryEngine, "rerun", "discovery.rerun")
    spans.wrap(recorder, engine_module, "fit_ipf", "maxent.fit")
    spans.wrap(recorder, engine_module, "evaluate_cell", "significance.cell")
    spans.wrap(
        recorder, OrderScanKernel, "scan", "significance.scan", kernel_kind
    )
    spans.wrap(
        recorder, ShardedScanExecutor, "scan", "parallel.scan", sharded_kind
    )
    for name in ("begin_order", "notify_adopted", "end_order"):
        spans.wrap(recorder, ShardedScanExecutor, name, "parallel.dispatch")


def profile_counts(profile) -> dict:
    """The program's own per-run counters from its DiscoveryProfile."""
    return {
        "fit_calls": profile.fit_calls,
        "fit_sweeps": profile.fit_sweeps,
        "scan_calls": profile.scan_calls + profile.verify_calls,
        "scan_cells": profile.scan_cells + profile.verify_cells,
        "bytes_pickled": profile.bytes_pickled,
        "bytes_shared": profile.bytes_shared,
        "broadcasts_total": profile.broadcasts_total,
        "broadcasts_skipped": profile.broadcasts_skipped,
        "attach_ms": profile.attach_ns / 1e6,
        "sharded_orders": sum(
            1 for path in profile.scan_paths if path["path"] == "sharded"
        ),
    }


def main(argv: list[str]) -> int:
    """Run the child; see the module docstring."""
    spec = json.loads(Path(argv[0]).read_text())
    recorder = spans.Recorder()
    recorder.enabled = False
    if spec["trace"]:
        install_tracing(recorder)

    table_started = time.perf_counter()
    schema = Schema(
        [Attribute(name, tuple(values)) for name, values in spec["schema"]]
    )
    arrays = np.load(spec["rows"])
    table = Dataset(schema, arrays["rows"]).to_contingency()
    table_build_s = time.perf_counter() - table_started
    print(
        "READY "
        + json.dumps({"import_s": import_s, "table_build_s": table_build_s}),
        flush=True,
    )
    if "--setup-only" in argv:
        return 0

    delta = Dataset(schema, arrays["delta"]).to_contingency()
    merged = ContingencyTable(schema, table.counts + delta.counts)
    config = DiscoveryConfig(
        max_order=spec["max_order"], max_workers=spec["workers"]
    )
    iterations = []
    recorder.enabled = spec["trace"]
    deadline = time.perf_counter() + spec["seconds"]
    with DiscoveryEngine(config) as engine:
        calib = measure.calibrate()
        while True:
            spans.set_request(len(iterations))
            clock = time.perf_counter()
            result = engine.run(table)
            elapsed = time.perf_counter() - clock
            after = measure.calibrate()
            item = {
                "run_s": elapsed,
                "run_calib_s": [calib, after],
                "run_ok": keys_of(result) == spec["expected_run"],
                "adopted": len(result.found),
                **profile_counts(engine.profile),
            }
            calib = after
            clock = time.perf_counter()
            try:
                again = engine.rerun(merged, result)
            except ConstraintError:
                again = engine.run(merged)  # what kb.update falls back to
            elapsed = time.perf_counter() - clock
            after = measure.calibrate()
            item["rerun_s"] = elapsed
            item["rerun_calib_s"] = [calib, after]
            item["rerun_ok"] = keys_of(again) == spec["expected_rerun"]
            calib = after
            iterations.append(item)
            done = len(iterations) > MIN_ITERATIONS
            if done and time.perf_counter() >= deadline:
                break
    if spec["trace"]:
        recorder.write(spec["spans"])
    print(
        json.dumps(
            {"iterations": iterations, "peak_rss_mb": measure.vm_hwm_mb()}
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
