"""The lazy scan list: one argmax from the columns, CellTests on read.

:class:`~repro.significance.kernels.LazyScanTests` must behave as the
list :func:`~repro.significance.mml.reference_scan_order` returns, and
its :meth:`~repro.significance.kernels.LazyScanTests.best` must pick the
cell :func:`~repro.significance.mml.most_significant` picks, tie-break
included, while building that one CellTest only.
"""

import pickle
import threading

import numpy as np
import pytest

import repro.significance.kernels as kernels_module
from repro.discovery.config import DiscoveryConfig
from repro.discovery.engine import DiscoveryEngine
from repro.discovery.trace import result_to_dict
from repro.maxent.constraints import ConstraintSet
from repro.maxent.model import MaxEntModel
from repro.scenarios.registry import get_scenario
from repro.significance.kernels import LazyScanTests, OrderScanKernel
from repro.significance.mml import most_significant, reference_scan_order

INF = float("inf")
NAN = float("nan")


def subset(index, cells):
    """Hand-built columns of one subset; ``cells`` holds ``(m1, m2)``."""
    count = len(cells)
    m1 = np.array([m1 for m1, _m2 in cells], dtype=float)
    m2 = np.array([m2 for _m1, m2 in cells], dtype=float)
    return (
        (f"A{index}", f"B{index}"),
        [(index, value) for value in range(count)],
        list(range(count)),
        np.full(count, 0.25),
        np.full(count, 1.0),
        np.full(count, 0.5),
        np.zeros(count),
        m1,
        m2,
        [False] * count,
        list(range(count)),
    )


def shards(*layout):
    """Columns per shard, from ``(m1, m2)`` lists per subset per shard."""
    built = []
    index = 0
    for shard in layout:
        columns = []
        for cells in shard:
            columns.append(subset(index, cells))
            index += 1
        built.append(columns)
    return built


#: Each case: ``(m1, m2)`` cells per subset per shard, and the expected
#: flat position of the pick (None when nothing is significant).
BEST_CASES = {
    "tie-within-subset": ([[(0.0, -1.0), (1.0, -1.0), (0.0, -2.0)]], 1),
    "tie-across-subsets": ([[(0.0, -2.0), (0.0, 0.0)], [(3.0, 1.0)]], 0),
    "tie-across-shards": ([[(0.0, 1.0)], [(0.0, -3.0)]], [[(0.0, -3.0)]], 1),
    "minus-inf": ([[(0.0, -5.0), (INF, 1.0), (0.0, -INF)]], 1),
    "nan-beside-significant": ([[(0.0, NAN), (0.0, -0.5)], [(NAN, 0.0)]], 1),
    "nothing-significant": ([[(0.0, 0.0), (0.0, 1.0)], [(0.0, NAN)]], None),
    "empty-subsets": ([[], [(0.0, 2.0), (0.0, -1.0)], []], 1),
    "no-subsets": ([[]], None),
}


class TestBest:
    @pytest.mark.parametrize(
        "case", list(BEST_CASES.values()), ids=list(BEST_CASES)
    )
    def test_best_matches_most_significant(self, case):
        *layout, expected = case
        tests = LazyScanTests(shards(*layout))
        best = tests.best()
        # The pick builds one CellTest, not the list.
        assert not tests.materialized
        assert best == most_significant(list(tests))
        if expected is None:
            assert best is None
        else:
            assert best is not None
            assert best.values == tests[expected].values
            assert best.attributes == tests[expected].attributes

    def test_best_after_materialize_and_pickle(self, table):
        constraints = ConstraintSet.first_order(table)
        model = independence(table)
        reference = reference_scan_order(table, model, 2, constraints)
        tests = OrderScanKernel(table, 2, constraints).scan(model)
        revived = pickle.loads(pickle.dumps(tests))
        assert tests.materialized
        assert revived == reference
        assert tests.best() == revived.best() == most_significant(reference)


def independence(table):
    return MaxEntModel.independent(
        table.schema,
        {
            name: table.first_order_probabilities(name)
            for name in table.schema.names
        },
    )


class TestLazyScanTests:
    """Decode-once under concurrent readers."""

    def test_concurrent_readers_materialize_once(self, table, monkeypatch):
        constraints = ConstraintSet.first_order(table)
        model = independence(table)
        tests = OrderScanKernel(table, 2, constraints).scan(model)
        reference = reference_scan_order(table, model, 2, constraints)

        decodes = []
        real = kernels_module.tests_from_columns

        def counting(columns):
            decodes.append(threading.get_ident())
            return real(columns)

        monkeypatch.setattr(kernels_module, "tests_from_columns", counting)
        barrier = threading.Barrier(8)
        results = []

        def read():
            barrier.wait()
            results.append(list(tests))

        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # One decode pass (the kernel's scan is one shard), by one winner.
        assert len(decodes) == 1
        assert all(result == reference for result in results)
        assert tests.materialized


class TestEngineBuildsOnlyWhatItReads:
    def test_cold_run_builds_only_the_adopted_cells(self, monkeypatch):
        scenario = get_scenario("stress-wide-16")
        table = scenario.build(smoke=True).table
        config = DiscoveryConfig(max_order=scenario.max_order)
        rows = []
        real = kernels_module.tests_from_columns

        def counting(columns):
            rows.append(sum(len(c[1]) for c in columns))
            return real(columns)

        monkeypatch.setattr(kernels_module, "tests_from_columns", counting)
        result = DiscoveryEngine(config).run(table)
        assert result.found
        # One single-row build per adopted cell, none for the rest.
        assert rows == [1] * len(result.found)
        monkeypatch.setattr(kernels_module, "tests_from_columns", real)
        reference = DiscoveryEngine(config, scan_backend="reference").run(
            table
        )
        assert result_to_dict(result) == result_to_dict(reference)
