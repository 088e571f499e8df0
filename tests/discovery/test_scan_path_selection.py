"""Auto-selection of serial vs sharded scans by candidate-pool size.

``DiscoveryConfig.max_workers`` must never be a pessimization: on a
candidate pool smaller than ``parallel_scan_threshold`` the engine runs
the serial kernel (and, because worker pools start lazily, spawns no
processes at all), recording the chosen path per order in
``DiscoveryProfile.scan_paths``.  An executor the caller constructed and
passed in explicitly is always honored — the bypass applies only to
executors the engine created from its own config.
"""

import numpy as np
import pytest

from repro.discovery.config import DiscoveryConfig
from repro.discovery.engine import DiscoveryEngine
from repro.exceptions import DataError
from repro.parallel.scan import ShardedScanExecutor


def paths(result) -> list[tuple[int, str]]:
    return [
        (entry["order"], entry["path"])
        for entry in result.profile.scan_paths
    ]


class TestAutoSelect:
    def test_small_pool_bypasses_config_created_executor(self, table):
        """The paper's order-2 pool (16 cells) is far below the default
        threshold: max_workers=4 must fall back to the serial kernel —
        and never start a worker process."""
        with DiscoveryEngine(
            DiscoveryConfig(max_order=2, max_workers=4)
        ) as engine:
            result = engine.run(table)
            assert paths(result) == [(2, "serial")]
            # Lazy pools: the serial choice means no workers ever spawned.
            assert engine.executor is not None
            assert not engine.executor.pool._workers

    def test_zero_threshold_forces_the_sharded_path(self, table):
        serial = DiscoveryEngine(DiscoveryConfig(max_order=2)).run(table)
        with DiscoveryEngine(
            DiscoveryConfig(
                max_order=2, max_workers=4, parallel_scan_threshold=0
            )
        ) as engine:
            sharded = engine.run(table)
        assert paths(sharded) == [(2, "sharded")]
        assert [c.key for c in sharded.found] == [
            c.key for c in serial.found
        ]
        assert np.array_equal(sharded.model.joint(), serial.model.joint())

    def test_explicit_executor_is_always_honored(self, table):
        """An executor the caller passed in is their decision — the
        threshold bypass must not second-guess it, even on a tiny pool."""
        with ShardedScanExecutor(max_workers=2) as executor:
            engine = DiscoveryEngine(
                DiscoveryConfig(max_order=2), executor=executor
            )
            result = engine.run(table)
        assert paths(result) == [(2, "sharded")]

    def test_reference_backend_records_its_path(self, table):
        result = DiscoveryEngine(
            DiscoveryConfig(max_order=2), scan_backend="reference"
        ).run(table)
        assert paths(result) == [(2, "reference")]

    def test_scan_paths_record_pool_cells(self, table):
        result = DiscoveryEngine(DiscoveryConfig(max_order=2)).run(table)
        (entry,) = result.profile.scan_paths
        assert entry["cells"] == table.num_cells_of_order(2)
        assert entry["cells"] == 16  # the paper's "16 second order cells"

    def test_candidate_pool_size_counts_subset_cells(self, table):
        schema = table.schema
        cells = 1
        for name in schema.names:
            cells *= schema.attribute(name).cardinality
        # The full joint is the single highest-order subset.
        assert table.num_cells_of_order(len(schema)) == cells


class TestThresholdConfig:
    def test_threshold_is_not_serialized(self):
        # Execution knob, machine-local — same contract as max_workers: a
        # saved artifact must not pin scan-path choices on a later host.
        config = DiscoveryConfig(max_order=2, parallel_scan_threshold=7)
        data = config.to_dict()
        assert "parallel_scan_threshold" not in data
        assert DiscoveryConfig.from_dict(data).parallel_scan_threshold == 512

    def test_negative_threshold_rejected(self):
        with pytest.raises(DataError, match="parallel_scan_threshold"):
            DiscoveryConfig(parallel_scan_threshold=-1)
