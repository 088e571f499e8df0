"""Sharded scans == serial scans, bit for bit, at every split.

The contract: splitting an order's subsets across shard kernels and
concatenating their outputs reproduces the serial
:class:`~repro.significance.kernels.OrderScanKernel` scan exactly — every
CellTest float (m1, m2, predicted, moments), the feasible ranges and
determined flags, the cell order, and therefore the greedy argmax — for
any shard count and any split, including empty and maximally uneven ones.
At the engine level that makes a parallel discovery run's adopted
constraints and fitted marginals bit-identical to a serial run's.
"""

import contextlib
import pickle
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.contingency import ContingencyTable
from repro.data.schema import Attribute, Schema
from repro.discovery.config import DiscoveryConfig
from repro.discovery.engine import DiscoveryEngine
from repro.exceptions import ConstraintError, DataError, ParallelError
from repro.maxent.constraints import ConstraintSet
from repro.maxent.ipf import fit_ipf
from repro.maxent.model import MaxEntModel
from repro.parallel import scan as scan_module
from repro.parallel import shm as shm_module
from repro.parallel.pool import WorkerPool, shard_bounds
from repro.parallel.scan import ShardedScanExecutor, scan_order_sharded
from repro.parallel.shm import shm_available
from repro.significance.kernels import OrderScanKernel
from repro.significance.mml import most_significant

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Both tensor codecs; shm skipped where the platform lacks it.
CODECS = [
    pytest.param(
        "shm",
        marks=pytest.mark.skipif(
            not shm_available(), reason="shared memory unavailable"
        ),
    ),
    "inline",
]


@contextlib.contextmanager
def codec_selected(codec: str):
    """Make executors built inside pick ``codec``, slabs at any size.

    ``inline`` is selected the way a platform without ``/dev/shm``
    selects it; a zero result threshold makes the shm codec return float
    columns through shared slabs even at toy sizes.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scan_module, "RESULT_THRESHOLD_BYTES", 0)
        if codec == "inline":
            patch.setattr(shm_module, "shm_available", lambda: False)
        yield


@st.composite
def scan_worlds(draw, max_attributes=4, max_values=3):
    """A random (table, constraints, model) triple ready to scan."""
    count = draw(st.integers(2, max_attributes))
    attributes = []
    for index in range(count):
        cardinality = draw(st.integers(2, max_values))
        attributes.append(
            Attribute(
                f"ATTR{index}", tuple(f"v{v}" for v in range(cardinality))
            )
        )
    schema = Schema(attributes)
    cells = schema.num_cells
    counts = draw(
        st.lists(st.integers(1, 12), min_size=cells, max_size=cells)
    )
    table = ContingencyTable(
        schema, np.array(counts, dtype=np.int64).reshape(schema.shape)
    )
    constraints = ConstraintSet.first_order(table)
    for _ in range(draw(st.integers(0, 3))):
        order = draw(st.integers(2, count))
        subsets = table.subsets_of_order(order)
        subset = subsets[draw(st.integers(0, len(subsets) - 1))]
        values = tuple(
            draw(st.integers(0, schema.attribute(name).cardinality - 1))
            for name in subset
        )
        candidate = constraints.cell_from_table(table, subset, values)
        if candidate.probability >= 0.99:
            continue
        try:
            constraints.add_cell(candidate)
        except ConstraintError:
            continue
    model = MaxEntModel.independent(
        schema,
        {name: table.first_order_probabilities(name) for name in schema.names},
    )
    if draw(st.booleans()):
        try:
            model = fit_ipf(
                constraints,
                initial=model,
                max_sweeps=40,
                require_convergence=False,
            ).model
        except ConstraintError:
            pass
    return table, constraints, model


@st.composite
def shard_splits(draw, n_items: int):
    """Arbitrary contiguous bounds over ``n_items``: 1-4 shards, any cuts
    (empty and maximally uneven shards included)."""
    n_shards = draw(st.integers(1, 4))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(0, n_items),
                min_size=n_shards - 1,
                max_size=n_shards - 1,
            )
        )
    )
    edges = [0, *cuts, n_items]
    return list(zip(edges, edges[1:]))


class TestShardedScanBitIdentity:
    @SETTINGS
    @given(world=scan_worlds(), data=st.data())
    def test_any_split_matches_serial(self, world, data):
        table, constraints, model = world
        for order in range(2, len(table.schema) + 1):
            n_subsets = len(table.subsets_of_order(order))
            shards = data.draw(shard_splits(n_subsets), label=f"order{order}")
            try:
                serial = OrderScanKernel(table, order, constraints).scan(
                    model
                )
            except DataError:
                with pytest.raises(DataError):
                    scan_order_sharded(
                        table, model, order, constraints, shards=shards
                    )
                continue
            sharded = scan_order_sharded(
                table, model, order, constraints, shards=shards
            )
            assert sharded == serial

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4])
    def test_balanced_splits_match_serial(self, table, num_shards):
        from repro.discovery.engine import discover

        state = discover(table, DiscoveryConfig(max_order=2))
        serial = OrderScanKernel(table, 3, state.constraints).scan(
            state.model
        )
        sharded = scan_order_sharded(
            table,
            state.model,
            3,
            state.constraints,
            num_shards=num_shards,
        )
        assert sharded == serial

    def test_uneven_bounds_cover_and_match(self, table):
        from repro.discovery.engine import discover

        state = discover(table, DiscoveryConfig(max_order=2))
        subsets = len(table.subsets_of_order(2))
        # Maximally uneven: everything in the last shard, two empty.
        shards = [(0, 0), (0, 0), (0, subsets)]
        serial = OrderScanKernel(table, 2, state.constraints).scan(
            state.model
        )
        sharded = scan_order_sharded(
            table, state.model, 2, state.constraints, shards=shards
        )
        assert sharded == serial


class TestTransportBitIdentity:
    """Both codecs reproduce the serial scan, bit for bit.

    The inline rows ship the joint and the result columns inside the
    messages; the shm rows feed the kernels zero-copy shared views and
    return float columns through shared slabs, so any encode/decode
    drift — a single ulp anywhere in the m1/m2/moment floats — fails
    these.
    """

    @pytest.mark.parametrize("codec", CODECS)
    @SETTINGS
    @given(world=scan_worlds())
    def test_executor_matches_serial(self, codec, world):
        table, constraints, model = world
        with codec_selected(codec):
            executor = ShardedScanExecutor(pool=WorkerPool(3, inline=True))
            assert executor.transport == {"shm": "shm", "inline": "pipe"}[codec]
            try:
                for order in range(2, len(table.schema) + 1):
                    try:
                        serial = OrderScanKernel(
                            table, order, constraints
                        ).scan(model)
                    except DataError:
                        continue
                    executor.begin_order(table, order, constraints, None)
                    tests, chosen = executor.scan(model)
                    executor.end_order()
                    assert tests == serial
                    assert chosen == most_significant(list(serial))
            finally:
                executor.close()

    @pytest.mark.parametrize("codec", CODECS)
    def test_joint_cached_for_another_fingerprint_is_never_scanned(
        self, table, codec
    ):
        """Fault injection: the master believes the workers cache the
        joint of a model they never received.  The worker's fingerprint
        check turns the ``("cached", fp)`` reference into a stale-state
        error, and the replayed order scans the right joint."""
        constraints = ConstraintSet.first_order(table)
        margins = {
            name: table.first_order_probabilities(name)
            for name in table.schema.names
        }
        model = MaxEntModel.independent(table.schema, margins)
        shifted = MaxEntModel.independent(
            table.schema,
            {name: np.roll(margin, 1) for name, margin in margins.items()},
        )
        with codec_selected(codec), ShardedScanExecutor(
            pool=WorkerPool(2, inline=True)
        ) as executor:
            executor.begin_order(table, 2, constraints, None)
            executor.scan(model)
            executor._published_fingerprint = shifted.fingerprint()
            tests, _ = executor.scan(shifted)
        assert tests == OrderScanKernel(table, 2, constraints).scan(shifted)

    def test_rescan_same_model_skips_republish(self, table):
        constraints = ConstraintSet.first_order(table)
        model = MaxEntModel.independent(
            table.schema,
            {
                name: table.first_order_probabilities(name)
                for name in table.schema.names
            },
        )
        with ShardedScanExecutor(
            pool=WorkerPool(2, inline=True)
        ) as executor:
            executor.begin_order(table, 2, constraints, None)
            first, _ = executor.scan(model)
            second, _ = executor.scan(model)
            executor.end_order()
            assert executor.counters.broadcasts_total == 2
            assert executor.counters.broadcasts_skipped == 1
            # The skipped rebroadcast serves the same segment contents.
            assert first == second
            # A *changed* model republishes: same segment, fresh payload.
            shifted = MaxEntModel.independent(
                table.schema,
                {
                    name: np.roll(
                        table.first_order_probabilities(name), 1
                    )
                    for name in table.schema.names
                },
            )
            executor.begin_order(table, 2, constraints, None)
            third, _ = executor.scan(shifted)
            assert executor.counters.broadcasts_skipped == 1
            serial = OrderScanKernel(table, 2, constraints).scan(shifted)
            assert third == serial


class TestLazyScanTests:
    """The lazy CellTest list: decode-once, and decodable after close."""

    def _scan(self, table):
        constraints = ConstraintSet.first_order(table)
        model = MaxEntModel.independent(
            table.schema,
            {
                name: table.first_order_probabilities(name)
                for name in table.schema.names
            },
        )
        executor = ShardedScanExecutor(pool=WorkerPool(2, inline=True))
        executor.begin_order(table, 2, constraints, None)
        tests, _chosen = executor.scan(model)
        executor.end_order()
        serial = OrderScanKernel(table, 2, constraints).scan(model)
        return executor, tests, serial

    def test_concurrent_readers_materialize_once(self, table, monkeypatch):
        executor, tests, serial = self._scan(table)
        executor.close()
        from repro.parallel import scan as scan_module

        decodes = []
        real = scan_module.tests_from_columns

        def counting(columns):
            decodes.append(threading.get_ident())
            return real(columns)

        monkeypatch.setattr(scan_module, "tests_from_columns", counting)
        shard_count = len(tests._shards)
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
        # One decode pass (one call per shard), all by the same winner.
        assert len(decodes) == shard_count
        assert len(set(decodes)) == 1
        assert all(result == serial for result in results)
        assert tests.materialized

    @pytest.mark.parametrize("codec", CODECS)
    def test_decodes_after_executor_closed(self, table, codec):
        # Column payloads are retained copies, not shared-segment views:
        # a trace read long after the pool (and its segments) are gone
        # must still decode — equality, indexing, and pickling included.
        with codec_selected(codec):
            executor, tests, serial = self._scan(table)
        executor.close()
        assert not tests.materialized
        assert tests == serial
        assert tests[0] == serial[0]
        revived = pickle.loads(pickle.dumps(tests))
        assert revived == serial
        assert len(revived) == len(serial)


class TestShardedEngineEquivalence:
    """Engine-level: sharded executors never change discovery's answers."""

    def _survey_table(self):
        from repro.synth.surveys import medical_survey_population

        rng = np.random.default_rng(11)
        return medical_survey_population().sample_table(3000, rng)

    def _assert_runs_identical(self, serial, parallel):
        assert [c.key for c in parallel.found] == [
            c.key for c in serial.found
        ]
        assert [c.probability for c in parallel.found] == [
            c.probability for c in serial.found
        ]
        assert len(parallel.scans) == len(serial.scans)
        for ours, theirs in zip(parallel.scans, serial.scans):
            assert ours.order == theirs.order
            assert ours.tests == theirs.tests  # every m1/m2/moment float
            assert ours.chosen == theirs.chosen
        # Fitted model, down to the last bit of every marginal.
        assert np.array_equal(
            parallel.model.joint(), serial.model.joint()
        )

    @pytest.mark.parametrize("num_workers", [1, 2, 3, 4])
    def test_inline_pools_every_worker_count(self, num_workers):
        survey = self._survey_table()
        config = DiscoveryConfig(max_order=3)
        serial = DiscoveryEngine(config).run(survey)
        executor = ShardedScanExecutor(
            pool=WorkerPool(num_workers, inline=True)
        )
        with DiscoveryEngine(config, executor=executor) as engine:
            parallel = engine.run(survey)
        executor.close()
        self._assert_runs_identical(serial, parallel)

    def test_process_pool_matches_serial(self):
        survey = self._survey_table()
        config = DiscoveryConfig(max_order=3, max_workers=2)
        serial = DiscoveryEngine(DiscoveryConfig(max_order=3)).run(survey)
        with DiscoveryEngine(config) as engine:
            assert engine.executor is not None
            parallel = engine.run(survey)
        self._assert_runs_identical(serial, parallel)

    def test_rerun_under_executor_matches_serial(self):
        rng = np.random.default_rng(23)
        from repro.synth.surveys import medical_survey_population

        population = medical_survey_population()
        first = population.sample_table(2500, rng)
        delta = population.sample_table(800, rng)
        merged = first + delta

        config = DiscoveryConfig(max_order=2)
        previous = DiscoveryEngine(config).run(first)
        serial = DiscoveryEngine(config).rerun(merged, previous)
        parallel_config = DiscoveryConfig(max_order=2, max_workers=2)
        with DiscoveryEngine(parallel_config) as engine:
            parallel = engine.rerun(merged, previous)
        assert [c.key for c in parallel.found] == [
            c.key for c in serial.found
        ]
        assert np.array_equal(
            parallel.model.joint(), serial.model.joint()
        )


class TestExecutorLifecycle:
    def test_scan_without_begin_order_rejected(self):
        executor = ShardedScanExecutor(pool=WorkerPool(2, inline=True))
        with pytest.raises(ParallelError):
            executor.scan(None)
        executor.close()

    def test_shard_count_capped_by_subsets(self, table):
        # 3 attributes -> one order-3 subset; 4 workers must collapse to
        # a single shard rather than initializing empty kernels.
        constraints = ConstraintSet.first_order(table)
        executor = ShardedScanExecutor(pool=WorkerPool(4, inline=True))
        executor.begin_order(table, 3, constraints, None)
        assert executor._active_shards == 1
        executor.end_order()
        executor.close()

    def test_bounds_match_pool_helper(self, table):
        subsets = table.subsets_of_order(2)
        assert shard_bounds(len(subsets), 2)[0][0] == 0
