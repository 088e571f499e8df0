"""Distributed scans and batch queries == their serial counterparts,
bit for bit, on every pool and codec.

The contract: routing shards to ``repro worker`` daemons over TCP
changes *where* the kernels run, never *what* they compute — every
CellTest float, the greedy argmax, every batch-query probability, and
every discovery decision is identical to the serial path, including
after worker restarts (the stale-state recovery re-ships full payloads
rather than trusting a reconnected worker's cache).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.session import QuerySession
from repro.core.knowledge_base import ProbabilisticKnowledgeBase
from repro.data.contingency import ContingencyTable
from repro.data.schema import Attribute, Schema
from repro.discovery.config import DiscoveryConfig
from repro.discovery.engine import DiscoveryEngine
from repro.distributed import WorkerServer
from repro.eval.paper import paper_table
from repro.exceptions import ConstraintError, ParallelError
from repro.maxent.constraints import ConstraintSet
from repro.maxent.ipf import fit_ipf
from repro.maxent.model import MaxEntModel
from repro.parallel import shm as shm_module
from repro.parallel.pool import WorkerPool
from repro.parallel.query import ParallelQueryEvaluator
from repro.parallel.scan import ShardedScanExecutor
from repro.parallel.shm import shm_available
from repro.significance.kernels import OrderScanKernel
from repro.significance.mml import most_significant

ORDER = 2

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def build_world(seed: int = 7, fitted: bool = False):
    """A compact 4-attribute world whose order-2 pool scans fast."""
    rng = np.random.default_rng(seed)
    attributes = [
        Attribute(f"A{index}", ("x", "y", "z")[: 2 + index % 2])
        for index in range(4)
    ]
    schema = Schema(attributes)
    table = ContingencyTable(
        schema, rng.integers(1, 30, size=schema.shape).astype(np.int64)
    )
    constraints = ConstraintSet.first_order(table)
    model = MaxEntModel.independent(
        schema,
        {name: table.first_order_probabilities(name) for name in schema.names},
    )
    if fitted:
        # A cell constraint makes the fitted model differ from the
        # independent one; a margins-only fit reproduces it exactly.
        with_cell = constraints.copy()
        with_cell.add_cell(with_cell.cell_from_table(table, ("A0", "A1"), (0, 0)))
        model = fit_ipf(
            with_cell,
            initial=model,
            max_sweeps=40,
            require_convergence=False,
        ).model
    return table, constraints, model


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
    for _ in range(draw(st.integers(0, 2))):
        subsets = table.subsets_of_order(2)
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
    return table, constraints, model


@pytest.fixture(scope="module")
def tcp_server():
    with WorkerServer() as server:
        yield server


@pytest.fixture(scope="module")
def executors(tcp_server):
    """One long-lived executor per transport label, reused across
    examples — exactly how the discovery engine reuses one executor
    across orders and tables.  Local pools are passed explicitly, so an
    environment naming remote workers cannot turn them into tcp ones."""
    with pytest.MonkeyPatch.context() as patch:
        # The inline codec on a local pool: what a platform without
        # /dev/shm gets.
        patch.setattr(shm_module, "shm_available", lambda: False)
        pipe = ShardedScanExecutor(pool=WorkerPool(2))
    pools = {
        "pipe": pipe,
        "tcp": ShardedScanExecutor(
            worker_addresses=[tcp_server.address_text] * 2
        ),
    }
    if shm_available():
        pools["shm"] = ShardedScanExecutor(pool=WorkerPool(2))
    assert {name: pool.transport for name, pool in pools.items()} == {
        name: name for name in pools
    }
    yield pools
    for executor in pools.values():
        executor.close()


class TestScanBitIdentity:
    def test_tcp_scan_equals_serial(self, tcp_server):
        table, constraints, model = build_world()
        serial = OrderScanKernel(table, ORDER, constraints).scan(model)
        with ShardedScanExecutor(
            worker_addresses=[tcp_server.address_text] * 3
        ) as executor:
            assert executor.transport == "tcp"
            executor.begin_order(table, ORDER, constraints, None)
            tests, best = executor.scan(model)
            assert tests == serial
            assert best == most_significant(serial)

    @SETTINGS
    @given(world=scan_worlds())
    def test_every_transport_matches_serial(self, executors, world):
        table, constraints, model = world
        serial = OrderScanKernel(table, ORDER, constraints).scan(model)
        best = most_significant(serial)
        for name, executor in executors.items():
            executor.begin_order(table, ORDER, constraints, None)
            try:
                tests, merged_best = executor.scan(model)
                assert tests == serial, f"{name} diverged"
                assert merged_best == best, f"{name} argmax diverged"
            finally:
                executor.end_order()

    def test_discovery_run_with_remote_workers_equals_serial(
        self, tcp_server
    ):
        table = paper_table()
        serial = DiscoveryEngine(DiscoveryConfig(max_order=3)).run(table)
        config = DiscoveryConfig(
            max_order=3,
            worker_addresses=(tcp_server.address_text,) * 2,
        )
        with DiscoveryEngine(config) as engine:
            remote = engine.run(table)
        assert [c.key for c in remote.found] == [c.key for c in serial.found]
        assert [c.probability for c in remote.found] == [
            c.probability for c in serial.found
        ]
        assert np.array_equal(remote.model.joint(), serial.model.joint())


class TestBroadcastAmortization:
    def test_warm_scans_skip_the_joint_broadcast(self, tcp_server):
        table, constraints, model = build_world()
        with ShardedScanExecutor(
            worker_addresses=[tcp_server.address_text] * 2
        ) as executor:
            executor.begin_order(table, ORDER, constraints, None)
            start = executor.counters.to_dict()
            executor.scan(model)
            first = executor.counters.to_dict()
            executor.scan(model)
            second = executor.counters.to_dict()
            executor.scan(model)
            third = executor.counters.to_dict()
            # Same fingerprint: cache tokens instead of the joint array.
            assert second["broadcasts_skipped"] > first["broadcasts_skipped"]
            cold = first["bytes_pickled"] - start["bytes_pickled"]
            warm = second["bytes_pickled"] - first["bytes_pickled"]
            steady = third["bytes_pickled"] - second["bytes_pickled"]
            # Warm scans pay for shard results only; the first scan also
            # shipped the joint to every worker.
            assert warm < cold, "a warm scan re-shipped the joint"
            assert steady == warm, "warm wire cost is not steady-state"

    def test_unchanged_data_ships_cached_column_references(
        self, tcp_server, monkeypatch
    ):
        """Data-side columns cross once per kernel-cache build: with the
        order's data unchanged, the second scan references them by
        version.  A new model makes both scans ship the joint, so the
        wire saving is the columns alone."""
        table, constraints, initial = build_world()
        fitted = build_world(fitted=True)[2]
        kinds = []
        decode = ShardedScanExecutor._decode

        def spy(executor, replies):
            kinds.append({entry[0] for meta, *_ in replies for entry in meta})
            return decode(executor, replies)

        monkeypatch.setattr(ShardedScanExecutor, "_decode", spy)
        with ShardedScanExecutor(
            worker_addresses=[tcp_server.address_text] * 2
        ) as executor:
            executor.begin_order(table, ORDER, constraints, None)
            start = executor.counters.bytes_wire
            executor.scan(initial)
            first = executor.counters.bytes_wire - start
            tests, best = executor.scan(fitted)
            second = executor.counters.bytes_wire - start - first
        assert kinds == [{"data"}, {"cached"}]
        assert second < first
        serial = OrderScanKernel(table, ORDER, constraints).scan(fitted)
        assert tests == serial
        assert best == most_significant(serial)

    def test_model_change_reships_and_stays_identical(self, tcp_server):
        table, constraints, _model = build_world()
        initial = build_world()[2]
        fitted = build_world(fitted=True)[2]
        assert initial.fingerprint() != fitted.fingerprint()
        with ShardedScanExecutor(
            worker_addresses=[tcp_server.address_text] * 2
        ) as executor:
            executor.begin_order(table, ORDER, constraints, None)
            executor.scan(initial)
            skipped = executor.counters.to_dict()["broadcasts_skipped"]
            tests, best = executor.scan(fitted)
            # New fingerprint: a real broadcast, not a cache token.
            assert (
                executor.counters.to_dict()["broadcasts_skipped"] == skipped
            )
            serial = OrderScanKernel(table, ORDER, constraints).scan(fitted)
            assert tests == serial
            assert best == most_significant(serial)


class TestRecovery:
    def test_scan_recovers_after_worker_restart(self, tcp_server):
        """A reconnected worker lost kernels and joint; the executor
        replays the order and re-ships the joint — bit-identically."""
        table, constraints, model = build_world()
        serial = OrderScanKernel(table, ORDER, constraints).scan(model)
        with ShardedScanExecutor(
            worker_addresses=[tcp_server.address_text] * 2
        ) as executor:
            executor.begin_order(table, ORDER, constraints, None)
            assert executor.scan(model)[0] == serial
            executor.pool.reconnect()  # worker restart: pinned state gone
            tests, best = executor.scan(model)
            assert tests == serial
            assert best == most_significant(serial)

    def test_scan_recovers_after_restart_and_fingerprint_change(
        self, tcp_server
    ):
        """The poisonous combination: the worker's cached joint died
        *and* the master moved to a new model.  The worker must request
        a fresh joint rather than serve any stale state."""
        table, constraints, initial = build_world()
        fitted = build_world(fitted=True)[2]
        with ShardedScanExecutor(
            worker_addresses=[tcp_server.address_text] * 2
        ) as executor:
            executor.begin_order(table, ORDER, constraints, None)
            executor.scan(initial)
            executor.pool.reconnect()
            tests, best = executor.scan(fitted)
            serial = OrderScanKernel(table, ORDER, constraints).scan(fitted)
            assert tests == serial
            assert best == most_significant(serial)

    def test_adoption_recovers_after_worker_restart(self, tcp_server):
        """A worker that lost its kernel before an adoption is rebuilt
        from the master's constraint set, which already holds the new
        cell — so the next scan matches a serial kernel that has it."""
        table, constraints, model = build_world()
        with ShardedScanExecutor(
            worker_addresses=[tcp_server.address_text] * 2
        ) as executor:
            executor.begin_order(table, ORDER, constraints, None)
            cell = executor.scan(model)[0][0]
            constraint = constraints.cell_from_table(
                table, cell.attributes, cell.values
            )
            constraints.add_cell(constraint)
            executor.pool.reconnect()
            executor.notify_adopted(constraint)
            tests, best = executor.scan(model)
        serial = OrderScanKernel(table, ORDER, constraints).scan(model)
        assert tests == serial
        assert best == most_significant(serial)

    def test_dead_daemon_mid_run_raises_parallel_error(self):
        table, constraints, model = build_world()
        server = WorkerServer().start()
        executor = ShardedScanExecutor(
            worker_addresses=[server.address_text] * 2
        )
        try:
            executor.begin_order(table, ORDER, constraints, None)
            executor.scan(model)
            server.close()
            with pytest.raises(ParallelError):
                executor.scan(model)
            assert executor.pool.closed
        finally:
            executor.close()
            server.close()


class TestResolution:
    def test_empty_worker_set_degrades_to_local(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_ADDRESSES", " , ")
        table, constraints, model = build_world()
        serial = OrderScanKernel(table, ORDER, constraints).scan(model)
        with ShardedScanExecutor(max_workers=2) as executor:
            assert executor.transport in ("pipe", "shm")
            executor.begin_order(table, ORDER, constraints, None)
            assert executor.scan(model)[0] == serial

    def test_env_addresses_engage_tcp(self, monkeypatch, tcp_server):
        monkeypatch.setenv(
            "REPRO_WORKER_ADDRESSES",
            f"{tcp_server.address_text},{tcp_server.address_text}",
        )
        table, constraints, model = build_world()
        serial = OrderScanKernel(table, ORDER, constraints).scan(model)
        with ShardedScanExecutor() as executor:
            assert executor.transport == "tcp"
            assert executor.max_workers == 2
            executor.begin_order(table, ORDER, constraints, None)
            assert executor.scan(model)[0] == serial


def query_strings(schema: Schema) -> list[str]:
    names = schema.names
    queries = []
    for index, name in enumerate(names):
        attribute = schema.attribute(name)
        given_name = names[(index + 1) % len(names)]
        given_attr = schema.attribute(given_name)
        queries.append(f"{name}={attribute.values[0]}")
        queries.append(
            f"{name}={attribute.values[-1]} | "
            f"{given_name}={given_attr.values[0]}"
        )
    return queries * 3  # repeated traffic exercises the plan caches


class TestDistributedQueries:
    def test_batch_equals_serial_session(self, tcp_server):
        _table, _constraints, model = build_world(fitted=True)
        queries = query_strings(model.schema)
        serial = QuerySession(model).batch(queries)
        with ParallelQueryEvaluator(
            model, worker_addresses=[tcp_server.address_text] * 2
        ) as evaluator:
            assert evaluator.transport == "tcp"
            assert evaluator.batch(queries) == serial

    def test_set_model_tracks_the_new_fingerprint(self, tcp_server):
        _table, _constraints, initial = build_world()
        fitted = build_world(fitted=True)[2]
        queries = query_strings(initial.schema)
        with ParallelQueryEvaluator(
            initial, worker_addresses=[tcp_server.address_text] * 2
        ) as evaluator:
            assert evaluator.batch(queries) == (
                QuerySession(initial).batch(queries)
            )
            evaluator.set_model(fitted)
            assert evaluator.batch(queries) == (
                QuerySession(fitted).batch(queries)
            )

    def test_batch_recovers_after_worker_restart(self, tcp_server):
        _table, _constraints, model = build_world(fitted=True)
        queries = query_strings(model.schema)
        serial = QuerySession(model).batch(queries)
        with ParallelQueryEvaluator(
            model, worker_addresses=[tcp_server.address_text] * 2
        ) as evaluator:
            assert evaluator.batch(queries) == serial
            evaluator.pool.reconnect()  # pinned remote sessions are gone
            assert evaluator.batch(queries) == serial

    def test_kb_query_many_remote_equals_local(self, tcp_server):
        kb = ProbabilisticKnowledgeBase.from_data(paper_table())
        queries = query_strings(kb.model.schema)[:8]
        local = kb.query_many(queries)
        remote = kb.query_many(
            queries,
            worker_addresses=[tcp_server.address_text] * 2,
        )
        assert remote == local

    def test_session_worker_addresses_engage_tcp(self, tcp_server):
        _table, _constraints, model = build_world(fitted=True)
        queries = query_strings(model.schema)
        serial = QuerySession(model).batch(queries)
        with QuerySession(
            model, worker_addresses=[tcp_server.address_text] * 2
        ) as session:
            assert session.batch(queries) == serial
            assert session._parallel.transport == "tcp"
