"""Concurrent batch serving: order, equivalence, failure surfacing, caches."""

import multiprocessing

import numpy as np
import pytest

from repro.api.session import QuerySession
from repro.core.knowledge_base import ProbabilisticKnowledgeBase
from repro.discovery.engine import discover
from repro.exceptions import ParallelError, QueryError, ReproError
from repro.parallel import shm as shm_module
from repro.parallel.pool import WorkerPool
from repro.parallel.query import ParallelQueryEvaluator
from repro.parallel.shm import shm_available

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

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


@pytest.fixture(scope="module")
def model(request):
    from repro.eval.paper import paper_table

    return discover(paper_table()).model


@pytest.fixture(scope="module")
def queries():
    return [
        "CANCER=yes | SMOKING=smoker",
        "CANCER=yes",
        "SMOKING=smoker | FAMILY_HISTORY=yes",
        "FAMILY_HISTORY=yes | CANCER=no",
        "CANCER=no | SMOKING=non-smoker",
    ] * 5


class TestParallelBatchEquivalence:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_results_keep_input_order(self, model, queries, workers):
        serial = QuerySession(model).batch(queries)
        with QuerySession(model, max_workers=workers) as session:
            parallel = session.batch(queries)
            # Warm per-worker caches: a second pass must agree too.
            again = session.batch(queries)
        assert parallel == serial
        assert again == serial

    def test_empty_and_single_batches(self, model):
        with QuerySession(model, max_workers=2) as session:
            assert session.batch([]) == []
            assert session.batch(["CANCER=yes"]) == pytest.approx(
                [QuerySession(model).ask("CANCER=yes")]
            )

    def test_more_workers_than_queries(self, model):
        with QuerySession(model, max_workers=4) as session:
            values = session.batch(["CANCER=yes", "CANCER=no"])
        assert values == QuerySession(model).batch(["CANCER=yes", "CANCER=no"])

    def test_kb_query_many_with_workers(self, queries):
        from repro.eval.paper import paper_table

        kb = ProbabilisticKnowledgeBase.from_data(paper_table())
        assert kb.query_many(queries, max_workers=2) == kb.query_many(queries)

    def test_session_rejects_bad_worker_count(self, model):
        with pytest.raises(QueryError):
            QuerySession(model, max_workers=0)


class TestTransportEquivalence:
    """Model broadcasts answer exactly the same under either codec.

    Both ship the model as a packed float block — through a shared
    segment under shm, inside the message under inline — and rebuild it
    worker-side; any repack drift (a reordered factor product, a
    truncated float) shows up as a !=, since query results are compared
    exactly, not approximately.
    """

    @pytest.mark.parametrize("codec", CODECS)
    def test_batches_match_serial_exactly(
        self, model, queries, codec, monkeypatch
    ):
        if codec == "inline":
            # What a platform without /dev/shm gets.
            monkeypatch.setattr(shm_module, "shm_available", lambda: False)
        serial = QuerySession(model).batch(queries)
        with ParallelQueryEvaluator(model, max_workers=2) as evaluator:
            assert evaluator.transport == {"shm": "shm", "inline": "pipe"}[codec]
            assert evaluator.batch(queries) == serial
            # Warm workers (amortized broadcast) must agree too.
            assert evaluator.batch(queries) == serial

    @pytest.mark.skipif(not shm_available(), reason="needs shared memory")
    def test_unchanged_model_skips_rebroadcast(self, model):
        with ParallelQueryEvaluator(
            model, pool=WorkerPool(2, inline=True)
        ) as evaluator:
            evaluator.batch(["CANCER=yes"])
            shared_after_init = evaluator.counters.bytes_shared
            assert shared_after_init > 0
            evaluator.batch(["CANCER=no"])
            assert evaluator.counters.broadcasts_total == 2
            assert evaluator.counters.broadcasts_skipped == 1
            # Nothing was re-shipped for the second batch.
            assert evaluator.counters.bytes_shared == shared_after_init
            evaluator.set_model(model.copy())
            evaluator.batch(["CANCER=yes"])
            assert evaluator.counters.bytes_shared > shared_after_init

    def test_pipe_counts_pickled_payloads(self, model, monkeypatch):
        monkeypatch.setattr(shm_module, "shm_available", lambda: False)
        with ParallelQueryEvaluator(
            model, pool=WorkerPool(2, inline=True)
        ) as evaluator:
            assert evaluator.transport == "pipe"
            evaluator.batch(["CANCER=yes"])
            assert evaluator.counters.bytes_pickled > 0
            assert evaluator.counters.bytes_shared == 0


class TestFailureSurfacing:
    def test_poisoned_query_raises_query_error(self, model, queries):
        with QuerySession(model, max_workers=2) as session:
            poisoned = [*queries, "NO_SUCH_ATTRIBUTE=yes"]
            with pytest.raises(QueryError) as excinfo:
                session.batch(poisoned)
            assert isinstance(excinfo.value, ReproError)
            # The pool survives a failed batch.
            assert session.batch(queries[:3]) == QuerySession(model).batch(
                queries[:3]
            )

    def test_unknown_value_label_raises_query_error(self, model):
        session = QuerySession(model, max_workers=2)
        try:
            with pytest.raises(QueryError):
                session.batch(
                    ["CANCER=yes | SMOKING=definitely-not-a-level"]
                )
        finally:
            session.close()

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_session_recovers_after_worker_death(self, model):
        from repro.api.session import QuerySession

        session = QuerySession(model, max_workers=2)
        try:
            expected = session.batch(["CANCER=yes"] * 4)
            # Kill the pool out from under the session...
            session._parallel.pool.run("_tasks:die", [(), ()])
        except ParallelError:
            pass
        try:
            # ...the next batch must start a fresh pool, not fail forever
            # on "pool is closed".
            assert session.batch(["CANCER=yes"] * 4) == expected
        finally:
            session.close()

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_dead_worker_raises_clean_repro_error(self, model):
        evaluator = ParallelQueryEvaluator(model, max_workers=2)
        # Prime the pool (workers started, sessions built)...
        assert evaluator.batch(["CANCER=yes"] * 4) == pytest.approx(
            [QuerySession(model).ask("CANCER=yes")] * 4
        )
        # ...then kill the workers mid-task: the death must surface as a
        # ParallelError (a ReproError), not a raw pipe exception.
        with pytest.raises(ParallelError) as excinfo:
            evaluator.pool.run("_tasks:die", [(), ()])
        assert isinstance(excinfo.value, ReproError)
        evaluator.close()


class TestModelLifecycle:
    def test_in_place_update_invalidates_worker_sessions(self):
        from repro.eval.paper import paper_table

        table = paper_table()
        kb = ProbabilisticKnowledgeBase.from_data(table)
        with kb.session(max_workers=2) as session:
            before = session.batch(["CANCER=yes | SMOKING=smoker"])
            # Skew the next window hard toward smokers with cancer so the
            # refreshed model must answer differently.
            rng = np.random.default_rng(3)
            delta = table.schema  # reuse schema
            from repro.data.streaming import TableBuilder

            builder = TableBuilder(delta)
            for _ in range(4000):
                history = "yes" if rng.random() < 0.5 else "no"
                builder.add_record(
                    {
                        "SMOKING": "smoker",
                        "CANCER": "yes",
                        "FAMILY_HISTORY": history,
                    }
                )
            kb.ingest(builder)
            after = session.batch(["CANCER=yes | SMOKING=smoker"])
            serial_after = QuerySession(kb.model).batch(
                ["CANCER=yes | SMOKING=smoker"]
            )
        assert after != before
        assert after == serial_after

    def test_set_model_rebroadcasts(self, model):
        other = model.copy()
        with QuerySession(model, max_workers=2) as session:
            first = session.batch(["CANCER=yes"])
            session.set_model(other)
            second = session.batch(["CANCER=yes"])
        assert first == second

    def test_close_then_reuse_restarts_pool(self, model):
        session = QuerySession(model, max_workers=2)
        first = session.batch(["CANCER=yes"])
        session.close()
        second = session.batch(["CANCER=yes"])
        session.close()
        assert first == second
