"""SessionPool and registry lifecycle: recycling, retirement, hot-swap.

The contract: pooled sessions are dropped on hot-swap and shutdown — a
retired pool drops idle sessions immediately and outstanding ones at
checkin, and refuses new checkouts.
"""

import asyncio
import threading

import pytest

from repro.core.knowledge_base import ProbabilisticKnowledgeBase
from repro.exceptions import DataError
from repro.maxent.model import MaxEntModel
from repro.serve import (
    ApiError,
    KnowledgeBaseRegistry,
    ServeConfig,
    SessionPool,
)

NEW_ROWS = [
    {"SMOKING": "smoker", "CANCER": "yes", "FAMILY_HISTORY": "yes"}
] * 30 + [
    {"SMOKING": "non-smoker", "CANCER": "no", "FAMILY_HISTORY": "no"}
] * 70


@pytest.fixture
def kb(table):
    return ProbabilisticKnowledgeBase.from_data(table)


class TestSessionPool:
    def test_checkin_recycles_the_session_warm(self, kb):
        pool = SessionPool(kb.model, size=2)
        session = pool.checkout()
        session.ask("CANCER=yes")
        pool.checkin(session)
        assert pool.checkout() is session  # same warm object, not a rebuild

    def test_pooled_sessions_share_the_models_joint(self, kb, monkeypatch):
        builds = []
        factored = MaxEntModel.factored

        def counted(model):
            builds.append(model)
            return factored(model)

        monkeypatch.setattr(MaxEntModel, "factored", counted)
        pool = SessionPool(kb.model.copy(), size=2)
        first, second = pool.checkout(), pool.checkout()
        assert first.ask("CANCER=yes | SMOKING=smoker") == second.ask(
            "CANCER=yes | SMOKING=smoker"
        )
        assert first.most_probable() == second.most_probable()
        assert len(builds) == 1

    def test_checkout_never_blocks_beyond_size(self, kb):
        pool = SessionPool(kb.model, size=1)
        first, second = pool.checkout(), pool.checkout()
        assert first is not second
        assert pool.outstanding == 2
        pool.checkin(first)
        pool.checkin(second)  # overflow: dropped, not retained
        assert pool.stats()["idle"] == 1

    def test_run_is_exception_safe(self, kb):
        pool = SessionPool(kb.model, size=1)
        with pytest.raises(ValueError):
            pool.run(lambda session: (_ for _ in ()).throw(ValueError("x")))
        assert pool.outstanding == 0
        assert pool.stats()["idle"] == 1  # the session came back

    def test_retire_closes_idle_and_refuses_checkouts(self, kb):
        pool = SessionPool(kb.model, size=2)
        pool.checkin(pool.checkout())
        pool.retire()
        assert pool.retired
        assert pool.stats()["idle"] == 0
        with pytest.raises(DataError, match="retired"):
            pool.checkout()
        pool.retire()  # idempotent

    def test_outstanding_sessions_reaped_at_checkin(self, kb):
        """Hot-swap shape: retire while a request is mid-flight — the
        session finishes its work, then is dropped instead of recycled."""
        pool = SessionPool(kb.model, size=2)
        session = pool.checkout()
        answers = session.batch(["CANCER=yes", "CANCER=no"])
        assert len(answers) == 2
        pool.retire()
        pool.checkin(session)
        assert pool.stats()["idle"] == 0
        assert pool.outstanding == 0

    def test_invalid_size_raises(self, kb):
        with pytest.raises(DataError, match="pool size"):
            SessionPool(kb.model, size=0)


class TestRegistry:
    def test_add_get_and_names(self, kb):
        with KnowledgeBaseRegistry() as registry:
            entry = registry.add("paper", kb)
            assert registry.get("paper") is entry
            assert registry.names() == ["paper"]

    def test_unknown_name_is_a_404(self, kb):
        with KnowledgeBaseRegistry() as registry:
            registry.add("paper", kb)
            with pytest.raises(ApiError) as info:
                registry.get("nope")
            assert info.value.status == 404

    def test_duplicate_and_invalid_names_rejected(self, kb):
        with KnowledgeBaseRegistry() as registry:
            registry.add("paper", kb)
            with pytest.raises(DataError, match="already hosted"):
                registry.add("paper", kb)
            with pytest.raises(DataError, match="non-empty"):
                registry.add("", kb)
            with pytest.raises(DataError, match="no '/'"):
                registry.add("a/b", kb)

    def test_close_is_idempotent_and_reaps_pools(self, kb):
        registry = KnowledgeBaseRegistry()
        entry = registry.add("paper", kb)
        entry.pool.checkin(entry.pool.checkout())
        registry.close()
        assert entry.pool.retired
        assert entry.pool.stats()["idle"] == 0
        registry.close()  # second close is a no-op
        with pytest.raises(DataError, match="closed"):
            registry.add("late", kb)


class TestHostedKB:
    def test_served_query_matches_in_process_exactly(self, kb):
        expected = kb.query("CANCER=yes | SMOKING=smoker")

        async def scenario(registry):
            entry = registry.add("paper", kb)
            answer, fingerprint = await entry.query(
                "CANCER=yes | SMOKING=smoker"
            )
            return answer, fingerprint, entry.fingerprint()

        with KnowledgeBaseRegistry() as registry:
            answer, fingerprint, current = asyncio.run(scenario(registry))
        assert answer == expected  # exact float equality, not approx
        assert fingerprint == current

    def test_update_swaps_pool_and_notifies_subscribers(self, kb):
        mirror = ProbabilisticKnowledgeBase.from_dict(kb.to_dict())

        async def scenario(registry):
            entry = registry.add("paper", kb)
            old_pool = entry.pool
            old_fingerprint = entry.fingerprint()
            queue = entry.subscribe()
            payload = await entry.update(rows=NEW_ROWS)
            answer, fingerprint = await entry.query("CANCER=yes")
            return (
                payload,
                queue.get_nowait(),
                old_pool,
                old_fingerprint,
                entry,
                answer,
                fingerprint,
            )

        with KnowledgeBaseRegistry() as registry:
            (
                payload,
                pushed,
                old_pool,
                old_fingerprint,
                entry,
                answer,
                fingerprint,
            ) = asyncio.run(scenario(registry))

        assert pushed == payload
        assert payload["type"] == "revision"
        assert payload["added_samples"] == len(NEW_ROWS)
        assert old_pool.retired
        assert entry.pool is not old_pool
        assert entry.fingerprint() != old_fingerprint
        assert entry.updates_served == 1
        # Served answers now match an in-process mirror that absorbed the
        # same rows — bit-for-bit.
        from repro.data.streaming import TableBuilder

        builder = TableBuilder(mirror.schema)
        for row in NEW_ROWS:
            builder.add_record(row)
        mirror.update(builder.snapshot())
        assert fingerprint == mirror.model.fingerprint()
        assert answer == mirror.query("CANCER=yes")

    def test_flush_queued_behind_a_hot_swap_is_answered(self, kb):
        """A query admitted before a hot-swap whose flush reaches the
        executor only after the swap retired its pool is answered from
        the current pool, with that pool's fingerprint — not refused."""
        gate = threading.Event()
        config = ServeConfig(executor_threads=1)

        async def scenario(registry):
            entry = registry.add("paper", kb)
            loop = asyncio.get_running_loop()
            blocker = loop.run_in_executor(registry.executor, gate.wait)
            pending = asyncio.ensure_future(entry.query("CANCER=yes"))
            await asyncio.sleep(0.05)  # the flush queues behind the blocker
            # The swap half of HostedKB.update, on the event loop.
            old_pool = entry.pool
            entry.pool = entry._build_pool(entry.kb)
            old_pool.retire()
            gate.set()
            await blocker
            return await pending, entry.fingerprint()

        with KnowledgeBaseRegistry(config) as registry:
            (answer, fingerprint), current = asyncio.run(scenario(registry))
        assert answer == kb.query("CANCER=yes")
        assert fingerprint == current

    def test_batch_queued_behind_a_close_fails_and_close_returns(self, kb):
        """A batch still queued on the executor when its entry closes
        fails with DataError instead of retrying the retired pool, and
        the registry's shutdown, which waits for the executor, returns."""
        gate = threading.Event()
        config = ServeConfig(executor_threads=1)
        registry = KnowledgeBaseRegistry(config)

        async def scenario():
            entry = registry.add("paper", kb)
            loop = asyncio.get_running_loop()
            blocker = loop.run_in_executor(registry.executor, gate.wait)
            pending = asyncio.ensure_future(entry.batch(["CANCER=yes"]))
            await asyncio.sleep(0.05)  # the batch queues behind the blocker
            entry.close()
            gate.set()
            await blocker
            with pytest.raises(DataError, match="retired"):
                await asyncio.wait_for(pending, timeout=5.0)

        try:
            asyncio.run(scenario())
        finally:
            gate.set()
            closer = threading.Thread(target=registry.close, daemon=True)
            closer.start()
            closer.join(timeout=5.0)
        assert not closer.is_alive()

    def test_empty_update_is_a_422(self, kb):
        async def scenario(registry):
            entry = registry.add("paper", kb)
            await entry.update(rows=[])

        with KnowledgeBaseRegistry() as registry:
            with pytest.raises(ApiError) as info:
                asyncio.run(scenario(registry))
        assert info.value.status == 422

    def test_stats_report_counters_and_batcher(self, kb):
        async def scenario(registry):
            entry = registry.add("paper", kb)
            entry.count("query")
            await entry.query("CANCER=yes")
            return entry.stats()

        with KnowledgeBaseRegistry() as registry:
            stats = asyncio.run(scenario(registry))
        assert stats["requests"] == {"query": 1}
        assert stats["batcher"]["submitted"] == 1
        assert stats["pool"]["retired"] is False
