"""Tests for the live knowledge-base lifecycle (repro.lifecycle)."""

import numpy as np
import pytest

from repro.core.knowledge_base import ProbabilisticKnowledgeBase
from repro.data.dataset import Dataset
from repro.discovery.config import DiscoveryConfig
from repro.discovery.engine import discover
from repro.exceptions import DataError
from repro.lifecycle import (
    LiveKnowledgeBase,
    UpdatePolicy,
    scan_for_new_significance,
)


@pytest.fixture
def live(table):
    return LiveKnowledgeBase.from_data(
        table, policy=UpdatePolicy(every_n=100)
    )


class TestUpdatePolicy:
    def test_defaults(self):
        policy = UpdatePolicy()
        assert policy.every_n == 1000
        assert not policy.significance_triggered

    def test_bad_every_n(self):
        with pytest.raises(DataError, match="every_n"):
            UpdatePolicy(every_n=0)

    def test_bad_check_every(self):
        with pytest.raises(DataError, match="check_every"):
            UpdatePolicy(check_every=0)


class TestCountPolicy:
    def test_observe_triggers_at_threshold(self, live):
        for _ in range(99):
            assert live.observe(("smoker", "yes", "no")) is None
        assert live.pending == 99
        revision = live.observe(("smoker", "yes", "no"))
        assert revision is not None
        assert revision.added_samples == 100
        assert live.pending == 0
        assert live.sample_size == 3428 + 100

    def test_observe_records(self, live):
        revision = live.observe(
            {"SMOKING": "smoker", "CANCER": "yes", "FAMILY_HISTORY": "no"}
        )
        assert revision is None
        assert live.pending == 1

    def test_observe_batch(self, live, schema, table, rng):
        dataset = Dataset.from_joint(schema, table.probabilities(), 250, rng)
        revision = live.observe_batch(list(dataset))
        assert revision is not None
        assert live.pending == 0
        assert live.sample_size == 3428 + 250

    def test_add_table(self, live, schema, table, rng):
        shard = Dataset.from_joint(
            schema, table.probabilities(), 150, rng
        ).to_contingency()
        revision = live.add_table(shard)
        assert revision is not None
        assert revision.added_samples == 150

    def test_manual_policy_only_flushes_on_demand(self, table):
        live = LiveKnowledgeBase.from_data(
            table, policy=UpdatePolicy(every_n=None)
        )
        for _ in range(500):
            assert live.observe(("smoker", "yes", "no")) is None
        assert live.pending == 500
        revision = live.flush()
        assert revision is not None
        assert live.pending == 0

    def test_flush_with_nothing_pending(self, live):
        assert live.flush() is None

    def test_history_accumulates(self, live, schema, table, rng):
        assert [r.mode for r in live.history] == ["initial"]
        dataset = Dataset.from_joint(schema, table.probabilities(), 300, rng)
        live.observe_batch(list(dataset))
        assert len(live.history) == 2
        assert live.history[1].number == 1
        assert live.history[1].mode in ("warm", "cold")


class TestSignificancePolicy:
    def test_quiet_stream_does_not_refit(self, schema, table, rng):
        live = LiveKnowledgeBase.from_data(
            table,
            policy=UpdatePolicy(
                every_n=None, significance_triggered=True, check_every=50
            ),
        )
        dataset = Dataset.from_joint(schema, table.probabilities(), 200, rng)
        revision = live.observe_batch(list(dataset))
        # Same population: the probe sees no new structure, no refit.
        assert revision is None
        assert live.pending == 200

    def test_drifting_stream_triggers_refit(self, schema, table):
        live = LiveKnowledgeBase.from_data(
            table,
            policy=UpdatePolicy(
                every_n=None, significance_triggered=True, check_every=50
            ),
        )
        skewed = [("smoker", "yes", "yes")] * 2000
        revision = live.observe_batch(skewed)
        assert revision is not None
        assert live.pending == 0
        assert len(revision.constraints_added) > 0

    def test_scan_probe_quiet_on_same_distribution(self, schema, table, rng):
        result = discover(table, DiscoveryConfig(max_order=2))
        delta = Dataset.from_joint(schema, table.probabilities(), 500, rng)
        assert not scan_for_new_significance(
            table + delta.to_contingency(), result
        )

    def test_scan_probe_fires_on_drift(self, schema, table):
        result = discover(table, DiscoveryConfig(max_order=2))
        skewed = Dataset.from_samples(
            schema, [("smoker", "yes", "yes")] * 3000
        ).to_contingency()
        assert scan_for_new_significance(table + skewed, result)


class TestLiveServing:
    def test_sessions_stay_valid_across_refits(self, table, schema, rng):
        live = LiveKnowledgeBase.from_data(
            table, policy=UpdatePolicy(every_n=100)
        )
        session = live.session()
        before = session.ask("CANCER=yes | SMOKING=smoker")
        # Stream heavily skewed data so the answer must move.
        live.observe_batch([("smoker", "yes", "no")] * 100)
        after = session.ask("CANCER=yes | SMOKING=smoker")
        assert after > before
        # The session still points at the same (mutated-in-place) model.
        assert session.model is live.kb.model

    def test_query_passthrough(self, live):
        assert live.query("CANCER=yes | SMOKING=smoker") == pytest.approx(
            live.kb.query("CANCER=yes | SMOKING=smoker")
        )
        assert live.probability(
            {"CANCER": "yes"}, {"SMOKING": "smoker"}
        ) == pytest.approx(live.kb.probability(
            {"CANCER": "yes"}, {"SMOKING": "smoker"}
        ))

    def test_needs_updatable_kb(self, table):
        kb = ProbabilisticKnowledgeBase.from_data(table)
        stripped = ProbabilisticKnowledgeBase.from_dict(
            {**kb.to_dict(), "discovery": None}
        )
        with pytest.raises(DataError, match="updatable"):
            LiveKnowledgeBase(stripped)

    def test_observe_bad_type(self, live):
        with pytest.raises(DataError, match="observe expects"):
            live.observe(42)

    def test_observe_batch_bad_item_reported(self, live):
        with pytest.raises(DataError, match="observe expects"):
            live.observe_batch([("smoker", "yes", "no"), 42])

    def test_observe_batch_string_item_reported(self, live):
        """A bare string must not be iterated character by character."""
        with pytest.raises(DataError, match="observe expects"):
            live.observe_batch(["smoker"])

    def test_observe_batch_is_atomic(self, live):
        """A bad item partway through leaves nothing half-counted."""
        with pytest.raises(DataError):
            live.observe_batch(
                [("smoker", "yes", "no"), ("smoker", "yes")]  # bad width
            )
        assert live.pending == 0

    def test_repr(self, live):
        text = repr(live)
        assert "N=3428" in text and "pending=0" in text


class TestEquivalenceThroughLifecycle:
    def test_streamed_equals_batch(self, schema, table, rng):
        """Observing in windows lands on the same model as one cold fit."""
        config = DiscoveryConfig(max_order=2)
        dataset = Dataset.from_joint(schema, table.probabilities(), 900, rng)
        rows = list(dataset)

        live = LiveKnowledgeBase.from_data(
            table, config=config, policy=UpdatePolicy(every_n=300)
        )
        live.observe_batch(rows[:300])
        live.observe_batch(rows[300:600])
        live.observe_batch(rows[600:])
        assert live.pending == 0

        batch = ProbabilisticKnowledgeBase.from_data(
            table + dataset.to_contingency(), config
        )
        assert {c.key for c in live.kb.constraints} == {
            c.key for c in batch.constraints
        }
        assert np.allclose(
            live.kb.model.joint(), batch.model.joint(), atol=1e-7
        )


class TestDurableLifecycle:
    """bind_store/from_store: every refit persists before returning."""

    def test_bind_store_saves_now_and_on_every_refit(self, table, tmp_path):
        from repro.store import KBStore

        live = LiveKnowledgeBase.from_data(
            table, policy=UpdatePolicy(every_n=50)
        )
        with KBStore(tmp_path / "kb.db") as store:
            live.bind_store(store, "survey")
            assert store.names() == ["survey"]
            boot_revision = store.describe("survey").latest_revision
            for _ in range(50):
                live.observe(("smoker", "yes", "no"))
            assert store.describe("survey").latest_revision == (
                boot_revision + 1
            )
            assert store.history("survey")[-1].artifact_sha is not None

    def test_from_store_resumes_and_keeps_persisting(self, table, tmp_path):
        from repro.core.serialization import canonical_json
        from repro.store import KBStore

        first = LiveKnowledgeBase.from_data(
            table, policy=UpdatePolicy(every_n=50)
        )
        with KBStore(tmp_path / "kb.db") as store:
            first.bind_store(store, "survey")
            for _ in range(50):
                first.observe(("smoker", "yes", "no"))
            # A new process resumes from the store at the same state.
            resumed = LiveKnowledgeBase.from_store(
                store, "survey", policy=UpdatePolicy(every_n=50)
            )
            assert canonical_json(resumed.kb.to_dict()) == canonical_json(
                first.kb.to_dict()
            )
            for _ in range(50):
                resumed.observe(("non-smoker", "no", "no"))
            assert store.describe("survey").latest_revision == (
                resumed.kb.revisions[-1].number
            )

    def test_manual_flush_persists(self, table, tmp_path):
        from repro.store import KBStore

        live = LiveKnowledgeBase.from_data(
            table, policy=UpdatePolicy(every_n=None)
        )
        with KBStore(tmp_path / "kb.db") as store:
            live.bind_store(store, "survey")
            live.observe(("smoker", "yes", "no"))
            before = store.describe("survey").latest_revision
            revision = live.flush()
            assert revision is not None
            assert store.describe("survey").latest_revision == (
                revision.number
            ) > before

    def test_unbound_lifecycle_unchanged(self, live):
        # No store bound: flush still works, nothing tries to persist.
        live.observe(("smoker", "yes", "no"))
        assert live.flush() is not None
