"""Tests for the public knowledge-base facade."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.knowledge_base import ProbabilisticKnowledgeBase
from repro.core.serialization import canonical_bytes
from repro.data.contingency import ContingencyTable
from repro.data.dataset import Dataset
from repro.data.schema import Attribute, Schema
from repro.discovery.config import DiscoveryConfig
from repro.discovery.engine import discover
from repro.exceptions import DataError


@pytest.fixture
def kb(table):
    return ProbabilisticKnowledgeBase.from_data(table)


@pytest.fixture
def delta(schema, table, rng):
    return Dataset.from_joint(
        schema, table.probabilities(), 500, rng
    ).to_contingency()


class TestConstruction:
    def test_from_table(self, kb, table):
        assert kb.sample_size == table.total
        assert kb.discovery is not None
        assert len(kb.constraints) > 0

    def test_from_dataset(self, schema, table, rng):
        dataset = Dataset.from_joint(schema, table.probabilities(), 2000, rng)
        kb = ProbabilisticKnowledgeBase.from_data(dataset)
        assert kb.sample_size == 2000

    def test_from_bad_type(self):
        with pytest.raises(DataError, match="expects"):
            ProbabilisticKnowledgeBase.from_data([1, 2, 3])

    def test_config_forwarded(self, table):
        kb = ProbabilisticKnowledgeBase.from_data(
            table, DiscoveryConfig(max_constraints=1)
        )
        assert len(kb.constraints) == 1


class TestQueries:
    def test_string_query(self, kb):
        assert kb.query("CANCER=yes | SMOKING=smoker") == pytest.approx(
            240 / 1290, abs=0.01
        )

    def test_dict_query(self, kb):
        assert kb.probability(
            {"CANCER": "yes"}, {"SMOKING": "smoker"}
        ) == pytest.approx(240 / 1290, abs=0.01)

    def test_distribution(self, kb):
        distribution = kb.distribution("SMOKING")
        assert sum(distribution.values()) == pytest.approx(1.0)
        assert distribution["smoker"] == pytest.approx(1290 / 3428, abs=1e-6)


class TestKnowledge:
    def test_rules_threshold(self, kb):
        rules = kb.rules(min_probability=0.7, max_conditions=1)
        assert all(r.probability >= 0.7 for r in rules)
        assert len(rules) > 0

    def test_constrained_only_rules(self, kb):
        rules = kb.rules(constrained_only=True)
        assert len(rules) > 0

    def test_summary(self, kb):
        text = kb.summary()
        assert "N=3428" in text
        assert "significant joint probabilities" in text


class TestSerialization:
    def test_dict_round_trip(self, kb):
        clone = ProbabilisticKnowledgeBase.from_dict(kb.to_dict())
        assert clone.sample_size == kb.sample_size
        for text in [
            "CANCER=yes",
            "CANCER=yes | SMOKING=smoker",
            "CANCER=yes | SMOKING=smoker, FAMILY_HISTORY=yes",
        ]:
            assert clone.query(text) == pytest.approx(kb.query(text), rel=1e-9)

    def test_file_round_trip(self, kb, tmp_path):
        path = tmp_path / "kb.json"
        kb.save(path)
        loaded = ProbabilisticKnowledgeBase.load(path)
        assert loaded.query("CANCER=yes | SMOKING=smoker") == pytest.approx(
            kb.query("CANCER=yes | SMOKING=smoker"), rel=1e-9
        )

    def test_loaded_kb_keeps_discovery_trace(self, kb, tmp_path):
        """Since format 3 the audit trail survives a save/load cycle."""
        path = tmp_path / "kb.json"
        kb.save(path)
        loaded = ProbabilisticKnowledgeBase.load(path)
        assert loaded.discovery is not None
        assert loaded.discovery.constraints.cell_keys() == (
            kb.discovery.constraints.cell_keys()
        )

    def test_loaded_kb_reports_constraints(self, kb):
        """A KB without its discovery trace (e.g. a pre-format-3 file)
        still lists its significant joint probabilities (recomputed from
        factors)."""
        data = kb.to_dict()
        data.pop("discovery")
        loaded = ProbabilisticKnowledgeBase.from_dict(data)
        assert loaded.discovery is None
        original = {
            (c.attributes, c.values): c.probability for c in kb.constraints
        }
        recovered = {
            (c.attributes, c.values): c.probability
            for c in loaded.constraints
        }
        assert set(recovered) == set(original)
        for key, probability in original.items():
            assert recovered[key] == pytest.approx(probability, abs=1e-7)

    def test_malformed_dict(self):
        with pytest.raises(DataError, match="malformed"):
            ProbabilisticKnowledgeBase.from_dict({"schema": {}})


class TestIncrementalUpdate:
    def test_update_records_revision(self, kb, schema, table, rng):
        delta = Dataset.from_joint(schema, table.probabilities(), 400, rng)
        revision = kb.update(delta)
        assert revision.number == 1
        assert revision.mode in ("warm", "cold")
        assert revision.added_samples == 400
        assert kb.sample_size == table.total + 400
        assert kb.revisions[-1] is revision

    def test_update_accepts_raw_samples(self, kb, table):
        revision = kb.update([("smoker", "yes", "no")] * 5)
        assert kb.sample_size == table.total + 5
        assert revision.added_samples == 5

    def test_update_accepts_raw_records(self, kb, table):
        record = {"SMOKING": "smoker", "CANCER": "yes", "FAMILY_HISTORY": "no"}
        revision = kb.update([record] * 5)
        assert kb.sample_size == table.total + 5
        assert revision.added_samples == 5

    def test_schema_mismatch_reported(self, kb):
        other = Schema([Attribute("X", ("a", "b"))])
        with pytest.raises(DataError, match="missing attributes"):
            kb.update(ContingencyTable.zeros(other))
        assert kb.revisions[-1].number == 0

    def test_revision_tracks_added_and_dropped_keys(self, schema, table):
        """Streaming in strongly correlated data grows the constraint set."""
        kb = ProbabilisticKnowledgeBase.from_data(
            table, DiscoveryConfig(max_order=2)
        )
        before = kb.discovery.constraints.cell_keys()
        skewed = Dataset.from_samples(
            schema, [("smoker", "yes", "yes")] * 2000
        ).to_contingency()
        revision = kb.update(skewed)
        after = kb.discovery.constraints.cell_keys()
        assert after - before == set(revision.constraints_added)
        assert before - after == set(revision.constraints_dropped)

    def test_readoption_recorded_in_audit_trail(self, table, delta):
        kb = ProbabilisticKnowledgeBase.from_data(
            table, DiscoveryConfig(max_order=2)
        )
        adopted = kb.discovery.constraints.cell_keys()
        assert kb.update(delta).mode == "warm"
        readopt_scans = [scan for scan in kb.discovery.scans if scan.readopted]
        assert readopt_scans
        assert set(readopt_scans[0].readopted) <= adopted

    def test_warm_update_respects_lowered_cap(self, table, delta):
        """A max_constraints cap lowered between revisions binds the
        re-adoption chain too, exactly like a capped cold run."""
        kb = ProbabilisticKnowledgeBase.from_data(
            table, DiscoveryConfig(max_order=2, max_constraints=5)
        )
        kb.discovery.config = replace(kb.discovery.config, max_constraints=2)
        kb.update(delta)
        assert len(kb.discovery.constraints.cells) <= 2

    def test_gevarter_solver_update(self, table, delta):
        config = DiscoveryConfig(max_order=2, solver="gevarter", tol=1e-9)
        kb = ProbabilisticKnowledgeBase.from_data(table, config)
        revision = kb.update(delta)
        assert revision.mode in ("warm", "cold")
        cold = discover(table + delta, config)
        assert kb.discovery.constraints.cell_keys() == (
            cold.constraints.cell_keys()
        )

    def test_empty_update_is_noop(self, kb, schema, table):
        fingerprint = kb.model.fingerprint()
        revision = kb.update(ContingencyTable.zeros(schema))
        assert revision.mode == "noop"
        assert kb.model.fingerprint() == fingerprint
        assert kb.sample_size == table.total

    def test_update_mutates_model_in_place(self, kb, schema, table, rng):
        model = kb.model
        fingerprint = model.fingerprint()
        delta = Dataset.from_joint(schema, table.probabilities(), 400, rng)
        kb.update(delta)
        assert kb.model is model
        assert model.fingerprint() != fingerprint
        assert kb.discovery.model is model

    def test_open_sessions_self_invalidate(self, kb):
        """An open session serves the refreshed model without a rebuild."""
        session = kb.session()
        before = session.ask("CANCER=yes | SMOKING=smoker")
        kb.update([("smoker", "yes", "no")] * 500)
        after = session.ask("CANCER=yes | SMOKING=smoker")
        assert after > before
        # And the facade's own default session too.
        assert kb.query("CANCER=yes | SMOKING=smoker") == pytest.approx(
            after
        )

    def test_ingest_resets_builder(self, kb, schema, table):
        from repro.data.streaming import TableBuilder

        builder = TableBuilder(schema)
        for _ in range(10):
            builder.add_sample(("smoker", "yes", "no"))
        revision = kb.ingest(builder)
        assert revision.added_samples == 10
        assert builder.total == 0
        assert kb.sample_size == table.total + 10

    def test_ingest_wrong_type(self, kb, table):
        with pytest.raises(DataError, match="expects a TableBuilder"):
            kb.ingest(table)

    def test_update_rejects_builder(self, kb, schema):
        """update() would re-absorb a builder in full on every call;
        ingest() is the consuming form."""
        from repro.data.streaming import TableBuilder

        builder = TableBuilder(schema)
        builder.add_sample(("smoker", "yes", "no"))
        with pytest.raises(DataError, match="ingest"):
            kb.update(builder)
        # The suggested alternatives both work.
        kb.update(builder.snapshot())
        kb.ingest(builder)

    def test_from_model_cannot_update(self, kb):
        bare = ProbabilisticKnowledgeBase.from_model(kb.model.copy(), 100)
        assert not bare.can_update
        with pytest.raises(DataError, match="cannot be updated"):
            bare.update([("smoker", "yes", "no")])


def _independent_delta(table):
    """A delta with no correlations: the product of ``table``'s margins."""
    joint = np.ones(table.schema.shape)
    for axis, name in enumerate(table.schema.names):
        shape = [1] * len(table.schema)
        shape[axis] = -1
        joint = joint * table.first_order_probabilities(name).reshape(shape)
    return ContingencyTable(
        table.schema, np.round(joint * table.total).astype(np.int64)
    )


def _warm_delta(schema, table, seed):
    return Dataset.from_joint(
        schema, table.probabilities(), 400, np.random.default_rng(seed)
    )


class TestCopy:
    """``copy()`` clones by sharing the trace; updates never reach back."""

    QUERIES = [
        "CANCER=yes",
        "CANCER=yes | SMOKING=smoker",
        "SMOKING=smoker | CANCER=yes, FAMILY_HISTORY=no",
    ]

    @staticmethod
    def _state(kb):
        return (
            canonical_bytes(kb.to_dict()),
            kb.model.fingerprint(),
            [kb.query(text) for text in TestCopy.QUERIES],
        )

    def test_copy_serializes_identically(self, kb):
        assert canonical_bytes(kb.copy().to_dict()) == canonical_bytes(
            kb.to_dict()
        )

    def test_copy_shares_the_trace_and_copies_the_model(self, kb):
        copy = kb.copy()
        assert copy.model is not kb.model
        assert copy.discovery is not kb.discovery
        assert copy.discovery.model is copy.model
        assert copy.discovery.table is kb.discovery.table
        assert copy.discovery.constraints is kb.discovery.constraints
        assert copy.discovery.scans is kb.discovery.scans
        assert copy.revisions == kb.revisions
        assert copy.revisions is not kb.revisions

    @pytest.mark.parametrize("mode", ["warm", "cold"])
    def test_updating_the_copy_leaves_the_original(
        self, kb, schema, table, mode
    ):
        if mode == "warm":
            delta = _warm_delta(schema, table, seed=3)
        else:
            delta = _independent_delta(table)
        before = self._state(kb)
        copy = kb.copy()
        revision = copy.update(delta)
        assert revision.mode == mode
        assert copy.model.fingerprint() != before[1]
        assert self._state(kb) == before
        assert len(kb.revisions) == 1

    def test_chained_copies_match_round_trip_clones(self, kb, schema, table):
        copied = kb
        cloned = ProbabilisticKnowledgeBase.from_dict(kb.to_dict())
        deltas = [_warm_delta(schema, table, seed) for seed in range(3)]
        deltas.append(_independent_delta(table))
        modes = []
        for delta in deltas:
            copied = copied.copy()
            cloned = ProbabilisticKnowledgeBase.from_dict(cloned.to_dict())
            modes.append(copied.update(delta).mode)
            cloned.update(delta)
            assert canonical_bytes(copied.to_dict()) == canonical_bytes(
                cloned.to_dict()
            )
        assert modes[:3] == ["warm"] * 3 and modes[3] == "cold"

    def test_kb_without_audit_trail_copies_but_cannot_update(self, kb):
        bare = ProbabilisticKnowledgeBase.from_dict(
            kb.to_dict(include_audit=False)
        )
        copy = bare.copy()
        assert copy.discovery is None
        assert not copy.can_update
        assert canonical_bytes(copy.to_dict()) == canonical_bytes(
            bare.to_dict()
        )
        with pytest.raises(DataError, match="cannot be updated"):
            copy.update([("smoker", "yes", "no")])
