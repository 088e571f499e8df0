"""Tests for the versioned knowledge-base serialization format."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.knowledge_base import (
    FORMAT_VERSION,
    ProbabilisticKnowledgeBase,
)
from repro.exceptions import DataError

QUERIES = [
    "CANCER=yes",
    "CANCER=yes | SMOKING=smoker",
    "CANCER=yes | SMOKING=smoker, FAMILY_HISTORY=yes",
]


@pytest.fixture
def kb(table):
    return ProbabilisticKnowledgeBase.from_data(table)


def _v2_dict(kb):
    """A faithful v2 payload: the current layout minus the v3 additions."""
    data = kb.to_dict()
    data["format_version"] = 2
    data.pop("revisions")
    data.pop("discovery")
    return data


class TestFormatVersion:
    def test_current_version_is_four(self):
        assert FORMAT_VERSION == 4

    def test_to_dict_stamps_version(self, kb):
        assert kb.to_dict()["format_version"] == FORMAT_VERSION

    def test_v3_round_trip(self, kb):
        clone = ProbabilisticKnowledgeBase.from_dict(kb.to_dict())
        for text in QUERIES:
            assert clone.query(text) == pytest.approx(
                kb.query(text), rel=1e-12
            )

    def test_v2_dict_migrates(self, kb):
        """v2 lacks the lifecycle fields; everything else reads unchanged."""
        clone = ProbabilisticKnowledgeBase.from_dict(_v2_dict(kb))
        for text in QUERIES:
            assert clone.query(text) == pytest.approx(
                kb.query(text), rel=1e-12
            )
        assert clone.revisions == []
        assert clone.discovery is None
        assert not clone.can_update

    def test_v1_dict_migrates(self, kb):
        """A v1 dict is exactly a v2 dict without the version field."""
        legacy = _v2_dict(kb)
        legacy.pop("format_version")
        clone = ProbabilisticKnowledgeBase.from_dict(legacy)
        for text in QUERIES:
            assert clone.query(text) == pytest.approx(
                kb.query(text), rel=1e-12
            )
        assert not clone.can_update

    @pytest.mark.parametrize("version", [1, 2])
    def test_legacy_file_round_trip(self, kb, tmp_path, version):
        legacy = _v2_dict(kb)
        if version == 1:
            legacy.pop("format_version")
        path = tmp_path / "legacy_kb.json"
        path.write_text(json.dumps(legacy))
        loaded = ProbabilisticKnowledgeBase.load(path)
        assert loaded.sample_size == kb.sample_size
        # Re-saving upgrades the file to the current format.
        upgraded = tmp_path / "upgraded_kb.json"
        loaded.save(upgraded)
        assert (
            json.loads(upgraded.read_text())["format_version"]
            == FORMAT_VERSION
        )

    def test_future_version_rejected(self, kb):
        data = kb.to_dict()
        data["format_version"] = FORMAT_VERSION + 1
        with pytest.raises(DataError, match="upgrade repro"):
            ProbabilisticKnowledgeBase.from_dict(data)

    @pytest.mark.parametrize("bad", ["2", 2.0, 0, -1, None, True])
    def test_bad_version_rejected(self, kb, bad):
        data = kb.to_dict()
        data["format_version"] = bad
        with pytest.raises(DataError, match="format_version"):
            ProbabilisticKnowledgeBase.from_dict(data)

    def test_non_dict_rejected(self):
        with pytest.raises(DataError, match="malformed"):
            ProbabilisticKnowledgeBase.from_dict([1, 2, 3])


class TestAuditTrailRoundTrip:
    """Format 3 round-trips the discovery trace and revision history."""

    def test_discovery_trace_survives(self, kb):
        clone = ProbabilisticKnowledgeBase.from_dict(kb.to_dict())
        original = kb.discovery
        restored = clone.discovery
        assert restored is not None
        assert restored.table == original.table
        assert restored.constraints.cell_keys() == (
            original.constraints.cell_keys()
        )
        assert restored.num_scans() == original.num_scans()
        for old, new in zip(original.scans, restored.scans):
            assert new.order == old.order
            assert new.fit_sweeps == old.fit_sweeps
            assert new.tests == old.tests
            assert new.chosen == old.chosen
        assert restored.config == original.config
        assert restored.summary() == original.summary()

    def test_restored_model_is_attached(self, kb):
        clone = ProbabilisticKnowledgeBase.from_dict(kb.to_dict())
        assert clone.discovery.model is clone.model

    def test_revisions_survive(self, kb, table, rng):
        from repro.data.dataset import Dataset

        delta = Dataset.from_joint(
            kb.schema, table.probabilities(), 400, rng
        ).to_contingency()
        kb.update(delta)
        clone = ProbabilisticKnowledgeBase.from_dict(kb.to_dict())
        assert clone.revisions == kb.revisions
        assert clone.revisions[0].mode == "initial"
        assert clone.revisions[1].mode in ("warm", "cold")

    def test_save_without_audit(self, kb, tmp_path):
        """include_audit=False writes the model only: smaller, no counts
        disclosed, not updatable — the pre-format-3 shipping shape."""
        full = tmp_path / "full.json"
        lean = tmp_path / "lean.json"
        kb.save(full)
        kb.save(lean, include_audit=False)
        assert lean.stat().st_size < full.stat().st_size
        assert "counts" not in lean.read_text()
        loaded = ProbabilisticKnowledgeBase.load(lean)
        assert loaded.discovery is None
        assert not loaded.can_update
        assert loaded.query(QUERIES[1]) == pytest.approx(
            kb.query(QUERIES[1]), rel=1e-12
        )

    def test_loaded_kb_updates_warm(self, kb, table, rng, tmp_path):
        """The round-tripped audit trail keeps the KB updatable."""
        from repro.data.dataset import Dataset

        path = tmp_path / "kb.json"
        kb.save(path)
        loaded = ProbabilisticKnowledgeBase.load(path)
        assert loaded.can_update
        delta = Dataset.from_joint(
            kb.schema, table.probabilities(), 400, rng
        ).to_contingency()
        revision = loaded.update(delta)
        assert revision.mode == "warm"
        assert loaded.sample_size == table.total + 400


class TestFormatThreeFile:
    """A file written by format 3's ``kb.save``: the paper KB after one
    update of 40 smoker/yes/yes and 60 non-smoker/no/no rows, its
    training table stored as the nested count tensor."""

    FILE = Path(__file__).parent / "data" / "paper_kb_format3.json"

    @pytest.fixture
    def legacy(self):
        assert json.loads(self.FILE.read_text())["format_version"] == 3
        return ProbabilisticKnowledgeBase.load(self.FILE)

    def test_loads_updatable(self, legacy):
        assert legacy.can_update
        assert [r.mode for r in legacy.revisions] == ["initial", "warm"]
        assert legacy.sample_size == legacy.discovery.table.total == 3528
        nested = json.loads(self.FILE.read_text())["discovery"]["table"]
        assert legacy.discovery.table.counts.tolist() == nested["counts"]

    def test_answers_match_a_format_four_round_trip(self, legacy, tmp_path):
        path = tmp_path / "kb.json"
        legacy.save(path)
        fresh = ProbabilisticKnowledgeBase.load(path)
        given = {"SMOKING": "smoker"}
        assert fresh.model.fingerprint() == legacy.model.fingerprint()
        assert fresh.query(QUERIES[1]) == legacy.query(QUERIES[1])
        assert (
            fresh.p("CANCER=yes").given("SMOKING=smoker").value()
            == legacy.p("CANCER=yes").given("SMOKING=smoker").value()
        )
        assert np.array_equal(
            fresh.distribution("CANCER", given),
            legacy.distribution("CANCER", given),
        )
        assert fresh.most_probable(given) == legacy.most_probable(given)
        assert (
            fresh.rules(min_probability=0.5).describe()
            == legacy.rules(min_probability=0.5).describe()
        )

    def test_updates_warm_and_resaves_as_format_four(self, legacy, tmp_path):
        revision = legacy.update(
            [("smoker", "yes", "yes")] * 30 + [("non-smoker", "no", "no")] * 20
        )
        assert revision.mode == "warm"
        assert legacy.sample_size == 3578
        path = tmp_path / "kb.json"
        legacy.save(path)
        saved = json.loads(path.read_text())
        assert saved["format_version"] == FORMAT_VERSION == 4
        assert set(saved["discovery"]["table"]) == {"schema", "index", "counts"}
        assert ProbabilisticKnowledgeBase.load(path).to_dict() == (
            legacy.to_dict()
        )


class TestMigrationToFormatFour:
    def _v3_dict(self, kb):
        data = kb.to_dict()
        data["format_version"] = 3
        table = kb.discovery.table
        data["discovery"]["table"] = {
            "schema": data["discovery"]["table"]["schema"],
            "counts": table.counts.tolist(),
        }
        return data

    def test_v3_dict_migrates_exactly(self, kb):
        legacy = self._v3_dict(kb)
        snapshot = json.dumps(legacy, sort_keys=True)
        clone = ProbabilisticKnowledgeBase.from_dict(legacy)
        assert json.dumps(legacy, sort_keys=True) == snapshot  # not mutated
        assert clone.to_dict() == kb.to_dict()
        assert clone.discovery.table == kb.discovery.table

    @pytest.mark.parametrize(
        "counts, message",
        [
            ([[1, 2], [3, 4]], "does not match schema shape"),
            ([[[-1, 2], [3, 4]], [[1, 2], [3, 4]], [[1, 2], [3, 4]]], "non-negative"),
            ("many", "malformed format-3 table"),
            ([[1, 2], [3]], "malformed format-3 table"),
            ([[[1.0, 2], [3, 4]]] * 3, "counts are not integers"),
            ([[[True, False]] * 2] * 3, "counts are not integers"),
        ],
    )
    def test_bad_v3_table_rejected(self, kb, counts, message):
        legacy = self._v3_dict(kb)
        legacy["discovery"]["table"]["counts"] = counts
        with pytest.raises(DataError, match=message):
            ProbabilisticKnowledgeBase.from_dict(legacy)
