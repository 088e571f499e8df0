"""Tests for KBStore: revisions, content-addressed artifacts, diffs."""

import sqlite3
from pathlib import Path

import pytest

from repro.core.knowledge_base import (
    FORMAT_VERSION,
    ProbabilisticKnowledgeBase,
    _migrate,
)
from repro.core.serialization import canonical_json, content_hash
from repro.data.streaming import TableBuilder
from repro.eval.paper import paper_table
from repro.exceptions import DataError
from repro.store import KBStore

NEW_ROWS = [
    {"SMOKING": "smoker", "CANCER": "yes", "FAMILY_HISTORY": "yes"}
] * 40 + [
    {"SMOKING": "non-smoker", "CANCER": "no", "FAMILY_HISTORY": "no"}
] * 60


def build_kb() -> ProbabilisticKnowledgeBase:
    return ProbabilisticKnowledgeBase.from_data(paper_table())


def update_kb(kb: ProbabilisticKnowledgeBase, rows=NEW_ROWS):
    builder = TableBuilder(kb.schema)
    for row in rows:
        builder.add_record(row)
    return kb.update(builder.snapshot())


@pytest.fixture
def store(tmp_path) -> KBStore:
    with KBStore(tmp_path / "kb.db") as store:
        yield store


class TestSaveLoad:
    def test_round_trip_is_byte_identical(self, store):
        kb = build_kb()
        update_kb(kb)
        store.save("paper", kb)
        loaded = store.load("paper")
        assert canonical_json(loaded.to_dict()) == canonical_json(
            kb.to_dict()
        )
        assert loaded.model.fingerprint() == kb.model.fingerprint()

    def test_artifact_sha_is_the_content_hash(self, store):
        kb = build_kb()
        sha = store.save("paper", kb)
        document = kb.to_dict()
        document.pop("revisions")
        assert sha == content_hash(document)
        assert store.describe("paper").latest_artifact == sha

    def test_loaded_kb_stays_updatable(self, store):
        kb = build_kb()
        store.save("paper", kb)
        loaded = store.load("paper")
        revision = update_kb(loaded)
        store.save("paper", loaded)
        assert store.describe("paper").latest_revision == revision.number

    def test_unknown_name_lists_stored_names(self, store):
        store.save("paper", build_kb())
        with pytest.raises(DataError, match=r"'paper'"):
            store.load("nope")

    def test_invalid_names_rejected(self, store):
        kb = build_kb()
        with pytest.raises(DataError, match="non-empty"):
            store.save("", kb)
        with pytest.raises(DataError, match="non-empty"):
            store.save("a/b", kb)

    def test_reopen_across_connections(self, tmp_path):
        path = tmp_path / "kb.db"
        kb = build_kb()
        update_kb(kb)
        with KBStore(path) as store:
            store.save("paper", kb)
        with KBStore(path) as store:
            loaded = store.load("paper")
        assert canonical_json(loaded.to_dict()) == canonical_json(
            kb.to_dict()
        )

    def test_file_with_a_runs_table_opens_loads_and_saves(self, tmp_path):
        # Earlier versions kept benchmark runs in a ``runs`` table of the
        # same file; the store neither needs nor touches it.
        path = tmp_path / "kb.db"
        with KBStore(path) as store:
            store.save("paper", build_kb())
        run = (
            "0123456789abcdef",
            "benchmark",
            "2026-01-01T00:00:00Z",
            1,
            4,
            "",
            "",
            '{"smoke":true}',
        )
        with sqlite3.connect(path) as connection:
            connection.execute(
                "CREATE TABLE runs (run_id TEXT NOT NULL, kind TEXT NOT "
                "NULL, created_at TEXT NOT NULL, smoke INTEGER NOT NULL, "
                "cpus INTEGER NOT NULL, config_hash TEXT NOT NULL, git_sha "
                "TEXT NOT NULL, metrics TEXT NOT NULL, PRIMARY KEY (run_id))"
            )
            connection.execute(
                "INSERT INTO runs VALUES (?, ?, ?, ?, ?, ?, ?, ?)", run
            )
        connection.close()
        with KBStore(path) as store:
            kb = store.load("paper")
            revision = update_kb(kb)
            store.save("paper", kb)
            assert store.describe("paper").latest_revision == revision.number
        with sqlite3.connect(path) as connection:
            assert connection.execute("SELECT * FROM runs").fetchall() == [
                run
            ]
        connection.close()


class TestRevisionHistory:
    def test_every_save_appends_unseen_revisions(self, store):
        kb = build_kb()
        store.save("paper", kb)
        first = len(store.history("paper"))
        update_kb(kb)
        update_kb(kb, rows=NEW_ROWS[:50])
        store.save("paper", kb)
        history = store.history("paper")
        assert len(history) == first + 2
        assert [row.number for row in history] == list(range(len(history)))

    def test_latest_revision_carries_the_artifact(self, store):
        kb = build_kb()
        store.save("paper", kb)
        update_kb(kb)
        sha = store.save("paper", kb)
        history = store.history("paper")
        assert history[-1].artifact_sha == sha

    def test_unsaved_intermediate_revision_has_no_artifact(self, store):
        kb = build_kb()
        store.save("paper", kb)
        update_kb(kb)  # never saved at this state
        update_kb(kb, rows=NEW_ROWS[:50])
        store.save("paper", kb)
        history = store.history("paper")
        assert history[-2].artifact_sha is None
        assert history[-1].artifact_sha is not None

    def test_load_at_older_captured_revision(self, store):
        kb = build_kb()
        store.save("paper", kb)
        checkpoint = canonical_json(kb.to_dict())
        number = store.describe("paper").latest_revision
        update_kb(kb)
        store.save("paper", kb)
        old = store.load("paper", revision=number)
        assert canonical_json(old.to_dict()) == checkpoint

    def test_load_at_uncaptured_revision_names_the_captured_ones(
        self, store
    ):
        kb = build_kb()
        store.save("paper", kb)
        update_kb(kb)
        missing = kb.revisions[-1].number
        update_kb(kb, rows=NEW_ROWS[:50])
        store.save("paper", kb)
        with pytest.raises(DataError, match="no stored artifact"):
            store.load("paper", revision=missing)

    def test_load_at_unknown_revision_fails(self, store):
        store.save("paper", build_kb())
        with pytest.raises(DataError, match="no revision 99"):
            store.load("paper", revision=99)

    def test_noop_revisions_share_one_artifact(self, store):
        kb = build_kb()
        sha_before = store.save("paper", kb)
        sha_again = store.save("paper", kb)
        assert sha_before == sha_again
        payload = store.artifact(sha_before)
        assert "revisions" not in payload

    def test_names_and_describe(self, store):
        store.save("beta", build_kb())
        store.save("alpha", build_kb())
        assert store.names() == ["alpha", "beta"]
        assert store.describe("alpha").name == "alpha"


class TestLineage:
    def test_divergent_history_under_same_name_rejected(self, store):
        kb = build_kb()
        update_kb(kb)
        store.save("paper", kb)
        fork = build_kb()
        update_kb(fork, rows=NEW_ROWS[:30])
        with pytest.raises(DataError, match="diverges"):
            store.save("paper", fork)

    def test_stale_fork_rejected(self, store):
        kb = build_kb()
        update_kb(kb)
        update_kb(kb, rows=NEW_ROWS[:50])
        store.save("paper", kb)
        stale = build_kb()
        update_kb(stale)
        with pytest.raises(DataError, match="load the"):
            store.save("paper", stale)

    def test_matching_resave_is_accepted(self, store):
        kb = build_kb()
        update_kb(kb)
        store.save("paper", kb)
        # Same lineage saved again (e.g. from a reloaded copy): fine.
        store.save("paper", store.load("paper"))
        assert store.describe("paper").latest_revision == (
            kb.revisions[-1].number
        )


class TestDiff:
    def test_diff_reports_sample_growth_and_changed_constraints(
        self, store
    ):
        kb = build_kb()
        store.save("paper", kb)
        base = store.describe("paper").latest_revision
        update_kb(kb)
        store.save("paper", kb)
        latest = store.describe("paper").latest_revision
        diff = store.diff("paper", base, latest)
        assert diff.sample_size_b > diff.sample_size_a
        assert not diff.identical
        assert diff.constraints_changed
        text = diff.describe()
        assert f"revision {base} -> {latest}" in text
        assert "~ constraint" in text

    def test_diff_of_identical_revisions(self, store):
        kb = build_kb()
        store.save("paper", kb)
        number = store.describe("paper").latest_revision
        diff = store.diff("paper", number, number)
        assert diff.identical
        assert "(no constraint changes)" in diff.describe()


class TestStoresWrittenBefore:
    """A store written in format 3 still loads, diffs and re-saves.

    Its artifacts are migrated on read; re-saving writes format-4
    artifacts beside them and leaves the format-3 rows in place.
    """

    LEGACY = Path(__file__).parent / "data" / "legacy_store.sql"

    @pytest.fixture
    def legacy(self, tmp_path) -> KBStore:
        path = tmp_path / "legacy.db"
        connection = sqlite3.connect(path)
        connection.executescript(self.LEGACY.read_text())
        connection.close()
        with KBStore(path) as store:
            yield store

    @staticmethod
    def _artifact_shas(store) -> set:
        with sqlite3.connect(store.path) as connection:
            rows = connection.execute("SELECT sha256 FROM artifacts")
            return {sha for (sha,) in rows}

    def test_load_and_diff_resolve(self, legacy):
        history = legacy.history("paper")
        assert [record.number for record in history] == [0, 1]
        for record in history:
            stored = legacy.artifact(record.artifact_sha)
            assert stored["format_version"] == 3
            kb = legacy.load("paper", revision=record.number)
            document = kb.to_dict()
            document.pop("revisions")
            assert document == _migrate(stored)
        diff = legacy.diff("paper", 0, 1)
        assert diff.artifact_a == history[0].artifact_sha
        assert diff.artifact_b == history[1].artifact_sha
        assert diff.sample_size_b == diff.sample_size_a + len(NEW_ROWS)

    def test_resaving_keeps_every_address(self, legacy):
        history = legacy.history("paper")
        before = self._artifact_shas(legacy)
        sha = legacy.save("paper", legacy.load("paper"))
        assert self._artifact_shas(legacy) == before | {sha}
        assert sha not in before
        assert legacy.artifact(sha)["format_version"] == FORMAT_VERSION
        # Re-saving the format-4 state is idempotent.
        assert legacy.save("paper", legacy.load("paper")) == sha
        assert self._artifact_shas(legacy) == before | {sha}
        # The format-3 rows keep their addresses and still load.
        assert legacy.history("paper") == history
        for record in history:
            document = legacy.artifact(record.artifact_sha)
            kb = ProbabilisticKnowledgeBase.from_dict(document)
            assert kb.sample_size == record.sample_size
        assert legacy.load("paper", revision=0).sample_size == (
            history[0].sample_size
        )
