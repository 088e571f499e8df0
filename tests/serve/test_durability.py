"""Durable serving: a store-backed server resumes where it stopped.

Regression tests for the serve↔store integration: hosted updates persist
through the bound :class:`~repro.store.KBStore` *before* the hot-swap,
and a server restarted on the same store hosts every knowledge base at
its latest persisted revision — same fingerprint, same served answers.
"""

import pytest

from repro.core.knowledge_base import ProbabilisticKnowledgeBase
from repro.core.serialization import content_hash
from repro.data.streaming import TableBuilder
from repro.eval.paper import paper_table
from repro.exceptions import DataError
from repro.serve import ServeClient, ServedError, serve_in_thread
from repro.serve.registry import KnowledgeBaseRegistry
from repro.store import KBStore

QUERIES = [
    "CANCER=yes",
    "CANCER=yes | SMOKING=smoker",
    "SMOKING=smoker | CANCER=yes",
]

NEW_ROWS = [
    {"SMOKING": "smoker", "CANCER": "yes", "FAMILY_HISTORY": "yes"}
] * 40 + [
    {"SMOKING": "non-smoker", "CANCER": "no", "FAMILY_HISTORY": "no"}
] * 60

MARRIED_ROWS = [
    {
        "SMOKING": "non-smoker married to smoker",
        "CANCER": "yes",
        "FAMILY_HISTORY": "no",
    }
] * 25
SMOKER_ROWS = [
    {"SMOKING": "smoker", "CANCER": "no", "FAMILY_HISTORY": "no"}
] * 3000


def build_kb() -> ProbabilisticKnowledgeBase:
    return ProbabilisticKnowledgeBase.from_data(paper_table())


class TestServeRestart:
    def test_restart_resumes_at_latest_persisted_revision(self, tmp_path):
        """Serve → update → kill → restart on the same store: the second
        server hosts the updated state, not the boot-time one."""
        store = KBStore(tmp_path / "kb.db")
        handle = serve_in_thread({"paper": build_kb()}, store=store)
        try:
            with ServeClient(handle.host, handle.port) as client:
                before = client.describe("paper")
                result = client.update("paper", rows=NEW_ROWS)
                after = client.describe("paper")
                answers = {text: client.ask("paper", text) for text in QUERIES}
        finally:
            handle.stop()

        assert after["revision"] == result["revision"]
        assert after["fingerprint"] != before["fingerprint"]

        # Restart with no explicit KBs: everything comes from the store.
        with serve_in_thread({}, store=store) as restarted:
            with ServeClient(restarted.host, restarted.port) as client:
                assert client.kbs() == ["paper"]
                resumed = client.describe("paper")
                assert resumed["revision"] == after["revision"]
                assert resumed["fingerprint"] == after["fingerprint"]
                for text, expected in answers.items():
                    assert client.ask("paper", text) == expected
        store.close()

    def test_update_history_lands_in_the_store(self, tmp_path):
        store = KBStore(tmp_path / "kb.db")
        with serve_in_thread({"paper": build_kb()}, store=store) as handle:
            with ServeClient(handle.host, handle.port) as client:
                client.update("paper", rows=NEW_ROWS)
                revision = client.describe("paper")["revision"]
        history = store.history("paper")
        assert history[-1].number == revision
        assert history[-1].artifact_sha is not None
        store.close()

    def test_served_updates_match_inprocess_store_loads(self, tmp_path):
        """The persisted revision is the served revision: loading from
        the store mid-serve answers bit-identically to the live server."""
        store = KBStore(tmp_path / "kb.db")
        with serve_in_thread({"paper": build_kb()}, store=store) as handle:
            with ServeClient(handle.host, handle.port) as client:
                client.update("paper", rows=NEW_ROWS)
                mirror = store.load("paper")
                for text in QUERIES:
                    assert client.ask("paper", text) == mirror.query(text)
        store.close()


class TestServedRevisionsByteIdentical:
    """Every persisted revision of a served update is the artifact an
    in-process replay writes, where the replay clones each revision
    through a full ``from_dict(to_dict())`` round trip — an oracle that
    shares nothing with the server's ``copy()``."""

    # Warm, warm, warm, then two cold fallbacks, then warm again.
    UPDATES = [
        NEW_ROWS,
        NEW_ROWS[::-1][:70],
        MARRIED_ROWS,
        NEW_ROWS[30:],
        SMOKER_ROWS,
        NEW_ROWS[:55],
    ]

    def test_latest_artifact_matches_round_trip_replay(self, tmp_path):
        store = KBStore(tmp_path / "kb.db")
        with serve_in_thread({"paper": build_kb()}, store=store) as handle:
            with ServeClient(handle.host, handle.port) as client:
                modes = [
                    client.update("paper", rows=rows)["mode"]
                    for rows in self.UPDATES
                ]
        replay = build_kb()
        expected = [_artifact_sha(replay)]
        for rows in self.UPDATES:
            replay = ProbabilisticKnowledgeBase.from_dict(replay.to_dict())
            builder = TableBuilder(replay.schema)
            for row in rows:
                builder.add_record(row)
            replay.update(builder.snapshot())
            expected.append(_artifact_sha(replay))
        history = store.history("paper")
        assert [record.artifact_sha for record in history] == expected
        assert store.describe("paper").latest_artifact == expected[-1]
        assert modes == [revision.mode for revision in replay.revisions[1:]]
        store.close()


def _artifact_sha(kb: ProbabilisticKnowledgeBase) -> str:
    document = kb.to_dict()
    document.pop("revisions")
    return content_hash(document)


class TestRegistryStoreBinding:
    def test_add_persists_the_boot_state(self, tmp_path):
        store = KBStore(tmp_path / "kb.db")
        registry = KnowledgeBaseRegistry(store=store)
        try:
            registry.add("paper", build_kb())
        finally:
            registry.close()
        assert store.names() == ["paper"]
        store.close()

    def test_add_all_from_store_skips_already_hosted(self, tmp_path):
        store = KBStore(tmp_path / "kb.db")
        store.save("stored", build_kb())
        registry = KnowledgeBaseRegistry(store=store)
        try:
            registry.add("paper", build_kb())
            added = registry.add_all_from_store()
            assert [entry.name for entry in added] == ["stored"]
            assert sorted(registry.names()) == ["paper", "stored"]
            assert registry.add_all_from_store() == []
        finally:
            registry.close()
        store.close()

    def test_storeless_registry_rejects_add_from_store(self):
        registry = KnowledgeBaseRegistry()
        try:
            with pytest.raises(DataError, match="no store attached"):
                registry.add_from_store("paper")
        finally:
            registry.close()

    def test_update_on_storeless_server_still_works(self):
        """No store bound: updates hot-swap exactly as before."""
        with serve_in_thread({"paper": build_kb()}) as handle:
            with ServeClient(handle.host, handle.port) as client:
                result = client.update("paper", rows=NEW_ROWS)
                assert client.describe("paper")["revision"] == (
                    result["revision"]
                )

    def test_update_against_divergent_store_fails_before_swap(
        self, tmp_path
    ):
        """A lineage conflict surfaces as a served error and the hosted
        model keeps answering with its pre-update state."""
        store = KBStore(tmp_path / "kb.db")
        with serve_in_thread({"paper": build_kb()}, store=store) as handle:
            with ServeClient(handle.host, handle.port) as client:
                before = client.describe("paper")
                # Poison the stored lineage behind the server's back.
                fork = build_kb()
                builder = TableBuilder(fork.schema)
                for row in NEW_ROWS[:30]:
                    builder.add_record(row)
                fork.update(builder.snapshot())
                store.save("paper", fork)
                with pytest.raises(ServedError):
                    client.update("paper", rows=NEW_ROWS)
                after = client.describe("paper")
                assert after["fingerprint"] == before["fingerprint"]
                assert after["revision"] == before["revision"]
        store.close()
