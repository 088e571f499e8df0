"""End-to-end serving tests: real sockets, every endpoint, hot-swap.

A live :func:`serve_in_thread` server hosts the paper's knowledge base;
a blocking :class:`ServeClient` (which does no numeric processing of its
own) drives it.  The conformance bar everywhere is *bit-identity*: a
served probability equals the in-process ``kb.query()`` float exactly,
including for requests in flight across a hot-swap.
"""

import http.client
import json
import threading
import time

import pytest

from repro.core.knowledge_base import ProbabilisticKnowledgeBase
from repro.data.streaming import TableBuilder
from repro.eval.paper import paper_table
from repro.serve import ServeClient, ServeConfig, ServedError, serve_in_thread

QUERIES = [
    "CANCER=yes",
    "CANCER=yes | SMOKING=smoker",
    "CANCER=yes | SMOKING=non-smoker",
    "SMOKING=smoker | CANCER=yes",
    "CANCER=yes | SMOKING=smoker, FAMILY_HISTORY=yes",
]

NEW_ROWS = [
    {"SMOKING": "smoker", "CANCER": "yes", "FAMILY_HISTORY": "yes"}
] * 40 + [
    {"SMOKING": "non-smoker", "CANCER": "no", "FAMILY_HISTORY": "no"}
] * 60


def build_kb() -> ProbabilisticKnowledgeBase:
    return ProbabilisticKnowledgeBase.from_data(paper_table())


def updated_mirror(
    kb: ProbabilisticKnowledgeBase,
) -> ProbabilisticKnowledgeBase:
    mirror = ProbabilisticKnowledgeBase.from_dict(kb.to_dict())
    builder = TableBuilder(mirror.schema)
    for row in NEW_ROWS:
        builder.add_record(row)
    mirror.update(builder.snapshot())
    return mirror


@pytest.fixture(scope="module")
def server():
    """A read-only server: ``paper`` plus an un-updatable ``frozen`` KB."""
    kb = build_kb()
    frozen = ProbabilisticKnowledgeBase.from_model(
        kb.model, kb.sample_size
    )
    mirror = ProbabilisticKnowledgeBase.from_dict(kb.to_dict())
    with serve_in_thread(
        {"paper": kb, "frozen": frozen},
        config=ServeConfig(max_batch=32),
    ) as handle:
        with ServeClient(handle.host, handle.port) as client:
            yield handle, client, mirror


class TestEndpoints:
    def test_health_reports_hosted_kbs(self, server):
        _handle, client, _mirror = server
        document = client.health()
        assert document["status"] == "ok"
        assert sorted(document["kbs"]) == ["frozen", "paper"]
        assert document["uptime_s"] >= 0

    def test_describe_reports_schema_and_revision(self, server):
        _handle, client, mirror = server
        document = client.describe("paper")
        assert document["attributes"] == {
            name: list(mirror.schema.attribute(name).values)
            for name in mirror.schema.names
        }
        assert document["sample_size"] == mirror.sample_size
        assert document["revision"] == 0
        assert document["fingerprint"] == mirror.model.fingerprint()
        assert document["can_update"] is True

    def test_kbs_and_stats(self, server):
        _handle, client, _mirror = server
        assert sorted(client.kbs()) == ["frozen", "paper"]
        stats = client.stats()
        assert set(stats["kbs"]) == {"frozen", "paper"}
        assert "batcher" in stats["kbs"]["paper"]

    def test_served_queries_are_bit_identical(self, server):
        _handle, client, mirror = server
        for text in QUERIES:
            document = client.query("paper", text)
            assert document["answer"] == mirror.query(text)  # exact
            assert document["fingerprint"] == mirror.model.fingerprint()

    def test_batch_matches_in_process_batch(self, server):
        _handle, client, mirror = server
        document = client.batch("paper", QUERIES)
        assert document["answers"] == mirror.query_many(QUERIES)

    def test_mpe_matches_in_process(self, server):
        _handle, client, mirror = server
        with mirror.session() as session:
            labels, probability = session.most_probable(
                {"SMOKING": "smoker"}
            )
        document = client.mpe("paper", {"SMOKING": "smoker"})
        assert document["assignment"] == labels
        assert document["probability"] == probability

    def test_explain_ranks_influences(self, server):
        _handle, client, mirror = server
        document = client.explain(
            "paper", {"CANCER": "yes"}, {"SMOKING": "smoker"}
        )
        assert document["answer"] == mirror.query(
            "CANCER=yes | SMOKING=smoker"
        )
        swings = [
            abs(influence["swing"]) for influence in document["influences"]
        ]
        assert swings == sorted(swings, reverse=True)


class TestErrorEnvelopes:
    def test_unknown_kb_is_404(self, server):
        _handle, client, _mirror = server
        with pytest.raises(ServedError) as info:
            client.describe("nope")
        assert info.value.status == 404
        assert info.value.kind == "UnknownKnowledgeBase"

    def test_unknown_route_is_404(self, server):
        _handle, client, _mirror = server
        with pytest.raises(ServedError) as info:
            client.request("GET", "/no/such/route")
        assert info.value.status == 404

    def test_wrong_method_is_405(self, server):
        _handle, client, _mirror = server
        with pytest.raises(ServedError) as info:
            client.request("POST", "/health", {"x": 1})
        assert info.value.status == 405
        assert info.value.kind == "MethodNotAllowed"

    def test_bad_query_syntax_is_400(self, server):
        _handle, client, _mirror = server
        with pytest.raises(ServedError) as info:
            client.ask("paper", "P(CANCER=yes)")  # not the query grammar
        assert info.value.status == 400

    def test_missing_query_field_is_400(self, server):
        _handle, client, _mirror = server
        with pytest.raises(ServedError) as info:
            client.request("POST", "/kb/paper/query", {"q": "CANCER=yes"})
        assert info.value.status == 400

    def test_malformed_json_body_is_400(self, server):
        handle, _client, _mirror = server
        connection = http.client.HTTPConnection(handle.host, handle.port)
        connection.request(
            "POST",
            "/kb/paper/query",
            body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        document = json.loads(response.read())
        connection.close()
        assert response.status == 400
        assert "error" in document

    def test_empty_update_is_400(self, server):
        _handle, client, _mirror = server
        with pytest.raises(ServedError) as info:
            client.request("POST", "/kb/paper/update", {})
        assert info.value.status == 400

    def test_update_without_audit_trail_is_422(self, server):
        _handle, client, _mirror = server
        with pytest.raises(ServedError) as info:
            client.update("frozen", rows=NEW_ROWS[:5])
        assert info.value.status == 422

    def test_subscribe_over_plain_http_is_400(self, server):
        _handle, client, _mirror = server
        with pytest.raises(ServedError) as info:
            client.request("GET", "/kb/paper/subscribe")
        assert info.value.status == 400
        assert "Upgrade" in str(info.value)

    def test_subscription_to_unknown_kb_refused_with_envelope(self, server):
        handle, _client, _mirror = server
        with pytest.raises(ServedError) as info:
            ServeClient(handle.host, handle.port).subscribe("nope")
        assert info.value.status == 404

    def test_bad_query_does_not_poison_its_batch_mates(self, server):
        """Error isolation through the coalescing layer: concurrent good
        and bad queries share a flush; only the bad one fails."""
        handle, _client, mirror = server
        results: dict[str, object] = {}

        def fire(text: str) -> None:
            with ServeClient(handle.host, handle.port) as client:
                try:
                    results[text] = client.ask("paper", text)
                except ServedError as error:
                    results[text] = error

        texts = ["CANCER=yes", "CANCER=bogus-label", "CANCER=no"]
        threads = [
            threading.Thread(target=fire, args=(text,)) for text in texts
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results["CANCER=yes"] == mirror.query("CANCER=yes")
        assert results["CANCER=no"] == mirror.query("CANCER=no")
        assert isinstance(results["CANCER=bogus-label"], ServedError)
        assert results["CANCER=bogus-label"].status == 400


class TestHotSwap:
    def test_update_notifies_websocket_subscribers(self):
        kb = build_kb()
        with serve_in_thread({"paper": kb}) as handle:
            with ServeClient(handle.host, handle.port) as client:
                with client.subscribe("paper") as subscription:
                    hello = subscription.recv(timeout=10)
                    assert hello["type"] == "hello"
                    assert hello["revision"] == 0
                    result = client.update("paper", rows=NEW_ROWS)
                    pushed = subscription.recv(timeout=10)
                    assert pushed["type"] == "revision"
                    assert pushed["revision"] == result["revision"] == 1
                    assert pushed["fingerprint"] == result["fingerprint"]
                assert client.describe("paper")["revision"] == 1

    def test_queries_in_flight_across_hot_swap_stay_bit_identical(self):
        """The acceptance burst: clients hammer while an update lands.
        Every served answer must equal the in-process answer of whichever
        revision's fingerprint it reports — no errors, no mixtures."""
        kb = build_kb()
        before = ProbabilisticKnowledgeBase.from_dict(kb.to_dict())
        after = updated_mirror(kb)
        served: list[tuple[str, float, int]] = []
        errors: list[Exception] = []
        stop = threading.Event()

        with serve_in_thread({"paper": kb}) as handle:

            def hammer() -> None:
                with ServeClient(handle.host, handle.port) as client:
                    index = 0
                    while not stop.is_set():
                        text = QUERIES[index % len(QUERIES)]
                        index += 1
                        try:
                            document = client.query("paper", text)
                        except Exception as error:  # noqa: BLE001
                            errors.append(error)
                            continue
                        served.append(
                            (
                                text,
                                document["answer"],
                                document["fingerprint"],
                            )
                        )

            threads = [
                threading.Thread(target=hammer, daemon=True)
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            control = ServeClient(handle.host, handle.port)
            # Let traffic build, swap mid-flight, let traffic continue.
            while len(served) < 50 and not errors:
                time.sleep(0.005)
            control.update("paper", rows=NEW_ROWS)
            goal = len(served) + 50
            while len(served) < goal and not errors:
                time.sleep(0.005)
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            old_pool_stats = control.kb_stats("paper")["pool"]
            control.close()

        assert not errors
        mirrors = {
            before.model.fingerprint(): before,
            after.model.fingerprint(): after,
        }
        for text, answer, fingerprint in served:
            assert answer == mirrors[fingerprint].query(text)  # exact
        # The post-swap pool is the live one; the superseded pool was
        # retired (its stats are not reachable anymore — the entry now
        # reports the fresh pool).
        assert old_pool_stats["retired"] is False

    def test_server_stop_is_idempotent(self):
        handle = serve_in_thread({"paper": build_kb()})
        with ServeClient(handle.host, handle.port) as client:
            assert client.health()["status"] == "ok"
        handle.stop()
        handle.stop()  # second stop is a no-op
