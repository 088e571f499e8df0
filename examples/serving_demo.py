"""Serving demo: query a live knowledge base while it hot-swaps.

The paper's acquisition loop never stops — new survey batches keep
arriving — and the ROADMAP's production shape puts a *network* between
the knowledge base and its users.  This example boots the
:mod:`repro.serve` server on a background thread and drives it the way a
deployment would:

1. host the paper's smoking/cancer knowledge base as ``paper``;
2. open a WebSocket subscription so revision changes push to us;
3. start client threads that hammer ``POST /kb/paper/query``
   continuously (coalesced server-side into shared batch evaluations);
4. mid-traffic, ``POST /kb/paper/update`` with a new batch of survey
   rows — the server rediscovers on a copy and atomically swaps the
   served model, so not one in-flight query fails or blocks;
5. verify every served answer is *bit-identical* to in-process
   ``kb.query()`` against the matching revision (the fingerprint in
   each response says which revision served it);
6. print the serving stats: coalescing ratio, pool recycling, and the
   revision notification that arrived over the WebSocket.

Run with::

    python examples/serving_demo.py [SECONDS]
"""

import sys
import threading
import time

from repro.core.knowledge_base import ProbabilisticKnowledgeBase
from repro.eval.paper import paper_table
from repro.serve import ServeClient, ServeConfig, serve_in_thread

QUERIES = [
    "CANCER=yes | SMOKING=smoker",
    "CANCER=yes | SMOKING=non-smoker",
    "CANCER=yes | FAMILY_HISTORY=yes",
    "SMOKING=smoker | CANCER=yes",
    "CANCER=yes | SMOKING=smoker, FAMILY_HISTORY=yes",
]

#: The update batch: a clinic's worth of new smoker-with-cancer records.
NEW_ROWS = [
    {"SMOKING": "smoker", "CANCER": "yes", "FAMILY_HISTORY": "yes"}
] * 40 + [
    {"SMOKING": "non-smoker", "CANCER": "no", "FAMILY_HISTORY": "no"}
] * 60


def main(seconds: float = 3.0) -> None:
    kb = ProbabilisticKnowledgeBase.from_data(paper_table())

    # In-process mirrors of both revisions, for the bit-identity check.
    before = kb.copy()
    after = kb.copy()

    config = ServeConfig(max_batch=32, pool_size=4)
    with serve_in_thread({"paper": kb}, config=config) as handle:
        print(f"serving on http://{handle.host}:{handle.port}")
        control = ServeClient(handle.host, handle.port)
        fingerprints = {before.model.fingerprint(): "rev 0"}

        stop = threading.Event()
        served: list[tuple[str, float, int]] = []
        errors: list[Exception] = []

        def hammer() -> None:
            client = ServeClient(handle.host, handle.port)
            index = 0
            while not stop.is_set():
                text = QUERIES[index % len(QUERIES)]
                index += 1
                try:
                    document = client.query("paper", text)
                except Exception as error:  # noqa: BLE001 — demo tally
                    errors.append(error)
                    continue
                served.append(
                    (text, document["answer"], document["fingerprint"])
                )
            client.close()

        threads = [
            threading.Thread(target=hammer, daemon=True) for _ in range(4)
        ]
        with control.subscribe("paper") as subscription:
            hello = subscription.recv(timeout=10)
            print(f"subscribed at revision {hello['revision']}")
            for thread in threads:
                thread.start()

            # Let traffic build, then hot-swap mid-flight.
            time.sleep(seconds / 2)
            revision = control.update("paper", rows=NEW_ROWS)
            fingerprints[revision["fingerprint"]] = "rev 1"
            print(
                f"update absorbed {revision['added_samples']} rows -> "
                f"revision {revision['revision']} "
                f"(+{revision['constraints_added']} constraints)"
            )
            notification = subscription.recv(timeout=10)
            print(
                f"WebSocket push: revision {notification['revision']} "
                f"is now live"
            )
            time.sleep(seconds / 2)
            stop.set()
            for thread in threads:
                thread.join(timeout=10)

        # Apply the same rows to the in-process "after" mirror; served
        # answers must match whichever revision's fingerprint they carry.
        from repro.data.streaming import TableBuilder

        builder = TableBuilder(after.schema)
        for row in NEW_ROWS:
            builder.add_record(row)
        after.update(builder.snapshot())
        mirrors = {
            before.model.fingerprint(): before,
            after.model.fingerprint(): after,
        }
        mismatches = 0
        tally = {"rev 0": 0, "rev 1": 0}
        for text, answer, fingerprint in served:
            mirror = mirrors[fingerprint]
            tally[fingerprints[fingerprint]] += 1
            if answer != mirror.query(text):  # exact float equality
                mismatches += 1

        stats = control.kb_stats("paper")
        batcher = stats["batcher"]
        print(
            f"\nserved {len(served)} queries "
            f"({tally['rev 0']} on rev 0, {tally['rev 1']} on rev 1), "
            f"{len(errors)} errors"
        )
        print(
            f"coalescing: {batcher['submitted']} submissions in "
            f"{batcher['flushes']} flushes "
            f"(mean batch {batcher['mean_batch']:.2f}, "
            f"max {batcher['max_batch']})"
        )
        print(f"bit-identical to in-process: {mismatches == 0}")
        if mismatches:
            raise SystemExit(f"{mismatches} served answers diverged")
        control.close()


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 3.0)
