"""Traced launcher of ``repro serve``.

Usage: ``python -m perfbench.serve_launcher SPANS.jsonl serve ARGS...``.

It wraps the serving layers' public functions with span recorders, then
runs ``repro.cli.main(["serve", ARGS...])``.  When the server stops it
writes the spans to ``SPANS.jsonl`` and the sessions' summed cache
counters to ``SPANS.jsonl.counters.json``.
"""

from __future__ import annotations

import itertools
import json
import sys
import time

from perfbench import spans


class _Stamped:
    """A stream reader proxy noting when a request's header block arrived."""

    def __init__(self, reader):
        self._reader = reader
        self.arrived = None

    async def readuntil(self, separator):
        data = await self._reader.readuntil(separator)
        self.arrived = time.perf_counter_ns()
        return data

    async def readexactly(self, count):
        return await self._reader.readexactly(count)


def install(recorder: spans.Recorder, counters: dict) -> None:
    """Wrap parse, batching, evaluation, encoding and the update path."""
    import repro.discovery.engine as engine_module
    import repro.serve.server as server_module
    from repro.api.session import QuerySession
    from repro.core.knowledge_base import ProbabilisticKnowledgeBase
    from repro.serve.app import ServeApp
    from repro.serve.batcher import MicroBatcher
    from repro.serve.registry import HostedKB
    from repro.store.kb_store import KBStore

    request_ids = itertools.count(1)
    submitted: dict[int, int] = {}
    seen: dict[int, tuple[int, int]] = {}

    read_request = server_module.read_request

    async def timed_read_request(reader):
        stamped = _Stamped(reader)
        request = await read_request(stamped)
        if request is not None and stamped.arrived is not None:
            rid = next(request_ids)
            spans.set_request(rid)
            recorder.add(
                "serve.parse", stamped.arrived, time.perf_counter_ns(), rid
            )
        return request

    server_module.read_request = timed_read_request

    submit = MicroBatcher.submit

    async def timed_submit(self, query):
        submitted[id(query)] = time.perf_counter_ns()
        index, token = recorder.open("serve.submit")
        try:
            return await submit(self, query)
        finally:
            recorder.close(index, token)

    MicroBatcher.submit = timed_submit

    batch = QuerySession.batch

    def timed_batch(self, queries):
        entered = time.perf_counter_ns()
        for query in queries:
            since = submitted.pop(id(query), None)
            if since is not None:
                recorder.add("serve.wait", since, entered)
        index, token = recorder.open("api.evaluate")
        try:
            return batch(self, queries)
        finally:
            recorder.close(index, token)
            info = self.cache_info()
            hits, misses = seen.get(id(self), (0, 0))
            counters["hits"] += info["hits"] - hits
            counters["misses"] += info["misses"] - misses
            seen[id(self)] = (info["hits"], info["misses"])

    QuerySession.batch = timed_batch

    spans.wrap(recorder, ServeApp, "handle", "serve.handle")
    spans.wrap(recorder, server_module, "render_response", "serve.encode")
    spans.wrap(recorder, HostedKB, "update", "serve.update")
    spans.wrap(
        recorder, ProbabilisticKnowledgeBase, "to_dict", "core.to_dict"
    )
    spans.wrap(
        recorder, ProbabilisticKnowledgeBase, "from_dict", "core.from_dict"
    )
    spans.wrap(
        recorder, ProbabilisticKnowledgeBase, "update", "discovery.rerun"
    )
    spans.wrap(recorder, KBStore, "save", "store.save")
    spans.wrap(recorder, engine_module, "fit_ipf", "maxent.fit")


def main(argv: list[str]) -> int:
    """Install the wrappers, serve until interrupted, write the spans."""
    out = argv[0]
    recorder = spans.Recorder()
    counters = {"hits": 0, "misses": 0}
    install(recorder, counters)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        recorder.write(out)
        with open(out + ".counters.json", "w") as handle:
            json.dump(counters, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
