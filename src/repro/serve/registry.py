"""The serving registry: named knowledge bases with atomic hot-swap.

A :class:`KnowledgeBaseRegistry` hosts N named
:class:`~repro.core.knowledge_base.ProbabilisticKnowledgeBase` objects,
each wrapped in a :class:`HostedKB` that owns what serving adds on top of
the library:

- a :class:`~repro.serve.pool.SessionPool` of warm
  :class:`~repro.api.session.QuerySession` objects (blocking evaluation
  runs on the registry's thread-pool executor, one session checked out
  per concurrent call);
- a :class:`~repro.serve.batcher.MicroBatcher` sending a lone
  single-query request on at once and coalescing the requests that
  arrive while an evaluation runs into one ``session.batch`` call;
- subscriber queues feeding WebSocket revision notifications;
- per-endpoint counters for ``/stats``.

Hot-swap semantics
------------------
``POST /update`` must not mutate the served model in place: executor
threads may be reading its tensors mid-request.  Instead the update runs
on :meth:`~repro.core.knowledge_base.ProbabilisticKnowledgeBase.copy`,
which copies the model and the revision list and shares the immutable
trace — training table, constraints, scans, config.  The rerun merges
the delta into a new table and builds a new discovery result, so the
served knowledge base is never touched, and the copy's warm rediscovery
is bit-identical to updating the original.  The registry entry is then
swapped atomically on the event loop: in-flight requests finish on the
session pool — and model fingerprint — they checked out, requests still
queued for the executor and new requests see the new revision, the
superseded pool is retired (idle sessions dropped now, outstanding ones
at checkin), and every subscriber gets a revision-change notification.

A knowledge base updated *in place* from outside the server (e.g. an
embedded :class:`~repro.lifecycle.LiveKnowledgeBase` absorbing a stream)
still propagates: pooled sessions detect the model fingerprint change
exactly as in-process sessions do.

Durability
----------
With a :class:`~repro.store.KBStore` attached, the registry persists
every hosted knowledge base on :meth:`KnowledgeBaseRegistry.add` and
every ``POST /update`` revision *before* the hot-swap and subscriber
notification — a notified subscriber can always read the revision it
was told about from the store, and a restarted server
(:meth:`KnowledgeBaseRegistry.add_from_store`) resumes at the latest
persisted revision with its full history.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.core.knowledge_base import ProbabilisticKnowledgeBase
from repro.core.explain import explain
from repro.data.streaming import TableBuilder
from repro.exceptions import DataError, ReproError
from repro.serve.batcher import DEFAULT_MAX_BATCH, MicroBatcher
from repro.serve.errors import ApiError
from repro.serve.pool import SessionPool

__all__ = ["HostedKB", "KnowledgeBaseRegistry", "ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Serving knobs, shared by every hosted knowledge base.

    Attributes
    ----------
    max_batch:
        Coalesced-batch size cap (a backlog this long flushes at once).
    pool_size:
        Retained sessions per knowledge base (and the default executor
        thread count, so a checkout never has to block on the pool).
    backend:
        Inference backend for pooled sessions.
    cache_size:
        Session cache bound; None for the session default.
    executor_threads:
        Thread-pool size for blocking evaluation; None sizes it to
        ``pool_size`` + 2 (updates and stats never starve queries).
    """

    max_batch: int = DEFAULT_MAX_BATCH
    pool_size: int = 4
    backend: str = "auto"
    cache_size: int | None = None
    executor_threads: int | None = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise DataError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if self.pool_size < 1:
            raise DataError(
                f"pool_size must be >= 1, got {self.pool_size}"
            )


class HostedKB:
    """One named knowledge base and its serving machinery."""

    def __init__(
        self,
        name: str,
        kb: ProbabilisticKnowledgeBase,
        config: ServeConfig,
        executor: ThreadPoolExecutor,
        store=None,
    ):
        self.name = name
        self.kb = kb
        self.config = config
        self._executor = executor
        self._store = store
        self.pool = self._build_pool(kb)
        self.batcher = MicroBatcher(
            self._run_coalesced, max_batch=config.max_batch
        )
        self._update_lock = asyncio.Lock()
        self.subscribers: set[asyncio.Queue] = set()
        self.counters: dict[str, int] = {}
        self.updates_served = 0

    def _build_pool(self, kb: ProbabilisticKnowledgeBase) -> SessionPool:
        return SessionPool(
            kb.model,
            backend=self.config.backend,
            cache_size=self.config.cache_size,
            size=self.config.pool_size,
        )

    # -- bookkeeping --------------------------------------------------------------

    def count(self, endpoint: str) -> None:
        self.counters[endpoint] = self.counters.get(endpoint, 0) + 1

    @property
    def revision_number(self) -> int:
        return self.kb.revisions[-1].number if self.kb.revisions else 0

    def fingerprint(self) -> int:
        return self.kb.model.fingerprint()

    def describe(self) -> dict:
        """The ``GET /kb/{name}`` document: schema, size, revision."""
        schema = self.kb.schema
        return {
            "name": self.name,
            "attributes": {
                name: list(schema.attribute(name).values)
                for name in schema.names
            },
            "sample_size": self.kb.sample_size,
            "revision": self.revision_number,
            "fingerprint": self.fingerprint(),
            "constraints": len(self.kb.model.cell_factors),
            "can_update": self.kb.can_update,
        }

    def stats(self) -> dict:
        return {
            "name": self.name,
            "revision": self.revision_number,
            "updates": self.updates_served,
            "requests": dict(self.counters),
            "batcher": self.batcher.stats.to_dict(),
            "pool": self.pool.stats(),
        }

    # -- evaluation ---------------------------------------------------------------

    async def _in_executor(self, fn, *args):
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args
        )

    def _on_current_pool(self, fn):
        """Executor side of an evaluation: ``fn(pool)`` on the live pool.

        The pool is read here, on the executor thread, not when the
        request was admitted: a request queued behind a hot-swap would
        otherwise reach a pool the swap already retired, and a retired
        pool refuses checkouts.  When the swap lands between this read
        and the checkout, the refusal is retried on the new pool.  Either
        way one call evaluates against a single model revision, and its
        results carry that revision's fingerprint.  A refusal from the
        pool that is still current — the entry was closed — is raised.
        """
        while True:
            pool = self.pool
            try:
                return fn(pool)
            except DataError:
                if self.pool is pool:
                    raise

    async def _run_coalesced(self, queries: list) -> list:
        """Micro-batcher runner: one flush on one pooled session.

        Error isolation: the shared batch fast path is attempted first;
        if any query in the batch is bad, each query is re-evaluated
        alone so only the offender fails.  Per-query results are
        bit-identical either way (same session, same marginal
        arithmetic).
        """
        queries = list(queries)
        return await self._in_executor(
            self._on_current_pool,
            lambda pool: _evaluate_isolated(pool, queries),
        )

    async def query(self, text: str) -> tuple[float, int]:
        """One coalesced single-query evaluation: (answer, fingerprint)."""
        return await self.batcher.submit(text)

    async def batch(self, queries: list) -> tuple[list[float], int]:
        """An explicit client batch: evaluated as one unit, not coalesced.

        Matches in-process ``kb.query_many`` semantics — a bad query
        fails the whole batch with its typed error.
        """

        def run(pool):
            answers = pool.run(lambda session: session.batch(queries))
            return answers, pool.model.fingerprint()

        return await self._in_executor(self._on_current_pool, run)

    async def mpe(self, given: dict | None):
        def run(pool):
            labels, probability = pool.run(
                lambda session: session.most_probable(given or None)
            )
            return labels, probability, pool.model.fingerprint()

        return await self._in_executor(self._on_current_pool, run)

    async def explain(self, target: dict, given: dict):
        model = self.kb.model
        return await self._in_executor(explain, model, target, given)

    # -- hot-swap -----------------------------------------------------------------

    def _apply_update(self, rows, samples):
        """Executor side of an update: tally, copy, warm-rediscover.

        Runs under the update lock, so ``self.kb`` is stable for the
        duration even though this executes off the event loop.
        """
        builder = TableBuilder(self.kb.schema)
        for record in rows or []:
            builder.add_record(record)
        for sample in samples or []:
            builder.add_sample(sample)
        if builder.total == 0:
            raise ApiError(
                422, "update carried no observations (rows/samples empty)"
            )
        if not self.kb.can_update:
            raise ApiError(
                422,
                f"knowledge base {self.name!r} has no discovery audit "
                f"trail and cannot absorb updates",
            )
        clone = self.kb.copy()
        revision = clone.update(builder.snapshot())
        return clone, revision

    async def update(self, rows=None, samples=None) -> dict:
        """Absorb new observations and atomically swap the served model.

        With a store attached, the new revision is persisted *before*
        the swap and the subscriber notification: if persistence fails
        the request errors and the served model is unchanged, and a
        subscriber told about revision N can always load revision N.
        """
        async with self._update_lock:
            clone, revision = await self._in_executor(
                self._apply_update, rows, samples
            )
            if self._store is not None:
                await self._in_executor(
                    self._store.save, self.name, clone
                )
            # Swap on the event loop: handlers observe either the old
            # entry state or the new one, never a mixture.
            old_pool = self.pool
            self.kb = clone
            self.pool = self._build_pool(clone)
            old_pool.retire()
            self.updates_served += 1
        payload = {
            "type": "revision",
            "kb": self.name,
            "revision": revision.number,
            "mode": revision.mode,
            "sample_size": revision.sample_size,
            "added_samples": revision.added_samples,
            "constraints_added": len(revision.constraints_added),
            "constraints_dropped": len(revision.constraints_dropped),
            "fingerprint": self.fingerprint(),
        }
        self._notify(payload)
        return payload

    # -- subscriptions ------------------------------------------------------------

    def subscribe(self) -> asyncio.Queue:
        queue: asyncio.Queue = asyncio.Queue()
        self.subscribers.add(queue)
        return queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        self.subscribers.discard(queue)

    def _notify(self, payload: dict) -> None:
        for queue in list(self.subscribers):
            queue.put_nowait(payload)

    # -- shutdown -----------------------------------------------------------------

    def close(self) -> None:
        """Stop coalescing and retire the session pool; idempotent."""
        self.batcher.close()
        self.pool.retire()


def _evaluate_isolated(pool: SessionPool, queries: list) -> list:
    """One flush: shared batch fast path, per-query error isolation.

    Returns one entry per query — ``(answer, fingerprint)`` on success,
    the bare :class:`ReproError` on failure (the batcher maps exception
    entries to individual future failures).
    """
    fingerprint = pool.model.fingerprint()

    def run(session):
        try:
            answers = session.batch(queries)
        except ReproError:
            results: list = []
            for query in queries:
                try:
                    results.append((session.ask(query), fingerprint))
                except ReproError as error:
                    results.append(error)
            return results
        return [(answer, fingerprint) for answer in answers]

    return pool.run(run)


class KnowledgeBaseRegistry:
    """Named knowledge bases behind one executor; the app's data plane.

    ``store`` (a :class:`~repro.store.KBStore`) makes the registry
    durable: added knowledge bases are persisted immediately, hosted
    updates write their revision through the store before serving it,
    and :meth:`add_from_store` / :meth:`add_all_from_store` resume
    knowledge bases at their latest persisted revision after a restart.
    """

    def __init__(self, config: ServeConfig | None = None, store=None):
        self.config = config or ServeConfig()
        self.store = store
        threads = self.config.executor_threads
        if threads is None:
            threads = self.config.pool_size + 2
        self.executor = ThreadPoolExecutor(
            max_workers=threads, thread_name_prefix="repro-serve"
        )
        self._entries: dict[str, HostedKB] = {}
        self.started_at = time.time()
        self._closed = False

    def add(
        self, name: str, kb: ProbabilisticKnowledgeBase
    ) -> HostedKB:
        """Host a knowledge base under ``name``; rejects duplicates.

        With a store attached the knowledge base is persisted under
        ``name`` before it starts serving (a no-op when it was just
        loaded from that store).
        """
        if self._closed:
            raise DataError("registry is closed")
        if not name or "/" in name:
            raise DataError(
                f"knowledge base name {name!r} must be non-empty and "
                f"contain no '/'"
            )
        if name in self._entries:
            raise DataError(
                f"a knowledge base named {name!r} is already hosted"
            )
        if self.store is not None:
            self.store.save(name, kb)
        entry = HostedKB(
            name, kb, self.config, self.executor, store=self.store
        )
        self._entries[name] = entry
        return entry

    def add_from_store(self, name: str) -> HostedKB:
        """Host a stored knowledge base at its latest persisted revision."""
        if self.store is None:
            raise DataError(
                "this registry has no store attached; pass store= to "
                "KnowledgeBaseRegistry (or --store to 'repro serve')"
            )
        return self.add(name, self.store.load(name))

    def add_all_from_store(self) -> list[HostedKB]:
        """Host every stored knowledge base not already hosted."""
        if self.store is None:
            raise DataError(
                "this registry has no store attached; pass store= to "
                "KnowledgeBaseRegistry (or --store to 'repro serve')"
            )
        return [
            self.add_from_store(name)
            for name in self.store.names()
            if name not in self._entries
        ]

    def get(self, name: str) -> HostedKB:
        entry = self._entries.get(name)
        if entry is None:
            raise ApiError(
                404,
                f"no knowledge base named {name!r} "
                f"(hosted: {sorted(self._entries)})",
                kind="UnknownKnowledgeBase",
            )
        return entry

    def names(self) -> list[str]:
        return list(self._entries)

    def entries(self) -> list[HostedKB]:
        return list(self._entries.values())

    @property
    def uptime_seconds(self) -> float:
        return time.time() - self.started_at

    def stats(self) -> dict:
        return {
            "uptime_s": self.uptime_seconds,
            "kbs": {
                name: entry.stats()
                for name, entry in self._entries.items()
            },
        }

    def close(self) -> None:
        """Retire every pool and stop the executor; idempotent."""
        if self._closed:
            return
        self._closed = True
        for entry in self._entries.values():
            entry.close()
        self.executor.shutdown(wait=True)

    def __enter__(self) -> "KnowledgeBaseRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"KnowledgeBaseRegistry({sorted(self._entries)})"
