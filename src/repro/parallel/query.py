"""Concurrent batch query serving: shards of a batch across worker sessions.

Each worker process holds its own long-lived
:class:`~repro.api.session.QuerySession` — its own compiled-plan cache, its
own marginal LRU, its own backend artifact (dense joint / factor
decomposition) — so a worker's caches stay warm across successive batches
exactly like a serial session's do.  A batch is split into contiguous
shards (worker ``i`` always gets shard ``i``), evaluated concurrently, and
concatenated back, so results come back in input order.

The model is broadcast to workers once, then re-broadcast only when its
:meth:`~repro.maxent.model.MaxEntModel.fingerprint` changes — the same
staleness signal the serial session uses, so a
:meth:`~repro.core.knowledge_base.ProbabilisticKnowledgeBase.update` that
absorbs new data in place invalidates worker sessions on the next batch.
A broadcast ships the model's factors as one float64 block
(:func:`~repro.parallel.shm.pack_model`) plus a tiny layout description;
the pool's tensor codec moves the block — through a shared segment under
``shm`` (one memcpy instead of a per-worker copy), inside the message
under ``inline``.  The block crosses bit-exactly, and
:class:`~repro.maxent.model.MaxEntModel` copies on construction, so
worker models are byte-identical to the master's.

A query that fails inside a worker (bad attribute, zero-probability
evidence) raises the same :class:`~repro.exceptions.QueryError` the serial
path would; a worker that dies raises
:class:`~repro.exceptions.ParallelError`.  Both are
:class:`~repro.exceptions.ReproError` subclasses.
"""

from __future__ import annotations

from repro.exceptions import StaleWorkerStateError
from repro.maxent.model import MaxEntModel
from repro.parallel.pool import WorkerPool, shard_bounds
from repro.parallel.shm import (
    open_codec,
    pack_model,
    read_tensor,
    take_attach_ns,
    unpack_model,
)

__all__ = ["ParallelQueryEvaluator"]

_TASK_INIT = f"{__name__}:_init_session"
_TASK_SET_MODEL = f"{__name__}:_set_model"
_TASK_BATCH = f"{__name__}:_evaluate_shard"


# -- worker-side tasks ------------------------------------------------------------


def _init_session(state, schema, backend, cache_size, layout, ref) -> int:
    from repro.api.session import QuerySession

    model = unpack_model(schema, layout, read_tensor(state, ref))
    state["schema"] = schema
    state["session"] = QuerySession(
        model, backend=backend, cache_size=cache_size
    )
    return take_attach_ns(state)


def _session(state):
    session = state.get("session")
    if session is None:
        # StaleWorkerStateError: a reconnected remote worker lost its
        # session; the master rebuilds by re-broadcasting the model.
        raise StaleWorkerStateError("query worker has no session")
    return session


def _set_model(state, layout, ref) -> int:
    session = _session(state)
    model = unpack_model(state["schema"], layout, read_tensor(state, ref))
    session.set_model(model)
    return take_attach_ns(state)


def _evaluate_shard(state, queries) -> list[float]:
    return _session(state).batch(queries)


# -- master side ------------------------------------------------------------------


class ParallelQueryEvaluator:
    """Evaluates query batches across a pool of worker sessions.

    Without a ``pool``, worker addresses (``worker_addresses``, else
    ``REPRO_WORKER_ADDRESSES``) shard batches across remote worker
    daemons, each holding a pinned
    :class:`~repro.api.session.QuerySession`; otherwise ``max_workers``
    local processes do.  The tensor codec follows from the pool
    (:attr:`transport` names it for profiles); ``counters`` accumulates
    the payload bytes and amortized broadcasts.
    """

    def __init__(
        self,
        model: MaxEntModel,
        backend: str = "auto",
        cache_size: int = 256,
        max_workers: int | None = None,
        pool: WorkerPool | None = None,
        worker_addresses=None,
        retry=None,
    ):
        if pool is None:
            from repro.distributed.client import open_pool

            pool = open_pool(max_workers, worker_addresses, retry)
        self.pool = pool
        self.max_workers = pool.max_workers
        self._codec = open_codec(pool)
        self.counters = self._codec.counters
        self._model = model
        self._backend = backend
        self._cache_size = int(cache_size)
        self._broadcast_fingerprint: int | None = None

    @property
    def transport(self) -> str:
        """Profile label of the medium: ``"pipe"``, ``"shm"`` or ``"tcp"``."""
        return self._codec.label

    def set_model(self, model: MaxEntModel) -> None:
        """Point workers at a new model (re-broadcast on the next batch)."""
        self._model = model
        self._broadcast_fingerprint = None

    def reset(self) -> None:
        """Force a full worker-session rebuild on the next batch."""
        self._broadcast_fingerprint = None

    def _ensure_current(self) -> None:
        fingerprint = self._model.fingerprint()
        counters = self.counters
        counters.broadcasts_total += 1
        if fingerprint == self._broadcast_fingerprint:
            counters.broadcasts_skipped += 1
            return
        layout, block = pack_model(self._model)
        ref = self._codec.put("model", block, self.max_workers)
        if self._broadcast_fingerprint is None:
            replies = self.pool.broadcast(
                _TASK_INIT,
                self._model.schema,
                self._backend,
                self._cache_size,
                layout,
                ref,
            )
        else:
            # In-place mutation (kb.update's absorb): same object, new
            # factors — workers swap the model, dropping their caches.
            replies = self.pool.broadcast(_TASK_SET_MODEL, layout, ref)
        counters.attach_ns += sum(replies)
        self._broadcast_fingerprint = fingerprint

    def batch(self, queries) -> list[float]:
        """Evaluate ``queries`` concurrently; results in input order.

        A :class:`StaleWorkerStateError` — a reconnected remote worker
        whose pinned session died with its old connection — is recovered
        once by rebroadcasting the model (rebuilding every worker
        session) and retrying the shards; worker sessions are caches
        over the same model, so the retried answers are identical.
        """
        queries = list(queries)
        if not queries:
            return []
        shards = max(1, min(self.max_workers, len(queries)))
        bounds = shard_bounds(len(queries), shards)
        args = [(queries[a:b],) for a, b in bounds]
        try:
            self._ensure_current()
            results = self.pool.run(_TASK_BATCH, args)
        except StaleWorkerStateError:
            self.reset()
            self._ensure_current()
            results = self.pool.run(_TASK_BATCH, args)
        return [value for shard in results for value in shard]

    def close(self) -> None:
        self._broadcast_fingerprint = None
        self._codec.close()
        self.pool.close()

    def __enter__(self) -> "ParallelQueryEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ParallelQueryEvaluator(backend={self._backend!r}, "
            f"transport={self.transport!r}, pool={self.pool!r})"
        )
