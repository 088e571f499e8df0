"""Request coalescing: many concurrent single queries, one batch call.

``POST /kb/{name}/query`` is the endpoint millions of independent clients
hit, one query each — exactly the shape :meth:`QuerySession.batch` was
built to amortize (shared marginals, one joint materialization).  The
:class:`MicroBatcher` bridges the two adaptively: an idle server sends a
lone request on at once, and a busy one folds the requests that arrive
while an evaluation runs into the next batch.  There is no timer, so
coalescing never costs an idle request anything, and under load the
per-query cost approaches the batch path's.

Mechanics
---------
- a submission that finds no flush in flight is dispatched at once, as
  a batch of one;
- while a flush runs, new submissions wait in a backlog; when it
  settles — succeeded, failed or cancelled — the whole backlog goes out
  as the next flush;
- a backlog that reaches ``max_batch`` flushes at once, even beside the
  running flush, so no flush ever carries more than ``max_batch``
  queries;
- each flush calls the supplied async runner with the query list; the
  runner returns one result *per query*, where a result may be an
  exception instance — that query's future fails, the rest succeed
  (error isolation: one bad query cannot poison its batch-mates).

The batcher is event-loop-native and must be driven from a single loop;
the blocking work happens inside the runner (typically shipped to a
thread-pool executor by the caller).
"""

from __future__ import annotations

import asyncio
import functools
from dataclasses import dataclass, field

from repro.exceptions import DataError

__all__ = ["BatcherStats", "MicroBatcher"]

DEFAULT_MAX_BATCH = 64


@dataclass
class BatcherStats:
    """Coalescing counters (monotonic since construction)."""

    submitted: int = 0
    flushes: int = 0
    coalesced_flushes: int = 0  # flushes that carried > 1 query
    max_batch_seen: int = 0
    errors: int = 0

    def to_dict(self) -> dict:
        mean = self.submitted / self.flushes if self.flushes else 0.0
        return {
            "submitted": self.submitted,
            "flushes": self.flushes,
            "coalesced_flushes": self.coalesced_flushes,
            "mean_batch": mean,
            "max_batch": self.max_batch_seen,
            "errors": self.errors,
        }


@dataclass
class _Pending:
    query: object
    future: asyncio.Future = field(repr=False)


class MicroBatcher:
    """Coalesces awaited submissions behind the evaluation in flight.

    Parameters
    ----------
    runner:
        ``async (queries: list) -> list`` evaluating one flush.  Must
        return exactly one entry per query; an entry that is an
        ``Exception`` instance fails only its own submission.
    max_batch:
        The most queries one flush carries; a backlog this long flushes
        without waiting for the running flush.
    """

    def __init__(self, runner, max_batch: int = DEFAULT_MAX_BATCH):
        if max_batch < 1:
            raise DataError(f"max_batch must be >= 1, got {max_batch}")
        self._runner = runner
        self.max_batch = int(max_batch)
        self.stats = BatcherStats()
        self._backlog: list[_Pending] = []
        # Flush tasks in flight; holding them also keeps them from being
        # garbage-collected mid-run.
        self._running: set[asyncio.Task] = set()
        self._closed = False

    @property
    def pending(self) -> int:
        """Queries waiting in the backlog, not yet flushed."""
        return len(self._backlog)

    async def submit(self, query):
        """Queue one query; resolves with its result (or raises its error).

        Dispatched at once when no flush is in flight, else it joins the
        backlog that goes out when the running flush settles.
        """
        if self._closed:
            raise DataError("batcher is closed")
        future = asyncio.get_running_loop().create_future()
        self._backlog.append(_Pending(query, future))
        self.stats.submitted += 1
        if not self._running or len(self._backlog) >= self.max_batch:
            self._flush()
        return await future

    def _flush(self) -> None:
        batch, self._backlog = self._backlog, []
        self.stats.flushes += 1
        if len(batch) > 1:
            self.stats.coalesced_flushes += 1
        self.stats.max_batch_seen = max(
            self.stats.max_batch_seen, len(batch)
        )
        task = asyncio.get_running_loop().create_task(self._run(batch))
        self._running.add(task)
        task.add_done_callback(functools.partial(self._settled, batch))

    def _settled(self, batch: list[_Pending], task: asyncio.Task) -> None:
        """Release the flush's slot, then send the backlog on.

        Runs however the flush ended, so a runner that raised or was
        cancelled — even before it started — cannot wedge the batcher.
        """
        self._running.discard(task)
        if task.cancelled():
            self._fail(batch, DataError("batch flush was cancelled"))
        if self._backlog and not self._running:
            self._flush()

    def _fail(self, batch: list[_Pending], error: Exception) -> None:
        for item in batch:
            if not item.future.done():
                self.stats.errors += 1
                item.future.set_exception(error)

    async def _run(self, batch: list[_Pending]) -> None:
        try:
            results = await self._runner([item.query for item in batch])
        except Exception as error:
            # A runner-level failure (pool died, server bug) fails the
            # whole flush — per-query isolation is the runner's job.
            self._fail(batch, error)
            return
        if len(results) != len(batch):
            self._fail(
                batch,
                DataError(
                    f"batch runner returned {len(results)} results for "
                    f"{len(batch)} queries"
                ),
            )
            return
        for item, result in zip(batch, results):
            if item.future.done():
                continue  # submitter went away (client disconnect)
            if isinstance(result, Exception):
                self.stats.errors += 1
                item.future.set_exception(result)
            else:
                item.future.set_result(result)

    async def drain(self) -> None:
        """Wait until the flushes in flight and the backlog have settled."""
        waiters = [*self._running, *(item.future for item in self._backlog)]
        if waiters:
            await asyncio.gather(*waiters, return_exceptions=True)

    def close(self) -> None:
        """Reject new submissions; pending ones still complete."""
        self._closed = True

    def __repr__(self) -> str:
        return (
            f"MicroBatcher(max_batch={self.max_batch}, "
            f"in_flight={len(self._running)}, pending={self.pending})"
        )
