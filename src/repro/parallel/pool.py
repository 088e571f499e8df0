"""Process worker pools with pinned per-worker state.

The parallel subsystem's execution primitive: a :class:`WorkerPool` owns N
long-lived worker processes, each reachable over its own pipe, each holding
a persistent per-process ``state`` dict.  Tasks are module-level functions
addressed as ``"module.path:function"`` strings — resolvable after a plain
import, which is what makes the pool safe under both ``fork`` and ``spawn``
start methods (a spawned child re-imports the task's module; nothing
unpicklable ever crosses the pipe).

Unlike :class:`concurrent.futures.ProcessPoolExecutor`, dispatch is
*pinned*: ``run(task, args_per_worker)`` sends shard ``i`` to worker ``i``,
always.  That is what lets the sharded scan keep worker-side caches: each
worker's :class:`~repro.significance.kernels.OrderScanKernel` owns its
shard's data-side statistics across the scan-adopt-refit rounds.

``max_workers=1`` (or ``inline=True``) runs every task in-process against
the same per-worker state dicts — the deterministic fallback for platforms
where process startup is unavailable or not worth it, and the harness the
shard-equivalence property tests drive at shard counts the machine doesn't
have cores for.

Failure contract: a worker exception that is a :class:`ReproError`
subclass is re-raised in the master as that same class; anything else —
including a worker dying mid-task, or one that does not reply within
:data:`REPLY_TIMEOUT` — surfaces as :class:`ParallelError`.  Inline and
process pools follow it alike; neither retries a task.
"""

from __future__ import annotations

import atexit
import contextlib
import importlib
import multiprocessing
import traceback
import weakref

from repro.exceptions import ParallelError, ReproError

__all__ = [
    "REPLY_TIMEOUT",
    "WorkerPool",
    "default_start_method",
    "resolve_task",
    "shard_bounds",
]

#: Seconds the master waits for each worker reply before it declares the
#: worker hung, closes the pool and raises :class:`ParallelError`.
REPLY_TIMEOUT = 120.0


def default_start_method() -> str:
    """``"fork"`` where the platform offers it, else ``"spawn"``.

    Fork shares the parent's already-built tables and models copy-on-write,
    so broadcast cost is near zero; spawn (macOS default, Windows only
    option) re-imports the task modules in the child, which the
    dotted-name task addressing is designed to survive.
    """
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def resolve_task(task: str):
    """Resolve a ``"module.path:function"`` task address to the callable."""
    module_name, separator, function_name = task.partition(":")
    if not separator or not module_name or not function_name:
        raise ParallelError(
            f"task address {task!r} is not of the form 'module:function'"
        )
    try:
        module = importlib.import_module(module_name)
        return getattr(module, function_name)
    except (ImportError, AttributeError) as error:
        raise ParallelError(
            f"cannot resolve task {task!r}: {error}"
        ) from None


def shard_bounds(n_items: int, n_shards: int) -> list[tuple[int, int]]:
    """Contiguous, balanced ``[start, stop)`` bounds over ``n_items``.

    Earlier shards absorb the remainder, so sizes differ by at most one.
    Contiguity is what keeps a sharded scan's merged output in the exact
    order the serial path emits: concatenating shard results restores the
    canonical sequence.
    """
    if n_shards < 1:
        raise ParallelError(f"n_shards must be >= 1, got {n_shards}")
    if n_items < 0:
        raise ParallelError(f"n_items must be >= 0, got {n_items}")
    base, extra = divmod(n_items, n_shards)
    bounds = []
    start = 0
    for index in range(n_shards):
        stop = start + base + (1 if index < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


#: Pools not yet closed, shut down from ``atexit`` while the interpreter
#: is still whole.  Registered at import time — i.e. *after* the
#: ``multiprocessing`` machinery this module imports registered its own
#: handlers — so LIFO ordering runs it first, before that machinery (or
#: module globals like ``contextlib``) is torn down.  GC'd pools leave the
#: set by themselves; ``__del__`` stays a shutdown-safe last resort for
#: pools collected *during* interpreter teardown.
_LIVE_POOLS: "weakref.WeakSet[WorkerPool]" = weakref.WeakSet()


def _close_live_pools() -> None:
    for pool in list(_LIVE_POOLS):
        try:
            pool.close()
        except Exception:
            pass


atexit.register(_close_live_pools)


def _worker_main(connection) -> None:
    """Worker loop: receive a ``("call", task, args)`` message, run it
    against this worker's state, send the reply.

    The reply is ``("ok", result)``, or ``("error", module, name,
    message, traceback)`` for *any* exception, so the master can re-raise
    library exceptions as themselves while the worker loops on.  Only a
    hard crash (signal, ``os._exit``) breaks the pipe.
    """
    handlers: dict = {}
    state: dict = {}
    while True:
        try:
            message = connection.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if message[0] == "exit":
            break
        _, task, args = message
        try:
            handler = handlers.get(task)
            if handler is None:
                handler = handlers[task] = resolve_task(task)
            reply = ("ok", handler(state, *args))
        except BaseException as error:  # ship everything back, loop on
            reply = (
                "error",
                type(error).__module__,
                type(error).__name__,
                str(error),
                traceback.format_exc(),
            )
        try:
            connection.send(reply)
        except (BrokenPipeError, OSError):
            break
    with contextlib.suppress(OSError):
        connection.close()


def _raise_worker_error(module: str, name: str, message: str, trace: str):
    """Re-raise a worker-side exception in the master.

    :class:`ReproError` subclasses come back as themselves (a poisoned
    query raises the same :class:`~repro.exceptions.QueryError` the serial
    path would); anything else is wrapped in :class:`ParallelError` with
    the worker traceback attached for diagnosis.
    """
    exc_class = None
    with contextlib.suppress(ImportError, AttributeError):
        exc_class = getattr(importlib.import_module(module), name)
    if (
        isinstance(exc_class, type)
        and issubclass(exc_class, ReproError)
        and exc_class is not ParallelError
    ):
        raise exc_class(message)
    raise ParallelError(
        f"worker task failed with {name}: {message}\n{trace}"
    )


class WorkerPool:
    """``max_workers`` pinned workers, each with persistent private state.

    Parameters
    ----------
    max_workers:
        Worker (and maximum shard) count.
    inline:
        Run tasks in-process instead of in child processes.  Defaults to
        ``max_workers == 1`` — the deterministic serial fallback.  An
        inline pool still keeps one state dict per worker slot, so the
        sharding logic (and its tests) behave identically with and
        without real processes.
    start_method:
        ``"fork"`` / ``"spawn"`` / ``"forkserver"``; default picks fork
        where available (see :func:`default_start_method`).

    Workers start lazily on the first :meth:`run` and live until
    :meth:`close`; the pool is a context manager.
    """

    def __init__(
        self,
        max_workers: int,
        inline: bool | None = None,
        start_method: str | None = None,
    ):
        if max_workers < 1:
            raise ParallelError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self.max_workers = int(max_workers)
        self.inline = (max_workers == 1) if inline is None else bool(inline)
        self._start_method = start_method or default_start_method()
        if self._start_method not in multiprocessing.get_all_start_methods():
            raise ParallelError(
                f"start method {self._start_method!r} is not available on "
                f"this platform "
                f"(have {multiprocessing.get_all_start_methods()})"
            )
        self._workers: list | None = None
        self._states: list[dict] | None = None
        self._closed = False
        _LIVE_POOLS.add(self)

    # -- lifecycle ----------------------------------------------------------------

    @property
    def running(self) -> bool:
        """True once workers have started (inline pools never 'run')."""
        return self._workers is not None

    @property
    def closed(self) -> bool:
        """True after :meth:`close` — including the self-close a worker
        death triggers.  A closed pool cannot be restarted; owners that
        want to survive worker loss build a fresh pool when they see
        this."""
        return self._closed

    def _ensure_started(self) -> None:
        if self._closed:
            raise ParallelError("worker pool is closed")
        if self.inline:
            if self._states is None:
                self._states = [{} for _ in range(self.max_workers)]
            return
        if self._workers is None:
            context = multiprocessing.get_context(self._start_method)
            workers = []
            for _ in range(self.max_workers):
                parent_end, child_end = context.Pipe()
                process = context.Process(
                    target=_worker_main, args=(child_end,), daemon=True
                )
                process.start()
                child_end.close()
                workers.append((process, parent_end))
            self._workers = workers

    def close(self) -> None:
        """Stop every worker; idempotent, safe after worker death.

        Also safe during interpreter shutdown, where finalizers run with
        module globals possibly already ``None``d: only plain
        ``try/except`` below — no ``contextlib``/helper lookups — and
        every pipe/process call is individually guarded, so a half-dead
        worker (or an already-torn-down ``multiprocessing``) can never
        make teardown raise.
        """
        self._closed = True
        self._states = None
        workers, self._workers = self._workers, None
        if not workers:
            return
        for _process, connection in workers:
            try:
                connection.send(("exit",))
            except BaseException:
                pass
        for process, connection in workers:
            try:
                process.join(timeout=2.0)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=1.0)
            except BaseException:
                pass
            try:
                connection.close()
            except BaseException:
                pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except BaseException:
            pass

    # -- dispatch -----------------------------------------------------------------

    def run(self, task: str, args_per_worker: list[tuple]) -> list:
        """Run ``task`` on workers ``0..len(args_per_worker)-1``.

        Shard ``i`` always lands on worker ``i`` (pinned dispatch), all
        shards execute concurrently, and results come back in shard
        order.  If any worker errored, every reply is still collected
        (keeping the pipes in sync) before the first error is raised —
        :class:`ReproError` subclasses as themselves, everything else as
        :class:`ParallelError`.
        """
        if len(args_per_worker) > self.max_workers:
            raise ParallelError(
                f"{len(args_per_worker)} shards for {self.max_workers} "
                f"workers; shard count cannot exceed the pool size"
            )
        self._ensure_started()
        if self.inline:
            # Same failure contract as the process path: every shard
            # runs, then the first error is raised.
            handler = resolve_task(task)
            results = []
            failure: Exception | None = None
            for state, args in zip(self._states, args_per_worker):
                try:
                    results.append(handler(state, *args))
                except Exception as error:
                    results.append(None)
                    if failure is None:
                        failure = error
            if failure is not None:
                # `type(...) is not ParallelError` (not isinstance):
                # _raise_worker_error re-raises ParallelError *subclasses* —
                # StaleWorkerStateError in particular — as themselves,
                # and the inline path must agree with the process one.
                if isinstance(failure, ReproError) and (
                    type(failure) is not ParallelError
                ):
                    raise failure
                raise ParallelError(
                    f"worker task failed with "
                    f"{type(failure).__name__}: {failure}"
                ) from failure
            return results
        active = self._workers[: len(args_per_worker)]
        for (_process, connection), args in zip(active, args_per_worker):
            try:
                connection.send(("call", task, args))
            except (BrokenPipeError, OSError):
                self.close()
                raise ParallelError(
                    f"could not dispatch task {task!r}: a worker died"
                ) from None
        replies = []
        for index, (_process, connection) in enumerate(active):
            try:
                if not connection.poll(REPLY_TIMEOUT):
                    self.close()
                    raise ParallelError(
                        f"worker {index} did not reply within "
                        f"{REPLY_TIMEOUT}s while running task {task!r}"
                    )
                replies.append(connection.recv())
            except (EOFError, OSError):
                self.close()
                raise ParallelError(
                    f"worker {index} died while running task {task!r}"
                ) from None
        # Every reply is collected first, keeping each worker's pipe in
        # sync; failed shards then surface in shard order.
        for reply in replies:
            if reply[0] != "ok":
                _raise_worker_error(*reply[1:])
        return [reply[1] for reply in replies]

    def broadcast(self, task: str, *args) -> list:
        """Run ``task`` with the same arguments on every worker."""
        return self.run(task, [args] * self.max_workers)

    def __repr__(self) -> str:
        mode = "inline" if self.inline else self._start_method
        return f"WorkerPool(max_workers={self.max_workers}, mode={mode!r})"
