"""Master-side TCP worker pool, and the choice between it and a local one.

:class:`TcpWorkerPool` is a drop-in for
:class:`repro.parallel.pool.WorkerPool` (same ``run`` / ``broadcast`` /
``close`` surface, same pinned-dispatch and failure contract) whose
workers are connections to remote :class:`WorkerServer` daemons instead
of child processes.  Pool slot ``i`` is one TCP connection to
``addresses[i]`` — repeating an address gives several independent
pinned workers on one daemon, which is how a single host serves a
multi-shard pool (and how the tests get N workers from one in-process
server).

Failure semantics, deliberately identical to the process pool:

- connection *establishment* is retried per :class:`RetryPolicy`
  (bounded attempts, exponential backoff);
- a connection that fails *mid-run* — send error, read timeout, EOF,
  truncated frame — closes the whole pool and raises
  :class:`ParallelError`.  There is no transparent mid-run reconnect: a
  reconnected worker has lost its pinned shard state, so continuing
  would be silently wrong.  Owners that can rebuild state (the sharded
  scan, the query evaluator) construct a fresh pool and re-ship.

:func:`open_pool` derives which pool an executor runs on from where
its workers are: addresses (explicit argument > ``REPRO_WORKER_ADDRESSES``)
mean a :class:`TcpWorkerPool`, no addresses a local
:class:`~repro.parallel.pool.WorkerPool`.
"""

from __future__ import annotations

import os
import pickle
import socket

from repro.distributed.protocol import (
    HEADER_BYTES,
    format_address,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.distributed.retry import DEFAULT_RETRY, RetryPolicy
from repro.exceptions import ParallelError
from repro.parallel.pool import WorkerPool, results_of
from repro.parallel.shm import TransportCounters

__all__ = [
    "TcpWorkerPool",
    "WORKERS_ENV_VAR",
    "open_pool",
    "parse_worker_addresses",
]

#: Comma-separated ``HOST:PORT`` list naming the remote worker daemons,
#: consulted when no explicit address list was given.  Machine-local —
#: never part of a stored config hash.
WORKERS_ENV_VAR = "REPRO_WORKER_ADDRESSES"


def parse_worker_addresses(value) -> tuple[str, ...]:
    """Normalize an address spec to a validated ``("host:port", ...)``.

    Accepts a comma-separated string (the env-var / CLI form) or an
    iterable of strings; every entry must parse as ``HOST:PORT``.
    """
    if value is None:
        return ()
    if isinstance(value, str):
        entries = [part.strip() for part in value.split(",") if part.strip()]
    else:
        entries = [str(part).strip() for part in value]
    return tuple(
        format_address(parse_address(entry)) for entry in entries
    )


def open_pool(max_workers=None, worker_addresses=None, retry=None):
    """The worker pool an executor runs on, derived from where workers are.

    Addresses — ``worker_addresses``, else ``REPRO_WORKER_ADDRESSES`` —
    mean a :class:`TcpWorkerPool` (``retry`` bounding its connects and
    reads); no addresses mean a local
    :class:`~repro.parallel.pool.WorkerPool` of ``max_workers``.
    """
    addresses = parse_worker_addresses(
        worker_addresses
    ) or parse_worker_addresses(os.environ.get(WORKERS_ENV_VAR))
    if addresses:
        return TcpWorkerPool(addresses, retry=retry)
    if max_workers is None:
        raise ParallelError(
            "a parallel executor needs max_workers, a pool, or worker "
            "addresses"
        )
    return WorkerPool(max_workers)


class TcpWorkerPool:
    """Pinned remote workers over length-prefixed TCP frames.

    Parameters
    ----------
    addresses:
        One ``HOST:PORT`` per pool slot; duplicates give independent
        workers on the same daemon.
    retry:
        Connect/read timeout and retry policy; defaults to
        :data:`~repro.distributed.retry.DEFAULT_RETRY`.
    counters:
        A :class:`TransportCounters` to charge wire traffic to; the
        executors adopt the pool's counters so ``--profile`` and bench
        records see ``bytes_wire`` / ``round_trips``.
    """

    def __init__(
        self,
        addresses,
        retry: RetryPolicy | None = None,
        counters: TransportCounters | None = None,
    ):
        self.addresses = parse_worker_addresses(addresses)
        if not self.addresses:
            raise ParallelError("TcpWorkerPool needs at least one address")
        self.max_workers = len(self.addresses)
        self.retry = retry or DEFAULT_RETRY
        self.counters = counters if counters is not None else (
            TransportCounters()
        )
        self._sockets: list[socket.socket] | None = None
        self._closed = False

    # -- lifecycle ----------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._sockets is not None

    @property
    def closed(self) -> bool:
        return self._closed

    def _connect(self, address: str) -> socket.socket:
        host, port = parse_address(address)

        def attempt() -> socket.socket:
            sock = socket.create_connection(
                (host, port), timeout=self.retry.connect_timeout
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(self.retry.read_timeout)
            return sock

        try:
            return self.retry.call(attempt)
        except OSError as error:
            raise ParallelError(
                f"could not connect to worker {address} after "
                f"{self.retry.attempts} attempts: {error}"
            ) from error

    def _ensure_started(self) -> None:
        if self._closed:
            raise ParallelError("worker pool is closed")
        if self._sockets is None:
            sockets = []
            try:
                for address in self.addresses:
                    sockets.append(self._connect(address))
            except ParallelError:
                for sock in sockets:
                    self._close_socket(sock)
                raise
            self._sockets = sockets

    @staticmethod
    def _close_socket(sock: socket.socket) -> None:
        try:
            sock.close()
        except OSError:
            pass

    def _drop_connections(self) -> None:
        sockets, self._sockets = self._sockets, None
        for sock in sockets or ():
            self._close_socket(sock)

    def reconnect(self) -> None:
        """Drop every connection; the next :meth:`run` reconnects.

        Fresh connections get fresh worker-side state — this is the
        hook the stale-state tests (and owners recovering from
        :class:`~repro.exceptions.StaleWorkerStateError`) use to model a
        worker restart.
        """
        if self._closed:
            raise ParallelError("worker pool is closed")
        self._drop_connections()

    def close(self) -> None:
        """Send a best-effort exit to each worker and drop connections."""
        if self._closed:
            return
        self._closed = True
        sockets, self._sockets = self._sockets, None
        for sock in sockets or ():
            try:
                send_frame(
                    sock,
                    pickle.dumps(
                        ("exit",), protocol=pickle.HIGHEST_PROTOCOL
                    ),
                )
            except OSError:
                pass
            self._close_socket(sock)

    def __enter__(self) -> "TcpWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except BaseException:
            pass

    # -- dispatch -----------------------------------------------------------------

    def _send(self, sock: socket.socket, message) -> None:
        payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        self.counters.bytes_wire += send_frame(sock, payload)

    def _recv(self, sock: socket.socket):
        payload = recv_frame(sock)
        if payload is None:
            raise ParallelError("worker closed the connection")
        self.counters.bytes_wire += HEADER_BYTES + len(payload)
        return pickle.loads(payload)

    def run(self, task: str, args_per_worker: list[tuple]) -> list:
        """Pinned dispatch with the :class:`WorkerPool` failure contract.

        Shard ``i`` goes to the connection for ``addresses[i]``; all
        replies are collected (keeping every stream in sync) before the
        first worker-side error is raised — :class:`ReproError`
        subclasses as themselves, the rest as :class:`ParallelError`.  A
        transport failure (dead daemon, timeout, truncated frame) closes
        the pool and raises :class:`ParallelError`.
        """
        if len(args_per_worker) > self.max_workers:
            raise ParallelError(
                f"{len(args_per_worker)} shards for {self.max_workers} "
                f"workers; shard count cannot exceed the pool size"
            )
        self._ensure_started()
        active = self._sockets[: len(args_per_worker)]
        self.counters.round_trips += 1
        for index, (sock, args) in enumerate(zip(active, args_per_worker)):
            try:
                self._send(sock, ("call", task, args))
            except OSError as error:
                self.close()
                raise ParallelError(
                    f"could not dispatch task {task!r} to worker "
                    f"{self.addresses[index]}: {error}"
                ) from None
        replies = []
        for index, sock in enumerate(active):
            try:
                replies.append(self._recv(sock))
            except (ParallelError, OSError, EOFError) as error:
                self.close()
                raise ParallelError(
                    f"worker {self.addresses[index]} died while running "
                    f"task {task!r}: {error}"
                ) from None
        return results_of(replies)

    def broadcast(self, task: str, *args) -> list:
        """Run ``task`` with the same arguments on every worker."""
        return self.run(task, [args] * self.max_workers)

    def __repr__(self) -> str:
        return (
            f"TcpWorkerPool(addresses={list(self.addresses)!r}, "
            f"closed={self._closed})"
        )
