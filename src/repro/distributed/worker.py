"""The remote worker daemon: ``_worker_main``'s loop over sockets.

A :class:`WorkerServer` accepts TCP connections and runs one handler
thread per connection.  Each connection owns a **fresh, private** state
dict — the same contract as one pipe-connected worker process — so one
daemon can serve several pool slots at once (each slot's connection is
an independent pinned worker), and a *re*-connection never sees the
previous connection's pinned state.  That is the property that makes
reconnect-after-anything safe: a worker that lost its state raises
:class:`StaleWorkerStateError` when the master references cached data,
instead of silently serving a stale joint or session.

Tasks execute in threads, which is fine for this workload: the shard
kernels spend their time in numpy (GIL released), and correctness never
depends on thread-level parallelism — only the *master's* shard merge
does, and it treats each connection as an opaque worker.

``repro worker --listen HOST:PORT`` wraps :func:`serve_forever`.
"""

from __future__ import annotations

import contextlib
import socket
import threading

from repro.distributed.protocol import (
    format_address,
    recv_message,
    send_message,
)
from repro.parallel.pool import dispatch

__all__ = ["WorkerServer"]


class WorkerServer:
    """Listen on ``(host, port)`` and serve worker connections.

    ``start()`` binds, listens, and spins up the accept thread, then
    returns — tests run a server in-process next to the pool under
    test.  ``serve_forever()`` blocks until :meth:`close` (the daemon
    entry point).  ``close()`` stops accepting, closes every live
    connection, and joins the handler threads; idempotent.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._listen_address = (host, port)
        self._socket: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._handlers: list[threading.Thread] = []
        self._connections: list[socket.socket] = []
        self._lock = threading.Lock()
        self._closed = threading.Event()

    @property
    def address(self) -> tuple[str, int]:
        """The bound address (with the real port when bound to port 0)."""
        if self._socket is None:
            raise RuntimeError("server is not started")
        return self._socket.getsockname()[:2]

    @property
    def address_text(self) -> str:
        return format_address(self.address)

    def start(self) -> "WorkerServer":
        if self._socket is not None:
            return self
        server = socket.create_server(
            self._listen_address, reuse_port=False
        )
        server.listen()
        # A blocked accept() is not reliably woken by close() alone (the
        # fd dies but the thread can stay parked), so the accept loop
        # polls: shutdown() in close() wakes it immediately on platforms
        # that support it, the timeout is the portable backstop.
        server.settimeout(0.5)
        self._socket = server
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-worker-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Start (if needed) and block until :meth:`close`."""
        self.start()
        self._closed.wait()

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        if self._socket is not None:
            with contextlib.suppress(OSError):
                self._socket.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                self._socket.close()
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            with contextlib.suppress(OSError):
                connection.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                connection.close()
        if (
            self._accept_thread is not None
            and self._accept_thread is not threading.current_thread()
        ):
            self._accept_thread.join(timeout=2.0)
        with self._lock:
            handlers = list(self._handlers)
        for handler in handlers:
            if handler is not threading.current_thread():
                handler.join(timeout=2.0)

    def __enter__(self) -> "WorkerServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals ----------------------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._socket is not None
        while not self._closed.is_set():
            try:
                connection, _peer = self._socket.accept()
            except TimeoutError:
                continue  # poll tick: re-check the closed flag
            except OSError:
                break  # listener closed
            # accept() hands over the listener's poll timeout; handler
            # connections block until the master speaks (or hangs up).
            connection.settimeout(None)
            connection.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            handler = threading.Thread(
                target=self._handle,
                args=(connection,),
                name="repro-worker-conn",
                daemon=True,
            )
            # Tracked before it starts, so its own exit always finds it.
            with self._lock:
                self._connections.append(connection)
                self._handlers.append(handler)
            handler.start()

    def _handle(self, connection: socket.socket) -> None:
        """One connection = one pinned worker with fresh private state.

        The loop is ``_worker_main`` over frames: ``("call", task,
        args)`` in, ``("ok", result)`` or ``("error", module, name,
        message, trace)`` out, ``("exit",)`` or EOF to finish.  Every
        task exception — including :class:`StaleWorkerStateError` from a
        cached-state miss — is shipped back rather than killing the
        connection, so the master can recover by re-sending full state.
        """
        handlers: dict = {}
        state: dict = {}
        try:
            while True:
                try:
                    message = recv_message(connection)
                except Exception:
                    break  # truncated frame / reset: connection is gone
                if message is None or message[0] == "exit":
                    break
                try:
                    send_message(
                        connection, dispatch(handlers, state, message)
                    )
                except OSError:
                    break
        finally:
            with contextlib.suppress(OSError):
                connection.close()
            with self._lock:
                if connection in self._connections:
                    self._connections.remove(connection)
                # Finished handlers leave the registry, so a long-lived
                # daemon tracks only live connections.
                current = threading.current_thread()
                if current in self._handlers:
                    self._handlers.remove(current)


def serve(address: str) -> None:
    """Blocking daemon entry point for ``repro worker --listen``."""
    from repro.distributed.protocol import parse_address

    host, port = parse_address(address, listen=True)
    server = WorkerServer(host, port)
    server.start()
    print(f"repro worker listening on {server.address_text}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
