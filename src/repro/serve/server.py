"""The asyncio network server and a thread-hosted harness.

:class:`ReproServer` owns the listening socket: it accepts connections,
frames HTTP requests via :mod:`repro.serve.transport`, hands them to the
:class:`~repro.serve.app.ServeApp`, and speaks the WebSocket
subscription protocol for ``/kb/{name}/subscribe``.  Graceful shutdown
closes the listener, tears down open connections, and retires every
session pool through the registry.

:func:`serve_in_thread` hosts a server on a background event-loop thread
and yields a handle with the bound port — the harness the tests,
benchmarks, and :mod:`examples.serving_demo` drive a live server with
from ordinary blocking code.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading

from repro.core.knowledge_base import ProbabilisticKnowledgeBase
from repro.exceptions import DataError, ReproError
from repro.serve.app import ServeApp
from repro.serve.errors import ApiError, error_body
from repro.serve.registry import (
    HostedKB,
    KnowledgeBaseRegistry,
    ServeConfig,
)
from repro.serve.transport import (
    Response,
    read_request,
    render_response,
)
from repro.serve.websocket import (
    OP_CLOSE,
    OP_PING,
    OP_PONG,
    OP_TEXT,
    accept_key,
    encode_frame,
    read_frame,
)

__all__ = ["ReproServer", "ServerHandle", "serve_in_thread"]


class ReproServer:
    """Serves a :class:`KnowledgeBaseRegistry` over HTTP + WebSocket."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        config: ServeConfig | None = None,
        registry: KnowledgeBaseRegistry | None = None,
        store=None,
    ):
        self.host = host
        self.port = port  # 0 = ephemeral; replaced with the bound port
        self.registry = registry or KnowledgeBaseRegistry(
            config, store=store
        )
        self.app = ServeApp(self.registry)
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.StreamWriter] = set()

    def add(
        self, name: str, kb: ProbabilisticKnowledgeBase
    ) -> HostedKB:
        """Host ``kb`` under ``name``."""
        return self.registry.add(name, kb)

    # -- lifecycle ----------------------------------------------------------------

    async def start(self) -> None:
        if self._server is not None:
            raise DataError("server is already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Close the listener and every connection; retire all pools."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._connections):
            writer.close()
        self._connections.clear()
        # Executor shutdown joins worker threads; keep it off the loop.
        await asyncio.get_running_loop().run_in_executor(
            None, self.registry.close
        )

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    # -- connection handling ------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ReproError as error:
                    await self._write(
                        writer, _error_response(error, keep_alive=False)
                    )
                    break
                if request is None:
                    break
                if request.wants_websocket:
                    await self._handle_websocket(request, reader, writer)
                    break
                response = await self.app.handle(request)
                response.keep_alive = (
                    response.keep_alive and request.keep_alive
                )
                await self._write(writer, response)
                if not response.keep_alive:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _write(
        self, writer: asyncio.StreamWriter, response: Response
    ) -> None:
        writer.write(render_response(response))
        await writer.drain()

    # -- websocket subscriptions --------------------------------------------------

    async def _handle_websocket(
        self,
        request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            entry = self.app.subscription_entry(request)
        except ReproError as error:
            await self._write(
                writer, _error_response(error, keep_alive=False)
            )
            return
        client_key = request.headers.get("sec-websocket-key")
        if not client_key:
            await self._write(
                writer,
                _error_response(
                    ApiError(400, "missing Sec-WebSocket-Key"),
                    keep_alive=False,
                ),
            )
            return
        writer.write(
            b"HTTP/1.1 101 Switching Protocols\r\n"
            b"Upgrade: websocket\r\n"
            b"Connection: Upgrade\r\n"
            b"Sec-WebSocket-Accept: "
            + accept_key(client_key).encode("latin-1")
            + b"\r\n\r\n"
        )
        await writer.drain()
        entry.count("subscribe")
        queue = entry.subscribe()
        try:
            await self._send_json(
                writer,
                {
                    "type": "hello",
                    "kb": entry.name,
                    "revision": entry.revision_number,
                    "fingerprint": entry.fingerprint(),
                },
            )
            await self._pump_subscription(reader, writer, queue)
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            ReproError,
        ):
            pass
        finally:
            entry.unsubscribe(queue)

    async def _send_json(
        self, writer: asyncio.StreamWriter, payload: dict
    ) -> None:
        writer.write(
            encode_frame(OP_TEXT, json.dumps(payload).encode("utf-8"))
        )
        await writer.drain()

    async def _pump_subscription(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        queue: asyncio.Queue,
    ) -> None:
        """Forward notifications until the peer closes or disconnects."""

        async def notify() -> None:
            while True:
                await self._send_json(writer, await queue.get())

        async def listen() -> None:
            while True:
                opcode, payload = await read_frame(reader)
                if opcode == OP_CLOSE:
                    writer.write(encode_frame(OP_CLOSE, payload))
                    await writer.drain()
                    return
                if opcode == OP_PING:
                    writer.write(encode_frame(OP_PONG, payload))
                    await writer.drain()
                # Text/pong frames from subscribers are ignored.

        tasks = [
            asyncio.ensure_future(notify()),
            asyncio.ensure_future(listen()),
        ]
        try:
            done, pending = await asyncio.wait(
                tasks, return_when=asyncio.FIRST_COMPLETED
            )
            for task in done:
                with contextlib.suppress(Exception):
                    task.result()
        finally:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)


def _error_response(error: Exception, keep_alive: bool) -> Response:
    status, body = error_body(error)
    return Response(status=status, body=body, keep_alive=keep_alive)


class ServerHandle:
    """A running server on a background thread; safe to drive blockingly."""

    def __init__(
        self,
        server: ReproServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ):
        self.server = server
        self._loop = loop
        self._thread = thread
        self._stopped = False

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def address(self) -> tuple[str, int]:
        return self.server.host, self.server.port

    def stop(self, timeout: float = 30.0) -> None:
        """Gracefully stop the server and join its thread; idempotent."""
        if self._stopped:
            return
        self._stopped = True
        future = asyncio.run_coroutine_threadsafe(
            self.server.stop(), self._loop
        )
        future.result(timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_in_thread(
    kbs: dict[str, ProbabilisticKnowledgeBase],
    config: ServeConfig | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    store=None,
) -> ServerHandle:
    """Start a server on a daemon event-loop thread; returns its handle.

    The handle's ``port`` is the bound (possibly ephemeral) port.  Use as
    a context manager for deterministic teardown::

        with serve_in_thread({"paper": kb}) as handle:
            client = ServeClient(handle.host, handle.port)
            ...

    With ``store`` (a :class:`~repro.store.KBStore`) the server is
    durable: the ``kbs`` passed in are persisted, every stored knowledge
    base not in ``kbs`` is hosted at its latest persisted revision, and
    hosted updates write through the store — so a server restarted on
    the same store resumes exactly where the previous one stopped.
    """
    started = threading.Event()
    box: dict = {}

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        server = ReproServer(
            host=host, port=port, config=config, store=store
        )
        try:
            for name, kb in kbs.items():
                server.add(name, kb)
            if store is not None:
                server.registry.add_all_from_store()
            loop.run_until_complete(server.start())
        except BaseException as error:  # surface startup failures
            box["error"] = error
            started.set()
            loop.close()
            return
        box["server"] = server
        box["loop"] = loop
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(
        target=run, name="repro-serve-loop", daemon=True
    )
    thread.start()
    if not started.wait(30.0):
        raise DataError("server failed to start within 30s")
    if "error" in box:
        raise box["error"]
    return ServerHandle(box["server"], box["loop"], thread)
