"""A small HTTP/1.1 keep-alive client and open- and closed-loop senders.

The client writes prebuilt request bytes on a raw socket and reads the
response by its ``Content-Length``; it costs far less per request than
``http.client``, so the generator disturbs the server it measures as
little as possible.
"""

from __future__ import annotations

import json
import socket
import threading
import time

from perfbench import measure


class Connection:
    """One keep-alive connection; reconnects after a failed request."""

    def __init__(self, port: int, host: str = "127.0.0.1"):
        self.address = (host, port)
        self._sock = None
        self._file = None

    def _connect(self) -> None:
        self._sock = socket.create_connection(self.address, timeout=60)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._file = self._sock.makefile("rb")

    def close(self) -> None:
        """Close the socket, if open."""
        if self._sock is not None:
            self._file.close()
            self._sock.close()
            self._sock = self._file = None

    def send(self, wire: bytes) -> tuple[int, bytes]:
        """Send one prebuilt request; returns (status, body), 0 on failure."""
        try:
            if self._sock is None:
                self._connect()
            self._sock.sendall(wire)
            status = int(self._file.readline().split()[1])
            length = 0
            while True:
                line = self._file.readline()
                if line in (b"\r\n", b""):
                    break
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            return status, self._file.read(length)
        except (OSError, ValueError, IndexError):
            self.close()
            return 0, b""

    def get_json(self, path: str):
        """GET ``path`` and decode the JSON body (None on failure)."""
        status, body = self.send(request("GET", path))
        return json.loads(body) if status == 200 else None


def request(method: str, path: str, payload=None) -> bytes:
    """Wire bytes of one request with an optional JSON body."""
    body = b"" if payload is None else json.dumps(payload).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode() + body


def open_loop(conn: Connection, wires, picks, rate: float, seconds: float):
    """Send ``wires[picks[i]]`` at ``rate`` per second for ``seconds``.

    Returns the :class:`~perfbench.measure.OpenLoop` accounting and the
    responses as ``(pick, status, body)``.  One connection carries the
    stream, so a slow answer delays the requests behind it; their latency
    still runs from when they were due.
    """
    loop = measure.OpenLoop(rate, time.perf_counter() + 0.01)
    end = loop.start + seconds
    responses = []
    index = 0
    while loop.due(index) < end:
        pause = loop.due(index) - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        pick = picks[index % len(picks)]
        sent = time.perf_counter()
        status, body = conn.send(wires[pick])
        loop.record(index, sent, time.perf_counter(), status == 200)
        responses.append((pick, status, body))
        index += 1
    return loop, responses


def closed_loop(conns, wires, picks, seconds: float):
    """Each connection sends its next request as soon as the last returns.

    Returns (answered requests per second, responses).
    """
    responses: list[list] = [[] for _ in conns]
    deadline = time.perf_counter() + seconds

    def client(slot: int) -> None:
        index = slot * 7919
        while time.perf_counter() < deadline:
            pick = picks[index % len(picks)]
            status, body = conns[slot].send(wires[pick])
            responses[slot].append((pick, status, body))
            index += 1

    started = time.perf_counter()
    threads = [
        threading.Thread(target=client, args=(slot,))
        for slot in range(len(conns))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    flat = [item for chunk in responses for item in chunk]
    ok = sum(1 for _, status, _ in flat if status == 200)
    return ok / elapsed, flat
