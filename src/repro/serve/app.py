"""The serving application: routes transport Requests to registry calls.

This layer is transport-agnostic: it consumes
:class:`~repro.serve.transport.Request` objects and produces
:class:`~repro.serve.transport.Response` objects, never touching a
socket.  That makes every endpoint testable in-process (build a Request,
``await app.handle(request)``) and keeps the HTTP framing swappable.

Routes
------
==========  =============================  =======================================
Method      Path                           Action
==========  =============================  =======================================
GET         ``/health``                    liveness + hosted KB names
GET         ``/stats``                     registry-wide serving counters
GET         ``/kbs``                       hosted knowledge-base names
GET         ``/kb/{name}``                 schema / revision / fingerprint
GET         ``/kb/{name}/stats``           per-KB counters (batcher, pool)
POST        ``/kb/{name}/query``           one query, coalesced
POST        ``/kb/{name}/batch``           explicit query batch, one unit
POST        ``/kb/{name}/mpe``             most-probable explanation
POST        ``/kb/{name}/explain``         constraint knock-out analysis
POST        ``/kb/{name}/update``          absorb rows/samples, hot-swap
GET (WS)    ``/kb/{name}/subscribe``       revision-change notifications
==========  =============================  =======================================

Every library :class:`~repro.exceptions.ReproError` maps to a typed JSON
envelope ``{"error": {"type", "message", "status"}}`` via
:mod:`repro.serve.errors`; unexpected exceptions become opaque 500s so a
handler bug cannot leak a traceback to the wire.  The traceback goes to
the ``repro.serve`` logger instead, tagged with the request's method and
path.
"""

from __future__ import annotations

import logging

from repro.exceptions import ReproError
from repro.serve.errors import ApiError, error_body
from repro.serve.registry import HostedKB, KnowledgeBaseRegistry
from repro.serve.transport import Request, Response, json_response

__all__ = ["ServeApp"]

logger = logging.getLogger("repro.serve")


class ServeApp:
    """Routes requests against one :class:`KnowledgeBaseRegistry`."""

    def __init__(self, registry: KnowledgeBaseRegistry):
        self.registry = registry

    async def handle(self, request: Request) -> Response:
        """Dispatch one HTTP request; errors become typed envelopes."""
        try:
            return await self._dispatch(request)
        except ReproError as error:
            status, body = error_body(error)
            return Response(status=status, body=body)
        except Exception:  # noqa: BLE001 — the wire never sees tracebacks
            logger.exception(
                "unhandled error serving %s %s", request.method, request.path
            )
            status, body = error_body(
                ApiError(500, "internal server error", kind="ServerError")
            )
            return Response(status=status, body=body)

    def subscription_entry(self, request: Request) -> HostedKB:
        """The hosted KB a WebSocket upgrade on ``request.path`` targets.

        Raises :class:`ApiError` (404/400) when the path is not a
        subscribable endpoint, so the server can refuse the upgrade with
        a proper envelope.
        """
        segments = _segments(request.path)
        if (
            len(segments) == 3
            and segments[0] == "kb"
            and segments[2] == "subscribe"
        ):
            return self.registry.get(segments[1])
        raise ApiError(
            404, f"no WebSocket endpoint at {request.path!r}"
        )

    # -- routing ------------------------------------------------------------------

    async def _dispatch(self, request: Request) -> Response:
        segments = _segments(request.path)
        if segments == ["health"]:
            return self._health(request)
        if segments == ["stats"]:
            _require(request, "GET")
            return json_response(self.registry.stats())
        if segments == ["kbs"]:
            _require(request, "GET")
            return json_response({"kbs": self.registry.names()})
        if len(segments) >= 2 and segments[0] == "kb":
            entry = self.registry.get(segments[1])
            if len(segments) == 2:
                _require(request, "GET")
                entry.count("describe")
                return json_response(entry.describe())
            if len(segments) == 3:
                return await self._kb_action(
                    entry, segments[2], request
                )
        raise ApiError(404, f"no route for {request.path!r}")

    async def _kb_action(
        self, entry: HostedKB, action: str, request: Request
    ) -> Response:
        if action == "stats":
            _require(request, "GET")
            return json_response(entry.stats())
        if action == "subscribe":
            raise ApiError(
                400,
                "subscribe is a WebSocket endpoint; send an Upgrade "
                "handshake",
            )
        handlers = {
            "query": self._query,
            "batch": self._batch,
            "mpe": self._mpe,
            "explain": self._explain,
            "update": self._update,
        }
        handler = handlers.get(action)
        if handler is None:
            raise ApiError(
                404, f"no action {action!r} for knowledge bases"
            )
        _require(request, "POST")
        entry.count(action)
        return await handler(entry, request)

    # -- endpoints ----------------------------------------------------------------

    def _health(self, request: Request) -> Response:
        _require(request, "GET")
        return json_response(
            {
                "status": "ok",
                "kbs": self.registry.names(),
                "uptime_s": self.registry.uptime_seconds,
            }
        )

    async def _query(self, entry: HostedKB, request: Request) -> Response:
        payload = request.json()
        text = payload.get("query")
        if not isinstance(text, str) or not text.strip():
            raise ApiError(
                400, 'body must carry a non-empty "query" string'
            )
        answer, fingerprint = await entry.query(text)
        return json_response(
            {
                "kb": entry.name,
                "query": text,
                "answer": answer,
                "fingerprint": fingerprint,
            }
        )

    async def _batch(self, entry: HostedKB, request: Request) -> Response:
        payload = request.json()
        queries = payload.get("queries")
        if not isinstance(queries, list) or not queries:
            raise ApiError(
                400, 'body must carry a non-empty "queries" list'
            )
        if not all(isinstance(q, str) for q in queries):
            raise ApiError(400, "every query must be a string")
        answers, fingerprint = await entry.batch(queries)
        return json_response(
            {
                "kb": entry.name,
                "answers": answers,
                "fingerprint": fingerprint,
            }
        )

    async def _mpe(self, entry: HostedKB, request: Request) -> Response:
        payload = request.json()
        given = payload.get("given", {})
        if given is None:
            given = {}
        if not isinstance(given, dict):
            raise ApiError(400, '"given" must be an object of evidence')
        labels, probability, fingerprint = await entry.mpe(given)
        return json_response(
            {
                "kb": entry.name,
                "assignment": labels,
                "probability": probability,
                "given": given,
                "fingerprint": fingerprint,
            }
        )

    async def _explain(self, entry: HostedKB, request: Request) -> Response:
        payload = request.json()
        target = payload.get("target")
        given = payload.get("given")
        if not isinstance(target, dict) or not target:
            raise ApiError(
                400, 'body must carry a non-empty "target" object'
            )
        if not isinstance(given, dict) or not given:
            raise ApiError(
                400,
                'body must carry a non-empty "given" object '
                "(explanations are for conditional queries)",
            )
        explanation = await entry.explain(target, given)
        influences = [
            {
                "attributes": list(influence.key[0]),
                "values": [int(v) for v in influence.key[1]],
                "answer_without": influence.answer_without,
                "swing": influence.swing,
            }
            for influence in explanation.ranked()
        ]
        return json_response(
            {
                "kb": entry.name,
                "target": explanation.target,
                "given": explanation.given,
                "answer": explanation.answer,
                "independence_answer": explanation.independence_answer,
                "total_shift": explanation.total_shift,
                "influences": influences,
                "fingerprint": entry.fingerprint(),
            }
        )

    async def _update(self, entry: HostedKB, request: Request) -> Response:
        payload = request.json()
        rows = payload.get("rows")
        samples = payload.get("samples")
        if rows is not None and not isinstance(rows, list):
            raise ApiError(400, '"rows" must be a list of records')
        if samples is not None and not isinstance(samples, list):
            raise ApiError(400, '"samples" must be a list of value lists')
        if not rows and not samples:
            raise ApiError(
                400,
                'update body must carry "rows" (list of '
                '{attribute: label} records) and/or "samples" '
                "(list of value sequences)",
            )
        result = await entry.update(rows=rows, samples=samples)
        return json_response(result)


def _segments(path: str) -> list[str]:
    """Path → non-empty segments, query string stripped."""
    return [part for part in path.split("?", 1)[0].split("/") if part]


def _require(request: Request, method: str) -> None:
    if request.method != method:
        raise ApiError(
            405,
            f"{request.path} accepts {method}, not {request.method}",
            kind="MethodNotAllowed",
        )
