"""In-process tests of ServeApp's error handling."""

import asyncio
import json
import logging

import pytest

from repro.serve.app import ServeApp
from repro.serve.registry import KnowledgeBaseRegistry
from repro.serve.transport import Request


@pytest.fixture
def registry():
    registry = KnowledgeBaseRegistry()
    yield registry
    registry.close()


def test_unexpected_error_is_logged_with_traceback_but_stays_opaque(
    caplog, monkeypatch, registry
):
    app = ServeApp(registry)

    def broken_stats():
        raise RuntimeError("secret handler detail")

    monkeypatch.setattr(registry, "stats", broken_stats)
    with caplog.at_level(logging.ERROR, logger="repro.serve"):
        response = asyncio.run(app.handle(Request("GET", "/stats", {})))

    assert response.status == 500
    body = json.loads(response.body)
    assert body["error"]["type"] == "ServerError"
    assert "secret" not in response.body.decode("utf-8")

    [record] = [r for r in caplog.records if r.name == "repro.serve"]
    assert record.levelno == logging.ERROR
    assert "GET /stats" in record.getMessage()
    assert record.exc_info is not None
    assert isinstance(record.exc_info[1], RuntimeError)
    assert "secret handler detail" in caplog.text


def test_library_errors_are_not_logged(caplog, registry):
    app = ServeApp(registry)
    with caplog.at_level(logging.ERROR, logger="repro.serve"):
        response = asyncio.run(app.handle(Request("GET", "/kb/nope", {})))
    assert response.status == 404
    assert not [r for r in caplog.records if r.name == "repro.serve"]
