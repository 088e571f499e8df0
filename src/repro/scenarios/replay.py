"""Closed-loop query-traffic replay against a :class:`QuerySession`.

The conformance matrix validates *quality*; the latency SLOs validate
*scale* — and a knowledge base that discovers fast but serves slow still
misses the production bar.  This module derives a deterministic, mixed
query workload from any scenario's schema and replays it closed-loop
(one client fires its next query the moment the previous answer lands)
against an in-process :class:`~repro.api.session.QuerySession`,
returning the latency percentiles the per-scenario SLOs gate on.

The driver is the in-process twin of the network serving benchmark
(``benchmarks/_serving_scenario.py``), which imports the latency-stat
helpers from here so both layers summarize latency the same way.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from repro.data.schema import Schema
from repro.exceptions import DataError

__all__ = [
    "latency_stats",
    "percentile",
    "replay_session",
    "scenario_query_mix",
]


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample.

    Returns 0.0 for an empty sample; ``q`` is a fraction (0.99 for p99).
    The same estimator serves the serving benchmark and the discovery
    profile, so latency budgets mean one thing everywhere.
    """
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values))))
    return sorted_values[rank]


def latency_stats(latencies: Sequence[float]) -> dict:
    """p50/p99/max (in milliseconds) of a latency sample in seconds."""
    ordered = sorted(latencies)
    return {
        "p50_ms": 1e3 * percentile(ordered, 0.50),
        "p99_ms": 1e3 * percentile(ordered, 0.99),
        "max_ms": 1e3 * (ordered[-1] if ordered else 0.0),
    }


def scenario_query_mix(schema: Schema, seed: int, size: int = 8) -> list[str]:
    """A deterministic serving-shaped query mix over ``schema``.

    The mix cycles three shapes — marginals (``A=a1``), single-evidence
    conditionals (``A=a1 | B=b1``), and double-evidence conditionals
    (``A=a1 | B=b1, C=c1`` when the schema is wide enough) — with the
    attributes and values drawn from a generator seeded by ``seed``, so
    the same scenario always replays the same traffic.  Targets never
    overlap their evidence (the parser rejects that), and every query is
    returned in the textual form :meth:`QuerySession.ask` accepts.
    """
    if size < 1:
        raise DataError(f"query-mix size must be >= 1, got {size}")
    if len(schema) < 2:
        raise DataError("a query mix needs at least two attributes")
    rng = np.random.default_rng(seed)
    names = schema.names

    def assignment(name: str) -> str:
        attribute = schema.attribute(name)
        value = attribute.value_at(int(rng.integers(attribute.cardinality)))
        return f"{name}={value}"

    queries: list[str] = []
    shapes = ["marginal", "conditional", "double"]
    while len(queries) < size:
        shape = shapes[len(queries) % len(shapes)]
        if shape == "double" and len(schema) < 3:
            shape = "conditional"
        if shape == "marginal":
            chosen = rng.choice(len(names), size=1, replace=False)
        elif shape == "conditional":
            chosen = rng.choice(len(names), size=2, replace=False)
        else:
            chosen = rng.choice(len(names), size=3, replace=False)
        parts = [assignment(names[index]) for index in chosen]
        if len(parts) == 1:
            queries.append(parts[0])
        else:
            queries.append(f"{parts[0]} | {', '.join(parts[1:])}")
    return queries


def replay_session(model, queries: Sequence[str], requests: int) -> dict:
    """Replay ``queries`` closed-loop against a fresh query session.

    One client asks ``requests`` queries back-to-back, cycling
    ``queries``, each the moment the previous answer lands.  The
    :class:`~repro.api.session.QuerySession` is created inside the timed
    replay, so plan compilation and first-touch marginal costs are part
    of the measured traffic — the cold/warm mix a freshly deployed
    replica actually serves.  Returns the client count, total requests,
    wall-clock, sustained RPS, and p50/p99/max latency in ms.
    """
    from repro.api.session import QuerySession

    if requests < 1:
        raise DataError(f"requests must be >= 1, got {requests}")
    if not queries:
        raise DataError("the replay mix holds no queries")
    latencies = []
    started = time.perf_counter()
    ask = QuerySession(model).ask
    for index in range(requests):
        start = time.perf_counter()
        ask(queries[index % len(queries)])
        latencies.append(time.perf_counter() - start)
    elapsed = time.perf_counter() - started
    return {
        "clients": 1,
        "requests": requests,
        "elapsed_s": elapsed,
        "rps": requests / elapsed if elapsed > 0 else 0.0,
        **latency_stats(latencies),
    }
