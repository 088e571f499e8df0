"""Batch query throughput: one warm session vs a fresh session per query.

Measures queries/sec for 1k mixed conditional queries on the paper model.
The batch runs in one :class:`QuerySession`: plans compile once, and each
distinct marginal is computed once from the model's ``FactoredJoint``.
The baseline amortizes nothing, as ``kb.query`` did before sessions: every
query opens a fresh session on a fresh copy of the model, so it parses its
text and builds its own ``FactoredJoint``.  Shape criteria: the batch is
at least 5x the per-query baseline, the two give the same bits, and both
agree with Appendix-B elimination.
"""

import time

import pytest

from repro.api.session import QuerySession
from repro.core.query import Query
from repro.discovery.engine import discover
from repro.maxent import elimination

N_QUERIES = 1000


@pytest.fixture(scope="module")
def model():
    from repro.eval.paper import paper_table

    return discover(paper_table()).model


@pytest.fixture(scope="module")
def queries(model):
    """1k mixed conditional queries cycling over realistic traffic shapes."""
    schema = model.schema
    pool = []
    for attribute in schema:
        for value in attribute.values:
            target = f"{attribute.name}={value}"
            pool.append(target)
            for other in schema:
                if other.name == attribute.name:
                    continue
                for evidence_value in other.values:
                    pool.append(
                        f"{target} | {other.name}={evidence_value}"
                    )
    return [pool[i % len(pool)] for i in range(N_QUERIES)]


def fresh_session_per_query(model, queries):
    """The unamortized path: parse and a ``FactoredJoint`` build per query."""
    return [QuerySession(model.copy()).ask(text) for text in queries]


def test_bench_batch(benchmark, model, queries):
    session = QuerySession(model)
    results = benchmark(session.batch, queries)
    assert len(results) == N_QUERIES
    assert all(0.0 <= p <= 1.0 for p in results)


def test_bench_fresh_session_per_query(benchmark, model, queries):
    results = benchmark(fresh_session_per_query, model, queries)
    assert len(results) == N_QUERIES


def test_batch_speedup_over_fresh_sessions(model, queries, write_report):
    """Acceptance: one batched session beats a session per query by >= 5x."""
    start = time.perf_counter()
    sequential = fresh_session_per_query(model, queries)
    sequential_seconds = time.perf_counter() - start

    # A cold session on a copy, so the batch pays for its one build too.
    session = QuerySession(model.copy())
    start = time.perf_counter()
    batched = session.batch(queries)
    batch_seconds = time.perf_counter() - start

    assert batched == sequential
    for text in set(queries):
        query = Query.parse(model.schema, text)
        expected = elimination.query(model, query.target, query.given)
        assert session.ask(text) == pytest.approx(expected, rel=1e-9)

    speedup = sequential_seconds / batch_seconds
    rows = [
        ("fresh session per query", sequential_seconds),
        ("QuerySession.batch", batch_seconds),
    ]
    lines = [
        f"BATCH QUERY THROUGHPUT ({N_QUERIES} mixed conditional queries)",
        "",
        f"{'path':<36} {'seconds':>9} {'queries/sec':>12}",
    ]
    for label, seconds in rows:
        lines.append(f"{label:<36} {seconds:>9.4f} {N_QUERIES / seconds:>12.0f}")
    lines.append("")
    lines.append(f"batch speedup over a session per query: {speedup:.1f}x")
    write_report("batch_query.txt", "\n".join(lines))

    assert speedup >= 5.0, (
        f"batched evaluation only {speedup:.1f}x faster than a fresh "
        f"session per query (need >= 5x)"
    )
