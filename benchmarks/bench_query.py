"""A3 — ablation: query throughput, session vs Appendix-B elimination.

Benchmarks conditional queries on the discovered paper model through the
query path — a :class:`~repro.api.session.QuerySession` reading the
model's ``FactoredJoint`` — and through the paper's Appendix-B variable
elimination (:func:`repro.maxent.elimination.query`), which stays as the
paper's evaluation and as an oracle.  Shape criterion: the two agree to
1e-9.
"""

import pytest

from repro.api.session import QuerySession
from repro.discovery.engine import discover
from repro.maxent import elimination

QUERIES = [
    ({"CANCER": "yes"}, {"SMOKING": "smoker"}),
    ({"CANCER": "yes"}, {"SMOKING": "smoker", "FAMILY_HISTORY": "yes"}),
    ({"SMOKING": "smoker"}, {"CANCER": "yes"}),
    ({"FAMILY_HISTORY": "yes"}, {}),
]


@pytest.fixture(scope="module")
def model(request):
    from repro.eval.paper import paper_table

    return discover(paper_table()).model


def test_bench_query_session(benchmark, model):
    session = QuerySession(model)

    def run_all():
        return [session.probability(t, g) for t, g in QUERIES]

    results = benchmark(run_all)
    assert all(0.0 <= p <= 1.0 for p in results)


def test_bench_query_elimination(benchmark, model):
    def run_all():
        return [elimination.query(model, t, g) for t, g in QUERIES]

    results = benchmark(run_all)
    session = QuerySession(model)
    expected = [session.probability(t, g) for t, g in QUERIES]
    assert results == pytest.approx(expected, rel=1e-9)


def test_bench_rule_generation(benchmark, model):
    from repro.core.rules import RuleGenerator

    generator = RuleGenerator(model)
    rules = benchmark(generator.exhaustive, 2)
    assert len(rules) > 50
