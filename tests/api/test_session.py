"""Tests for query sessions: plans, batching, caching, facade integration."""

import numpy as np
import pytest

import repro
import repro.api
from repro.api.plan import QueryPlan, compile_query
from repro.api.session import QuerySession
from repro.core.knowledge_base import ProbabilisticKnowledgeBase
from repro.core.query import Query
from repro.discovery.engine import discover
from repro.exceptions import QueryError
from repro.maxent import elimination
from repro.maxent.model import MaxEntModel

MIXED_QUERIES = [
    "CANCER=yes",
    "CANCER=yes | SMOKING=smoker",
    "CANCER=yes | SMOKING=smoker, FAMILY_HISTORY=yes",
    "SMOKING=smoker | CANCER=yes",
    "FAMILY_HISTORY=yes",
    "SMOKING=non-smoker | FAMILY_HISTORY=no",
]


@pytest.fixture
def model(table):
    return discover(table).model


@pytest.fixture
def session(model):
    return QuerySession(model)


@pytest.fixture
def kb(table):
    return ProbabilisticKnowledgeBase.from_data(table)


def _dense_probability(model, joint, target, given):
    """Oracle: ``P(target, given)`` summed out of the dense joint."""
    indices = model.schema.indices_of({**given, **target})
    cell = tuple(indices.get(name, slice(None)) for name in model.schema.names)
    return float(joint[cell].sum())


class TestPlanCompilation:
    def test_plan_resolves_indices(self, session):
        plan = session.compile("CANCER=yes | SMOKING=smoker")
        assert plan.target == (("CANCER", 0),)
        assert plan.given == (("SMOKING", 0),)
        assert plan.joint_subset == ("SMOKING", "CANCER")
        assert plan.given_subset == ("SMOKING",)
        assert plan.joint_index == (0, 0)
        assert plan.given_index == (0,)
        assert plan.description == "P(CANCER=yes | SMOKING=smoker)"

    def test_string_plans_are_cached(self, session):
        first = session.compile("CANCER=yes | SMOKING=smoker")
        second = session.compile("CANCER=yes | SMOKING=smoker")
        assert first is second

    def test_precompiled_plan_passes_through(self, session):
        plan = session.compile("CANCER=yes")
        assert session.compile(plan) is plan

    def test_query_object_compiles(self, session):
        plan = session.compile(
            Query({"CANCER": "yes"}, {"SMOKING": "smoker"})
        )
        assert isinstance(plan, QueryPlan)
        assert session.evaluate(plan) == pytest.approx(
            session.ask("CANCER=yes | SMOKING=smoker")
        )

    def test_unknown_attribute_rejected_at_compile(self, session):
        with pytest.raises(QueryError, match="no attribute"):
            session.compile("WEIGHT=high")

    def test_conflicting_dict_overlap_rejected(self, session):
        query = Query({"CANCER": "yes"}, {"CANCER": "no"})
        with pytest.raises(QueryError, match="conflict"):
            session.compile(query)

    def test_consistent_dict_overlap_is_certainty(self, session):
        assert session.probability(
            {"CANCER": "yes"}, {"CANCER": "yes"}
        ) == pytest.approx(1.0)

    def test_empty_target_rejected(self, model):
        with pytest.raises(QueryError, match="empty target"):
            compile_query(model.schema, Query({}, {"CANCER": "yes"}))


def model_answer(model, text):
    """``text`` answered by the model's own ratio of two probabilities."""
    query = Query.parse(model.schema, text)
    if not query.given:
        return model.probability(query.target)
    return model.conditional(query.target, query.given)


class TestEvaluation:
    def test_matches_model_conditional(self, model, session):
        for text in MIXED_QUERIES:
            assert session.ask(text) == model_answer(model, text)

    def test_empty_dict_target_is_one(self, session):
        assert session.probability({}) == 1.0

    def test_zero_evidence_raises(self, schema):
        margins = {
            "SMOKING": np.array([1.0, 0.0, 0.0]),
            "CANCER": np.array([0.5, 0.5]),
            "FAMILY_HISTORY": np.array([0.5, 0.5]),
        }
        session = QuerySession(MaxEntModel.independent(schema, margins))
        with pytest.raises(QueryError, match="zero"):
            session.ask("CANCER=yes | SMOKING=non-smoker")

    def test_distribution_sums_to_one(self, session):
        distribution = session.distribution("CANCER", {"SMOKING": "smoker"})
        assert set(distribution) == {"yes", "no"}
        assert sum(distribution.values()) == pytest.approx(1.0)

    def test_distribution_of_fixed_attribute(self, session):
        with pytest.raises(QueryError, match="fixed"):
            session.distribution("CANCER", {"CANCER": "yes"})


class TestBatch:
    def test_batch_equals_sequential(self, model, session):
        queries = MIXED_QUERIES * 5
        batched = session.batch(queries)
        sequential = [QuerySession(model).ask(text) for text in queries]
        assert batched == sequential

    def test_batch_shares_marginals(self, session):
        session.batch(MIXED_QUERIES * 10)
        info = session.cache_info()
        assert info["hits"] > info["misses"]
        # Only a handful of distinct subsets exist among the queries.
        assert info["marginals_cached"] <= 8

    def test_batch_accepts_mixed_inputs(self, session):
        plan = session.compile("CANCER=yes")
        query = Query({"CANCER": "yes"}, {"SMOKING": "smoker"})
        values = session.batch([plan, query, "FAMILY_HISTORY=yes"])
        assert values[0] == pytest.approx(session.ask("CANCER=yes"))
        assert values[1] == pytest.approx(
            session.ask("CANCER=yes | SMOKING=smoker")
        )

    def test_batch_agrees_with_both_oracles(self, model):
        queries = MIXED_QUERIES * 3
        batched = QuerySession(model).batch(queries)
        joint = model.joint()
        for text, value in zip(queries, batched):
            query = Query.parse(model.schema, text)
            factored = elimination.query(model, query.target, query.given)
            assert value == pytest.approx(factored, abs=1e-12)
            numerator = _dense_probability(model, joint, query.target, query.given)
            denominator = _dense_probability(model, joint, query.given, {})
            assert value == pytest.approx(numerator / denominator, abs=1e-12)


class TestCacheLifecycle:
    def test_lru_respects_model_swap(self, table, schema):
        model_a = discover(table).model
        session = QuerySession(model_a)
        stale = session.ask("CANCER=yes | SMOKING=smoker")
        margins = {
            "SMOKING": np.array([0.2, 0.5, 0.3]),
            "CANCER": np.array([0.9, 0.1]),
            "FAMILY_HISTORY": np.array([0.5, 0.5]),
        }
        model_b = MaxEntModel.independent(schema, margins)
        session.set_model(model_b)
        fresh = session.ask("CANCER=yes | SMOKING=smoker")
        assert fresh != pytest.approx(stale)
        assert fresh == pytest.approx(
            model_b.conditional({"CANCER": "yes"}, {"SMOKING": "smoker"})
        )
        assert session.cache_info()["marginals_cached"] == 2

    def test_invalidate_after_inplace_mutation(self, session):
        before = session.ask("CANCER=yes")
        model = session.model
        model.margin_factors["CANCER"] = model.margin_factors["CANCER"] * [
            2.0,
            1.0,
        ]
        model.normalize()
        session.invalidate()
        after = session.ask("CANCER=yes")
        assert after != pytest.approx(before)
        assert after == pytest.approx(model.probability({"CANCER": "yes"}))

    def test_inplace_mutation_detected_without_invalidate(self, session):
        """The fingerprint check catches in-place edits automatically."""
        before = session.ask("CANCER=yes")
        model = session.model
        model.margin_factors["CANCER"][:] = [5.0, 1.0]
        model.normalize()
        after = session.ask("CANCER=yes")
        assert after != pytest.approx(before)
        assert after == pytest.approx(model.probability({"CANCER": "yes"}))

    def test_cached_marginals_are_read_only(self, session):
        table = session.marginal(("CANCER",))
        with pytest.raises(ValueError, match="read-only"):
            table *= 0.0
        # The failed writes corrupted nothing.
        assert session.ask("CANCER=yes") == pytest.approx(
            session.model.probability({"CANCER": "yes"})
        )

    def test_lru_eviction_keeps_answers_correct(self, model):
        session = QuerySession(model, cache_size=1)
        for text in MIXED_QUERIES * 3:
            assert session.ask(text) == model_answer(model, text)
        assert session.cache_info()["marginals_cached"] <= 1

    def test_bad_cache_size_rejected(self, model):
        with pytest.raises(QueryError, match="cache_size"):
            QuerySession(model, cache_size=0)


class TestFacade:
    def test_kb_session_roundtrip(self, kb):
        session = kb.session(cache_size=4)
        assert session.ask("CANCER=yes | SMOKING=smoker") == kb.query(
            "CANCER=yes | SMOKING=smoker"
        )

    def test_query_many_matches_single(self, kb):
        values = kb.query_many(MIXED_QUERIES)
        assert values == pytest.approx(
            [kb.query(text) for text in MIXED_QUERIES]
        )

    def test_most_probable_on_paper_schema(self, kb):
        labels, probability = kb.most_probable()
        joint = kb.model.joint()
        best = np.unravel_index(np.argmax(joint), joint.shape)
        assert labels == {
            attribute.name: attribute.value_at(int(index))
            for attribute, index in zip(kb.schema, best)
        }
        assert probability == pytest.approx(float(joint[best]), rel=1e-12)
        labels, probability = kb.most_probable({"SMOKING": "smoker"})
        assert labels["SMOKING"] == "smoker"
        assert labels["CANCER"] == "no"
        assert 0.0 < probability <= 1.0

    def test_no_backend_to_choose(self, kb):
        """One query path: no backend is exported, named or accepted."""
        exported = [*repro.__all__, *repro.api.__all__]
        assert not [name for name in exported if "backend" in name.lower()]
        assert {name for name in exported if name.startswith("Query")} == {
            "Query",
            "QueryError",
            "QueryPlan",
            "QuerySession",
        }
        with pytest.raises(TypeError):
            kb.session(backend="dense")
        with pytest.raises(TypeError):
            kb.query_many(MIXED_QUERIES, backend="dense")
        assert "backend" not in kb.session().cache_info()

    def test_default_session_is_shared(self, kb):
        kb.query("CANCER=yes")
        kb.query("CANCER=yes")
        assert kb._session.cache_info()["hits"] >= 1
