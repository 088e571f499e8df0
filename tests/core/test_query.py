"""Tests for query parsing and evaluation through a query session."""

import pytest

from repro.api.session import QuerySession
from repro.baselines.independence import independence_model
from repro.core.query import Query, parse_assignment
from repro.discovery.engine import discover
from repro.exceptions import QueryError
from repro.maxent import elimination


@pytest.fixture
def model(table):
    return discover(table).model


class TestParsing:
    def test_single_term(self, schema):
        assert parse_assignment(schema, "CANCER=yes") == {"CANCER": "yes"}

    def test_multiple_terms(self, schema):
        parsed = parse_assignment(schema, "CANCER=no, SMOKING=smoker")
        assert parsed == {"CANCER": "no", "SMOKING": "smoker"}

    def test_whitespace_tolerant(self, schema):
        assert parse_assignment(schema, "  CANCER = yes ") == {
            "CANCER": "yes"
        }

    def test_unknown_attribute(self, schema):
        with pytest.raises(QueryError, match="no attribute"):
            parse_assignment(schema, "WEIGHT=high")

    def test_unknown_value(self, schema):
        with pytest.raises(QueryError, match="unknown value"):
            parse_assignment(schema, "CANCER=maybe")

    def test_malformed(self, schema):
        with pytest.raises(QueryError, match="malformed"):
            parse_assignment(schema, "CANCER")

    def test_duplicate_attribute(self, schema):
        with pytest.raises(QueryError, match="twice"):
            parse_assignment(schema, "CANCER=yes, CANCER=no")

    def test_empty(self, schema):
        with pytest.raises(QueryError, match="no assignments"):
            parse_assignment(schema, "  ,  ")

    def test_query_with_evidence(self, schema):
        query = Query.parse(schema, "CANCER=yes | SMOKING=smoker")
        assert query.target == {"CANCER": "yes"}
        assert query.given == {"SMOKING": "smoker"}

    def test_query_without_evidence(self, schema):
        query = Query.parse(schema, "CANCER=yes")
        assert query.given == {}

    def test_conflicting_overlap_rejected(self, schema):
        with pytest.raises(QueryError, match="both target and evidence"):
            Query.parse(schema, "CANCER=yes | CANCER=no")

    def test_consistent_overlap_rejected(self, schema):
        """Even P(A=x | A=x) is refused: it is trivially 1 and almost
        certainly a mistake."""
        with pytest.raises(QueryError, match="both target and evidence"):
            Query.parse(schema, "CANCER=yes | CANCER=yes")

    def test_overlap_among_many_terms_rejected(self, schema):
        with pytest.raises(QueryError, match="SMOKING"):
            Query.parse(
                schema, "SMOKING=smoker | FAMILY_HISTORY=yes, SMOKING=non-smoker"
            )

    def test_describe(self, schema):
        query = Query.parse(schema, "CANCER=yes | SMOKING=smoker")
        assert query.describe() == "P(CANCER=yes | SMOKING=smoker)"


class TestEngine:
    def test_marginal_query(self, model):
        engine = QuerySession(model)
        assert engine.ask("CANCER=yes") == pytest.approx(433 / 3428, abs=1e-6)

    def test_conditional_query(self, model):
        engine = QuerySession(model)
        probability = engine.ask("CANCER=yes | SMOKING=smoker")
        assert probability == pytest.approx(240 / 1290, abs=0.01)

    def test_elimination_path_agrees(self, model):
        engine = QuerySession(model)
        for text in [
            "CANCER=yes",
            "CANCER=yes | SMOKING=smoker",
            "CANCER=yes | SMOKING=smoker, FAMILY_HISTORY=yes",
        ]:
            query = Query.parse(model.schema, text)
            expected = elimination.query(model, query.target, query.given)
            assert engine.ask(text) == pytest.approx(expected, rel=1e-9)

    def test_distribution_sums_to_one(self, model):
        engine = QuerySession(model)
        distribution = engine.distribution(
            "CANCER", {"SMOKING": "smoker"}
        )
        assert set(distribution) == {"yes", "no"}
        assert sum(distribution.values()) == pytest.approx(1.0)

    def test_distribution_of_fixed_attribute(self, model):
        engine = QuerySession(model)
        with pytest.raises(QueryError, match="fixed"):
            engine.distribution("CANCER", {"CANCER": "yes"})

    def test_bayes_consistency(self, model):
        """P(A|B) P(B) == P(B|A) P(A) across the engine."""
        engine = QuerySession(model)
        p_a_given_b = engine.probability(
            {"CANCER": "yes"}, {"SMOKING": "smoker"}
        )
        p_b_given_a = engine.probability(
            {"SMOKING": "smoker"}, {"CANCER": "yes"}
        )
        p_a = engine.probability({"CANCER": "yes"})
        p_b = engine.probability({"SMOKING": "smoker"})
        assert p_a_given_b * p_b == pytest.approx(p_b_given_a * p_a)

    def test_independence_model_queries(self, table):
        engine = QuerySession(independence_model(table))
        # Under independence, conditioning changes nothing.
        assert engine.ask("CANCER=yes | SMOKING=smoker") == pytest.approx(
            engine.ask("CANCER=yes")
        )
