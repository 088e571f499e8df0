"""Tests for knock-out query explanations."""

import pytest

from repro.core.explain import explain
from repro.core.knowledge_base import ProbabilisticKnowledgeBase
from repro.discovery.engine import discover
from repro.exceptions import QueryError


@pytest.fixture
def model(table):
    return discover(table).model


class TestExplain:
    def test_answer_matches_model(self, model):
        explanation = explain(
            model, {"CANCER": "yes"}, {"SMOKING": "smoker"}
        )
        assert explanation.answer == pytest.approx(
            model.conditional({"CANCER": "yes"}, {"SMOKING": "smoker"})
        )

    def test_answer_is_kb_query_bit_for_bit(self, table):
        kb = ProbabilisticKnowledgeBase.from_data(table)
        explanation = explain(kb.model, {"CANCER": "yes"}, {"SMOKING": "smoker"})
        assert explanation.answer == kb.query("CANCER=yes | SMOKING=smoker")

    def test_independence_baseline(self, model, table):
        explanation = explain(
            model, {"CANCER": "yes"}, {"SMOKING": "smoker"}
        )
        prior = table.count({"CANCER": "yes"}) / table.total
        assert explanation.independence_answer == pytest.approx(
            prior, abs=1e-6
        )
        # The acquired knowledge raised the smoker's risk above the prior.
        assert explanation.total_shift > 0.04

    def test_smoker_cancer_constraint_dominates(self, model, table):
        """Knocking out the smoker∧cancer cell must swing this query more
        than any other constraint."""
        explanation = explain(
            model, {"CANCER": "yes"}, {"SMOKING": "smoker"}
        )
        top = explanation.ranked()[0]
        assert set(top.key[0]) == {"SMOKING", "CANCER"}
        assert top.swing > 0

    def test_one_influence_per_constraint(self, model):
        explanation = explain(
            model, {"CANCER": "yes"}, {"SMOKING": "smoker"}
        )
        assert len(explanation.influences) == len(model.cell_factors)

    def test_unconditional_rejected(self, model):
        with pytest.raises(QueryError, match="evidence"):
            explain(model, {"CANCER": "yes"}, {})

    def test_describe_output(self, model, table):
        explanation = explain(
            model, {"CANCER": "yes"}, {"SMOKING": "smoker"}
        )
        text = explanation.describe(table.schema)
        assert "P(CANCER=yes | SMOKING=smoker)" in text
        assert "independence" in text
        assert "swing" in text

    def test_irrelevant_constraint_small_swing(self, model):
        """Constraints not touching the queried attributes barely move a
        query about the others."""
        explanation = explain(
            model, {"FAMILY_HISTORY": "yes"}, {"SMOKING": "non-smoker"}
        )
        for influence in explanation.influences:
            names = set(influence.key[0])
            if names == {"CANCER", "FAMILY_HISTORY"}:
                # CANCER is marginalized out; residual coupling is tiny.
                assert abs(influence.swing) < 0.02
