"""End-to-end integration tests across the full pipeline.

Each test walks the complete paper workflow: raw samples → contingency
table → discovery → knowledge base → queries / rules / inference — on the
paper's data and on the synthetic survey worlds.
"""

import numpy as np
import pytest

from repro.core.inference import RuleEngine
from repro.core.knowledge_base import ProbabilisticKnowledgeBase
from repro.core.query import Query
from repro.data.dataset import Dataset
from repro.discovery.config import DiscoveryConfig
from repro.maxent import elimination
from repro.synth.surveys import (
    medical_survey_population,
    smoking_cancer_population,
    telemetry_population,
)


class TestPaperWorkflow:
    def test_raw_samples_to_rules(self, schema, table, rng):
        """The full Appendix-A-to-expert-system path."""
        dataset = Dataset.from_joint(
            schema, table.probabilities(), 20000, rng
        )
        kb = ProbabilisticKnowledgeBase.from_data(dataset)
        # The dominant association must survive the sampling noise.
        smoker = kb.probability({"CANCER": "yes"}, {"SMOKING": "smoker"})
        non_smoker = kb.probability(
            {"CANCER": "yes"}, {"SMOKING": "non-smoker"}
        )
        assert smoker > non_smoker

        rules = kb.rules(max_conditions=2, min_support=0.005)
        engine = RuleEngine(rules)
        conclusion = engine.conclude({"SMOKING": "smoker"}, "CANCER")
        assert conclusion.value == "no"  # base rate dominates
        assert conclusion.probability == pytest.approx(
            1.0 - smoker, abs=1e-9
        )

    def test_save_load_query_consistency(self, table, tmp_path):
        kb = ProbabilisticKnowledgeBase.from_data(table)
        path = tmp_path / "kb.json"
        kb.save(path)
        loaded = ProbabilisticKnowledgeBase.load(path)
        for text in [
            "CANCER=yes | SMOKING=smoker, FAMILY_HISTORY=yes",
            "SMOKING=smoker | CANCER=yes",
            "FAMILY_HISTORY=yes | CANCER=yes",
        ]:
            assert loaded.query(text) == kb.query(text)
            query = Query.parse(loaded.schema, text)
            expected = elimination.query(loaded.model, query.target, query.given)
            assert kb.query(text) == pytest.approx(expected, rel=1e-9)


class TestSurveyWorlds:
    def test_medical_survey_three_way_effect(self):
        """Order-3 discovery finds structure in the medical world: the
        sedentary∧poor-diet∧heart-disease excess shows up as elevated
        conditional risk."""
        population = medical_survey_population()
        rng = np.random.default_rng(11)
        table = population.sample_table(60000, rng)
        kb = ProbabilisticKnowledgeBase.from_data(table)
        risky = kb.probability(
            {"HEART_DISEASE": "yes"},
            {"EXERCISE": "sedentary", "DIET": "poor"},
        )
        safe = kb.probability(
            {"HEART_DISEASE": "yes"},
            {"EXERCISE": "active", "DIET": "balanced"},
        )
        assert risky > 1.5 * safe

    def test_telemetry_anomaly_rules(self):
        population = telemetry_population()
        rng = np.random.default_rng(13)
        table = population.sample_table(50000, rng)
        kb = ProbabilisticKnowledgeBase.from_data(table)
        # Vibration-anomaly association must be discovered.
        found_subsets = {c.attributes for c in kb.constraints}
        assert ("VIBRATION", "ANOMALY") in found_subsets
        # And expressed in conditional probabilities.
        high = kb.probability({"ANOMALY": "detected"}, {"VIBRATION": "high"})
        low = kb.probability({"ANOMALY": "detected"}, {"VIBRATION": "low"})
        assert high > 2 * low

    def test_smoking_world_round_trip(self):
        """Sampling the smoking world and rediscovering reproduces the
        planted associations' directions."""
        population = smoking_cancer_population()
        rng = np.random.default_rng(17)
        table = population.sample_table(40000, rng)
        kb = ProbabilisticKnowledgeBase.from_data(
            table, DiscoveryConfig(max_order=2)
        )
        smoker = kb.probability({"CANCER": "yes"}, {"SMOKING": "smoker"})
        base = kb.probability({"CANCER": "yes"})
        history = kb.probability(
            {"CANCER": "yes"}, {"FAMILY_HISTORY": "yes"}
        )
        assert smoker > base
        assert history > base


class TestHoldoutEvaluation:
    def test_discovered_model_beats_independence_on_holdout(self):
        """Log-likelihood on held-out data: the discovered model beats the
        independence baseline and does not collapse to the training
        frequencies' overfit."""
        from repro.baselines.bic_selector import log_likelihood
        from repro.baselines.independence import independence_model
        from repro.discovery.engine import discover

        population = medical_survey_population()
        rng = np.random.default_rng(23)
        train = population.sample(40000, rng).to_contingency()
        test = population.sample(40000, rng).to_contingency()

        discovered = discover(train, DiscoveryConfig(max_order=2)).model
        independent = independence_model(train)
        assert log_likelihood(test, discovered) > log_likelihood(
            test, independent
        )
