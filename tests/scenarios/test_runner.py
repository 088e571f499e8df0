"""Tests for the conformance runner: scoring, gates, matrix, JSON."""

import json

import pytest

from repro.discovery.trace import score_constraint_keys
from repro.scenarios import (
    ConformanceGates,
    Scenario,
    ScenarioInstance,
    outcome_to_dict,
    run_matrix,
    run_scenario,
    scenario_names,
)
from repro.scenarios.runner import check_gates


class TestScoreConstraintKeys:
    def test_perfect_recovery(self):
        truth = {(("A", "B"), (0, 1))}
        score = score_constraint_keys(truth, set(truth))
        assert score.precision == 1.0
        assert score.recall == 1.0
        assert score.false_alarms == ()
        assert score.missed == ()

    def test_false_alarm_and_miss(self):
        truth = {(("A", "B"), (0, 1)), (("B", "C"), (1, 1))}
        found = {(("A", "B"), (0, 1)), (("A", "C"), (0, 0))}
        score = score_constraint_keys(truth, found)
        assert score.precision == pytest.approx(0.5)
        assert score.recall == pytest.approx(0.5)
        assert score.false_alarms == ((("A", "C"), (0, 0)),)
        assert score.missed == ((("B", "C"), (1, 1)),)

    def test_empty_truth_empty_found_is_perfect(self):
        score = score_constraint_keys(set(), set())
        assert score.precision == 1.0
        assert score.recall == 1.0

    def test_nothing_found_with_truth_scores_zero(self):
        """Matches recovery_score: a find-nothing run cannot pass a
        precision gate vacuously."""
        score = score_constraint_keys({(("A", "B"), (0, 0))}, set())
        assert score.precision == 0.0
        assert score.recall == 0.0

    def test_empty_truth_with_findings_is_imprecise(self):
        score = score_constraint_keys(set(), {(("A", "B"), (0, 0))})
        assert score.precision == 0.0
        assert score.recall == 1.0


class TestCheckGates:
    def _score(self, precision, recall, alarms=0):
        truth = {(("A", "B"), (0, i)) for i in range(4)}
        hits = int(round(recall * len(truth)))
        found = set(list(truth)[:hits])
        found |= {(("X", "Y"), (0, i)) for i in range(alarms)}
        score = score_constraint_keys(truth, found)
        return score

    def test_all_gates_pass(self):
        score = score_constraint_keys({(("A", "B"), (0, 0))}, {(("A", "B"), (0, 0))})
        gates = ConformanceGates(min_precision=1.0, min_recall=1.0, max_kl=0.1)
        assert check_gates(gates, score, kl=0.05) == []

    def test_each_gate_reports(self):
        score = self._score(0.5, 0.5, alarms=2)
        gates = ConformanceGates(
            min_precision=0.9,
            min_recall=0.9,
            max_kl=0.01,
            max_false_alarms=1,
        )
        failures = check_gates(gates, score, kl=0.5)
        text = "\n".join(failures)
        assert len(failures) == 4
        assert "precision" in text
        assert "recall" in text
        assert "KL" in text
        assert "false alarms" in text


class TestRunScenario:
    def test_single_scenario_outcome(self):
        outcome = run_scenario("single-pairwise", smoke=True)
        assert outcome.scenario == "single-pairwise"
        assert outcome.smoke is True
        assert outcome.truth_size == 1
        assert outcome.recall == 1.0
        assert outcome.kl_empirical_fitted >= 0.0
        assert outcome.seconds > 0.0
        # Profile instrumentation flows through from the engine.
        assert outcome.scan_seconds > 0.0
        assert outcome.fit_sweeps > 0
        assert outcome.passed
        # Both baseline selectors ran and were scored.
        assert {b.selector for b in outcome.baselines} == {"chi2", "bic"}

    def test_no_baselines(self):
        outcome = run_scenario(
            "independence", smoke=True, include_baselines=False
        )
        assert outcome.baselines == []
        assert outcome.constraints_found == 0
        assert outcome.precision == 1.0
        assert outcome.recall == 1.0

    def test_outcome_to_dict_round_trips_json(self):
        outcome = run_scenario("near-deterministic", smoke=True)
        data = outcome_to_dict(outcome)
        payload = json.loads(json.dumps(data))
        for key in (
            "scenario",
            "precision",
            "recall",
            "kl_empirical_fitted",
            "stage_scan_s",
            "stage_fit_s",
            "stage_verify_s",
            "baselines",
            "gate_failures",
            "passed",
        ):
            assert key in payload
        assert payload["passed"] is True
        assert payload["scenario"] == "near-deterministic"


    def test_ad_hoc_scenario_runs_and_records(self):
        from repro.synth.generators import independent_population

        def build(rng, n):
            population = independent_population(rng, 3)
            return ScenarioInstance(
                table=population.sample_table(n, rng),
                truth=frozenset(),
                population=population,
            )

        scenario = Scenario(
            name="ad-hoc", description="outside the table", seed=7, builder=build
        )
        outcome = run_scenario(scenario, include_baselines=False, include_replay=False)
        assert outcome.scenario == "ad-hoc"
        # Its record is the same JSON outcome a fleet scenario writes.
        record = json.loads(json.dumps(outcome_to_dict(outcome)))
        assert (record["scenario"], record["max_order"]) == ("ad-hoc", 2)
        assert record["passed"] is outcome.passed


class TestRunMatrix:
    def test_full_registry_smoke_conformance(self):
        """The CI contract: every default-tier scenario passes its gates.

        The default fleet is the smoke+full tiers; the stress tier runs
        in the nightly matrix (``run_matrix(tiers="stress")``), not here.
        """
        from repro.scenarios import DEFAULT_TIERS

        outcomes = run_matrix(smoke=True, include_baselines=False)
        assert len(outcomes) >= 20
        assert [o.scenario for o in outcomes] == scenario_names(
            DEFAULT_TIERS
        )
        failures = {
            o.scenario: o.gate_failures + o.slo_failures
            for o in outcomes
            if not o.passed
        }
        assert failures == {}

    def test_selection_by_name(self):
        outcomes = run_matrix(
            names=["independence", "skewed-marginals"],
            smoke=True,
            include_baselines=False,
        )
        assert [o.scenario for o in outcomes] == [
            "independence",
            "skewed-marginals",
        ]


class TestConformanceReport:
    def test_report_renders_all_scenarios(self):
        from repro.eval.conformance import conformance_report

        outcomes = run_matrix(
            names=["independence", "single-pairwise"], smoke=True
        )
        text = conformance_report(outcomes)
        assert "SCENARIO CONFORMANCE MATRIX" in text
        assert "independence" in text
        assert "single-pairwise" in text
        assert "all conformance gates and latency SLOs passed" in text
        assert "selector comparison" in text
        assert "chi2" in text and "bic" in text

    def test_report_lists_gate_failures(self):
        from repro.eval.conformance import conformance_report

        outcome = run_scenario("independence", smoke=True)
        outcome.gate_failures = ["precision 0.000 < 1.000"]
        text = conformance_report([outcome])
        assert "gate failures:" in text
        assert "independence: precision" in text
