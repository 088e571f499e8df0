"""Tests for the cross-run scenario scorecard aggregator and renderer."""

import json

from repro.eval.scorecard import (
    build_scorecard,
    render_scorecard_markdown,
    scenario_entries_from_trajectory,
)


def outcome(
    scenario="single-pairwise",
    tier="smoke",
    passed=True,
    precision=1.0,
    recall=1.0,
    kl=0.01,
    seconds=0.1,
    query_p99=0.4,
    gate_failures=(),
    slo_failures=(),
):
    return {
        "scenario": scenario,
        "tier": tier,
        "smoke": True,
        "passed": passed,
        "precision": precision,
        "recall": recall,
        "kl_empirical_fitted": kl,
        "seconds": seconds,
        "query_replay": {"p99_ms": query_p99},
        "gate_failures": list(gate_failures),
        "slo_failures": list(slo_failures),
    }


class TestTrajectoryEntries:
    def test_reads_run_all_records(self):
        records = [
            {
                "timestamp": "2026-01-01T00:00:00Z",
                "scenarios": [outcome("alpha", passed=True)],
            },
            {
                "timestamp": "2026-01-02T00:00:00Z",
                "scenarios": [outcome("alpha", passed=False)],
            },
        ]
        entries = scenario_entries_from_trajectory(records)
        assert [e["passed"] for e in entries] == [True, False]

    def test_record_without_scenarios_is_skipped(self):
        assert scenario_entries_from_trajectory([{"timestamp": "x"}]) == []

    def test_reads_scenarios_run_outcomes(self):
        # ``repro scenarios run --json`` writes bare outcome dicts, with
        # no timestamp: they keep the order given, before any record.
        entries = scenario_entries_from_trajectory(
            [
                {
                    "timestamp": "2026-01-01T00:00:00Z",
                    "git_sha": "abc1234",
                    "scenarios": [outcome("alpha", passed=False)],
                },
                outcome("alpha", passed=True),
                outcome("beta", passed=False),
            ]
        )
        assert [(e["scenario"], e["passed"]) for e in entries] == [
            ("alpha", True),
            ("beta", False),
            ("alpha", False),
        ]
        assert [e["created_at"] for e in entries] == [
            "",
            "",
            "2026-01-01T00:00:00Z",
        ]
        assert entries[-1]["git_sha"] == "abc1234"


class TestBuildScorecard:
    def test_empty_entries(self):
        card = build_scorecard([])
        assert card["scenarios"] == []
        assert card["total_scenarios"] == 0
        assert card["total_outcomes"] == 0
        assert card["failing"] == []
        assert card["regressed"] == []

    def test_single_run_is_new(self):
        card = build_scorecard(
            [
                {
                    **scenario_entries_from_trajectory(
                        [
                            {
                                "timestamp": "2026-01-01T00:00:00Z",
                                "scenarios": [outcome()],
                            }
                        ]
                    )[0]
                }
            ]
        )
        [row] = card["scenarios"]
        assert row["runs"] == 1
        assert row["trend"] == "new"
        assert row["passed"] is True
        assert card["failing"] == []

    def _card(self, first_passed, then_passed):
        records = [
            {
                "timestamp": f"2026-01-0{day}T00:00:00Z",
                "scenarios": [outcome(passed=passed)],
            }
            for day, passed in ((1, first_passed), (2, then_passed))
        ]
        return build_scorecard(scenario_entries_from_trajectory(records))

    def test_trend_regressed(self):
        card = self._card(True, False)
        assert card["scenarios"][0]["trend"] == "regressed"
        assert card["regressed"] == ["single-pairwise"]
        assert card["failing"] == ["single-pairwise"]

    def test_trend_improved(self):
        card = self._card(False, True)
        assert card["scenarios"][0]["trend"] == "improved"
        assert card["regressed"] == []
        assert card["failing"] == []

    def test_trend_steady(self):
        card = self._card(True, True)
        assert card["scenarios"][0]["trend"] == "steady"
        assert card["scenarios"][0]["runs"] == 2

    def test_latest_metrics_win(self):
        records = [
            {
                "timestamp": "2026-01-01T00:00:00Z",
                "scenarios": [outcome(precision=0.5)],
            },
            {
                "timestamp": "2026-01-02T00:00:00Z",
                "scenarios": [outcome(precision=0.9)],
            },
        ]
        card = build_scorecard(scenario_entries_from_trajectory(records))
        assert card["scenarios"][0]["precision"] == 0.9

    def test_json_round_trip(self):
        card = self._card(True, False)
        assert json.loads(json.dumps(card)) == card


class TestRenderMarkdown:
    def test_empty_scorecard_renders_placeholder(self):
        text = render_scorecard_markdown(build_scorecard([]))
        assert "# Scenario scorecard" in text
        assert "No scenario outcomes recorded." in text

    def test_golden_markdown(self):
        """The exact rendering contract, pinned byte-for-byte."""
        entries = scenario_entries_from_trajectory(
            [
                {
                    "timestamp": "2026-01-01T00:00:00Z",
                    "git_sha": "abc1234",
                    "scenarios": [
                        outcome("alpha", precision=0.75, recall=0.5),
                        outcome(
                            "zulu",
                            tier="stress",
                            passed=False,
                            precision=0.2,
                            gate_failures=["precision 0.200 < 0.900"],
                            slo_failures=["query p99 9.0ms > 2.0ms"],
                        ),
                    ],
                }
            ]
        )
        text = render_scorecard_markdown(build_scorecard(entries))
        assert text == (
            "# Scenario scorecard\n"
            "\n"
            "2 scenarios, 2 recorded outcomes; 1 failing, 0 regressed.\n"
            "\n"
            "| scenario | tier | runs | status | trend | precision | "
            "recall | KL | q p99 ms | last run |\n"
            "| --- | --- | --- | --- | --- | --- | --- | --- | --- "
            "| --- |\n"
            "| alpha | smoke | 1 | pass | new | 0.75 | 0.50 | 0.0100 "
            "| 0.4 | 2026-01-01T00:00:00Z |\n"
            "| zulu | stress | 1 | FAIL | new | 0.20 | 1.00 | 0.0100 "
            "| 0.4 | 2026-01-01T00:00:00Z |\n"
            "\n"
            "## Failures\n"
            "\n"
            "- **zulu**: precision 0.200 < 0.900; "
            "query p99 9.0ms > 2.0ms\n"
        )

    def test_failure_section_lists_misses(self):
        entries = scenario_entries_from_trajectory(
            [
                {
                    "timestamp": "2026-01-01T00:00:00Z",
                    "scenarios": [
                        outcome(
                            passed=False,
                            slo_failures=["scan p99 99ms > 10ms"],
                        )
                    ],
                }
            ]
        )
        text = render_scorecard_markdown(build_scorecard(entries))
        assert "## Failures" in text
        assert "scan p99 99ms > 10ms" in text
