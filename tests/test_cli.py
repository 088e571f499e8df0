"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import main
from repro.data.dataset import Dataset
from repro.data.io import write_dataset_csv


@pytest.mark.parametrize(
    "command,needle",
    [
        (["figure1"], "FIGURE 1"),
        (["figure2"], "RELATION OF SMOKING TO CANCER"),
        (["table1"], "TABLE 1"),
        (["table2"], "TABLE 2"),
        (["solvers"], "gevarter"),
        (["appendixb"], "APPENDIX B"),
        (["discover"], "constraints found"),
        (["discover", "--max-order", "2"], "constraints found"),
        (["rules", "--min-probability", "0.7"], "IF "),
        (["loglinear"], "adopted margin"),
    ],
)
def test_commands_print_expected(capsys, command, needle):
    assert main(command) == 0
    output = capsys.readouterr().out
    assert needle in output


def test_discover_with_csv(capsys, schema, table, rng, tmp_path):
    dataset = Dataset.from_joint(schema, table.probabilities(), 3000, rng)
    path = tmp_path / "survey.csv"
    write_dataset_csv(dataset, path)
    assert main(["discover", "--csv", str(path)]) == 0
    output = capsys.readouterr().out
    assert "N=3000" in output


def test_discover_profile(capsys):
    assert main(["discover", "--profile", "--max-order", "2"]) == 0
    captured = capsys.readouterr()
    # The timing table is diagnostics: stderr only, stdout stays the
    # summary so piped output remains parseable.
    output = captured.err
    assert "discovery stage timings" not in captured.out
    assert "discovery stage timings" in output
    for stage in ("scan", "fit", "verify"):
        assert stage in output
    assert re.search(r"\d+ sweeps, \d+ cells", output)
    assert re.search(r"model side: [1-9]\d* component cells reduced", output)
    # The rendered table carries the per-stage work and share columns.
    assert "cells" in output
    assert "%" in output
    for header in ("stage", "calls", "work", "seconds", "share"):
        assert header in output


def test_discover_profile_with_save(capsys, tmp_path):
    target = tmp_path / "kb.json"
    assert main(
        ["discover", "--profile", "--max-order", "2", "--save", str(target)]
    ) == 0
    assert "discovery stage timings" in capsys.readouterr().err
    assert target.exists()


@pytest.mark.parametrize(
    "command",
    [
        ["discover", "--workers", "0", "--max-order", "2"],
        ["discover", "--workers", "-2", "--max-order", "2"],
        ["scenarios", "run", "--smoke", "--workers", "0"],
    ],
)
def test_bad_worker_count_rejected_at_parse_time(capsys, command):
    with pytest.raises(SystemExit) as excinfo:
        main(command)
    assert excinfo.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


def test_recovery_command(capsys):
    assert main(["recovery", "--trials", "1"]) == 0
    output = capsys.readouterr().out
    assert "mml" in output and "chi2" in output and "bic" in output


class TestQueryCommand:
    def test_single_expression(self, capsys):
        assert main(["query", "CANCER=yes | SMOKING=smoker"]) == 0
        output = capsys.readouterr().out
        assert "P(CANCER=yes | SMOKING=smoker) = 0.18" in output

    def test_multiple_expressions(self, capsys):
        assert main(["query", "CANCER=yes", "FAMILY_HISTORY=yes"]) == 0
        output = capsys.readouterr().out.strip().splitlines()
        assert len(output) == 2
        assert output[0].startswith("P(CANCER=yes) = ")

    def test_batch_file(self, capsys, tmp_path):
        batch = tmp_path / "queries.txt"
        batch.write_text("CANCER=yes\n\nCANCER=yes | SMOKING=smoker\n")
        assert main(["query", "--batch", str(batch)]) == 0
        output = capsys.readouterr().out.strip().splitlines()
        assert len(output) == 2

    def test_mpe(self, capsys):
        assert main(["query", "--mpe", "--given", "SMOKING=smoker"]) == 0
        output = capsys.readouterr().out
        assert "most probable explanation" in output
        assert "SMOKING = smoker" in output
        assert "CANCER = no" in output
        assert "P = " in output

    def test_saved_kb(self, capsys, tmp_path):
        from repro.core.knowledge_base import ProbabilisticKnowledgeBase
        from repro.eval.paper import paper_table

        kb = ProbabilisticKnowledgeBase.from_data(paper_table())
        path = tmp_path / "kb.json"
        kb.save(path)
        assert main(["query", "CANCER=yes", "--kb", str(path)]) == 0
        output = capsys.readouterr().out
        assert "P(CANCER=yes) = " in output

    def test_no_queries_errors(self, capsys):
        assert main(["query"]) == 2
        assert "no queries" in capsys.readouterr().out

    def test_bad_backend_rejected_before_fitting(self, capsys):
        """There is one query path, so ``--backend`` is no option at all."""
        for name in ("dense", "quantum"):
            with pytest.raises(SystemExit) as exit_info:
                main(["query", "CANCER=yes", "--backend", name])
            assert exit_info.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_has_no_backend_option(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--backend", "auto"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_overlap_reports_cleanly(self, capsys):
        assert main(["query", "CANCER=yes | CANCER=no"]) == 1
        assert "both target and evidence" in capsys.readouterr().err

    def test_missing_batch_file_reports_cleanly(self, capsys):
        assert main(["query", "--batch", "/nonexistent/queries.txt"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_kb_file_reports_cleanly(self, capsys):
        assert main(["query", "CANCER=yes", "--kb", "/nonexistent.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_mpe_with_expressions_rejected(self, capsys):
        assert main(["query", "CANCER=yes", "--mpe"]) == 2
        assert "--mpe" in capsys.readouterr().err

    def test_given_without_mpe_rejected(self, capsys):
        assert main(["query", "CANCER=yes", "--given", "SMOKING=smoker"]) == 2
        assert "--given" in capsys.readouterr().err


class TestUpdateCommand:
    def _write_csv(self, schema, table, rng, path, n):
        dataset = Dataset.from_joint(schema, table.probabilities(), n, rng)
        write_dataset_csv(dataset, path)

    def test_discover_save_then_update(
        self, capsys, schema, table, rng, tmp_path
    ):
        import json

        kb_path = tmp_path / "kb.json"
        assert main(["discover", "--save", str(kb_path)]) == 0
        assert "knowledge base saved" in capsys.readouterr().out
        assert json.loads(kb_path.read_text())["format_version"] == 4

        delta_path = tmp_path / "delta.csv"
        self._write_csv(schema, table, rng, delta_path, 400)
        assert main(
            ["update", "--kb", str(kb_path), "--csv", str(delta_path)]
        ) == 0
        output = capsys.readouterr().out
        assert "revision 1" in output
        assert "absorbed 400 samples" in output
        assert "N=3828" in output
        assert json.loads(kb_path.read_text())["sample_size"] == 3828

    def test_update_save_elsewhere(self, capsys, schema, table, rng, tmp_path):
        kb_path = tmp_path / "kb.json"
        assert main(["discover", "--save", str(kb_path)]) == 0
        delta_path = tmp_path / "delta.csv"
        self._write_csv(schema, table, rng, delta_path, 100)
        out_path = tmp_path / "kb2.json"
        capsys.readouterr()
        assert main(
            [
                "update",
                "--kb",
                str(kb_path),
                "--csv",
                str(delta_path),
                "--save",
                str(out_path),
            ]
        ) == 0
        assert out_path.exists()
        # The original file is untouched.
        from repro.core.knowledge_base import ProbabilisticKnowledgeBase

        assert ProbabilisticKnowledgeBase.load(kb_path).sample_size == 3428
        assert ProbabilisticKnowledgeBase.load(out_path).sample_size == 3528

    def test_update_pre_v3_kb_rejected(
        self, capsys, schema, table, rng, tmp_path
    ):
        import json

        from repro.core.knowledge_base import ProbabilisticKnowledgeBase

        kb = ProbabilisticKnowledgeBase.from_data(table)
        data = kb.to_dict()
        data.pop("discovery")
        data.pop("revisions")
        data["format_version"] = 2
        kb_path = tmp_path / "old_kb.json"
        kb_path.write_text(json.dumps(data))
        delta_path = tmp_path / "delta.csv"
        self._write_csv(schema, table, rng, delta_path, 50)
        assert main(
            ["update", "--kb", str(kb_path), "--csv", str(delta_path)]
        ) == 2
        assert "no discovery audit trail" in capsys.readouterr().err

    def test_update_schema_mismatch_reported(self, capsys, tmp_path):
        kb_path = tmp_path / "kb.json"
        assert main(["discover", "--save", str(kb_path)]) == 0
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("X,Y\na,b\nc,d\n")
        capsys.readouterr()
        assert main(
            ["update", "--kb", str(kb_path), "--csv", str(bad_csv)]
        ) == 1
        assert "error:" in capsys.readouterr().err

    def test_update_missing_kb_reports_cleanly(self, capsys, tmp_path):
        delta = tmp_path / "delta.csv"
        delta.write_text("A,B\nx,y\n")
        assert main(
            ["update", "--kb", "/nonexistent.json", "--csv", str(delta)]
        ) == 1
        assert "error:" in capsys.readouterr().err


class TestScenariosCommand:
    def test_list_shows_registry(self, capsys):
        from repro.scenarios import scenario_names

        assert main(["scenarios", "list"]) == 0
        output = capsys.readouterr().out
        for name in scenario_names():
            assert name in output

    def test_run_single_scenario_text_report(self, capsys):
        assert (
            main(
                [
                    "scenarios",
                    "run",
                    "--smoke",
                    "--scenario",
                    "independence",
                    "--no-baselines",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "SCENARIO CONFORMANCE MATRIX" in output
        assert "independence" in output
        assert "all conformance gates and latency SLOs passed" in output

    def test_run_json_to_stdout(self, capsys):
        import json

        assert (
            main(
                [
                    "scenarios",
                    "run",
                    "--smoke",
                    "--scenario",
                    "near-deterministic",
                    "--no-baselines",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1
        record = payload[0]
        assert record["scenario"] == "near-deterministic"
        for key in ("precision", "recall", "kl_empirical_fitted", "stage_scan_s"):
            assert key in record

    def test_run_json_to_file(self, capsys, tmp_path):
        import json

        target = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "scenarios",
                    "run",
                    "--smoke",
                    "--scenario",
                    "skewed-marginals",
                    "--no-baselines",
                    "--json",
                    str(target),
                ]
            )
            == 0
        )
        assert json.loads(target.read_text())[0]["scenario"] == (
            "skewed-marginals"
        )

    def test_smoke_env_variable_respected(self, capsys, monkeypatch):
        import json

        from repro.scenarios import get_scenario

        monkeypatch.setenv("REPRO_BENCH_SMOKE", "1")
        assert (
            main(
                [
                    "scenarios",
                    "run",
                    "--scenario",
                    "independence",
                    "--no-baselines",
                    "--json",
                ]
            )
            == 0
        )
        record = json.loads(capsys.readouterr().out)[0]
        assert record["smoke"] is True
        assert record["n_samples"] == get_scenario("independence").smoke_samples

    def test_gate_miss_exits_nonzero(self, capsys, monkeypatch):
        import repro.scenarios.runner as runner_module
        from repro.cli import main as cli_main

        def failing_check(gates, recovery, kl):
            return ["precision 0.000 < 1.000"]

        monkeypatch.setattr(runner_module, "check_gates", failing_check)
        assert (
            cli_main(
                [
                    "scenarios",
                    "run",
                    "--smoke",
                    "--scenario",
                    "independence",
                    "--no-baselines",
                ]
            )
            == 1
        )
        captured = capsys.readouterr()
        assert "conformance gate miss" in captured.err

    def test_unknown_scenario_reports_cleanly(self, capsys):
        assert (
            main(["scenarios", "run", "--scenario", "no-such-workload"]) == 1
        )
        assert "no scenario named" in capsys.readouterr().err

    def test_requires_action(self):
        with pytest.raises(SystemExit):
            main(["scenarios"])

    def test_list_tier_filter(self, capsys):
        from repro.scenarios import scenario_names

        assert main(["scenarios", "list", "--tier", "stress"]) == 0
        output = capsys.readouterr().out
        for name in scenario_names("stress"):
            assert name in output
        assert "single-pairwise" not in output

    def test_list_markdown_matches_catalog(self, capsys):
        from repro.scenarios.catalog import scenario_catalog_markdown

        assert main(["scenarios", "list", "--markdown"]) == 0
        assert capsys.readouterr().out == scenario_catalog_markdown() + "\n"


class TestScorecardCommand:
    def _record_run(self, path, scenario="independence"):
        assert (
            main(
                [
                    "scenarios",
                    "run",
                    "--smoke",
                    "--scenario",
                    scenario,
                    "--no-baselines",
                    "--json",
                    str(path),
                ]
            )
            == 0
        )
        return str(path)

    def test_empty_outcome_list_renders_placeholder(self, capsys, tmp_path):
        path = tmp_path / "outcomes.json"
        path.write_text("[]")
        assert main(["scorecard", str(path)]) == 0
        assert "No scenario outcomes recorded." in capsys.readouterr().out

    def test_scorecard_aggregates_recorded_runs(self, capsys, tmp_path):
        import json

        first = self._record_run(tmp_path / "one.json")
        second = self._record_run(
            tmp_path / "two.json", scenario="single-pairwise"
        )
        capsys.readouterr()
        json_path = tmp_path / "scorecard.json"
        assert (
            main(["scorecard", first, second, "--json", str(json_path)]) == 0
        )
        output = capsys.readouterr().out
        assert "# Scenario scorecard" in output
        assert "independence" in output
        assert "single-pairwise" in output
        card = json.loads(json_path.read_text())
        assert card["total_scenarios"] == 2
        assert card["failing"] == []

    def test_check_flag_fails_on_failing_scenario(self, capsys, tmp_path):
        import json

        passed = self._record_run(tmp_path / "one.json")
        trajectory = tmp_path / "later.json"
        trajectory.write_text(
            json.dumps(
                [
                    {
                        "timestamp": "2099-01-01T00:00:00Z",
                        "smoke": True,
                        "scenarios": [
                            {
                                "scenario": "independence",
                                "passed": False,
                                "gate_failures": ["precision 0.000 < 1.000"],
                            }
                        ],
                    }
                ]
            )
        )
        capsys.readouterr()
        assert main(["scorecard", passed, str(trajectory)]) == 0
        assert main(["scorecard", passed, str(trajectory), "--check"]) == 1
        assert "regressed" in capsys.readouterr().err

    def test_smoke_and_full_filters(self, capsys, tmp_path):
        import json

        path = tmp_path / "outcomes.json"
        path.write_text(
            json.dumps(
                [
                    {"scenario": "small", "smoke": True, "passed": True},
                    {"scenario": "large", "smoke": False, "passed": True},
                ]
            )
        )
        assert main(["scorecard", str(path), "--smoke"]) == 0
        output = capsys.readouterr().out
        assert "small" in output and "large" not in output
        assert main(["scorecard", str(path), "--full"]) == 0
        output = capsys.readouterr().out
        assert "large" in output and "small" not in output

    def test_markdown_output_file(self, capsys, tmp_path):
        path = self._record_run(tmp_path / "one.json")
        capsys.readouterr()
        target = tmp_path / "scorecard.md"
        assert main(["scorecard", path, "--output", str(target)]) == 0
        assert "# Scenario scorecard" in target.read_text()

    @pytest.mark.parametrize("content", ["{not json", "[1, 2]", None])
    def test_malformed_file_fails_cleanly(self, capsys, tmp_path, content):
        path = tmp_path / "broken.json"
        if content is not None:  # None: the file does not exist
            path.write_text(content)
        assert main(["scorecard", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err


class TestStoreCommands:
    """The durable-store surface: --store/--name, history, diff."""

    def _delta_csv(self, tmp_path, n=200, seed=11):
        import numpy as np

        from repro.eval.paper import paper_table

        table = paper_table()
        dataset = Dataset.from_joint(
            table.schema,
            table.probabilities(),
            n,
            np.random.default_rng(seed),
        )
        path = tmp_path / "delta.csv"
        write_dataset_csv(dataset, path)
        return str(path)

    def test_discover_into_store_then_update_and_history(
        self, capsys, tmp_path
    ):
        store = str(tmp_path / "kb.db")
        assert main(["discover", "--store", store]) == 0
        assert "stored as 'paper'" in capsys.readouterr().out
        csv = self._delta_csv(tmp_path)
        assert main(["update", "--store", store, "--csv", csv]) == 0
        assert "persisted to 'paper'" in capsys.readouterr().out
        assert main(["history", "paper", "--store", store]) == 0
        output = capsys.readouterr().out
        assert "update revisions" in output
        assert "warm" in output

    def test_history_json_is_machine_parseable(self, capsys, tmp_path):
        import json

        store = str(tmp_path / "kb.db")
        assert main(["discover", "--store", store, "--name", "kb"]) == 0
        capsys.readouterr()
        assert main(["history", "kb", "--store", store, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows and rows[0]["mode"] == "initial"
        assert rows[-1]["artifact"]

    def test_diff_between_revisions(self, capsys, tmp_path):
        store = str(tmp_path / "kb.db")
        assert main(["discover", "--store", store]) == 0
        csv = self._delta_csv(tmp_path)
        assert main(["update", "--store", store, "--csv", csv]) == 0
        capsys.readouterr()
        assert main(["diff", "paper", "0", "1", "--store", store]) == 0
        output = capsys.readouterr().out
        assert "revision 0 -> 1" in output
        assert "samples:" in output

    def test_update_requires_exactly_one_source(self, capsys, tmp_path):
        csv = self._delta_csv(tmp_path)
        assert main(["update", "--csv", csv]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert (
            main(
                [
                    "update",
                    "--csv",
                    csv,
                    "--kb",
                    "kb.json",
                    "--store",
                    "kb.db",
                ]
            )
            == 2
        )

    def test_update_needs_name_in_multi_kb_store(self, capsys, tmp_path):
        store = str(tmp_path / "kb.db")
        assert main(["discover", "--store", store, "--name", "one"]) == 0
        assert main(["discover", "--store", store, "--name", "two"]) == 0
        csv = self._delta_csv(tmp_path)
        capsys.readouterr()
        assert main(["update", "--store", store, "--csv", csv]) == 1
        assert "--name is required" in capsys.readouterr().err

    def test_discover_name_requires_store(self, capsys):
        assert main(["discover", "--name", "x"]) == 2
        assert "--name requires --store" in capsys.readouterr().err

    def test_history_of_missing_kb_fails_cleanly(self, capsys, tmp_path):
        store = str(tmp_path / "kb.db")
        assert main(["discover", "--store", store]) == 0
        capsys.readouterr()
        assert main(["history", "ghost", "--store", store]) == 1
        assert "no knowledge base named" in capsys.readouterr().err


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])
