"""Tests for benchmarks/run_all.py argument handling and record emission.

The heavy measurement functions are monkeypatched: these tests pin down
the CLI contract (--skip-suite, --smoke, --json PATH, suite-failure
short-circuit) without running any benchmark.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def run_all():
    spec = importlib.util.spec_from_file_location(
        "run_all", REPO_ROOT / "benchmarks" / "run_all.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["run_all"] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules["run_all"]


@pytest.fixture
def stubbed(run_all, monkeypatch):
    calls = {
        "suite": [],
        "discovery": [],
        "parallel": [],
        "serving": [],
        "scenarios": [],
    }
    monkeypatch.setattr(
        run_all,
        "run_suite",
        lambda smoke: calls["suite"].append(smoke) or 0,
    )
    monkeypatch.setattr(
        run_all,
        "measure_discovery",
        lambda smoke: calls["discovery"].append(smoke)
        or {"scan_speedup_warm": 7.5},
    )
    monkeypatch.setattr(
        run_all,
        "measure_parallel",
        lambda smoke: calls["parallel"].append(smoke)
        or {"workers": 4, "cpus": 4, "scan_speedup_cold": 2.5},
    )
    monkeypatch.setattr(
        run_all,
        "measure_serving",
        lambda smoke: calls["serving"].append(smoke)
        or {"clients": 4, "throughput_ratio": 3.0},
    )
    monkeypatch.setattr(
        run_all,
        "measure_scenarios",
        lambda smoke, tiers=None: calls["scenarios"].append((smoke, tiers))
        or [{"scenario": "independence", "passed": True}],
    )
    return calls


class TestSkipSuite:
    def test_skip_suite_skips_pytest_run(self, run_all, stubbed, tmp_path):
        target = tmp_path / "traj.json"
        assert run_all.main(["--json", str(target), "--skip-suite"]) == 0
        assert stubbed["suite"] == []
        assert stubbed["discovery"] == [False]
        assert stubbed["scenarios"] == [(False, None)]
        assert target.exists()

    def test_without_skip_suite_runs_pytest(self, run_all, stubbed, tmp_path):
        target = tmp_path / "traj.json"
        assert run_all.main(["--json", str(target)]) == 0
        assert stubbed["suite"] == [False]

    def test_skip_suite_without_json_is_a_noop(self, run_all, stubbed):
        assert run_all.main(["--skip-suite"]) == 0
        assert stubbed["suite"] == []
        assert stubbed["discovery"] == []

    def test_suite_failure_short_circuits(
        self, run_all, stubbed, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(run_all, "run_suite", lambda smoke: 3)
        target = tmp_path / "traj.json"
        assert run_all.main(["--json", str(target)]) == 3
        assert stubbed["discovery"] == []
        assert not target.exists()


class TestSmokeFlag:
    def test_smoke_propagates_to_measurements(
        self, run_all, stubbed, monkeypatch, tmp_path
    ):
        monkeypatch.delenv("REPRO_BENCH_SMOKE", raising=False)
        target = tmp_path / "traj.json"
        assert (
            run_all.main(["--json", str(target), "--smoke", "--skip-suite"])
            == 0
        )
        assert stubbed["discovery"] == [True]
        assert stubbed["scenarios"] == [(True, None)]
        record = json.loads(target.read_text())[-1]
        assert record["smoke"] is True


class TestTrajectoryRecord:
    def test_record_contains_metrics_and_scenarios(
        self, run_all, stubbed, tmp_path
    ):
        target = tmp_path / "traj.json"
        assert run_all.main(["--json", str(target), "--skip-suite"]) == 0
        history = json.loads(target.read_text())
        assert isinstance(history, list) and len(history) == 1
        record = history[0]
        assert record["metrics"] == {"scan_speedup_warm": 7.5}
        assert record["parallel"] == {
            "workers": 4,
            "cpus": 4,
            "scan_speedup_cold": 2.5,
        }
        assert "distributed" not in record
        assert record["serving"] == {
            "clients": 4,
            "throughput_ratio": 3.0,
        }
        assert record["scenarios"] == [
            {"scenario": "independence", "passed": True}
        ]
        assert "timestamp" in record and "python" in record

    def test_record_is_stamped_with_git_sha_and_cpus(
        self, run_all, stubbed, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(run_all, "current_git_sha", lambda: "abc123")
        monkeypatch.setattr(run_all.os, "cpu_count", lambda: 6)
        target = tmp_path / "traj.json"
        assert run_all.main(["--json", str(target), "--skip-suite"]) == 0
        record = json.loads(target.read_text())[-1]
        assert record["git_sha"] == "abc123"
        assert record["cpus"] == 6

    def test_records_append_across_invocations(
        self, run_all, stubbed, tmp_path
    ):
        target = tmp_path / "traj.json"
        run_all.main(["--json", str(target), "--skip-suite"])
        run_all.main(["--json", str(target), "--skip-suite"])
        assert len(json.loads(target.read_text())) == 2

    def test_corrupt_history_is_replaced(self, run_all, stubbed, tmp_path):
        target = tmp_path / "traj.json"
        target.write_text("{not json")
        run_all.main(["--json", str(target), "--skip-suite"])
        assert len(json.loads(target.read_text())) == 1

    def test_scalar_history_is_wrapped(self, run_all, stubbed, tmp_path):
        target = tmp_path / "traj.json"
        target.write_text(json.dumps({"old": "record"}))
        run_all.main(["--json", str(target), "--skip-suite"])
        history = json.loads(target.read_text())
        assert history[0] == {"old": "record"}
        assert len(history) == 2


class TestGitSha:
    def test_current_git_sha_in_this_checkout(self, run_all, monkeypatch):
        monkeypatch.delenv("GITHUB_SHA", raising=False)
        sha = run_all.current_git_sha()
        # Either a real 40-hex sha (we run inside the repo) or "" when
        # git is unavailable; never an exception.
        assert sha == "" or (
            len(sha) == 40 and all(c in "0123456789abcdef" for c in sha)
        )

    def test_github_sha_env_wins(self, run_all, monkeypatch):
        monkeypatch.setenv("GITHUB_SHA", "feedface")
        assert run_all.current_git_sha() == "feedface"


class TestScorecard:
    def test_scorecard_reads_the_trajectory(
        self, run_all, stubbed, tmp_path
    ):
        target = tmp_path / "traj.json"
        scorecard = tmp_path / "scorecard.md"
        argv = [
            "--json",
            str(target),
            "--skip-suite",
            "--scorecard",
            str(scorecard),
        ]
        assert run_all.main(argv) == 0
        assert run_all.main(argv) == 0
        assert "# Scenario scorecard" in scorecard.read_text()
        card = json.loads(scorecard.with_suffix(".json").read_text())
        # Both appended records count, the second one included.
        assert card["total_outcomes"] == 2
        [row] = card["scenarios"]
        assert (row["scenario"], row["runs"]) == ("independence", 2)

    def test_scorecard_requires_json(self, run_all, stubbed, tmp_path):
        with pytest.raises(SystemExit):
            run_all.main(["--scorecard", str(tmp_path / "scorecard.md")])


class TestGateMiss:
    def test_record_written_before_nonzero_exit(
        self, run_all, stubbed, monkeypatch, tmp_path, capsys
    ):
        """A gate miss still appends the record (the diagnostics), then
        fails."""
        monkeypatch.setattr(
            run_all,
            "measure_scenarios",
            lambda smoke, tiers=None: [
                {
                    "scenario": "independence",
                    "passed": False,
                    "gate_failures": ["precision 0.000 < 1.000"],
                }
            ],
        )
        target = tmp_path / "traj.json"
        assert run_all.main(["--json", str(target), "--skip-suite"]) == 1
        history = json.loads(target.read_text())
        assert len(history) == 1
        assert history[0]["scenarios"][0]["passed"] is False
        err = capsys.readouterr().err
        assert "conformance gates or latency SLOs missed" in err
        assert "independence: precision" in err
