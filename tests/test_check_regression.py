"""Tests for benchmarks/check_regression.py — the perf-regression gate."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
COMMITTED_TRAJECTORY = REPO_ROOT / "BENCH_discovery.json"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location(
        "check_regression", REPO_ROOT / "benchmarks" / "check_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["check_regression"] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules["check_regression"]


def record(
    smoke=True,
    warm=8.0,
    cpus=4,
    parallel_cold=2.5,
    scenario_passed=True,
):
    return {
        "timestamp": "2026-01-01T00:00:00Z",
        "smoke": smoke,
        "metrics": {"scan_speedup_warm": warm},
        "parallel": {
            "workers": 4,
            "cpus": cpus,
            "scan_speedup_cold": parallel_cold,
            "scan_speedup_warm": parallel_cold,
        },
        "scenarios": [
            {
                "scenario": "independence",
                "passed": scenario_passed,
                "gate_failures": []
                if scenario_passed
                else ["precision 0.0 < 1.0"],
            }
        ],
    }


def write(path, records):
    path.write_text(json.dumps(records))
    return str(path)


def baseline_file(tmp_path, records):
    return write(tmp_path / "base.json", records)


class TestRatioComparison:
    def test_within_tolerance_passes(self, gate, tmp_path):
        baseline = baseline_file(tmp_path, [record(warm=8.0)])
        candidate = write(tmp_path / "cand.json", [record(warm=6.0)])
        assert (
            gate.main(["--baseline", baseline, "--candidate", candidate])
            == 0
        )

    def test_degradation_over_tolerance_fails(self, gate, tmp_path, capsys):
        baseline = baseline_file(tmp_path, [record(warm=8.0)])
        candidate = write(tmp_path / "cand.json", [record(warm=4.0)])
        assert (
            gate.main(["--baseline", baseline, "--candidate", candidate])
            == 1
        )
        assert "scan_speedup_warm" in capsys.readouterr().err

    def test_baseline_is_minimum_over_matching_records(self, gate, tmp_path):
        # Two baseline runs, one slow: the candidate only has to beat the
        # *worst* baseline by the tolerance, damping one-off noise.
        baseline = baseline_file(
            tmp_path, [record(warm=9.0), record(warm=5.0)]
        )
        candidate = write(tmp_path / "cand.json", [record(warm=4.0)])
        assert (
            gate.main(["--baseline", baseline, "--candidate", candidate])
            == 0
        )

    def test_smoke_and_full_records_not_mixed(self, gate, tmp_path):
        baseline = baseline_file(
            tmp_path,
            [record(smoke=False, warm=20.0), record(smoke=True, warm=6.0)],
        )
        candidate = write(
            tmp_path / "cand.json", [record(smoke=True, warm=5.5)]
        )
        assert (
            gate.main(["--baseline", baseline, "--candidate", candidate])
            == 0
        )

    def test_no_matching_mode_means_no_ratio_floor(self, gate, tmp_path):
        # A full-size-only baseline sets no floor for a smoke candidate:
        # toy-size timings are never judged against full-size ones.
        baseline = baseline_file(
            tmp_path, [record(smoke=False, warm=20.0)]
        )
        candidate = write(
            tmp_path / "cand.json", [record(smoke=True, warm=2.0)]
        )
        output = tmp_path / "diff.json"
        assert (
            gate.main(
                [
                    "--baseline",
                    baseline,
                    "--candidate",
                    candidate,
                    "--output",
                    str(output),
                ]
            )
            == 0
        )
        report = json.loads(output.read_text())
        assert all(
            row["status"] == "no comparable baseline"
            for row in report["ratios"]
        )

    def test_parallel_ratios_skipped_on_single_cpu_candidate(
        self, gate, tmp_path, capsys
    ):
        baseline = baseline_file(tmp_path, [record(parallel_cold=3.0)])
        candidate = write(
            tmp_path / "cand.json",
            [record(cpus=1, parallel_cold=0.6)],
        )
        assert (
            gate.main(["--baseline", baseline, "--candidate", candidate])
            == 0
        )
        assert "skipped" in capsys.readouterr().out

    def test_single_cpu_baseline_sets_no_parallel_floor(self, gate, tmp_path):
        baseline = baseline_file(
            tmp_path, [record(cpus=1, parallel_cold=0.9)]
        )
        candidate = write(
            tmp_path / "cand.json", [record(cpus=4, parallel_cold=0.5)]
        )
        assert (
            gate.main(["--baseline", baseline, "--candidate", candidate])
            == 0
        )

    def test_parallel_regression_on_multicore_fails(self, gate, tmp_path):
        baseline = baseline_file(tmp_path, [record(parallel_cold=3.0)])
        candidate = write(
            tmp_path / "cand.json", [record(parallel_cold=1.0)]
        )
        assert (
            gate.main(["--baseline", baseline, "--candidate", candidate])
            == 1
        )

    def test_retired_metrics_in_old_baselines_are_ignored(
        self, gate, tmp_path
    ):
        # Older records still hold the batch-query and TCP-worker keys;
        # a candidate without them compares cleanly, and nothing of them
        # shows up in the report.
        old = record(smoke=False, parallel_cold=3.0)
        old["parallel"]["query_speedup_cold"] = 9.0
        old["distributed"] = {
            "workers": 2,
            "cpus": 4,
            "scan_speedup": 9.0,
            "query_speedup": 9.0,
            "wire_bytes_per_scan": 1,
        }
        baseline = baseline_file(tmp_path, [old])
        candidate = write(
            tmp_path / "cand.json", [record(smoke=False, parallel_cold=2.9)]
        )
        output = tmp_path / "diff.json"
        assert (
            gate.main(
                [
                    "--baseline",
                    baseline,
                    "--candidate",
                    candidate,
                    "--output",
                    str(output),
                ]
            )
            == 0
        )
        report = json.loads(output.read_text())
        metrics = {
            row["metric"]
            for row in report["ratios"] + report["absolute_floors"]
        }
        assert metrics == {
            "metrics.scan_speedup_warm",
            "parallel.scan_speedup_cold",
            "parallel.scan_speedup_warm",
        }
        assert "costs" not in report


def serving_record(single_rps, multi_rps, inprocess_qps=90_000.0):
    result = record()
    result["serving"] = {
        "single_client_rps": single_rps,
        "rps": multi_rps,
        "throughput_ratio": multi_rps / single_rps,
        "inprocess_qps": inprocess_qps,
        "served_vs_inprocess": multi_rps / inprocess_qps,
    }
    return result


class TestServingGate:
    """The served-path gate is multi-client RPS over in-process QPS."""

    def test_faster_single_client_is_not_flagged(self, gate, tmp_path):
        # Single-client RPS rising 5x drops throughput_ratio from ~2.8 to
        # ~0.9; that is a faster lone request, not a regression.
        baseline = baseline_file(
            tmp_path, [serving_record(300.0, 830.0)]
        )
        candidate = write(
            tmp_path / "cand.json", [serving_record(1500.0, 1400.0)]
        )
        output = tmp_path / "diff.json"
        assert (
            gate.main(
                [
                    "--baseline",
                    baseline,
                    "--candidate",
                    candidate,
                    "--output",
                    str(output),
                ]
            )
            == 0
        )
        rows = {
            row["metric"]: row
            for row in json.loads(output.read_text())["ratios"]
        }
        assert rows["serving.served_vs_inprocess"]["status"] == "ok"
        assert "serving.throughput_ratio" not in rows

    def test_served_vs_inprocess_drop_over_tolerance_fails(
        self, gate, tmp_path, capsys
    ):
        baseline = baseline_file(
            tmp_path, [serving_record(300.0, 900.0)]
        )
        # Same host speed, 40% less served throughput.
        candidate = write(
            tmp_path / "cand.json", [serving_record(300.0, 540.0)]
        )
        assert (
            gate.main(["--baseline", baseline, "--candidate", candidate])
            == 1
        )
        assert "served_vs_inprocess" in capsys.readouterr().err


class TestScenarioGates:
    def test_gate_regression_fails(self, gate, tmp_path, capsys):
        baseline = baseline_file(tmp_path, [record()])
        candidate = write(
            tmp_path / "cand.json", [record(scenario_passed=False)]
        )
        assert (
            gate.main(["--baseline", baseline, "--candidate", candidate])
            == 1
        )
        assert "independence" in capsys.readouterr().err

    def test_known_bad_baseline_scenario_does_not_block(self, gate, tmp_path):
        # A scenario already failing in the committed baseline is not a
        # *regression*; the gate only fails on newly-failing scenarios.
        baseline = baseline_file(
            tmp_path, [record(scenario_passed=False)]
        )
        candidate = write(
            tmp_path / "cand.json", [record(scenario_passed=False)]
        )
        assert (
            gate.main(["--baseline", baseline, "--candidate", candidate])
            == 0
        )


class TestFlatBaseline:
    """The baseline is the trajectory file, filtered by the smoke flag."""

    def _report(self, gate, tmp_path, baseline, candidate_record):
        candidate = write(tmp_path / "cand.json", [candidate_record])
        output = tmp_path / "diff.json"
        status = gate.main(
            [
                "--baseline",
                str(baseline),
                "--candidate",
                candidate,
                "--output",
                str(output),
            ]
        )
        return status, json.loads(output.read_text())

    def test_smoke_candidate_compares_against_committed_smoke_records(
        self, gate
    ):
        records = json.loads(COMMITTED_TRAJECTORY.read_text())
        baseline = gate.baseline_records(records, smoke=True)
        assert len(baseline) == 3
        assert all(record["smoke"] is True for record in baseline)
        assert [r["timestamp"] for r in baseline] == sorted(
            r["timestamp"] for r in baseline
        )

    def test_full_candidate_compares_against_committed_full_records(
        self, gate, tmp_path
    ):
        records = json.loads(COMMITTED_TRAJECTORY.read_text())
        assert len(gate.baseline_records(records, smoke=False)) == 2
        candidate = [r for r in records if not r["smoke"]][-1]
        status, report = self._report(
            gate, tmp_path, COMMITTED_TRAJECTORY, candidate
        )
        assert status == 0
        assert report["baseline_records_compared"] == 2

    def test_duplicate_records_count_once(self, gate, tmp_path):
        records = [record(warm=8.0), record(warm=9.0)]
        once = baseline_file(tmp_path, records)
        twice = write(tmp_path / "twice.json", records + records)
        _, single = self._report(gate, tmp_path, once, record(warm=4.0))
        _, doubled = self._report(gate, tmp_path, twice, record(warm=4.0))
        assert doubled == single
        assert doubled["baseline_records_compared"] == 2

    def test_out_of_order_records_are_read_by_timestamp(self, gate, tmp_path):
        # The later record failed the scenario; read in file order the
        # earlier, passing one would look like the latest baseline.
        older = record(scenario_passed=True)
        newer = {**record(scenario_passed=False), "timestamp": "2026-02-01T00:00:00Z"}
        in_order = baseline_file(tmp_path, [older, newer])
        reversed_ = write(tmp_path / "reversed.json", [newer, older])
        candidate = record(scenario_passed=False)
        status, report = self._report(gate, tmp_path, in_order, candidate)
        assert status == 0
        assert report["scenarios"][0]["status"] == "failing (also in baseline)"
        assert self._report(gate, tmp_path, reversed_, candidate) == (
            status,
            report,
        )

    def test_baseline_file_required(self, gate, tmp_path):
        candidate = write(tmp_path / "cand.json", [record()])
        with pytest.raises(SystemExit):
            gate.main(["--candidate", candidate])

    @pytest.mark.parametrize("content", ["{not json", "[1, 2]", "[]"])
    def test_unreadable_baseline_exits_with_an_error(
        self, gate, tmp_path, content
    ):
        baseline = tmp_path / "base.json"
        baseline.write_text(content)
        candidate = write(tmp_path / "cand.json", [record()])
        with pytest.raises(SystemExit, match="^error: "):
            gate.main(["--baseline", str(baseline), "--candidate", candidate])

    def test_no_same_mode_records_warns_and_passes_without_floors(
        self, gate, tmp_path, capsys
    ):
        baseline = baseline_file(tmp_path, [record(smoke=False)])
        candidate = write(tmp_path / "cand.json", [record(warm=0.1)])
        assert (
            gate.main(["--baseline", baseline, "--candidate", candidate])
            == 0
        )
        captured = capsys.readouterr()
        assert "holds no smoke=True benchmark runs" in captured.err
        assert "no comparable baseline" in captured.out


class TestReportArtifact:
    def test_output_written_with_verdict(self, gate, tmp_path):
        baseline = baseline_file(tmp_path, [record(warm=8.0)])
        candidate = write(tmp_path / "cand.json", [record(warm=4.0)])
        output = tmp_path / "diff.json"
        gate.main(
            [
                "--baseline",
                baseline,
                "--candidate",
                candidate,
                "--output",
                str(output),
            ]
        )
        report = json.loads(output.read_text())
        assert report["passed"] is False
        assert any(
            row["status"] == "regressed" for row in report["ratios"]
        )
        assert report["regressions"]

    def test_custom_tolerance(self, gate, tmp_path):
        baseline = baseline_file(tmp_path, [record(warm=8.0)])
        candidate = write(tmp_path / "cand.json", [record(warm=4.5)])
        assert (
            gate.main(
                [
                    "--baseline",
                    baseline,
                    "--candidate",
                    candidate,
                    "--tolerance",
                    "0.5",
                ]
            )
            == 0
        )
