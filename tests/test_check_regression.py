"""Tests for benchmarks/check_regression.py — the perf-regression gate."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


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
            "query_speedup_cold": parallel_cold,
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


def imported(tmp_path, records):
    """A run registry holding ``records``, imported from a trajectory."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.store import RunRegistry

    trajectory = write(tmp_path / "base.json", records)
    path = tmp_path / "base.db"
    with RunRegistry(path) as registry:
        registry.import_trajectory(trajectory)
    return str(path)


class TestRatioComparison:
    def test_within_tolerance_passes(self, gate, tmp_path):
        baseline = imported(tmp_path, [record(warm=8.0)])
        candidate = write(tmp_path / "cand.json", [record(warm=6.0)])
        assert (
            gate.main(["--registry", baseline, "--candidate", candidate])
            == 0
        )

    def test_degradation_over_tolerance_fails(self, gate, tmp_path, capsys):
        baseline = imported(tmp_path, [record(warm=8.0)])
        candidate = write(tmp_path / "cand.json", [record(warm=4.0)])
        assert (
            gate.main(["--registry", baseline, "--candidate", candidate])
            == 1
        )
        assert "scan_speedup_warm" in capsys.readouterr().err

    def test_baseline_is_minimum_over_matching_records(self, gate, tmp_path):
        # Two baseline runs, one slow: the candidate only has to beat the
        # *worst* baseline by the tolerance, damping one-off noise.
        baseline = imported(
            tmp_path, [record(warm=9.0), record(warm=5.0)]
        )
        candidate = write(tmp_path / "cand.json", [record(warm=4.0)])
        assert (
            gate.main(["--registry", baseline, "--candidate", candidate])
            == 0
        )

    def test_smoke_and_full_records_not_mixed(self, gate, tmp_path):
        baseline = imported(
            tmp_path,
            [record(smoke=False, warm=20.0), record(smoke=True, warm=6.0)],
        )
        candidate = write(
            tmp_path / "cand.json", [record(smoke=True, warm=5.5)]
        )
        assert (
            gate.main(["--registry", baseline, "--candidate", candidate])
            == 0
        )

    def test_no_matching_mode_means_no_ratio_floor(self, gate, tmp_path):
        # A full-size-only baseline sets no floor for a smoke candidate:
        # toy-size timings are never judged against full-size ones.
        baseline = imported(
            tmp_path, [record(smoke=False, warm=20.0)]
        )
        candidate = write(
            tmp_path / "cand.json", [record(smoke=True, warm=2.0)]
        )
        output = tmp_path / "diff.json"
        assert (
            gate.main(
                [
                    "--registry",
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
        baseline = imported(tmp_path, [record(parallel_cold=3.0)])
        candidate = write(
            tmp_path / "cand.json",
            [record(cpus=1, parallel_cold=0.6)],
        )
        assert (
            gate.main(["--registry", baseline, "--candidate", candidate])
            == 0
        )
        assert "skipped" in capsys.readouterr().out

    def test_single_cpu_baseline_sets_no_parallel_floor(self, gate, tmp_path):
        baseline = imported(
            tmp_path, [record(cpus=1, parallel_cold=0.9)]
        )
        candidate = write(
            tmp_path / "cand.json", [record(cpus=4, parallel_cold=0.5)]
        )
        assert (
            gate.main(["--registry", baseline, "--candidate", candidate])
            == 0
        )

    def test_parallel_regression_on_multicore_fails(self, gate, tmp_path):
        baseline = imported(tmp_path, [record(parallel_cold=3.0)])
        candidate = write(
            tmp_path / "cand.json", [record(parallel_cold=1.0)]
        )
        assert (
            gate.main(["--registry", baseline, "--candidate", candidate])
            == 1
        )


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
        baseline = imported(
            tmp_path, [serving_record(300.0, 830.0)]
        )
        candidate = write(
            tmp_path / "cand.json", [serving_record(1500.0, 1400.0)]
        )
        output = tmp_path / "diff.json"
        assert (
            gate.main(
                [
                    "--registry",
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
        baseline = imported(
            tmp_path, [serving_record(300.0, 900.0)]
        )
        # Same host speed, 40% less served throughput.
        candidate = write(
            tmp_path / "cand.json", [serving_record(300.0, 540.0)]
        )
        assert (
            gate.main(["--registry", baseline, "--candidate", candidate])
            == 1
        )
        assert "served_vs_inprocess" in capsys.readouterr().err


class TestScenarioGates:
    def test_gate_regression_fails(self, gate, tmp_path, capsys):
        baseline = imported(tmp_path, [record()])
        candidate = write(
            tmp_path / "cand.json", [record(scenario_passed=False)]
        )
        assert (
            gate.main(["--registry", baseline, "--candidate", candidate])
            == 1
        )
        assert "independence" in capsys.readouterr().err

    def test_known_bad_baseline_scenario_does_not_block(self, gate, tmp_path):
        # A scenario already failing in the committed baseline is not a
        # *regression*; the gate only fails on newly-failing scenarios.
        baseline = imported(
            tmp_path, [record(scenario_passed=False)]
        )
        candidate = write(
            tmp_path / "cand.json", [record(scenario_passed=False)]
        )
        assert (
            gate.main(["--registry", baseline, "--candidate", candidate])
            == 0
        )


class TestRegistryBaseline:
    """Recorded and imported runs reach the same verdict."""

    def _registry(self, tmp_path, records):
        sys.path.insert(0, str(REPO_ROOT / "src"))
        from repro.store import RunRegistry

        path = tmp_path / "runs.db"
        with RunRegistry(path) as registry:
            for entry in records:
                registry.record(
                    kind="benchmark",
                    metrics=entry,
                    smoke=entry.get("smoke", False),
                    cpus=(entry.get("parallel") or {}).get("cpus", 0),
                    created_at=entry["timestamp"],
                )
        return str(path)

    @pytest.mark.parametrize("warm", [6.0, 4.0])
    def test_same_verdict_as_flat_file(self, gate, tmp_path, warm):
        records = [record(warm=8.0), record(warm=9.0)]
        baseline = imported(tmp_path, records)
        registry = self._registry(tmp_path, records)
        candidate = write(tmp_path / "cand.json", [record(warm=warm)])
        flat_exit = gate.main(
            [
                "--registry",
                baseline,
                "--candidate",
                candidate,
                "--output",
                str(tmp_path / "flat.json"),
            ]
        )
        registry_exit = gate.main(
            [
                "--registry",
                registry,
                "--candidate",
                candidate,
                "--output",
                str(tmp_path / "reg.json"),
            ]
        )
        assert registry_exit == flat_exit
        flat = json.loads((tmp_path / "flat.json").read_text())
        reg = json.loads((tmp_path / "reg.json").read_text())
        assert reg["passed"] == flat["passed"]
        assert reg["ratios"] == flat["ratios"]
        assert reg["scenarios"] == flat["scenarios"]

    def test_exactly_one_baseline_source_required(self, gate, tmp_path):
        candidate = write(tmp_path / "cand.json", [record()])
        with pytest.raises(SystemExit):
            gate.main(["--candidate", candidate])
        # The flat-file flag is gone; a trajectory is imported first.
        baseline = write(tmp_path / "base.json", [record()])
        with pytest.raises(SystemExit):
            gate.main(["--baseline", baseline, "--candidate", candidate])

    def test_empty_registry_warns_and_passes_without_floors(
        self, gate, tmp_path, capsys
    ):
        sys.path.insert(0, str(REPO_ROOT / "src"))
        from repro.store import RunRegistry

        path = tmp_path / "empty.db"
        RunRegistry(path).close()
        candidate = write(tmp_path / "cand.json", [record(warm=0.1)])
        assert (
            gate.main(["--registry", str(path), "--candidate", candidate])
            == 0
        )
        captured = capsys.readouterr()
        assert "holds no smoke=True benchmark runs" in captured.err
        assert "no comparable baseline" in captured.out


class TestReportArtifact:
    def test_output_written_with_verdict(self, gate, tmp_path):
        baseline = imported(tmp_path, [record(warm=8.0)])
        candidate = write(tmp_path / "cand.json", [record(warm=4.0)])
        output = tmp_path / "diff.json"
        gate.main(
            [
                "--registry",
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
        baseline = imported(tmp_path, [record(warm=8.0)])
        candidate = write(tmp_path / "cand.json", [record(warm=4.5)])
        assert (
            gate.main(
                [
                    "--registry",
                    baseline,
                    "--candidate",
                    candidate,
                    "--tolerance",
                    "0.5",
                ]
            )
            == 0
        )
