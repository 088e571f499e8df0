"""Tests for scenario tiers, latency SLOs, and the generated catalog."""

from pathlib import Path

import pytest

from repro.exceptions import DataError
from repro.scenarios import (
    DEFAULT_TIERS,
    TIERS,
    LatencySLO,
    Scenario,
    all_scenarios,
    default_slo,
    get_scenario,
    scenario_names,
)
from repro.scenarios.catalog import scenario_catalog_markdown
from repro.scenarios.registry import FULL_SLO_SCALE
from repro.scenarios.runner import check_slo

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


class TestLatencySLO:
    def test_validation(self):
        with pytest.raises(DataError, match="scan_p99_ms"):
            LatencySLO(scan_p99_ms=0.0)
        with pytest.raises(DataError, match="p50"):
            LatencySLO(query_p50_ms=100.0, query_p99_ms=50.0)

    def test_scaled(self):
        slo = LatencySLO(scan_p99_ms=100.0, query_p99_ms=10.0)
        scaled = slo.scaled(4.0)
        assert scaled.scan_p99_ms == 400.0
        assert scaled.query_p99_ms == 40.0
        assert scaled.fit_p99_ms is None

    def test_budgets_skip_unset_stages(self):
        slo = LatencySLO(scan_p99_ms=100.0)
        assert slo.budgets() == [("scan", 0.99, 100.0)]

    def test_describe_mentions_set_budgets(self):
        text = LatencySLO(scan_p99_ms=100.0, query_p50_ms=5.0).describe()
        assert "scan" in text and "query" in text
        assert "fit" not in text

    def test_default_slo_per_tier(self):
        assert default_slo("stress").scan_p99_ms > default_slo(
            "smoke"
        ).scan_p99_ms
        with pytest.raises(DataError, match="tier"):
            default_slo("nope")


class TestTierFiltering:
    def test_fleet_spans_three_tiers(self):
        assert TIERS == ("smoke", "full", "stress")
        assert len(scenario_names("all")) >= 30
        assert len(scenario_names("smoke")) >= 10
        assert len(scenario_names("full")) >= 10
        assert len(scenario_names("stress")) >= 5

    def test_default_excludes_stress(self):
        default = scenario_names(DEFAULT_TIERS)
        assert default == scenario_names(("smoke", "full"))
        stress = set(scenario_names("stress"))
        assert not stress & set(default)
        # The bare call keeps listing the whole registry.
        assert set(scenario_names()) == set(scenario_names("all"))

    def test_unknown_tier_rejected(self):
        with pytest.raises(DataError, match="tier"):
            scenario_names("nightly")

    def test_every_scenario_declares_width_and_tier(self):
        for scenario in all_scenarios("all"):
            assert scenario.tier in TIERS
            instance = scenario.build(smoke=True)
            assert len(instance.table.schema) == scenario.attributes

    def test_invalid_tier_on_scenario_rejected(self):
        with pytest.raises(DataError, match="tier"):
            Scenario(
                name="bad-tier",
                description="bad",
                seed=1,
                builder=lambda rng, n: None,
                tier="weekly",
            )


class TestSloForMode:
    def test_tier_default_applies(self):
        scenario = get_scenario("single-pairwise")
        smoke_slo = scenario.slo_for(smoke=True)
        assert smoke_slo.scan_p99_ms == default_slo("smoke").scan_p99_ms

    def test_full_mode_scales_budgets(self):
        scenario = get_scenario("single-pairwise")
        smoke_slo = scenario.slo_for(smoke=True)
        full_slo = scenario.slo_for(smoke=False)
        assert full_slo.scan_p99_ms == pytest.approx(
            FULL_SLO_SCALE * smoke_slo.scan_p99_ms
        )


class TestCheckSlo:
    def test_within_budget_passes(self):
        slo = LatencySLO(scan_p99_ms=100.0, query_p99_ms=10.0)
        failures = check_slo(
            slo,
            {"scan_p99_ms": 50.0},
            {"p99_ms": 5.0},
        )
        assert failures == []

    def test_each_miss_reported(self):
        slo = LatencySLO(
            scan_p99_ms=10.0, query_p50_ms=1.0, query_p99_ms=2.0
        )
        failures = check_slo(
            slo,
            {"scan_p99_ms": 50.0},
            {"p50_ms": 9.0, "p99_ms": 9.0},
        )
        text = "\n".join(failures)
        assert len(failures) == 3
        assert "scan" in text and "query" in text

    def test_env_scale_loosens_budgets(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLO_SCALE", "10")
        from repro.scenarios.runner import _slo_scale

        assert _slo_scale() == 10.0

    @pytest.mark.parametrize("raw", ["abc", "-2", "0", "nan", "inf"])
    def test_malformed_env_scale_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SLO_SCALE", raw)
        from repro.scenarios.runner import _slo_scale

        with pytest.raises(DataError, match=f"REPRO_SLO_SCALE.*{raw}"):
            _slo_scale()


class TestCatalog:
    def test_catalog_is_deterministic(self):
        assert scenario_catalog_markdown() == scenario_catalog_markdown()

    def test_catalog_lists_every_scenario_by_tier(self):
        text = scenario_catalog_markdown()
        for tier in TIERS:
            assert f"## Tier: {tier}" in text
        for name in scenario_names("all"):
            assert name in text

    def test_docs_file_in_sync(self):
        """CI contract: docs/scenarios.md is exactly the generated catalog.

        Regenerate with::

            PYTHONPATH=src python -m repro.cli scenarios list --markdown \
                > docs/scenarios.md
        """
        committed = (REPO_ROOT / "docs" / "scenarios.md").read_text()
        assert committed == scenario_catalog_markdown() + "\n"
