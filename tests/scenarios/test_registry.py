"""Tests for the scenario registry: contents, determinism, validation."""

import numpy as np
import pytest

from repro.data.contingency import ContingencyTable
from repro.exceptions import DataError
from repro.scenarios import (
    ConformanceGates,
    Scenario,
    all_scenarios,
    get_scenario,
    scenario_names,
)
from repro.scenarios.registry import ScenarioInstance


class TestBuiltinRegistry:
    def test_at_least_ten_scenarios(self):
        assert len(scenario_names()) >= 10

    def test_names_unique(self):
        names = scenario_names()
        assert len(names) == len(set(names))

    def test_structural_axes_covered(self):
        names = set(scenario_names())
        for expected in (
            "independence",
            "single-pairwise",
            "chained-pairwise",
            "order3-interaction",
            "near-deterministic",
            "skewed-marginals",
            "high-cardinality",
            "sparse-counts",
            "missing-data",
            "streaming-drift",
        ):
            assert expected in names

    def test_get_unknown_scenario_raises(self):
        with pytest.raises(DataError, match="no scenario named"):
            get_scenario("definitely-not-registered")

    @pytest.mark.parametrize("name", ["independence", "order3-interaction"])
    def test_build_is_deterministic(self, name):
        scenario = get_scenario(name)
        first = scenario.build(smoke=True)
        second = scenario.build(smoke=True)
        assert first.table == second.table
        assert first.truth == second.truth

    def test_smoke_and_full_sizes_differ(self):
        for scenario in all_scenarios():
            assert scenario.sample_size(True) <= scenario.sample_size(False)

    def test_every_scenario_builds_with_declared_total(self):
        for scenario in all_scenarios("all"):
            instance = scenario.build(smoke=True)
            assert isinstance(instance.table, ContingencyTable)
            if "duplicates" in scenario.tags:
                # Duplicate-row corruption inflates the declared draw by
                # its duplication fraction — that iid violation is the
                # scenario's point, so the total exceeds the declaration.
                assert instance.table.total > scenario.smoke_samples
            else:
                assert instance.table.total == scenario.smoke_samples
            # Ground-truth keys must be cells of the scanned orders.
            for attributes, values in instance.truth:
                assert 2 <= len(attributes) <= scenario.max_order
                assert len(attributes) == len(values)
                for name in attributes:
                    assert name in instance.table.schema.names

    def test_gates_for_mode_selection(self):
        scenario = get_scenario("order3-interaction")
        assert scenario.gates_for(True) is scenario.gates
        assert scenario.gates_for(False) is scenario.full_gates
        no_full = get_scenario("single-pairwise")
        assert no_full.gates_for(False) is no_full.gates


class TestRegistration:
    def _dummy(self, rng: np.random.Generator, n: int) -> ScenarioInstance:
        from repro.synth.generators import independent_population

        population = independent_population(rng, 3)
        return ScenarioInstance(
            table=population.sample_table(n, rng),
            truth=frozenset(),
            population=population,
        )

    def test_invalid_scenario_rejected(self):
        with pytest.raises(DataError, match="whitespace"):
            Scenario(
                name="has space",
                description="bad",
                seed=1,
                builder=self._dummy,
            )
        with pytest.raises(DataError, match="max_order"):
            Scenario(
                name="bad-order",
                description="bad",
                seed=1,
                builder=self._dummy,
                max_order=1,
            )
        with pytest.raises(DataError, match="smoke_samples"):
            Scenario(
                name="bad-sizes",
                description="bad",
                seed=1,
                builder=self._dummy,
                smoke_samples=100,
                full_samples=50,
            )


class TestConformanceGates:
    def test_bounds_validated(self):
        with pytest.raises(DataError, match="min_precision"):
            ConformanceGates(min_precision=1.5)
        with pytest.raises(DataError, match="max_kl"):
            ConformanceGates(max_kl=0.0)
        with pytest.raises(DataError, match="max_false_alarms"):
            ConformanceGates(max_false_alarms=-1)

    def test_defaults_are_permissive(self):
        gates = ConformanceGates()
        assert gates.min_precision == 0.0
        assert gates.min_recall == 0.0
        assert gates.max_kl == float("inf")
        assert gates.max_false_alarms is None
