"""Tests for the Figure-3 discovery loop."""

import numpy as np
import pytest

from repro.data.contingency import ContingencyTable
from repro.discovery.config import DiscoveryConfig
from repro.discovery.engine import DiscoveryEngine, discover
from repro.exceptions import DataError
from repro.maxent.dual import fit_dual
from repro.synth.generators import (
    independent_population,
    random_planted_population,
)


class TestPaperRun:
    def test_first_adoption_is_smoker_cancer(self, table):
        result = discover(table)
        first = result.found[0]
        assert first.attributes == ("SMOKING", "CANCER")
        assert first.values == (0, 0)

    def test_all_constraints_satisfied(self, table):
        result = discover(table)
        model = result.model
        for cell in result.found:
            marginal = model.marginal(list(cell.attributes))
            assert marginal[cell.values] == pytest.approx(
                cell.probability, abs=1e-7
            )

    def test_final_model_not_flagged(self, table):
        """After discovery, a rescan at every order finds nothing more."""
        from repro.significance.mml import most_significant, scan_order

        result = discover(table)
        for order in (2, 3):
            tests = scan_order(
                table, result.model, order, result.constraints
            )
            assert most_significant(tests) is None

    def test_terminal_scan_per_order(self, table):
        result = discover(table)
        terminal_orders = [s.order for s in result.scans if s.chosen is None]
        assert terminal_orders.count(2) == 1
        assert terminal_orders.count(3) == 1

    def test_smoking_cancer_association_learned(self, table):
        """The acquired knowledge reproduces the data's association:
        smokers have elevated cancer probability."""
        result = discover(table)
        model = result.model
        smoker = model.conditional({"CANCER": "yes"}, {"SMOKING": "smoker"})
        non_smoker = model.conditional(
            {"CANCER": "yes"}, {"SMOKING": "non-smoker"}
        )
        empirical_smoker = 240 / 1290
        empirical_non_smoker = 93 / 1133
        assert smoker == pytest.approx(empirical_smoker, abs=0.01)
        assert non_smoker == pytest.approx(empirical_non_smoker, abs=0.01)
        assert smoker > non_smoker

    def test_summary_mentions_constraints(self, table):
        result = discover(table)
        text = result.summary()
        assert "SMOKING=smoker" in text
        assert f"N={table.total}" in text


class TestSettledAdoptions:
    """A cell the settled model already meets joins without a fit."""

    @staticmethod
    def _discover(table, patch, refit_always=False):
        import repro.discovery.engine as engine_module

        fits = []

        def recording_fit(constraints, initial=None, **kwargs):
            fits.append(len(constraints.cells))
            return fit_dual(constraints, initial=initial, **kwargs)

        patch.setattr(engine_module, "fit_dual", recording_fit)
        if refit_always:
            patch.setattr(engine_module, "_POLISH_FLOOR", 0.0)
        return discover(table), fits

    def test_determined_cells_join_without_a_fit(self, table, monkeypatch):
        result, fits = self._discover(table, monkeypatch)
        adopted = [scan.chosen for scan in result.scans if scan.chosen]
        skipped = [
            test
            for count, test in enumerate(adopted, start=1)
            if count not in fits
        ]
        assert len(fits) == result.profile.fit_calls
        assert skipped
        assert all(test.determined for test in skipped)
        assert all(result.model.cell_factors[c.key] > 0 for c in result.found)

    def test_skipping_moves_nothing(self, table, monkeypatch):
        with monkeypatch.context() as patch:
            result, fits = self._discover(table, patch)
        with monkeypatch.context() as patch:
            always, every_fit = self._discover(table, patch, refit_always=True)
        assert len(every_fit) == len(always.found) > len(fits)
        assert [c.key for c in result.found] == [c.key for c in always.found]
        np.testing.assert_allclose(
            result.model.joint(), always.model.joint(), rtol=0, atol=1e-12
        )


class TestConfig:
    def test_max_order_limits_scan(self, table):
        result = discover(table, DiscoveryConfig(max_order=2))
        assert all(s.order == 2 for s in result.scans)

    def test_max_constraints_caps_adoptions(self, table):
        result = discover(table, DiscoveryConfig(max_constraints=2))
        assert len(result.found) == 2

    def test_gevarter_solver_agrees(self, table):
        dual_result = discover(table, DiscoveryConfig(solver="dual"))
        gevarter_result = discover(table, DiscoveryConfig(solver="gevarter"))
        assert [c.key for c in dual_result.found] == [
            c.key for c in gevarter_result.found
        ]
        assert np.allclose(
            dual_result.model.joint(), gevarter_result.model.joint(), atol=1e-6
        )

    @pytest.mark.parametrize("name", ["ipf", "gevarter"])
    def test_stored_ipf_solver_fits_with_dual(self, table, name):
        # Configs stored by earlier versions name "ipf" or "gevarter";
        # they load, fit and update with the dual solver and save back
        # unchanged.
        from repro.core.knowledge_base import ProbabilisticKnowledgeBase

        stored = {**DiscoveryConfig().to_dict(), "solver": name}
        config = DiscoveryConfig.from_dict(stored)
        assert config.to_dict() == stored
        assert DiscoveryConfig().solver == "dual"
        legacy = discover(table, config)
        dual = discover(table, DiscoveryConfig())
        assert [c.key for c in legacy.found] == [c.key for c in dual.found]
        assert np.array_equal(legacy.model.joint(), dual.model.joint())
        kbs = [
            ProbabilisticKnowledgeBase.from_data(table, c)
            for c in (config, DiscoveryConfig())
        ]
        for kb in kbs:
            kb.update(table)
        assert kbs[0].discovery.config.to_dict() == stored
        assert np.array_equal(kbs[0].model.joint(), kbs[1].model.joint())

    def test_invalid_config(self):
        with pytest.raises(DataError):
            DiscoveryConfig(solver="magic")
        with pytest.raises(DataError):
            DiscoveryConfig(max_order=1)
        with pytest.raises(DataError):
            DiscoveryConfig(tol=-1.0)

    def test_empty_table_rejected(self, schema):
        with pytest.raises(DataError, match="empty"):
            discover(ContingencyTable.zeros(schema))


class TestBehaviourOnSyntheticData:
    def test_independent_data_yields_few_constraints(self, rng):
        """On truly independent data the MML test should stay quiet."""
        population = independent_population(rng, num_attributes=3)
        table = population.sample_table(5000, rng)
        result = discover(table, DiscoveryConfig(max_order=2))
        assert len(result.found) <= 1  # allow one chance false alarm

    def test_planted_correlation_recovered(self, rng):
        population = random_planted_population(
            rng, num_attributes=3, num_planted=1, strength=4.0
        )
        table = population.sample_table(20000, rng)
        result = discover(table, DiscoveryConfig(max_order=2))
        planted = population.planted
        found_keys = {(c.attributes, c.values) for c in result.found}
        assert (planted[0].attributes, planted[0].values) in found_keys

    def test_more_data_increases_sensitivity(self, rng):
        """A weak planted effect invisible at small N emerges at large N —
        the MML threshold adapts to sample size."""
        population = random_planted_population(
            np.random.default_rng(7), num_attributes=3, num_planted=1,
            strength=1.6,
        )
        small = population.sample_table(300, np.random.default_rng(1))
        large = population.sample_table(60000, np.random.default_rng(2))
        few = discover(small, DiscoveryConfig(max_order=2))
        many = discover(large, DiscoveryConfig(max_order=2))
        assert len(many.found) >= len(few.found)
        assert len(many.found) >= 1

    def test_dataset_pipeline(self, rng):
        """Discovery accepts data arriving as raw samples too."""
        population = random_planted_population(rng, num_attributes=3)
        dataset = population.sample(5000, rng)
        result = discover(dataset.to_contingency())
        assert result.table.total == 5000

    def test_engine_reusable(self, table):
        engine = DiscoveryEngine()
        first = engine.run(table)
        second = engine.run(table)
        assert [c.key for c in first.found] == [c.key for c in second.found]
