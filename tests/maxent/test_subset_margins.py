"""Tests for whole-subset marginal constraints (the log-linear extension)."""

import numpy as np
import pytest

from repro.exceptions import ConstraintError
from repro.maxent import elimination
from repro.maxent.constraints import ConstraintSet
from repro.maxent.dual import fit_dual
from repro.maxent.gevarter import fit_gevarter


@pytest.fixture
def constraints(table):
    constraints = ConstraintSet.first_order(table)
    constraints.set_subset_margin(
        ["SMOKING", "CANCER"],
        constraints.subset_margin_from_table(table, ["SMOKING", "CANCER"]),
    )
    return constraints


class TestValidation:
    def test_shape_checked(self, table):
        constraints = ConstraintSet.first_order(table)
        with pytest.raises(ConstraintError, match="shape"):
            constraints.set_subset_margin(
                ["SMOKING", "CANCER"], np.ones((2, 2)) / 4
            )

    def test_sum_checked(self, table):
        constraints = ConstraintSet.first_order(table)
        with pytest.raises(ConstraintError, match="sum to 1"):
            constraints.set_subset_margin(
                ["SMOKING", "CANCER"], np.full((3, 2), 0.1)
            )

    def test_negative_rejected(self, table):
        constraints = ConstraintSet.first_order(table)
        array = np.full((3, 2), 1 / 6)
        array[0, 0] = -0.1
        array[0, 1] = 1 / 6 + 0.1 + 1 / 6
        with pytest.raises(ConstraintError, match="negative"):
            constraints.set_subset_margin(["SMOKING", "CANCER"], array)

    def test_first_order_consistency_checked(self, table):
        """A subset margin implying different first-order margins than the
        ones already set is rejected."""
        constraints = ConstraintSet.first_order(table)
        inconsistent = np.array([[0.3, 0.3], [0.1, 0.1], [0.1, 0.1]])
        with pytest.raises(ConstraintError, match="inconsistent"):
            constraints.set_subset_margin(["SMOKING", "CANCER"], inconsistent)

    def test_duplicate_rejected(self, table, constraints):
        with pytest.raises(ConstraintError, match="duplicate"):
            constraints.set_subset_margin(
                ["CANCER", "SMOKING"],
                constraints.subset_margin_from_table(
                    table, ["SMOKING", "CANCER"]
                ),
            )

    def test_single_attribute_rejected(self, table):
        constraints = ConstraintSet.first_order(table)
        with pytest.raises(ConstraintError, match="order >= 2"):
            constraints.set_subset_margin(["CANCER"], np.array([0.2, 0.8]))

    def test_canonical_order_applied(self, table):
        constraints = ConstraintSet.first_order(table)
        target = constraints.subset_margin_from_table(
            table, ["CANCER", "SMOKING"]
        )
        constraints.set_subset_margin(["CANCER", "SMOKING"], target)
        assert constraints.has_subset_margin(["SMOKING", "CANCER"])

    def test_copy_independent(self, table, constraints):
        clone = constraints.copy()
        clone.subset_margins  # accessor works
        assert clone.has_subset_margin(["SMOKING", "CANCER"])


class TestFitting:
    def test_ipf_satisfies_subset_margin(self, table, constraints):
        fit = fit_dual(constraints)
        assert fit.converged
        pair = fit.model.marginal(["SMOKING", "CANCER"])
        expected = table.marginal(["SMOKING", "CANCER"]) / table.total
        assert np.allclose(pair, expected, atol=1e-8)

    def test_other_attribute_independent(self, table, constraints):
        """With only an AB margin constrained, C stays independent."""
        fit = fit_dual(constraints)
        joint = fit.model.joint()
        pair = fit.model.marginal(["SMOKING", "CANCER"])
        history = fit.model.marginal(["FAMILY_HISTORY"])
        assert np.allclose(
            joint, np.einsum("ij,k->ijk", pair, history), atol=1e-8
        )

    def test_mixed_cell_and_subset(self, table):
        constraints = ConstraintSet.first_order(table)
        constraints.set_subset_margin(
            ["SMOKING", "CANCER"],
            constraints.subset_margin_from_table(table, ["SMOKING", "CANCER"]),
        )
        constraints.add_cell(
            constraints.cell_from_table(
                table, ["SMOKING", "FAMILY_HISTORY"], [0, 1]
            )
        )
        fit = fit_dual(constraints)
        pair = fit.model.marginal(["SMOKING", "FAMILY_HISTORY"])
        assert pair[0, 1] == pytest.approx(750 / 3428, abs=1e-8)
        ab = fit.model.marginal(["SMOKING", "CANCER"])
        assert np.allclose(
            ab, table.marginal(["SMOKING", "CANCER"]) / table.total, atol=1e-8
        )

    def test_table_factor_created(self, table, constraints):
        fit = fit_dual(constraints)
        assert ("SMOKING", "CANCER") in fit.model.table_factors

    def test_gevarter_rejects_subset_margins(self, constraints):
        with pytest.raises(ConstraintError, match="fit_dual"):
            fit_gevarter(constraints)

    def test_elimination_includes_table_factors(self, table, constraints):
        model = fit_dual(constraints).model
        dense = float(model.unnormalized().sum())
        assert elimination.partition_sum(model) == pytest.approx(
            dense, rel=1e-10
        )
        target = {"CANCER": "yes"}
        given = {"SMOKING": "smoker"}
        assert elimination.query(model, target, given) == pytest.approx(
            model.conditional(target, given), rel=1e-9
        )

    def test_model_copy_preserves_table_factors(self, table, constraints):
        model = fit_dual(constraints).model
        clone = model.copy()
        assert np.allclose(
            clone.table_factors[("SMOKING", "CANCER")],
            model.table_factors[("SMOKING", "CANCER")],
        )
        clone.table_factors[("SMOKING", "CANCER")][0, 0] = 99.0
        assert model.table_factors[("SMOKING", "CANCER")][0, 0] != 99.0

    def test_a_values_include_table_factors(self, table, constraints):
        model = fit_dual(constraints).model
        values = model.a_values()
        assert "a^SMOKING,CANCER_1,1" in values
