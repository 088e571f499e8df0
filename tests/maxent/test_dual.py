"""Tests for the convex dual (L-BFGS) solver."""

import sys

import numpy as np
import pytest

from repro.exceptions import ConstraintError, MissingDependencyError, ReproError
from repro.maxent.constraints import ConstraintSet
from repro.maxent.dual import fit_dual
from repro.maxent.ipf import fit_ipf


@pytest.fixture
def paper_constraints(table):
    constraints = ConstraintSet.first_order(table)
    constraints.add_cell(
        constraints.cell_from_table(
            table, ["SMOKING", "FAMILY_HISTORY"], [0, 1]
        )
    )
    return constraints


class TestAgreement:
    def test_matches_ipf_first_order(self, table):
        constraints = ConstraintSet.first_order(table)
        dual = fit_dual(constraints, tol=1e-8)
        ipf = fit_ipf(constraints)
        assert np.allclose(dual.model.joint(), ipf.model.joint(), atol=1e-7)

    def test_matches_ipf_with_cell(self, paper_constraints):
        dual = fit_dual(paper_constraints, tol=1e-8)
        ipf = fit_ipf(paper_constraints)
        assert np.allclose(dual.model.joint(), ipf.model.joint(), atol=1e-7)

    def test_matches_ipf_with_subset_margin(self, table):
        constraints = ConstraintSet.first_order(table)
        constraints.set_subset_margin(
            ["SMOKING", "CANCER"],
            constraints.subset_margin_from_table(table, ["SMOKING", "CANCER"]),
        )
        dual = fit_dual(constraints, tol=1e-8)
        ipf = fit_ipf(constraints)
        assert np.allclose(dual.model.joint(), ipf.model.joint(), atol=1e-6)

    def test_constraints_satisfied(self, paper_constraints):
        fit = fit_dual(paper_constraints, tol=1e-8)
        model = fit.model
        for name in paper_constraints.schema.names:
            assert np.allclose(
                model.marginal([name]),
                paper_constraints.margin(name),
                atol=1e-7,
            )
        pair = model.marginal(["SMOKING", "FAMILY_HISTORY"])
        assert pair[0, 1] == pytest.approx(750 / 3428, abs=1e-7)

    def test_factored_form(self, paper_constraints):
        """The dual multipliers land in the same a-factor slots."""
        fit = fit_dual(paper_constraints, tol=1e-8)
        assert set(fit.model.cell_factors) == {
            (("SMOKING", "FAMILY_HISTORY"), (0, 1))
        }
        assert fit.model.cell_factors[
            (("SMOKING", "FAMILY_HISTORY"), (0, 1))
        ] > 1.0


class TestEdgeCases:
    def test_degenerate_target_rejected(self, table):
        constraints = ConstraintSet.first_order(table)
        from repro.maxent.constraints import CellConstraint

        constraints.add_cell(
            CellConstraint(("SMOKING", "CANCER"), (0, 0), 0.0)
        )
        with pytest.raises(ConstraintError, match="strictly inside"):
            fit_dual(constraints)

    def test_zero_margin_rejected(self, table):
        constraints = ConstraintSet(table.schema)
        constraints.set_margin("SMOKING", [0.5, 0.5, 0.0])
        constraints.set_margin(
            "CANCER", table.first_order_probabilities("CANCER")
        )
        constraints.set_margin(
            "FAMILY_HISTORY", table.first_order_probabilities("FAMILY_HISTORY")
        )
        with pytest.raises(ConstraintError, match="strictly inside"):
            fit_dual(constraints)

    def test_reports_iterations(self, paper_constraints):
        fit = fit_dual(paper_constraints, tol=1e-8)
        assert fit.converged
        assert fit.sweeps >= 1
        assert fit.max_violation < 1e-8

    def test_missing_scipy_is_a_typed_error(self, paper_constraints, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy.optimize", None)
        with pytest.raises(MissingDependencyError, match="needs scipy") as caught:
            fit_dual(paper_constraints)
        assert isinstance(caught.value, ReproError)
        assert isinstance(caught.value.__cause__, ImportError)
