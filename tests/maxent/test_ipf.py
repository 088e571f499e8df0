"""Max-ent fit properties on the paper's constraint system.

The fit is :func:`repro.maxent.dual.fit_dual`, the library's one general
fitter; these are the properties any max-ent fit must have.
"""

import numpy as np
import pytest

from repro.exceptions import ConstraintError, ConvergenceError
from repro.maxent.constraints import CellConstraint, ConstraintSet
from repro.maxent.dual import fit_dual


@pytest.fixture
def paper_constraints(table):
    """First-order margins plus the Table-2 cell (SMOKING=1, FH=2)."""
    constraints = ConstraintSet.first_order(table)
    constraints.add_cell(
        constraints.cell_from_table(
            table, ["SMOKING", "FAMILY_HISTORY"], [0, 1]
        )
    )
    return constraints


class TestFirstOrderOnly:
    def test_recovers_independence(self, table):
        constraints = ConstraintSet.first_order(table)
        fit = fit_dual(constraints)
        assert fit.converged
        expected = np.einsum(
            "i,j,k->ijk",
            constraints.margin("SMOKING"),
            constraints.margin("CANCER"),
            constraints.margin("FAMILY_HISTORY"),
        )
        assert np.allclose(fit.model.joint(), expected, atol=1e-9)

    def test_converges_in_one_sweep(self, table):
        constraints = ConstraintSet.first_order(table)
        fit = fit_dual(constraints)
        assert fit.sweeps <= 2


class TestCellConstraints:
    def test_satisfies_all_constraints(self, paper_constraints):
        fit = fit_dual(paper_constraints)
        model = fit.model
        for name in paper_constraints.schema.names:
            assert np.allclose(
                model.marginal([name]),
                paper_constraints.margin(name),
                atol=1e-8,
            )
        pair = model.marginal(["SMOKING", "FAMILY_HISTORY"])
        assert pair[0, 1] == pytest.approx(750 / 3428, abs=1e-8)

    def test_joint_normalized(self, paper_constraints):
        fit = fit_dual(paper_constraints)
        assert fit.model.joint().sum() == pytest.approx(1.0)

    def test_untouched_attribute_stays_independent(self, paper_constraints):
        """The paper notes B drops out of the AC-constraint equations:
        CANCER stays independent of the (SMOKING, FH) pair."""
        fit = fit_dual(paper_constraints)
        joint = fit.model.joint()
        cancer = fit.model.marginal(["CANCER"])
        pair = fit.model.marginal(["SMOKING", "FAMILY_HISTORY"])
        expected = np.einsum("ik,j->ijk", pair, cancer)
        assert np.allclose(joint, expected, atol=1e-8)

    def test_history_monotone_progress(self, paper_constraints):
        fit = fit_dual(paper_constraints)
        assert fit.history[-1] < fit.history[0]

    def test_warm_start_faster(self, paper_constraints):
        cold = fit_dual(paper_constraints)
        warm = fit_dual(paper_constraints, initial=cold.model)
        assert warm.sweeps <= cold.sweeps
        assert np.allclose(warm.model.joint(), cold.model.joint(), atol=1e-8)

    def test_multiple_cells(self, table):
        constraints = ConstraintSet.first_order(table)
        for subset, values in [
            (("SMOKING", "CANCER"), (0, 0)),
            (("SMOKING", "FAMILY_HISTORY"), (0, 1)),
            (("CANCER", "FAMILY_HISTORY"), (0, 0)),
        ]:
            constraints.add_cell(
                constraints.cell_from_table(table, list(subset), list(values))
            )
        fit = fit_dual(constraints)
        model = fit.model
        for cell in constraints.cells:
            marginal = model.marginal(list(cell.attributes))
            assert marginal[cell.values] == pytest.approx(
                cell.probability, abs=1e-8
            )

    def test_zero_probability_cell(self, table):
        constraints = ConstraintSet.first_order(table)
        constraints.add_cell(
            CellConstraint(("SMOKING", "CANCER"), (0, 0), 0.0)
        )
        fit = fit_dual(constraints)
        pair = fit.model.marginal(["SMOKING", "CANCER"])
        assert pair[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_near_one_cell_rejected(self, table):
        constraints = ConstraintSet(table.schema)
        for name in table.schema.names:
            constraints.set_margin(
                name, table.first_order_probabilities(name)
            )
        constraints._cells[(("SMOKING", "CANCER"), (0, 0))] = CellConstraint(
            ("SMOKING", "CANCER"), (0, 0), 1.0
        )
        with pytest.raises(ConstraintError, match="target ~1"):
            fit_dual(constraints)

    def test_convergence_error(self, paper_constraints):
        with pytest.raises(ConvergenceError, match="did not converge"):
            fit_dual(paper_constraints, tol=1e-15, max_sweeps=1)

    def test_best_effort_mode(self, paper_constraints):
        fit = fit_dual(
            paper_constraints,
            tol=1e-15,
            max_sweeps=1,
            require_convergence=False,
        )
        assert not fit.converged
        assert fit.sweeps == 1


class TestMaxEntProperty:
    def test_entropy_not_below_empirical(self, table, paper_constraints):
        """The defining property: among distributions satisfying the
        constraints, the fit has maximal entropy.  The empirical joint
        satisfies them too (constraints came from the data), so its entropy
        is a lower bound."""
        from repro.maxent.entropy import entropy

        fit = fit_dual(paper_constraints)
        assert entropy(fit.model.joint()) >= entropy(
            table.probabilities()
        ) - 1e-9

    def test_factored_form_preserved(self, paper_constraints):
        """The solution stays in Eq-12 product form: one scalar per cell
        constraint, vectors per margin, nothing else."""
        fit = fit_dual(paper_constraints)
        assert set(fit.model.cell_factors) == {
            (("SMOKING", "FAMILY_HISTORY"), (0, 1))
        }

    def test_incomplete_constraints_rejected(self, table):
        constraints = ConstraintSet(table.schema)
        constraints.set_margin(
            "SMOKING", table.first_order_probabilities("SMOKING")
        )
        with pytest.raises(ConstraintError, match="missing"):
            fit_dual(constraints)
