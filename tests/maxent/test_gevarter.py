"""Tests for the paper's Gauss–Seidel solver and its Table-2 trace."""

import numpy as np
import pytest
from dense_ipf import dense_fit_ipf

from repro.exceptions import ConvergenceError
from repro.maxent.constraints import ConstraintSet
from repro.maxent.gevarter import fit_gevarter


@pytest.fixture
def paper_constraints(table):
    constraints = ConstraintSet.first_order(table)
    constraints.add_cell(
        constraints.cell_from_table(
            table, ["SMOKING", "FAMILY_HISTORY"], [0, 1]
        )
    )
    return constraints


class TestFixedPoint:
    def test_satisfies_constraints(self, paper_constraints):
        fit = fit_gevarter(paper_constraints)
        assert fit.converged
        model = fit.model
        pair = model.marginal(["SMOKING", "FAMILY_HISTORY"])
        assert pair[0, 1] == pytest.approx(750 / 3428, abs=1e-8)
        for name in paper_constraints.schema.names:
            assert np.allclose(
                model.marginal([name]),
                paper_constraints.margin(name),
                atol=1e-8,
            )

    def test_agrees_with_ipf(self, paper_constraints):
        """Both solvers reach the same (unique) maxent distribution."""
        gevarter = fit_gevarter(paper_constraints)
        ipf = dense_fit_ipf(paper_constraints)
        assert np.allclose(
            gevarter.model.joint(), ipf.model.joint(), atol=1e-8
        )

    def test_agrees_with_ipf_multiple_cells(self, table):
        constraints = ConstraintSet.first_order(table)
        for subset, values in [
            (("SMOKING", "CANCER"), (0, 0)),
            (("SMOKING", "FAMILY_HISTORY"), (0, 1)),
        ]:
            constraints.add_cell(
                constraints.cell_from_table(table, list(subset), list(values))
            )
        gevarter = fit_gevarter(constraints)
        ipf = dense_fit_ipf(constraints)
        assert np.allclose(
            gevarter.model.joint(), ipf.model.joint(), atol=1e-8
        )

    def test_first_order_only_is_immediate(self, table):
        """Eq 60: with margins only, the start point is already the answer."""
        constraints = ConstraintSet.first_order(table)
        fit = fit_gevarter(constraints)
        assert fit.sweeps <= 2
        expected = np.einsum(
            "i,j,k->ijk",
            constraints.margin("SMOKING"),
            constraints.margin("CANCER"),
            constraints.margin("FAMILY_HISTORY"),
        )
        assert np.allclose(fit.model.joint(), expected, atol=1e-9)


class TestTrace:
    def test_trace_starts_at_first_order_values(self, paper_constraints):
        """Table 2 row 0: the a values start at the first-order p's."""
        fit = fit_gevarter(paper_constraints)
        start = fit.trace[0]
        assert start["a^SMOKING_1"] == pytest.approx(1290 / 3428)
        assert start["a^CANCER_2"] == pytest.approx(2995 / 3428)
        assert start["a^SMOKING,FAMILY_HISTORY_1,2"] == 1.0

    def test_trace_length(self, paper_constraints):
        fit = fit_gevarter(paper_constraints)
        # Initial snapshot + one per sweep.
        assert len(fit.trace) == fit.sweeps + 1

    def test_cell_factor_moves_above_one(self, paper_constraints):
        """The constrained cell is in excess (750 observed vs 620 expected),
        so its a factor must end above 1 (the paper's b grows from 1)."""
        fit = fit_gevarter(paper_constraints)
        final = fit.trace[-1]
        assert final["a^SMOKING,FAMILY_HISTORY_1,2"] > 1.0

    def test_trace_optional(self, paper_constraints):
        fit = fit_gevarter(paper_constraints, record_trace=False)
        assert fit.trace == []


class TestConvergenceControl:
    def test_convergence_error(self, paper_constraints):
        with pytest.raises(ConvergenceError):
            fit_gevarter(paper_constraints, tol=1e-15, max_sweeps=1)

    def test_best_effort(self, paper_constraints):
        fit = fit_gevarter(
            paper_constraints,
            tol=1e-15,
            max_sweeps=2,
            require_convergence=False,
        )
        assert not fit.converged

    def test_warm_start(self, paper_constraints):
        cold = fit_gevarter(paper_constraints)
        warm = fit_gevarter(paper_constraints, initial=cold.model)
        assert warm.sweeps <= cold.sweeps
