"""Property-based tests for the extension modules.

Covers the invariants of the additions beyond the paper's core: the dual
solver's agreement with the dense IPF oracle, subset-margin fits, EM's
monotone likelihood and mass conservation, and largest-remainder
rounding.
"""

import numpy as np
import pytest
from dense_ipf import dense_fit_ipf
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.contingency import ContingencyTable
from repro.data.dataset import Dataset
from repro.data.missing import (
    MISSING,
    IncompleteDataset,
    em_joint,
    round_preserving_total,
)
from repro.data.schema import Attribute, Schema
from repro.maxent.constraints import ConstraintSet
from repro.maxent.dual import fit_dual

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def positive_tables(draw, max_attributes=3, max_values=3):
    """Tables with strictly positive cells (dual-solver friendly)."""
    count = draw(st.integers(2, max_attributes))
    attributes = [
        Attribute(
            f"ATTR{i}",
            tuple(f"v{v}" for v in range(draw(st.integers(2, max_values)))),
        )
        for i in range(count)
    ]
    schema = Schema(attributes)
    cells = schema.num_cells
    counts = draw(
        st.lists(st.integers(2, 50), min_size=cells, max_size=cells)
    )
    return ContingencyTable(
        schema, np.array(counts, dtype=np.int64).reshape(schema.shape)
    )


class TestDualSolverProperties:
    @SETTINGS
    @given(positive_tables())
    def test_dual_matches_ipf_on_margins(self, table):
        constraints = ConstraintSet.first_order(table)
        dual = fit_dual(constraints, tol=1e-7)
        ipf = dense_fit_ipf(constraints)
        assert np.allclose(dual.model.joint(), ipf.model.joint(), atol=1e-5)

    @SETTINGS
    @given(positive_tables())
    def test_dual_matches_ipf_with_cell(self, table):
        names = table.schema.names
        constraints = ConstraintSet.first_order(table)
        constraints.add_cell(
            constraints.cell_from_table(table, [names[0], names[1]], [0, 0])
        )
        dual = fit_dual(constraints, tol=1e-7)
        ipf = dense_fit_ipf(constraints, max_sweeps=3000)
        assert np.allclose(dual.model.joint(), ipf.model.joint(), atol=1e-5)


class TestSubsetMarginProperties:
    @SETTINGS
    @given(positive_tables())
    def test_subset_margin_fit_exact(self, table):
        names = table.schema.names
        constraints = ConstraintSet.first_order(table)
        target = constraints.subset_margin_from_table(
            table, [names[0], names[1]]
        )
        constraints.set_subset_margin([names[0], names[1]], target)
        fit = fit_dual(constraints)
        fitted = fit.model.marginal([names[0], names[1]])
        assert np.allclose(fitted, target, atol=1e-7)

    @SETTINGS
    @given(positive_tables())
    def test_subset_margin_entropy_below_independence(self, table):
        """Adding constraints can only lower (or keep) the maxent entropy."""
        from repro.maxent.entropy import entropy

        names = table.schema.names
        first_order = ConstraintSet.first_order(table)
        independent = fit_dual(first_order)
        constrained = first_order.copy()
        constrained.set_subset_margin(
            [names[0], names[1]],
            constrained.subset_margin_from_table(table, [names[0], names[1]]),
        )
        fitted = fit_dual(constrained)
        assert entropy(fitted.model.joint()) <= entropy(
            independent.model.joint()
        ) + 1e-9


class TestEMProperties:
    @SETTINGS
    @given(
        positive_tables(),
        st.floats(0.0, 0.5),
        st.integers(0, 2**31 - 1),
    )
    def test_em_monotone_and_normalized(self, table, fraction, seed):
        rng = np.random.default_rng(seed)
        dataset = Dataset.from_joint(
            table.schema, table.probabilities(), 200, rng
        )
        rows = dataset.rows.copy()
        mask = rng.random(rows.shape) < fraction
        rows[mask] = MISSING
        result = em_joint(
            IncompleteDataset(table.schema, rows),
            max_iterations=500,
            require_convergence=False,
        )
        assert result.joint.sum() == pytest.approx(1.0)
        assert (result.joint >= -1e-12).all()
        history = np.array(result.log_likelihood)
        assert (np.diff(history) >= -1e-7).all()

    @SETTINGS
    @given(st.lists(st.floats(0.0, 20.0), min_size=1, max_size=40))
    def test_rounding_preserves_total(self, values):
        counts = np.array(values)
        rounded = round_preserving_total(counts)
        assert rounded.sum() == round(counts.sum())
        assert (rounded >= 0).all()
        # Never off by a full unit from the exact value.
        assert np.abs(rounded - counts).max() <= 1.0 + 1e-9
