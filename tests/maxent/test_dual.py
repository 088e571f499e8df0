"""The Newton dual solver against the frozen dense IPF oracle.

:func:`repro.maxent.dual.fit_dual` is the library's fit;
``dense_ipf.dense_fit_ipf`` is its oracle.  The contract: fitted marginals
within 1e-12 of IPF run to ``tol = 1e-13``, zero targets fitted to exactly
0, the same structural-conflict errors, and a warm start that changes the
speed, never the fixed point.
"""

import re
from functools import lru_cache

import numpy as np
import pytest
from dense_ipf import dense_fit_ipf
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_ipf_oracle import _assert_finite, _oracle, _random_case

from repro.data.schema import Attribute, Schema
from repro.discovery.config import DiscoveryConfig
from repro.discovery.engine import DiscoveryEngine
from repro.exceptions import ConstraintError, ConvergenceError, ReproError
from repro.maxent import dual as dual_module
from repro.maxent.constraints import CellConstraint, ConstraintSet
from repro.maxent.dual import fit_dual, warm_start_model
from repro.maxent.model import MaxEntModel
from repro.scenarios.registry import get_scenario, scenario_names

TOLERANCE = 1e-12


def _schema(cardinalities) -> Schema:
    return Schema(
        [
            Attribute(f"X{i}", tuple(str(v) for v in range(card)))
            for i, card in enumerate(cardinalities)
        ]
    )


def _outcome(fit, constraints, initial=None, **kwargs):
    try:
        return fit(constraints, initial=initial, **kwargs)
    except ReproError as error:
        return error


def _assert_same_joint(ours: MaxEntModel, oracle: MaxEntModel) -> None:
    """Component by component, so no 2^n joint is built."""
    ours, oracle = ours.factored(), oracle.factored()
    assert ours.components == oracle.components
    for mine, theirs in zip(ours.tensors, oracle.tensors):
        np.testing.assert_allclose(mine, theirs, rtol=0, atol=TOLERANCE)


def _assert_same_error(ours, oracle) -> None:
    assert isinstance(oracle, ConstraintError)
    assert type(ours) is type(oracle)
    assert str(ours) == str(oracle)


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
        dual = fit_dual(constraints)
        oracle = dense_fit_ipf(constraints, tol=1e-13)
        _assert_same_joint(dual.model, oracle.model)

    def test_matches_ipf_with_cell(self, paper_constraints):
        dual = fit_dual(paper_constraints)
        ipf = dense_fit_ipf(paper_constraints, tol=1e-13)
        np.testing.assert_allclose(
            dual.model.joint(), ipf.model.joint(), rtol=0, atol=TOLERANCE
        )

    def test_matches_ipf_with_subset_margin(self, table):
        constraints = ConstraintSet.first_order(table)
        constraints.set_subset_margin(
            ["SMOKING", "CANCER"],
            constraints.subset_margin_from_table(table, ["SMOKING", "CANCER"]),
        )
        dual = fit_dual(constraints)
        ipf = dense_fit_ipf(constraints, tol=1e-13)
        np.testing.assert_allclose(
            dual.model.joint(), ipf.model.joint(), rtol=0, atol=TOLERANCE
        )

    def test_constraints_satisfied(self, paper_constraints):
        model = fit_dual(paper_constraints).model
        for name in paper_constraints.schema.names:
            np.testing.assert_allclose(
                model.marginal([name]),
                paper_constraints.margin(name),
                rtol=0,
                atol=1e-13,
            )
        pair = model.marginal(["SMOKING", "FAMILY_HISTORY"])
        assert pair[0, 1] == pytest.approx(750 / 3428, abs=1e-13)

    def test_factored_form(self, paper_constraints):
        """The multipliers land in the paper's a-factor slots."""
        fit = fit_dual(paper_constraints)
        key = (("SMOKING", "FAMILY_HISTORY"), (0, 1))
        assert list(fit.model.cell_factors) == [key]
        assert fit.model.cell_factors[key] > 1.0



@lru_cache(maxsize=None)
def _final_constraints(name: str) -> ConstraintSet:
    """The constraint set discovery ends with on a scenario's smoke table."""
    scenario = get_scenario(name)
    config = DiscoveryConfig(max_order=scenario.max_order)
    with DiscoveryEngine(config) as engine:
        return engine.run(scenario.build(smoke=True).table).constraints


@pytest.mark.parametrize("name", scenario_names())
def test_fleet_final_fit_matches_ipf(name):
    constraints = _final_constraints(name)
    dual = fit_dual(constraints)
    assert dual.converged
    oracle = dense_fit_ipf(constraints, tol=1e-13)
    _assert_same_joint(dual.model, oracle.model)


@pytest.mark.parametrize("name", ["order4-interaction", "stress-wide-order3"])
def test_warm_start_reaches_the_cold_fixed_point(name):
    constraints = _final_constraints(name)
    cold = fit_dual(constraints)
    # A warm start from the first-order fit with perturbed factors.
    rng = np.random.default_rng(3)
    first_order = ConstraintSet(constraints.schema)
    for attribute in constraints.schema:
        first_order.set_margin(attribute.name, constraints.margin(attribute.name))
    start = fit_dual(first_order).model
    for vector in start.margin_factors.values():
        vector *= rng.uniform(0.5, 2.0, vector.shape)
    warm = fit_dual(constraints, initial=warm_start_model(constraints, start))
    assert warm.converged
    _assert_same_joint(warm.model, cold.model)
    # Restarting from the fixed point needs no step at all.
    again = fit_dual(constraints, initial=cold.model)
    assert again.sweeps == 0
    _assert_same_joint(again.model, cold.model)


class TestZeroTargets:
    def _constraints(self) -> ConstraintSet:
        schema = _schema([3, 2, 2])
        constraints = ConstraintSet(schema)
        constraints.set_margin("X0", [0.5, 0.5, 0.0])
        constraints.set_margin("X1", [0.4, 0.6])
        constraints.set_margin("X2", [0.3, 0.7])
        constraints.add_cell(CellConstraint(("X1", "X2"), (0, 0), 0.0))
        constraints.add_cell(CellConstraint(("X0", "X1"), (0, 1), 0.2))
        constraints.set_subset_margin(
            ("X0", "X2"), [[0.0, 0.5], [0.3, 0.2], [0.0, 0.0]]
        )
        return constraints

    def test_zero_targets_fit_to_exactly_zero_as_ipf_does(self):
        constraints = self._constraints()
        for fit in (fit_dual, dense_fit_ipf):
            model = fit(constraints, tol=1e-13).model
            assert model.marginal(["X0"])[2] == 0.0
            assert model.marginal(["X1", "X2"])[0, 0] == 0.0
            assert model.marginal(["X0", "X2"])[0, 0] == 0.0
        dual = fit_dual(constraints).model
        ipf = dense_fit_ipf(constraints, tol=1e-13).model
        np.testing.assert_allclose(
            dual.joint(), ipf.joint(), rtol=0, atol=TOLERANCE
        )

    def test_zero_factors_are_exact_zeros(self):
        model = fit_dual(self._constraints()).model
        assert model.margin_factors["X0"][2] == 0.0
        assert model.cell_factors[(("X1", "X2"), (0, 0))] == 0.0
        assert model.table_factors[("X0", "X2")][0, 0] == 0.0


class TestConflicts:
    def test_near_one_cell_target_rejected_like_ipf(self):
        schema = _schema([2, 2, 2, 2])
        constraints = ConstraintSet(schema)
        # Added before the margins, so add_cell's bound check cannot
        # reject it.
        constraints.add_cell(CellConstraint(("X0", "X1"), (0, 0), 1.0))
        for name in schema.names:
            constraints.set_margin(name, [0.5, 0.5])
        ours = _outcome(fit_dual, constraints)
        assert "target ~1" in str(ours)
        _assert_same_error(ours, _oracle(constraints))

    def test_emptied_margin_names_the_margin(self):
        # X2=0 is emptied by zero cells while its margin wants mass there.
        schema = _schema([2, 2, 2, 2])
        constraints = ConstraintSet(schema)
        for name in schema.names:
            constraints.set_margin(name, [0.5, 0.5])
        for values in ((0, 0), (1, 0)):
            constraints.add_cell(CellConstraint(("X1", "X2"), values, 0.0))
        ours = _outcome(fit_dual, constraints)
        assert "P(X2=0)" in str(ours)
        _assert_same_error(ours, _oracle(constraints))

    def test_all_mass_in_a_zero_target_cell(self):
        schema = _schema([2, 2])
        constraints = ConstraintSet(schema)
        for name in schema.names:
            constraints.set_margin(name, [0.5, 0.5])
        for values in ((0, 0), (1, 0), (1, 1), (0, 1)):
            constraints.add_cell(CellConstraint(("X0", "X1"), values, 0.0))
        ours = _outcome(fit_dual, constraints)
        assert str((("X0", "X1"), (0, 1))) in str(ours)
        assert "puts all its mass in that cell" in str(ours)
        _assert_same_error(ours, _oracle(constraints))

    def test_positive_cell_on_zero_mass(self):
        # The zero margin value X0=1 empties the slice the cell names.
        schema = _schema([2, 2, 2])
        constraints = ConstraintSet(schema)
        constraints.add_cell(CellConstraint(("X0", "X2"), (1, 1), 0.1))
        constraints.set_margin("X0", [1.0, 0.0])
        for name in ("X1", "X2"):
            constraints.set_margin(name, [0.5, 0.5])
        ours = _outcome(fit_dual, constraints)
        assert str((("X0", "X2"), (1, 1))) in str(ours)
        _assert_same_error(ours, _oracle(constraints))

    def test_earlier_sweep_wins_across_components(self):
        # Component {X0, X1}: its zero cells leave (0, 1) with all the mass
        # in the first sweep's cell phase.  Component {X2, X3}: X3=0 is
        # emptied, which its margin meets only in the second sweep.  Dense
        # IPF raises the first; so must the Newton fit.
        schema = _schema([2, 2, 2, 2])
        constraints = ConstraintSet(schema)
        for name in schema.names:
            constraints.set_margin(name, [0.5, 0.5])
        for names, values in (
            (("X2", "X3"), (0, 0)),
            (("X2", "X3"), (1, 0)),
            (("X0", "X1"), (0, 0)),
            (("X0", "X1"), (1, 0)),
            (("X0", "X1"), (1, 1)),
        ):
            constraints.add_cell(CellConstraint(names, values, 0.0))
        constraints.add_cell(CellConstraint(("X0", "X1"), (0, 1), 0.25))
        ours = _outcome(fit_dual, constraints)
        assert str((("X0", "X1"), (0, 1))) in str(ours)
        _assert_same_error(ours, _oracle(constraints))

    def test_dense_order_wins_within_a_phase(self):
        # Components {X0, X3} and {X1, X2} both empty a margin slice; dense
        # IPF meets X1's margin before X3's.
        schema = _schema([2, 2, 2, 2])
        constraints = ConstraintSet(schema)
        for name in schema.names:
            constraints.set_margin(name, [0.5, 0.5])
        for names, values in (
            (("X0", "X3"), (0, 0)),
            (("X0", "X3"), (1, 0)),
            (("X1", "X2"), (0, 0)),
            (("X1", "X2"), (0, 1)),
        ):
            constraints.add_cell(CellConstraint(names, values, 0.0))
        ours = _outcome(fit_dual, constraints)
        assert "P(X1=0)" in str(ours)
        _assert_same_error(ours, _oracle(constraints))

    @pytest.mark.parametrize(
        "cells, message",
        [
            # Disjoint cells under X0=0 sum to 0.9 against its margin 0.5.
            ([((0, 0), 0.45), ((0, 1), 0.45)], "sum to 0.9"),
            ([((0, 0), 0.7)], "above the margin P(X0=0) = 0.5"),
        ],
    )
    def test_infeasible_cells_fail_before_newton(
        self, monkeypatch, cells, message
    ):
        def step(component):
            raise AssertionError("a Newton step ran on an infeasible set")

        monkeypatch.setattr(dual_module._Component, "step", step)
        schema = _schema([2, 2])
        constraints = ConstraintSet(schema)
        # Cells before margins, so add_cell's bound check cannot reject one.
        for values, target in cells:
            constraints.add_cell(CellConstraint(("X0", "X1"), values, target))
        for name in schema.names:
            constraints.set_margin(name, [0.5, 0.5])
        with pytest.raises(ConstraintError, match=re.escape(message)):
            fit_dual(constraints)

    def test_cell_below_the_frechet_bound_fails_before_newton(
        self, monkeypatch
    ):
        # Margins X0=[0.961, 0.039] and X1=[0.795, 0.205] leave the cell
        # (0, 0) at least 0.756, and its target is 0.  Dense IPF overflows
        # on this set.
        def step(component):
            raise AssertionError("a Newton step ran on an infeasible set")

        monkeypatch.setattr(dual_module._Component, "step", step)
        constraints, _ = _random_case(126080, 2, 0, 0, 1, False, False)
        assert [cell.probability for cell in constraints.cells] == [0.0]
        with pytest.raises(ConstraintError, match="Fréchet bound"):
            fit_dual(constraints)

    def test_zero_initial_mass_is_rejected(self, paper_constraints):
        initial = MaxEntModel(paper_constraints.schema, a0=0.0)
        ours = _outcome(fit_dual, paper_constraints, initial)
        assert "zero total mass" in str(ours)
        _assert_same_error(ours, _oracle(paper_constraints, initial))


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_attrs=st.integers(2, 6),
    n_cells=st.integers(0, 4),
    n_subsets=st.integers(0, 2),
    n_zero_cells=st.integers(0, 2),
    hole=st.booleans(),
    warm=st.booleans(),
)
def test_random_fit_matches_ipf(
    seed, n_attrs, n_cells, n_subsets, n_zero_cells, hole, warm
):
    # Random sets mix connected and disconnected cells, subset margins,
    # consistent and conflicting zero-target cells, and warm starts.
    constraints, initial = _random_case(
        seed, n_attrs, n_cells, n_subsets, n_zero_cells, hole, warm
    )
    # Dense IPF meets every structural conflict in its first two sweeps.
    early = _oracle(constraints, initial, max_sweeps=2, require_convergence=False)
    ours = _outcome(fit_dual, constraints, initial)
    if isinstance(early, ConstraintError):
        _assert_same_error(ours, early)
        return
    oracle = _oracle(constraints, initial, tol=1e-13, max_sweeps=5000)
    if isinstance(ours, ReproError):
        # An infeasible set the structural checks cannot see.
        assert isinstance(oracle, ConvergenceError)
    else:
        _assert_finite(ours.model)
        if not isinstance(oracle, ReproError):
            _assert_same_joint(ours.model, oracle.model)


class TestEdgeCases:
    def test_reports_iterations(self, paper_constraints):
        # One coupled component (SMOKING, FAMILY_HISTORY) takes Newton
        # steps; CANCER alone is set in closed form.
        fit = fit_dual(paper_constraints)
        assert fit.converged
        assert 1 <= fit.sweeps <= 10
        assert len(fit.history) == fit.sweeps
        assert fit.max_violation < 1e-10
        assert fit.sweep_cells == 3 * 2 + 2
        assert fit.cells_swept == 3 * 2 * fit.sweeps + 2

    def test_exhausted_budget_raises(self, paper_constraints):
        with pytest.raises(ConvergenceError, match="did not converge"):
            fit_dual(paper_constraints, max_sweeps=1)

    def test_best_effort_result_without_convergence(self, paper_constraints):
        fit = fit_dual(paper_constraints, max_sweeps=1, require_convergence=False)
        assert not fit.converged
        assert fit.sweeps == 1
        assert fit.max_violation >= 1e-10
        assert fit.history == [fit.max_violation]
        assert np.isclose(fit.model.joint().sum(), 1.0)


def test_blocked_indicators_give_the_same_fit(monkeypatch):
    # Components larger than a block rebuild the indicator matrix block by
    # block; a block of 5 cells splits every coupled component here.
    constraints = _final_constraints("stress-wide-order3")
    whole = fit_dual(constraints)
    monkeypatch.setattr(dual_module, "_BLOCK", 5)
    blocked = fit_dual(constraints)
    assert blocked.sweeps == whole.sweeps
    _assert_same_joint(blocked.model, whole.model)
