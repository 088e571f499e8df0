"""Bit-identity of the fit against the frozen lockstep oracle.

:func:`repro.maxent.ipf.fit_ipf` stops sweeping a component once a sweep
leaves it unchanged; :func:`lockstep_ipf.lockstep_fit_ipf` sweeps every
component every time.  Skipping a multiply by exactly 1.0 and a sweep
that would multiply nothing changes no float, so the two must agree byte
for byte: every factor, ``a0``, the sweep count, the violation history,
the trace, and the error (type, message and constraint) of a failed fit.

The cases are the smoke fleet's planted-truth constraint sets, every
constraint set and warm start a cold run and a warm rerun hand the
engine's fit on the two stress worlds the benchmark runs, and random
constraint sets with zero-target cells, structural conflicts and warm
starts.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from lockstep_ipf import lockstep_fit_ipf

import repro.discovery.engine as engine_module
from repro.data.contingency import ContingencyTable
from repro.data.schema import Attribute, Schema
from repro.discovery.config import DiscoveryConfig
from repro.discovery.engine import DiscoveryEngine
from repro.exceptions import ConstraintError, ReproError
from repro.maxent.constraints import CellConstraint, ConstraintSet
from repro.maxent.dual import fit_dual
from repro.maxent.ipf import fit_ipf
from repro.maxent.model import MaxEntModel
from repro.scenarios.registry import get_scenario, scenario_names


def _outcome(fit, constraints, initial, **kwargs):
    try:
        return fit(constraints, initial=initial, **kwargs)
    except ReproError as error:
        return error


def _bits(fit) -> dict:
    """Everything a fit returns, as bytes, so NaNs and signed zeros count."""
    model = fit.model
    return {
        "converged": fit.converged,
        "sweeps": fit.sweeps,
        "max_violation": float(fit.max_violation).hex(),
        "history": np.asarray(fit.history, dtype=float).tobytes(),
        "trace": [
            (list(row), np.asarray(list(row.values())).tobytes())
            for row in fit.trace
        ],
        "margins": {k: v.tobytes() for k, v in model.margin_factors.items()},
        "cells": [(k, float(v).hex()) for k, v in model.cell_factors.items()],
        "tables": [(k, v.tobytes()) for k, v in model.table_factors.items()],
        "a0": float(model.a0).hex(),
    }


def _assert_identical(constraints, initial, **kwargs):
    ours = _outcome(fit_ipf, constraints, initial, **kwargs)
    oracle = _outcome(lockstep_fit_ipf, constraints, initial, **kwargs)
    if isinstance(oracle, Exception) or isinstance(ours, Exception):
        assert type(ours) is type(oracle)
        assert str(ours) == str(oracle)
        assert getattr(ours, "constraint", None) == getattr(
            oracle, "constraint", None
        )
        return ours
    assert _bits(ours) == _bits(oracle)
    assert ours.sweep_cells == oracle.sweep_cells
    return ours


@pytest.mark.parametrize("name", scenario_names("smoke"))
def test_planted_truth_fit_is_bit_identical(name):
    instance = get_scenario(name).build(smoke=True)
    table = instance.table
    constraints = ConstraintSet.first_order(table)
    for names, values in sorted(instance.truth):
        try:
            constraints.add_cell(
                constraints.cell_from_table(table, names, values)
            )
        except ConstraintError:
            pass  # a planted cell the sample cannot carry
    _assert_identical(constraints, None, record_trace=True)


def _recorded_fits(world: str) -> list:
    """Every ``(constraints, initial, kwargs)`` a cold run and a warm rerun
    of ``world`` hand to the engine's fit (:func:`fit_dual`), copied at
    the call.  The rows are the
    ones the benchmark's ``discover-*`` workloads draw at their default
    seed: 40,000 for the run plus a 2,000-row delta for the rerun."""
    scenario = get_scenario(world)
    population = scenario.build(smoke=True).population
    rng = np.random.default_rng(scenario.seed)
    table = population.sample(40_000, rng).to_contingency()
    delta = population.sample(2_000, rng).to_contingency()
    merged = ContingencyTable(table.schema, table.counts + delta.counts)
    calls = []

    def recording_fit(constraints, initial=None, **kwargs):
        calls.append(
            (
                constraints.copy(),
                None if initial is None else initial.copy(),
                kwargs,
            )
        )
        return fit_dual(constraints, initial=initial, **kwargs)

    config = DiscoveryConfig(max_order=scenario.max_order, max_workers=1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "fit_dual", recording_fit)
        with DiscoveryEngine(config) as engine:
            result = engine.run(table)
            try:
                engine.rerun(merged, result)
            except ConstraintError:
                engine.run(merged)
    return calls


@pytest.mark.parametrize("world", ["stress-wide-16", "stress-wide-order3"])
def test_discovery_fit_sequence_is_bit_identical(world):
    calls = _recorded_fits(world)
    assert any(initial is not None for _, initial, _ in calls)
    for constraints, initial, kwargs in calls:
        _assert_identical(constraints, initial, **kwargs)


def _schema(cardinalities) -> Schema:
    return Schema(
        [
            Attribute(f"X{i}", tuple(str(v) for v in range(card)))
            for i, card in enumerate(cardinalities)
        ]
    )


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_attrs=st.integers(2, 6),
    n_cells=st.integers(0, 4),
    n_subsets=st.integers(0, 2),
    n_zero_cells=st.integers(0, 3),
    uniform=st.booleans(),
    warm=st.booleans(),
    budget=st.sampled_from([2, 400]),
)
def test_random_fit_is_bit_identical(
    seed, n_attrs, n_cells, n_subsets, n_zero_cells, uniform, warm, budget
):
    # Uniform margins start the cold fit at its margins, so the first
    # margin phase moves nothing while the cells still do; random zero
    # cells both empty slices consistently and collide with margins.
    rng = np.random.default_rng(seed)
    schema = _schema(rng.integers(2, 4, size=n_attrs))
    joint = rng.dirichlet(np.ones(schema.num_cells)).reshape(schema.shape)
    if uniform:
        joint = np.full(schema.shape, 1.0 / schema.num_cells)

    def observed(names):
        drop = schema.drop_axes(names)
        return joint.sum(axis=drop) if drop else joint

    def subset(size):
        picked = rng.choice(len(schema), size=size, replace=False)
        return tuple(schema.names[i] for i in sorted(picked))

    constraints = ConstraintSet(schema)
    for name in schema.names:
        constraints.set_margin(name, observed((name,)))
    for _ in range(n_subsets):
        names = subset(2)
        if not constraints.has_subset_margin(names):
            constraints.set_subset_margin(names, observed(names))
    for zero in [True] * n_zero_cells + [False] * n_cells:
        names = subset(int(rng.integers(2, min(3, n_attrs) + 1)))
        values = tuple(
            int(rng.integers(schema.attribute(n).cardinality)) for n in names
        )
        target = 0.0 if zero else 0.5 * float(observed(names)[values])
        try:
            constraints.add_cell(CellConstraint(names, values, target))
        except ConstraintError:
            pass  # duplicate cell

    initial = None
    if warm:
        initial = MaxEntModel(
            schema,
            {
                attribute.name: rng.uniform(0.2, 3.0, attribute.cardinality)
                for attribute in schema
            },
            {
                cell.key: float(rng.uniform(0.5, 2.0))
                for cell in constraints.cells
                if rng.random() < 0.5
            },
            a0=float(rng.uniform(0.1, 10.0)),
        )
    _assert_identical(
        constraints,
        initial,
        max_sweeps=budget,
        record_trace=True,
        require_convergence=budget > 2,
    )


def test_conflict_names_the_same_constraint():
    # X2=0 is emptied by zero cells while its margin wants mass there.
    schema = _schema([2, 2, 2, 2])
    constraints = ConstraintSet(schema)
    for name in schema.names:
        constraints.set_margin(name, [0.5, 0.5])
    for values in ((0, 0), (1, 0)):
        constraints.add_cell(CellConstraint(("X1", "X2"), values, 0.0))
    error = _assert_identical(constraints, None)
    assert isinstance(error, ConstraintError)
    assert error.constraint == "X2"


def test_all_mass_in_a_zero_target_cell_is_a_conflict():
    # Zero targets on all four (X0, X1) cells: zeroing three leaves the
    # fourth with all the mass, which its own zero target cannot shed.
    schema = _schema([2, 2])
    constraints = ConstraintSet(schema)
    for name in schema.names:
        constraints.set_margin(name, [0.5, 0.5])
    for values in ((0, 0), (1, 0), (1, 1), (0, 1)):
        constraints.add_cell(CellConstraint(("X0", "X1"), values, 0.0))
    error = _assert_identical(constraints, None)
    assert isinstance(error, ConstraintError)
    assert error.constraint == (("X0", "X1"), (0, 1))
    assert "puts all its mass in that cell" in str(error)
