"""Frozen dense scan: the oracle the factored scan is tested against.

This is the model-side marginalization as it ran before the scans learned
to read marginals from the constraint-graph components: the model's
dense ``2^n`` joint is materialized once per scan and summed onto every
candidate subset.  It is kept verbatim, test-only, in the role
``tests/maxent/dense_ipf.py`` plays for the fit: the factored scan must
evaluate the same cells in the same order, reach the same decisions and
land within 1e-12 of this one.  Do not optimize it.

:func:`assert_same_scan` states that contract for two scans.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.data.contingency import ContingencyTable
from repro.maxent.constraints import ConstraintSet
from repro.maxent.model import MaxEntModel
from repro.significance.mml import MMLPriors, evaluate_cell, most_significant
from repro.significance.result import CellTest

#: How far a factored float may sit from the dense one, relative to its
#: magnitude (absolute below 1).
TOLERANCE = 1e-12


def dense_marginal(model: MaxEntModel, names: Sequence[str]) -> np.ndarray:
    """Marginal probability array over ``names`` (schema order)."""
    ordered = model.schema.canonical_subset(names)
    drop = model.schema.drop_axes(ordered)
    joint = model.joint()
    return joint.sum(axis=drop) if drop else joint


def dense_scan_order(
    table: ContingencyTable,
    model: MaxEntModel,
    order: int,
    constraints: ConstraintSet,
    priors: MMLPriors | None = None,
) -> list[CellTest]:
    """The scalar scan with one dense joint per scan, marginalized per
    subset."""
    priors = priors or MMLPriors.equal()
    found_at_order = len(constraints.cells_of_order(order))
    pool = table.num_cells_of_order(order) - found_at_order
    schema = table.schema
    joint = model.joint()
    marginals: dict[tuple[str, ...], object] = {}
    tests = []
    for subset, values, _count in table.cells_of_order(order):
        if constraints.has_cell((subset, values)):
            continue
        marginal = marginals.get(subset)
        if marginal is None:
            drop = schema.drop_axes(subset)
            marginal = joint.sum(axis=drop) if drop else joint
            marginals[subset] = marginal
        tests.append(
            evaluate_cell(
                table,
                model,
                subset,
                values,
                constraints,
                priors,
                pool,
                predicted=float(marginal[values]),
            )
        )
    return tests


# -- the contract ------------------------------------------------------------------

FLOATS = ("predicted_probability", "mean", "sd", "num_sd", "m1", "m2")
EXACT = ("attributes", "values", "observed", "determined", "feasible_range")


def _close(a: float, b: float) -> bool:
    if a == b:  # also equal infinities
        return True
    return abs(a - b) <= TOLERANCE * max(1.0, abs(a), abs(b))


def assert_same_scan(factored, dense) -> None:
    """Same cells, order and decisions; floats within the tolerance."""
    assert len(factored) == len(dense)
    for ours, theirs in zip(factored, dense):
        for name in EXACT:
            assert getattr(ours, name) == getattr(theirs, name), name
        assert ours.significant == theirs.significant
        for name in FLOATS:
            assert _close(getattr(ours, name), getattr(theirs, name)), (
                name,
                getattr(ours, name),
                getattr(theirs, name),
            )
    best = most_significant(list(factored))
    dense_best = most_significant(list(dense))
    assert (best is None) == (dense_best is None)
    if best is not None:
        assert (best.attributes, best.values) == (
            dense_best.attributes,
            dense_best.values,
        )
