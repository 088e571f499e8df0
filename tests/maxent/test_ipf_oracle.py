"""The per-component IPF fit against the frozen dense oracle.

Random schemas and constraint sets mix disconnected and connected cells,
subset margins, zero-target cells (consistent ones and conflicting ones)
and warm starts.  For each case the factored fit must run the same sweeps,
land within 1e-12 of the dense fit, record the same trace and raise the
same errors.
"""

import numpy as np
from dense_ipf import dense_fit_ipf
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.schema import Attribute, Schema
from repro.exceptions import ConstraintError, ConvergenceError, ReproError
from repro.maxent.constraints import CellConstraint, ConstraintSet
from repro.maxent.ipf import fit_ipf
from repro.maxent.model import MaxEntModel

TOLERANCE = 1e-12


def _schema(cardinalities) -> Schema:
    return Schema(
        [
            Attribute(f"X{i}", tuple(str(v) for v in range(card)))
            for i, card in enumerate(cardinalities)
        ]
    )


def _subset(rng, schema, size) -> tuple[str, ...]:
    picked = rng.choice(len(schema), size=size, replace=False)
    return tuple(schema.names[i] for i in sorted(picked))


def _random_case(seed, n_attrs, n_cells, n_subsets, n_zero_cells, hole, warm):
    """A constraint set drawn from a random joint, plus a warm start."""
    rng = np.random.default_rng(seed)
    schema = _schema(rng.integers(2, 4, size=n_attrs))
    joint = rng.dirichlet(np.ones(schema.num_cells)).reshape(schema.shape)
    if hole:
        # A zero slice gives consistent zero-target cells.
        names = _subset(rng, schema, 2)
        slicer = [slice(None)] * len(schema)
        for name in names:
            slicer[schema.axis(name)] = 0
        joint[tuple(slicer)] = 0.0
        joint /= joint.sum()

    def observed(names):
        drop = schema.drop_axes(names)
        return joint.sum(axis=drop) if drop else joint

    constraints = ConstraintSet(schema)
    for name in schema.names:
        constraints.set_margin(name, observed((name,)))
    for _ in range(n_subsets):
        names = _subset(rng, schema, 2)
        if not constraints.has_subset_margin(names):
            constraints.set_subset_margin(names, observed(names))
    zero_cells = [True] * n_zero_cells + [False] * n_cells
    rng.shuffle(zero_cells)
    for zero in zero_cells:
        names = _subset(rng, schema, int(rng.integers(2, min(3, n_attrs) + 1)))
        values = tuple(
            int(rng.integers(schema.attribute(n).cardinality)) for n in names
        )
        target = 0.0 if zero else float(observed(names)[values])
        try:
            constraints.add_cell(CellConstraint(names, values, target))
        except ConstraintError:
            pass  # duplicate cell

    initial = None
    if warm:
        # Random positive factors, including a stale cell factor the
        # constraint set does not back: it still joins its attributes.
        stale = _subset(rng, schema, 2)
        cell_factors = {
            cell.key: float(rng.uniform(0.5, 2.0))
            for cell in constraints.cells
            if rng.random() < 0.5
        }
        cell_factors.setdefault((stale, (1, 1)), float(rng.uniform(0.5, 2.0)))
        initial = MaxEntModel(
            schema,
            {
                attribute.name: rng.uniform(0.2, 3.0, attribute.cardinality)
                for attribute in schema
            },
            cell_factors,
            a0=float(rng.uniform(0.1, 10.0)),
        )
    return constraints, initial


def _outcome(fit, constraints, initial, **kwargs):
    try:
        return fit(constraints, initial=initial, **kwargs)
    except ReproError as error:
        return error


def _assert_close(ours, dense) -> None:
    # Infeasible sets can drive both fits to the same inf/nan factors.
    np.testing.assert_allclose(ours, dense, rtol=TOLERANCE, atol=TOLERANCE)


def _assert_same_outcome(ours, dense) -> None:
    if isinstance(dense, Exception) or isinstance(ours, Exception):
        assert type(ours) is type(dense)
        assert str(ours) == str(dense)
        return
    assert ours.converged == dense.converged
    assert ours.sweeps == dense.sweeps
    assert len(ours.history) == len(dense.history)
    _assert_close(ours.model.joint(), dense.model.joint())
    _assert_close(ours.model.a0, dense.model.a0)
    assert len(ours.trace) == len(dense.trace)
    for our_row, dense_row in zip(ours.trace, dense.trace):
        assert list(our_row) == list(dense_row)
        assert "a0" in our_row
        _assert_close(list(our_row.values()), list(dense_row.values()))
    assert list(ours.model.cell_factors) == list(dense.model.cell_factors)
    assert list(ours.model.table_factors) == list(dense.model.table_factors)


@settings(
    max_examples=60,
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
    budget=st.sampled_from([3, 400]),
)
def test_factored_fit_matches_dense_oracle(
    seed, n_attrs, n_cells, n_subsets, n_zero_cells, hole, warm, budget
):
    constraints, initial = _random_case(
        seed, n_attrs, n_cells, n_subsets, n_zero_cells, hole, warm
    )
    for require in (True, False):
        kwargs = dict(
            max_sweeps=budget, record_trace=True, require_convergence=require
        )
        _assert_same_outcome(
            _outcome(fit_ipf, constraints, initial, **kwargs),
            _outcome(dense_fit_ipf, constraints, initial, **kwargs),
        )


def _binary_world():
    return _schema([2, 2, 2, 2])


def test_near_one_cell_target_rejected_like_the_oracle():
    schema = _binary_world()
    constraints = ConstraintSet(schema)
    # Added before the margins, so add_cell's bound check cannot reject it.
    constraints.add_cell(CellConstraint(("X0", "X1"), (0, 0), 1.0))
    for name in schema.names:
        constraints.set_margin(name, [0.5, 0.5])
    ours = _outcome(fit_ipf, constraints, None)
    dense = _outcome(dense_fit_ipf, constraints, None)
    assert isinstance(ours, ConstraintError)
    assert "target ~1" in str(ours)
    _assert_same_outcome(ours, dense)


def test_first_conflict_in_dense_order_is_raised_across_components():
    # Components {X0, X3} and {X1, X2}.  Zero cells empty the slice X3=0
    # in the first and X1=0 in the second; the dense sweep meets X1's
    # margin before X3's, so that is the conflict both fits must report.
    schema = _binary_world()
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
    ours = _outcome(fit_ipf, constraints, None)
    dense = _outcome(dense_fit_ipf, constraints, None)
    assert isinstance(ours, ConstraintError)
    assert "P(X1=0)" in str(ours)
    _assert_same_outcome(ours, dense)


def test_exhausted_budget_raises_like_the_oracle():
    constraints, _ = _random_case(7, 5, 4, 1, 0, False, False)
    ours = _outcome(fit_ipf, constraints, None, max_sweeps=1, tol=1e-15)
    dense = _outcome(dense_fit_ipf, constraints, None, max_sweeps=1, tol=1e-15)
    assert isinstance(ours, ConvergenceError)
    _assert_same_outcome(ours, dense)


def test_sweep_cells_are_the_component_sizes():
    schema = _schema([2, 3, 2, 2])
    constraints = ConstraintSet(schema)
    for attribute in schema:
        card = attribute.cardinality
        constraints.set_margin(attribute.name, np.full(card, 1.0 / card))
    assert fit_ipf(constraints).sweep_cells == 2 + 3 + 2 + 2
    constraints.add_cell(CellConstraint(("X0", "X2"), (0, 0), 0.3))
    assert fit_ipf(constraints).sweep_cells == 2 * 2 + 3 + 2
    constraints.add_cell(CellConstraint(("X1", "X2"), (0, 0), 0.1))
    assert fit_ipf(constraints).sweep_cells == 2 * 3 * 2 + 2


def test_cells_swept_skips_frozen_singletons():
    # One coupled pair (X0, X1) and two free singletons.  The singletons
    # reach their margins in the first sweep, sit still in the second and
    # are frozen from then on, while the pair keeps sweeping.
    schema = _schema([2, 2, 3, 2])
    constraints = ConstraintSet(schema)
    for name, margin in zip(
        schema.names,
        ([0.5, 0.5], [0.25, 0.75], [0.25, 0.25, 0.5], [0.375, 0.625]),
    ):
        constraints.set_margin(name, margin)
    constraints.add_cell(CellConstraint(("X0", "X1"), (0, 0), 0.2))
    fit = fit_ipf(constraints)
    assert fit.sweeps > 2
    assert fit.sweep_cells == 2 * 2 + 3 + 2
    assert fit.cells_swept < fit.sweeps * fit.sweep_cells
    assert fit.cells_swept <= 2 * 2 * fit.sweeps + 2 * (3 + 2)


def test_all_mass_in_one_cell_is_a_conflict_like_the_oracle():
    # The hole empties X0=0 & X1=0 and zero cells empty X0=1, so the
    # positive-target cell (0, 1) ends up holding all the mass.
    schema = _schema([2, 2])
    constraints = ConstraintSet(schema)
    constraints.set_margin("X0", [0.25, 0.75])
    constraints.set_margin("X1", [0.5, 0.5])
    for values in ((0, 0), (1, 0), (1, 1)):
        constraints.add_cell(CellConstraint(("X0", "X1"), values, 0.0))
    constraints.add_cell(CellConstraint(("X0", "X1"), (0, 1), 0.25))
    ours = _outcome(fit_ipf, constraints, None)
    dense = _outcome(dense_fit_ipf, constraints, None)
    assert isinstance(ours, ConstraintError)
    assert "puts all its mass in that cell" in str(ours)
    _assert_same_outcome(ours, dense)
