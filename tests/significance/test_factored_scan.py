"""The factored scan against the frozen dense oracle.

Random schemas, tables and models mix several constraint-graph
components, zero-target (zero-factor) cells and subset margins (table
factors).  For each case every factored path — the kernel, the scalar
reference scan, the sharded split, ``MaxEntModel.marginal`` — must visit
the same cells in the same order and reach the same decisions as the
dense scan, with every float within 1e-12.
"""

from itertools import combinations

import numpy as np
from dense_scan import (
    TOLERANCE,
    assert_same_scan,
    dense_marginal,
    dense_scan_order,
)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.contingency import ContingencyTable
from repro.data.schema import Attribute, Schema
from repro.exceptions import ConstraintError, DataError
from repro.maxent.constraints import ConstraintSet
from repro.maxent.model import MaxEntModel
from repro.parallel.scan import scan_order_sharded
from repro.significance.kernels import OrderScanKernel
from repro.significance.mml import reference_scan_order

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def factored_worlds(draw):
    """A (table, constraints, model) triple whose model has several
    constraint-graph components, zero cell factors and table factors."""
    count = draw(st.integers(3, 6))
    schema = Schema(
        [
            Attribute(f"X{i}", tuple(str(v) for v in range(card)))
            for i, card in enumerate(
                draw(st.lists(st.integers(2, 3), min_size=count, max_size=count))
            )
        ]
    )
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # Sparse tables give zero counts, so zero-target cells and cells the
    # model must predict exactly are both exercised.
    rows = draw(st.sampled_from([30, 400]))
    counts = rng.multinomial(
        rows, rng.dirichlet(np.ones(schema.num_cells))
    ).reshape(schema.shape)
    table = ContingencyTable(schema, counts.astype(np.int64))

    def subset(size):
        picked = sorted(rng.choice(count, size=size, replace=False))
        return tuple(schema.names[i] for i in picked)

    def values_of(names):
        return tuple(
            int(rng.integers(schema.attribute(n).cardinality)) for n in names
        )

    margins = {
        name: rng.uniform(0.2, 2.0, size=schema.attribute(name).cardinality)
        for name in schema.names
    }
    cells = {}
    for _ in range(draw(st.integers(0, 3))):
        names = subset(int(rng.integers(2, min(3, count) + 1)))
        zero = draw(st.booleans())
        cells[(names, values_of(names))] = (
            0.0 if zero else float(rng.uniform(0.3, 3.0))
        )
    tables = {}
    for _ in range(draw(st.integers(0, 2))):
        names = subset(2)
        shape = tuple(schema.attribute(n).cardinality for n in names)
        tables[names] = rng.uniform(0.3, 3.0, size=shape)
    a0 = 1.0 if draw(st.booleans()) else float(rng.uniform(0.5, 2.0))
    model = MaxEntModel(schema, margins, cells, a0, tables)
    if draw(st.booleans()):
        model.normalize()

    constraints = ConstraintSet.first_order(table)
    for _ in range(draw(st.integers(0, 3))):
        names = subset(int(rng.integers(2, count + 1)))
        candidate = constraints.cell_from_table(table, names, values_of(names))
        if candidate.probability >= 0.99:
            continue
        try:
            constraints.add_cell(candidate)
        except ConstraintError:
            pass
    return table, constraints, model


@SETTINGS
@given(world=factored_worlds())
def test_factored_scans_match_the_dense_scan(world):
    table, constraints, model = world
    for order in range(2, len(table.schema) + 1):
        try:
            dense = dense_scan_order(table, model, order, constraints)
        except DataError:
            continue
        kernel = OrderScanKernel(table, order, constraints).scan(model)
        assert_same_scan(kernel, dense)
        assert_same_scan(
            reference_scan_order(table, model, order, constraints), dense
        )
        assert_same_scan(
            scan_order_sharded(table, model, order, constraints, num_shards=3),
            dense,
        )


@SETTINGS
@given(world=factored_worlds())
def test_model_marginals_match_the_dense_joint(world):
    _table, _constraints, model = world
    names = model.schema.names
    for size in range(1, min(3, len(names)) + 1):
        for subset in combinations(names, size):
            ours = model.marginal(subset)
            dense = dense_marginal(model, subset)
            assert ours.shape == dense.shape
            assert np.allclose(ours, dense, rtol=0.0, atol=TOLERANCE)
    full = model.marginal(names)
    assert np.allclose(full, model.joint(), rtol=0.0, atol=TOLERANCE)
