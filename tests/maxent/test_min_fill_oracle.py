"""The dict-based min-fill order equals the frozen networkx one exactly."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from nx_min_fill import nx_min_fill_order

from repro.maxent import elimination
from repro.maxent.constraints import ConstraintSet
from repro.maxent.dual import fit_dual
from repro.maxent.elimination import Factor

NAMES = [f"X{i}" for i in range(9)]


@st.composite
def factor_graphs(draw):
    """Random factors over a name pool, and a random elimination list.

    Factor scopes are drawn in any order; the elimination list may leave
    some factor attributes out (evidence) and name attributes no factor
    touches, as :func:`elimination.partition_sum` and
    :func:`elimination.marginal` do.
    """
    pool = draw(st.lists(st.sampled_from(NAMES), min_size=1, unique=True))
    scopes = draw(
        st.lists(
            st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True),
            max_size=10,
        )
    )
    factors = [Factor(tuple(scope), np.ones((1,) * len(scope))) for scope in scopes]
    eliminate = draw(st.permutations(pool))
    eliminate = eliminate[: draw(st.integers(0, len(eliminate)))]
    return factors, eliminate


@settings(max_examples=300, deadline=None)
@given(factor_graphs())
def test_order_matches_networkx_oracle(graph):
    factors, eliminate = graph
    order = elimination.min_fill_order(factors, eliminate)
    assert order == nx_min_fill_order(factors, eliminate)


def test_order_matches_networkx_oracle_on_model_factors(table):
    """The order the elimination backend uses on a fitted paper model."""
    constraints = ConstraintSet.first_order(table)
    constraints.add_cell(
        constraints.cell_from_table(table, ["SMOKING", "CANCER"], [0, 0])
    )
    factors = elimination.model_factors(fit_dual(constraints).model)
    for eliminate in (list(table.schema.names), ["FAMILY_HISTORY", "SMOKING"]):
        order = elimination.min_fill_order(factors, eliminate)
        assert order == nx_min_fill_order(factors, eliminate)
