"""Tests for the Appendix-B factored evaluation (variable elimination)."""

import numpy as np
import pytest

from repro.data.schema import Attribute, Schema
from repro.exceptions import QueryError
from repro.maxent import elimination
from repro.maxent.constraints import ConstraintSet
from repro.maxent.dual import fit_dual
from repro.maxent.model import MaxEntModel


@pytest.fixture
def fitted_model(table):
    constraints = ConstraintSet.first_order(table)
    for subset, values in [
        (("SMOKING", "CANCER"), (0, 0)),
        (("SMOKING", "FAMILY_HISTORY"), (0, 1)),
    ]:
        constraints.add_cell(
            constraints.cell_from_table(table, list(subset), list(values))
        )
    return fit_dual(constraints).model


class TestFactorAlgebra:
    def test_multiply_broadcasts(self):
        a = elimination.Factor(("X",), np.array([1.0, 2.0]))
        b = elimination.Factor(("Y",), np.array([3.0, 4.0, 5.0]))
        product = elimination.multiply(a, b)
        assert product.names == ("X", "Y")
        assert product.table.shape == (2, 3)
        assert product.table[1, 2] == pytest.approx(10.0)

    def test_multiply_shared_axis(self):
        a = elimination.Factor(("X", "Y"), np.ones((2, 3)))
        b = elimination.Factor(("Y",), np.array([1.0, 2.0, 3.0]))
        product = elimination.multiply(a, b)
        assert product.names == ("X", "Y")
        assert np.allclose(product.table[0], [1, 2, 3])

    def test_sum_out(self):
        factor = elimination.Factor(("X", "Y"), np.arange(6.0).reshape(2, 3))
        reduced = elimination.sum_out(factor, "Y")
        assert reduced.names == ("X",)
        assert reduced.table.tolist() == [3.0, 12.0]

    def test_sum_out_absent_is_noop(self):
        factor = elimination.Factor(("X",), np.ones(2))
        assert elimination.sum_out(factor, "Z") is factor

    def test_restrict(self):
        factor = elimination.Factor(("X", "Y"), np.arange(6.0).reshape(2, 3))
        restricted = elimination.restrict(factor, {"X": 1})
        assert restricted.names == ("Y",)
        assert restricted.table.tolist() == [3.0, 4.0, 5.0]

    def test_rank_mismatch_rejected(self):
        with pytest.raises(QueryError):
            elimination.Factor(("X",), np.ones((2, 2)))


class TestPartitionSum:
    def test_matches_dense(self, fitted_model):
        dense = float(fitted_model.unnormalized().sum())
        factored = elimination.partition_sum(fitted_model)
        assert factored == pytest.approx(dense, rel=1e-12)

    def test_with_evidence(self, fitted_model):
        evidence = {"SMOKING": "smoker"}
        dense = float(fitted_model.unnormalized()[0].sum())
        factored = elimination.partition_sum(fitted_model, evidence)
        assert factored == pytest.approx(dense, rel=1e-12)

    def test_full_evidence(self, fitted_model):
        evidence = {"SMOKING": 0, "CANCER": 0, "FAMILY_HISTORY": 0}
        dense = float(fitted_model.unnormalized()[0, 0, 0])
        assert elimination.partition_sum(
            fitted_model, evidence
        ) == pytest.approx(dense, rel=1e-12)


class TestQueries:
    def test_query_matches_dense_conditional(self, fitted_model):
        target = {"CANCER": "yes"}
        given = {"SMOKING": "smoker", "FAMILY_HISTORY": "yes"}
        assert elimination.query(fitted_model, target, given) == pytest.approx(
            fitted_model.conditional(target, given), rel=1e-10
        )

    def test_query_marginal(self, fitted_model):
        target = {"CANCER": "yes"}
        assert elimination.query(fitted_model, target) == pytest.approx(
            fitted_model.probability(target), rel=1e-10
        )

    def test_conflicting_evidence(self, fitted_model):
        with pytest.raises(QueryError, match="conflict"):
            elimination.query(
                fitted_model, {"CANCER": "yes"}, {"CANCER": "no"}
            )

    def test_marginal_matches_dense(self, fitted_model):
        factored = elimination.marginal(
            fitted_model, ["SMOKING", "FAMILY_HISTORY"]
        )
        dense = fitted_model.marginal(["SMOKING", "FAMILY_HISTORY"])
        assert np.allclose(factored, dense, atol=1e-12)

    def test_marginal_order_canonicalized(self, fitted_model):
        forward = elimination.marginal(fitted_model, ["SMOKING", "CANCER"])
        backward = elimination.marginal(fitted_model, ["CANCER", "SMOKING"])
        assert np.allclose(forward, backward)


class TestWideSchema:
    def test_chain_structure_scales(self):
        """A 14-attribute chain: dense would be 2^14 cells per query path;
        elimination handles it through small intermediate factors."""
        attributes = [
            Attribute(f"X{i}", ("a", "b")) for i in range(14)
        ]
        schema = Schema(attributes)
        model = MaxEntModel(schema)
        for i in range(13):
            model.cell_factors[((f"X{i}", f"X{i+1}"), (0, 0))] = 2.0
        factored = elimination.partition_sum(model)
        dense = float(model.unnormalized().sum())
        assert factored == pytest.approx(dense, rel=1e-9)

    def test_min_fill_order_covers_all(self):
        factors = [
            elimination.Factor(("A", "B"), np.ones((2, 2))),
            elimination.Factor(("B", "C"), np.ones((2, 2))),
            elimination.Factor(("C", "D"), np.ones((2, 2))),
        ]
        order = elimination.min_fill_order(factors, ["A", "B", "C", "D"])
        assert sorted(order) == ["A", "B", "C", "D"]
