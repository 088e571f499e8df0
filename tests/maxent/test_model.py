"""Tests for the factored maxent model (Eq 12)."""

import sys
import threading

import numpy as np
import pytest

from repro.api.session import QuerySession
from repro.data.schema import Attribute, Schema
from repro.exceptions import ConstraintError, QueryError
from repro.maxent.model import FactoredJoint, MaxEntModel


@pytest.fixture
def margins(table):
    return {
        name: table.first_order_probabilities(name)
        for name in table.schema.names
    }


class TestIndependentModel:
    def test_eq61_product_form(self, schema, margins):
        """Eq 61: with only margins, p_ijk = p_i p_j p_k."""
        model = MaxEntModel.independent(schema, margins)
        joint = model.joint()
        expected = np.einsum(
            "i,j,k->ijk",
            margins["SMOKING"],
            margins["CANCER"],
            margins["FAMILY_HISTORY"],
        )
        assert np.allclose(joint, expected)

    def test_paper_table1_probability(self, schema, margins):
        """Table 1 col 1: p^AB_11 = p^A_1 * p^B_1 ~ .048."""
        model = MaxEntModel.independent(schema, margins)
        probability = model.probability({"SMOKING": "smoker", "CANCER": "yes"})
        assert probability == pytest.approx(0.0475, abs=5e-4)

    def test_joint_sums_to_one(self, schema, margins):
        model = MaxEntModel.independent(schema, margins)
        assert model.joint().sum() == pytest.approx(1.0)

    def test_a_values_equal_first_order(self, schema, margins):
        """Eq 60: the a values are just the first-order probabilities."""
        model = MaxEntModel.independent(schema, margins)
        values = model.a_values()
        assert values["a0"] == 1.0
        assert values["a^SMOKING_1"] == pytest.approx(margins["SMOKING"][0])
        assert values["a^CANCER_2"] == pytest.approx(margins["CANCER"][1])


class TestUniformModel:
    def test_uniform(self, schema):
        model = MaxEntModel.uniform(schema)
        joint = model.joint()
        assert np.allclose(joint, 1.0 / 12)


class TestCellFactors:
    def test_cell_factor_scales_slice(self, schema, margins):
        base = MaxEntModel.independent(schema, margins)
        boosted = MaxEntModel.independent(schema, margins)
        boosted.cell_factors[(("SMOKING", "CANCER"), (0, 0))] = 2.0
        raw_base = base.unnormalized()
        raw_boosted = boosted.unnormalized()
        assert np.allclose(raw_boosted[0, 0, :], 2.0 * raw_base[0, 0, :])
        assert np.allclose(raw_boosted[1:], raw_base[1:])

    def test_joint_renormalizes_defensively(self, schema, margins):
        model = MaxEntModel.independent(schema, margins)
        model.cell_factors[(("SMOKING", "CANCER"), (0, 0))] = 3.0
        assert model.joint().sum() == pytest.approx(1.0)

    def test_normalize_sets_a0(self, schema, margins):
        model = MaxEntModel.independent(schema, margins)
        model.cell_factors[(("SMOKING", "CANCER"), (0, 0))] = 3.0
        model.normalize()
        assert model.unnormalized().sum() * model.a0 == pytest.approx(1.0)

    def test_rejects_negative_cell_factor(self, schema):
        with pytest.raises(ConstraintError, match="negative"):
            MaxEntModel(schema, None, {(("SMOKING", "CANCER"), (0, 0)): -1.0})

    def test_rejects_negative_margin_factor(self, schema):
        with pytest.raises(ConstraintError, match="negative"):
            MaxEntModel(schema, {"CANCER": np.array([-0.1, 1.1])})

    def test_rejects_wrong_margin_shape(self, schema):
        with pytest.raises(ConstraintError, match="shape"):
            MaxEntModel(schema, {"CANCER": np.ones(3)})


class TestQueries:
    def test_marginal(self, schema, margins):
        model = MaxEntModel.independent(schema, margins)
        pair = model.marginal(["SMOKING", "CANCER"])
        assert pair.shape == (3, 2)
        assert pair.sum() == pytest.approx(1.0)
        assert np.allclose(
            pair, np.outer(margins["SMOKING"], margins["CANCER"])
        )

    def test_marginal_order_insensitive(self, schema, margins):
        model = MaxEntModel.independent(schema, margins)
        assert np.allclose(
            model.marginal(["CANCER", "SMOKING"]),
            model.marginal(["SMOKING", "CANCER"]),
        )

    def test_probability_empty_assignment(self, schema, margins):
        model = MaxEntModel.independent(schema, margins)
        assert model.probability({}) == 1.0

    def test_conditional_ratio_identity(self, schema, margins):
        """P(A|B) * P(B) == P(A,B) — the paper's central identity."""
        model = MaxEntModel.independent(schema, margins)
        model.cell_factors[(("SMOKING", "CANCER"), (0, 0))] = 2.0
        target = {"CANCER": "yes"}
        given = {"SMOKING": "smoker"}
        conditional = model.conditional(target, given)
        assert conditional * model.probability(given) == pytest.approx(
            model.probability({**target, **given})
        )

    def test_conditional_independence_case(self, schema, margins):
        model = MaxEntModel.independent(schema, margins)
        assert model.conditional(
            {"CANCER": "yes"}, {"SMOKING": "smoker"}
        ) == pytest.approx(margins["CANCER"][0])

    def test_conditional_conflicting_evidence(self, schema, margins):
        model = MaxEntModel.independent(schema, margins)
        with pytest.raises(QueryError, match="conflict"):
            model.conditional({"CANCER": "yes"}, {"CANCER": "no"})

    def test_conditional_consistent_overlap(self, schema, margins):
        model = MaxEntModel.independent(schema, margins)
        assert model.conditional(
            {"CANCER": "yes"}, {"CANCER": "yes"}
        ) == pytest.approx(1.0)

    def test_conditional_zero_evidence(self, schema):
        margins = {
            "SMOKING": np.array([1.0, 0.0, 0.0]),
            "CANCER": np.array([0.5, 0.5]),
            "FAMILY_HISTORY": np.array([0.5, 0.5]),
        }
        model = MaxEntModel.independent(schema, margins)
        with pytest.raises(QueryError, match="zero"):
            model.conditional({"CANCER": "yes"}, {"SMOKING": "non-smoker"})

    def test_expected_count(self, schema, margins):
        """Eq 33: predicted mean is N * p."""
        model = MaxEntModel.independent(schema, margins)
        mean = model.expected_count(3428, ["SMOKING", "CANCER"], [0, 0])
        expected = 3428 * margins["SMOKING"][0] * margins["CANCER"][0]
        assert mean == pytest.approx(expected)

    def test_expected_count_order_insensitive(self, schema, margins):
        model = MaxEntModel.independent(schema, margins)
        forward = model.expected_count(100, ["SMOKING", "CANCER"], [2, 1])
        backward = model.expected_count(100, ["CANCER", "SMOKING"], [1, 2])
        assert forward == pytest.approx(backward)


class TestCopy:
    def test_copy_is_deep(self, schema, margins):
        model = MaxEntModel.independent(schema, margins)
        clone = model.copy()
        clone.margin_factors["CANCER"][0] = 0.9
        clone.cell_factors[(("SMOKING", "CANCER"), (0, 0))] = 5.0
        assert model.margin_factors["CANCER"][0] != pytest.approx(0.9)
        assert not model.cell_factors

    def test_zero_mass_model(self):
        schema = Schema([Attribute("A", ("x", "y")), Attribute("B", ("u", "v"))])
        model = MaxEntModel(
            schema, {"A": np.zeros(2), "B": np.ones(2)}
        )
        with pytest.raises(ConstraintError, match="zero total mass"):
            model.joint()


def _wide_model():
    """Five attributes in three constraint-graph components:
    {A, C} by a cell factor, {B, D} by a table factor, {E} alone."""
    schema = Schema(
        [Attribute(name, ("0", "1", "2")[:card]) for name, card in
         (("A", 2), ("B", 3), ("C", 2), ("D", 2), ("E", 3))]
    )
    rng = np.random.default_rng(5)
    margins = {
        a.name: rng.uniform(0.5, 2.0, size=a.cardinality) for a in schema
    }
    return MaxEntModel(
        schema,
        margins,
        {(("A", "C"), (1, 0)): 2.5},
        0.7,
        {("B", "D"): rng.uniform(0.5, 2.0, size=(3, 2))},
    )


class TestFactoredJoint:
    def test_components_follow_schema_order(self):
        model = _wide_model()
        assert model.components() == [("A", "C"), ("B", "D"), ("E",)]
        assert MaxEntModel(model.schema).components() == [
            (name,) for name in model.schema.names
        ]

    def test_marginals_match_the_dense_joint(self):
        model = _wide_model()
        joint = model.joint()
        factors = model.factored()
        for names in (("A",), ("A", "B"), ("C", "E"), ("A", "C", "D"),
                      model.schema.names):
            drop = model.schema.drop_axes(names)
            dense = joint.sum(axis=drop) if drop else joint
            assert np.allclose(factors.marginal(names), dense, atol=1e-15)

    def test_normalization_follows_the_joint_rule(self):
        model = _wide_model()
        # a0 = 0.7 does not normalize: renormalized, like joint().
        assert model.factored().scale == 1.0
        assert model.marginal(["E"]).sum() == pytest.approx(1.0)
        # A normalizing a0 is kept, so the marginals are its product.
        model.normalize()
        assert model.factored().scale == pytest.approx(1.0, abs=1e-12)

    def test_zero_mass_raises(self):
        schema = Schema([Attribute("A", ("x", "y")), Attribute("B", ("u", "v"))])
        model = MaxEntModel(schema, {"A": np.zeros(2), "B": np.ones(2)})
        with pytest.raises(ConstraintError, match="zero total mass"):
            model.factored()

    def test_pack_round_trips_bit_for_bit(self):
        model = _wide_model()
        factors = model.factored()
        layout, block = factors.pack()
        assert block.size == 4 + 6 + 3
        rebuilt = FactoredJoint.unpack(layout, block)
        for names in (("A", "B"), ("C", "D", "E"), model.schema.names):
            assert (
                rebuilt.marginal(names).tobytes()
                == factors.marginal(names).tobytes()
            )
        with pytest.raises(ConstraintError, match="layout"):
            FactoredJoint.unpack(layout, block[:-1])

    def test_cells_reduced_counts_each_part_once(self):
        factors = _wide_model().factored()
        factors.marginal(("A", "B"))  # A from the 4-cell {A, C}; B from {B, D}
        assert factors.cells_reduced == 4 + 6
        factors.marginal(("A", "E"))  # A is cached; E's tensor is read
        assert factors.cells_reduced == 4 + 6 + 3


class TestCachedJoint:
    """One shared ``FactoredJoint`` per fingerprint; ``factored()`` stays fresh."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        factored = MaxEntModel.factored

        def counted(self):
            calls.append(self)
            return factored(self)

        monkeypatch.setattr(MaxEntModel, "factored", counted)
        return calls

    def test_built_once_per_fingerprint(self, builds):
        model = _wide_model()
        fingerprint, joint = model.cached_factored()
        assert fingerprint == model.fingerprint()
        assert model.cached_factored()[1] is joint
        assert len(builds) == 1

    def test_factored_returns_a_fresh_joint(self):
        model = _wide_model()
        shared = model.cached_factored()[1]
        assert model.factored() is not shared
        assert model.factored() is not model.factored()

    def test_queries_read_the_shared_joint(self, builds):
        model = _wide_model()
        joint = model.joint()
        for _ in range(3):
            assert model.marginal(("C", "A")) == pytest.approx(
                joint.sum(axis=(1, 3, 4))
            )
            model.probability({"A": "1", "E": "2"})
            model.conditional({"B": "0"}, {"D": "1"})
            model.expected_count(100, ("A",), (0,))
        assert len(builds) == 1

    def test_absorb_rebuilds_the_shared_joint(self):
        model = _wide_model()
        before = model.cached_factored()[1]
        other = model.copy()
        other.cell_factors[(("A", "C"), (1, 0))] = 0.5
        model.absorb(other)
        after = model.cached_factored()[1]
        assert after is not before
        np.testing.assert_allclose(
            after.marginal(("A", "C")),
            other.joint().sum(axis=(1, 3, 4)),
            rtol=0,
            atol=1e-15,
        )

    def test_copy_builds_its_own_joint(self):
        model = _wide_model()
        shared = model.cached_factored()[1]
        copied = model.copy()
        assert copied.cached_factored()[1] is not shared
        assert copied.fingerprint() == model.fingerprint()

    def test_concurrent_readers_share_one_answer(self):
        """Sessions on more threads than cores build and read the model's
        one joint at once, and every answer is bit-equal to a serial one."""
        model = _wide_model()
        queries = ["A=1 | C=0", "B=2 | D=1", "E=0", "A=0, B=1 | E=2"]
        expected = QuerySession(model.copy()).batch(queries)
        results = []

        def read():
            for _ in range(50):
                results.append(QuerySession(model).batch(queries))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 400
