"""Tests for most-probable-explanation (MPE) queries."""

import numpy as np
import pytest

from repro.api.session import QuerySession
from repro.data.schema import Attribute, Schema
from repro.discovery.engine import discover
from repro.exceptions import QueryError
from repro.maxent.model import MaxEntModel


@pytest.fixture
def engine(table):
    return QuerySession(discover(table).model)


class TestMostProbable:
    def test_unconditional_matches_argmax(self, engine):
        labels, probability = engine.most_probable()
        joint = engine.model.joint()
        best = np.unravel_index(np.argmax(joint), joint.shape)
        schema = engine.model.schema
        expected = {
            attribute.name: attribute.value_at(int(i))
            for attribute, i in zip(schema, best)
        }
        assert labels == expected
        assert probability == pytest.approx(float(joint[best]))

    def test_with_evidence(self, engine):
        labels, probability = engine.most_probable({"SMOKING": "smoker"})
        assert labels["SMOKING"] == "smoker"
        # Most smokers have no cancer.
        assert labels["CANCER"] == "no"
        assert 0.0 < probability <= 1.0

    def test_probability_is_conditional(self, engine):
        labels, probability = engine.most_probable({"SMOKING": "smoker"})
        exact = engine.model.conditional(
            {k: v for k, v in labels.items() if k != "SMOKING"},
            {"SMOKING": "smoker"},
        )
        assert probability == pytest.approx(exact, rel=1e-9)

    def test_full_evidence_returns_it(self, engine):
        evidence = {
            "SMOKING": "smoker",
            "CANCER": "yes",
            "FAMILY_HISTORY": "no",
        }
        labels, probability = engine.most_probable(evidence)
        assert labels == evidence
        assert probability == pytest.approx(1.0)

    def test_zero_evidence_rejected(self, table):
        margins = {
            "SMOKING": np.array([1.0, 0.0, 0.0]),
            "CANCER": np.array([0.5, 0.5]),
            "FAMILY_HISTORY": np.array([0.5, 0.5]),
        }
        model = MaxEntModel.independent(table.schema, margins)
        engine = QuerySession(model)
        with pytest.raises(QueryError, match="zero"):
            engine.most_probable({"SMOKING": "non-smoker"})

    def test_zero_evidence_in_one_component_rejected(self):
        """A zero-mass evidence value in one component sinks the query,
        however likely the other components are."""
        schema = Schema([Attribute(f"X{i}", ("a", "b")) for i in range(3)])
        margins = {"X0": [0.5, 0.5], "X1": [1.0, 0.0], "X2": [0.3, 0.7]}
        cells = {(("X0", "X1"), (0, 0)): 2.0}
        session = QuerySession(MaxEntModel(schema, margins, cells))
        with pytest.raises(QueryError, match="zero probability"):
            session.most_probable({"X2": "b", "X1": "b"})
        labels, _ = session.most_probable({"X2": "b", "X1": "a"})
        assert labels == {"X2": "b", "X1": "a", "X0": "a"}

    def test_mpe_probability_bounds_each_marginal(self, engine):
        """The MPE's conditional probability can't exceed any single
        attribute's conditional share."""
        labels, probability = engine.most_probable({"SMOKING": "smoker"})
        for name, value in labels.items():
            if name == "SMOKING":
                continue
            single = engine.probability({name: value}, {"SMOKING": "smoker"})
            assert probability <= single + 1e-12


def binary_schema(width: int) -> Schema:
    return Schema([Attribute(f"X{i}", ("a", "b")) for i in range(width)])


class TestTieBreak:
    """Ties go to the assignment that comes first in schema order."""

    def test_uniform_model_picks_the_first_assignment(self):
        schema = binary_schema(5)
        session = QuerySession(MaxEntModel.uniform(schema))
        labels, probability = session.most_probable()
        assert labels == {name: "a" for name in schema.names}
        assert probability == pytest.approx(1 / 32)
        labels, _ = session.most_probable({"X2": "b"})
        assert labels == {**{name: "a" for name in schema.names}, "X2": "b"}

    def test_tied_components_each_pick_their_first_maximum(self):
        """Two interleaved components, X0-X2 and X1-X3, each with two
        tied maxima: (X0, X2) = (b, a) or (b, b), (X1, X3) = (a, b) or
        (b, a).  The dense argmax picks X0=b, X1=a, X2=a, X3=b."""
        schema = binary_schema(4)
        cells = {
            (("X0", "X2"), (1, 0)): 3.0,
            (("X0", "X2"), (1, 1)): 3.0,
            (("X1", "X3"), (0, 1)): 2.0,
            (("X1", "X3"), (1, 0)): 2.0,
        }
        model = MaxEntModel(schema, None, cells)
        model.normalize()
        assert model.components() == [("X0", "X2"), ("X1", "X3")]
        joint = model.joint()
        best = np.unravel_index(np.argmax(joint), joint.shape)
        session = QuerySession(model)
        labels, probability = session.most_probable()
        assert labels == {"X0": "b", "X1": "a", "X2": "a", "X3": "b"}
        assert labels == {
            name: ("a", "b")[int(index)] for name, index in zip(schema.names, best)
        }
        assert probability == pytest.approx(float(joint[best]), rel=1e-12)
        # With X2 fixed to b, X0's tie is gone but X1-X3's remains.
        labels, _ = session.most_probable({"X2": "b"})
        assert labels == {"X2": "b", "X0": "b", "X1": "a", "X3": "b"}
