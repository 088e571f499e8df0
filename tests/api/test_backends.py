"""The session's one query path against the two evaluators it replaced.

Every query is answered from the model's shared ``FactoredJoint``.  The
dense joint (``model.joint()`` and its axis sums) and the paper's
Appendix-B elimination (``repro.maxent.elimination``) stay as oracles:
the session must agree with both.  The session keeps its dense
subset-marginal arrays in an LRU cache; its behaviour is pinned here too.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.session import QuerySession
from repro.data.schema import Attribute, Schema
from repro.discovery.engine import discover
from repro.maxent import elimination
from repro.maxent.model import MaxEntModel


@pytest.fixture
def model(table):
    return discover(table).model


def dense_marginal(model, names):
    """Oracle: axis sums of the dense joint (``names`` in schema order)."""
    return model.joint().sum(axis=model.schema.drop_axes(names))


def dense_most_probable(model, given):
    """Oracle: ``np.argmax`` over the dense joint restricted to ``given``
    (value indices); returns ``(index per attribute, probability)``."""
    schema = model.schema
    joint = model.joint()
    restricted = joint[
        tuple(given.get(attribute.name, slice(None)) for attribute in schema)
    ]
    best = int(np.argmax(restricted))
    free = [name for name in schema.names if name not in given]
    assignment = dict(given)
    for name, value in zip(free, np.unravel_index(best, restricted.shape)):
        assignment[name] = int(value)
    return assignment, float(restricted.ravel()[best] / restricted.sum())


class TestAgreement:
    def test_marginals_agree_on_paper_model(self, model):
        session = QuerySession(model)
        subsets = [
            ("CANCER",),
            ("SMOKING", "CANCER"),
            ("SMOKING", "CANCER", "FAMILY_HISTORY"),
        ]
        for names in subsets:
            np.testing.assert_allclose(
                session.marginal(names),
                dense_marginal(model, names),
                rtol=0,
                atol=1e-12,
            )
            np.testing.assert_allclose(
                session.marginal(names),
                elimination.marginal(model, names),
                rtol=0,
                atol=1e-12,
            )

    def test_most_probable_agrees(self, model):
        session = QuerySession(model)
        schema = model.schema
        for evidence in ({}, {"SMOKING": 0}, {"CANCER": 1}):
            labels, probability = session.most_probable(schema.labels_of(evidence))
            expected, expected_probability = dense_most_probable(model, evidence)
            assert labels == schema.labels_of(expected)
            assert probability == pytest.approx(expected_probability, rel=1e-12)


class TestCacheInvalidation:
    def test_dense_cache_tracks_inplace_mutation(self, model):
        session = QuerySession(model)
        before = session.marginal(("CANCER",)).copy()
        model.margin_factors["CANCER"] = model.margin_factors["CANCER"] * [
            2.0,
            1.0,
        ]
        model.normalize()
        after = session.marginal(("CANCER",))
        assert not np.allclose(before, after)
        np.testing.assert_allclose(after, dense_marginal(model, ("CANCER",)))

    def test_factored_cache_tracks_inplace_mutation(self, model):
        fingerprint, joint = model.cached_factored()
        assert model.cached_factored()[1] is joint
        model.margin_factors["SMOKING"] = model.margin_factors["SMOKING"] * [
            3.0,
            1.0,
            1.0,
        ]
        model.normalize()
        refreshed, rebuilt = model.cached_factored()
        assert refreshed != fingerprint and rebuilt is not joint
        np.testing.assert_allclose(
            model.marginal(("SMOKING",)),
            elimination.marginal(model, ("SMOKING",)),
            rtol=0,
            atol=1e-12,
        )

    def test_explicit_invalidate(self, model):
        session = QuerySession(model)
        session.ask("CANCER=yes | SMOKING=smoker")
        session.invalidate()
        info = session.cache_info()
        assert info["marginals_cached"] == 0
        assert info["plans_cached"] == 0
        assert info["hits"] == info["misses"] == 0


class TestDenseMarginalLRU:
    def test_repeated_query_returns_cached_array(self, model):
        session = QuerySession(model)
        first = session.marginal(("CANCER", "SMOKING"))
        second = session.marginal(("SMOKING", "CANCER"))
        assert second is first  # same frozen array, canonical key

    def test_cached_arrays_are_read_only(self, model):
        marginal = QuerySession(model).marginal(("CANCER",))
        with pytest.raises(ValueError):
            marginal[0] = 0.5

    def test_mutation_drops_marginal_cache(self, model):
        session = QuerySession(model)
        stale = session.marginal(("CANCER",))
        model.margin_factors["CANCER"] = model.margin_factors["CANCER"] * [
            2.0,
            1.0,
        ]
        model.normalize()
        fresh = session.marginal(("CANCER",))
        assert fresh is not stale
        np.testing.assert_allclose(fresh, dense_marginal(model, ("CANCER",)))

    def test_lru_evicts_oldest(self, model):
        session = QuerySession(model, cache_size=2)
        first = session.marginal(("SMOKING",))
        session.marginal(("CANCER",))
        session.marginal(("FAMILY_HISTORY",))
        assert session.cache_info()["marginals_cached"] == 2
        assert session.marginal(("SMOKING",)) is not first

    def test_lru_recency_order(self, model):
        session = QuerySession(model, cache_size=2)
        smoking = session.marginal(("SMOKING",))
        cancer = session.marginal(("CANCER",))
        session.marginal(("SMOKING",))  # refresh recency
        session.marginal(("FAMILY_HISTORY",))
        assert session.marginal(("SMOKING",)) is smoking
        assert session.marginal(("CANCER",)) is not cancer

    def test_full_subset_matches_dense_joint(self, model):
        session = QuerySession(model)
        names = model.schema.names
        np.testing.assert_allclose(
            session.marginal(names), model.joint(), rtol=0, atol=1e-15
        )

    def test_cached_values_match_model(self, model):
        session = QuerySession(model)
        for _ in range(2):
            np.testing.assert_allclose(
                session.marginal(("SMOKING", "FAMILY_HISTORY")),
                dense_marginal(model, ("SMOKING", "FAMILY_HISTORY")),
            )
        assert session.cache_info()["hits"] == 1


# -- randomized session vs dense and elimination oracles (hypothesis) ---------------


@st.composite
def random_models(draw):
    width = draw(st.integers(min_value=2, max_value=4))
    cardinalities = [
        draw(st.integers(min_value=2, max_value=3)) for _ in range(width)
    ]
    schema = Schema(
        [
            Attribute(f"A{i}", tuple(f"v{j}" for j in range(c)))
            for i, c in enumerate(cardinalities)
        ]
    )
    margins = {
        a.name: [
            draw(
                st.floats(
                    min_value=0.05, max_value=1.0, allow_nan=False
                )
            )
            for _ in range(a.cardinality)
        ]
        for a in schema
    }
    cells = {}
    if width >= 2:
        pair = (schema.names[0], schema.names[1])
        values = tuple(
            draw(st.integers(min_value=0, max_value=c - 1))
            for c in cardinalities[:2]
        )
        factor = draw(
            st.floats(min_value=0.1, max_value=4.0, allow_nan=False)
        )
        cells[(pair, values)] = factor
    model = MaxEntModel(schema, margins, cells)
    model.normalize()
    return model


@given(data=st.data())
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_dense_vs_elimination_randomized(data):
    """The session, the dense joint and elimination agree to 1e-10."""
    model = data.draw(random_models())
    schema = model.schema
    target_attr = schema.attributes[0]
    target = {target_attr.name: target_attr.values[0]}
    evidence_attrs = list(schema.attributes[1:])
    n_given = data.draw(
        st.integers(min_value=0, max_value=len(evidence_attrs))
    )
    evidence = {
        a.name: a.values[data.draw(st.integers(0, a.cardinality - 1))]
        for a in evidence_attrs[:n_given]
    }
    terms = ", ".join(f"{name}={value}" for name, value in evidence.items())
    text = f"{target_attr.name}={target_attr.values[0]}"
    if terms:
        text += f" | {terms}"
    answer = QuerySession(model).ask(text)
    joint_names = schema.canonical_subset([*target, *evidence])
    indices = schema.indices_of({**evidence, **target})
    numerator = dense_marginal(model, joint_names)[
        tuple(indices[name] for name in joint_names)
    ]
    given_names = schema.canonical_subset(list(evidence))
    denominator = dense_marginal(model, given_names)[
        tuple(indices[name] for name in given_names)
    ]
    dense = float(numerator / denominator)
    factored = elimination.query(model, target, evidence)
    assert dense == pytest.approx(factored, abs=1e-10)
    assert answer == pytest.approx(dense, abs=1e-10)
    assert answer == pytest.approx(factored, abs=1e-10)


@given(data=st.data())
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_most_probable_vs_dense_argmax_randomized(data):
    """Per-component MPE is a maximizer of the dense joint, and it is
    ``np.argmax``'s cell whenever the maximum is unique beyond rounding.

    Two cells equal in exact arithmetic can round apart differently in
    the dense joint and in a component's tensor, so a mathematical tie
    may be broken either way; an exact float tie goes to the first cell
    in schema order on both paths.
    """
    model = data.draw(random_models())
    schema = model.schema
    evidence = {
        attribute.name: data.draw(st.integers(0, attribute.cardinality - 1))
        for attribute in schema
        if data.draw(st.booleans())
    }
    labels, probability = QuerySession(model).most_probable(schema.labels_of(evidence))
    expected, expected_probability = dense_most_probable(model, evidence)
    assert probability == pytest.approx(expected_probability, rel=1e-12)
    joint = model.joint()
    chosen = schema.indices_of(labels)
    cell = joint[tuple(chosen[name] for name in schema.names)]
    restricted = joint[tuple(evidence.get(name, slice(None)) for name in schema.names)]
    assert cell == pytest.approx(restricted.max(), rel=1e-12)
    top = np.sort(restricted.ravel())[::-1]
    if top.size == 1 or top[1] < top[0] * (1 - 1e-9):
        assert labels == schema.labels_of(expected)
