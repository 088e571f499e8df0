"""A 24-attribute model answers every query kind without its ``2^24`` joint.

The model is built directly (no discovery): 24 binary attributes in 8
interleaved components ``{Xk, Xk+8, Xk+16}``, joined by pair cell
factors.  A session answers conditionals, ``distribution`` and MPE, with
and without evidence, while building the dense joint — ``joint()`` or a
whole-schema ``unnormalized()`` — raises, and the traced peak allocation
stays under 16 MB (the joint alone is 128 MiB).  The answers are then
checked against Appendix-B elimination and per-component brute force.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from repro.api.session import QuerySession
from repro.data.schema import Attribute, Schema
from repro.maxent import elimination
from repro.maxent.model import MaxEntModel

WIDTH = 24
COMPONENTS = 8
PEAK_BYTES = 16 * 2**20

CONDITIONALS = [
    "X0=b",
    "X0=b | X8=a",
    "X0=b | X16=b, X1=a",
    "X8=a, X9=b | X23=b",
    "X5=a | X13=b, X21=a, X2=b",
]
DISTRIBUTIONS = [("X3", None), ("X11", {"X3": "b"}), ("X12", {"X4": "a"})]
EVIDENCE = [None, {"X0": "b"}, {"X8": "a", "X17": "b", "X23": "a"}]


class JointBuilt(AssertionError):
    pass


@pytest.fixture(scope="module")
def model():
    schema = Schema([Attribute(f"X{i}", ("a", "b")) for i in range(WIDTH)])
    rng = np.random.default_rng(7)
    margins = {name: rng.uniform(0.2, 1.0, size=2) for name in schema.names}
    cells = {}
    for k in range(COMPONENTS):
        for first, second in ((k, k + 8), (k + 8, k + 16)):
            values = tuple(int(v) for v in rng.integers(0, 2, size=2))
            key = ((f"X{first}", f"X{second}"), values)
            cells[key] = float(rng.uniform(0.3, 3.0))
    return MaxEntModel(schema, margins, cells)


@pytest.fixture
def joint_guard(monkeypatch, model):
    unnormalized = MaxEntModel.unnormalized

    def joint(self):
        raise JointBuilt("MaxEntModel.joint() called by a query")

    def guarded_unnormalized(self):
        if len(self.schema) == WIDTH:
            raise JointBuilt("a whole-schema model tensor")
        return unnormalized(self)

    monkeypatch.setattr(MaxEntModel, "joint", joint)
    monkeypatch.setattr(MaxEntModel, "unnormalized", guarded_unnormalized)
    return monkeypatch


def _answer_everything(model):
    session = QuerySession(model)
    return (
        session.batch(CONDITIONALS),
        [session.distribution(name, given) for name, given in DISTRIBUTIONS],
        [session.most_probable(given) for given in EVIDENCE],
    )


def test_the_model_has_eight_components(model):
    assert len(model.components()) == COMPONENTS


def test_every_query_kind_stays_small_and_joint_free(model, joint_guard):
    tracemalloc.start()
    try:
        conditionals, distributions, explanations = _answer_everything(model)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BYTES, f"peak traced allocation {peak} bytes"
    joint_guard.undo()

    for text, value in zip(CONDITIONALS, conditionals):
        target, _, given = text.partition("|")
        expected = elimination.query(
            model, _labels(target), _labels(given) if given else None
        )
        assert value == pytest.approx(expected, rel=1e-12)
    for (name, given), distribution in zip(DISTRIBUTIONS, distributions):
        for value, probability in distribution.items():
            assert probability == pytest.approx(
                elimination.query(model, {name: value}, given), rel=1e-12
            )
    for given, (labels, probability) in zip(EVIDENCE, explanations):
        expected_labels, expected = _brute_force_mpe(model, given or {})
        assert labels == expected_labels
        assert probability == pytest.approx(expected, rel=1e-12)


def _labels(text):
    pairs = (term.split("=") for term in text.split(","))
    return {name.strip(): value.strip() for name, value in pairs}


def _brute_force_mpe(model, given):
    """MPE by enumerating each 8-cell component, with probabilities from
    elimination; components are independent, so the best assignment is
    each component's best and its probability is their product."""
    labels = dict(given)
    probability = 1.0
    for names in model.components():
        free = [name for name in names if name not in given]
        best, best_p = None, -1.0
        for values in itertools.product("ab", repeat=len(free)):
            candidate = dict(zip(free, values))
            p = elimination.query(model, candidate, given) if free else 1.0
            if p > best_p:
                best, best_p = candidate, p
        labels.update(best)
        probability *= best_p
    ordered = {name: labels[name] for name in given}
    ordered.update(
        (name, labels[name]) for name in model.schema.names if name not in given
    )
    return ordered, probability
