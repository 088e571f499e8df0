"""Property test: served responses are bit-identical to in-process queries.

Hypothesis generates arbitrary well-formed queries over the paper's
schema (any target attribute/value, any evidence subset); each one goes
over a real socket through the coalescing batcher and comes back as a
JSON float.  ``json.dumps`` round-trips binary64 exactly (shortest-repr
serialization), so the equality below is exact — not approx — for every
generated query.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

from repro.core.knowledge_base import ProbabilisticKnowledgeBase
from repro.eval.paper import paper_schema, paper_table
from repro.serve import ServeClient, serve_in_thread

SCHEMA = paper_schema()
SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def query_texts(draw):
    """Arbitrary ``A=x | B=y, C=z`` strings over the paper's schema."""
    names = list(SCHEMA.names)
    target = draw(st.sampled_from(names))
    target_value = draw(st.sampled_from(SCHEMA.attribute(target).values))
    others = [name for name in names if name != target]
    given_names = draw(
        st.lists(st.sampled_from(others), unique=True, max_size=len(others))
    )
    parts = [
        f"{name}={draw(st.sampled_from(SCHEMA.attribute(name).values))}"
        for name in given_names
    ]
    text = f"{target}={target_value}"
    if parts:
        text += " | " + ", ".join(parts)
    return text


@pytest.fixture(scope="module")
def served():
    kb = ProbabilisticKnowledgeBase.from_data(paper_table())
    mirror = ProbabilisticKnowledgeBase.from_dict(kb.to_dict())
    with serve_in_thread({"paper": kb}) as handle:
        with ServeClient(handle.host, handle.port) as client:
            yield client, mirror


@given(text=query_texts())
@SETTINGS
def test_served_answer_equals_in_process_answer(served, text):
    client, mirror = served
    assert client.ask("paper", text) == mirror.query(text)  # exact


@given(texts=st.lists(query_texts(), min_size=1, max_size=6))
@SETTINGS
def test_served_batch_equals_in_process_batch(served, texts):
    client, mirror = served
    document = client.batch("paper", texts)
    assert document["answers"] == mirror.query_many(texts)
