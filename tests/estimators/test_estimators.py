"""Tests for the fit/update lifecycle of a knowledge base.

``ProbabilisticKnowledgeBase.from_data`` fits, ``update`` absorbs a delta
(warm rerun of discovery, cold fallback), and an empty delta is a noop.
"""

import numpy as np
import pytest

from repro.core.knowledge_base import ProbabilisticKnowledgeBase
from repro.data.contingency import ContingencyTable
from repro.data.dataset import Dataset
from repro.data.streaming import TableBuilder
from repro.discovery.config import DiscoveryConfig
from repro.discovery.engine import discover
from repro.exceptions import DataError


@pytest.fixture
def delta(schema, table, rng):
    return Dataset.from_joint(
        schema, table.probabilities(), 500, rng
    ).to_contingency()


class TestLifecycleBasics:
    def test_update_before_fit(self, table):
        """A knowledge base loaded without its discovery trace was never
        fitted here, so it has nothing to rerun from."""
        fitted = ProbabilisticKnowledgeBase.from_data(table)
        bare = ProbabilisticKnowledgeBase.from_dict(
            fitted.to_dict(include_audit=False)
        )
        with pytest.raises(DataError, match="cannot be updated"):
            bare.update(table)
        assert bare.sample_size == fitted.sample_size

    def test_fit_empty_table(self, schema):
        with pytest.raises(DataError, match="empty"):
            ProbabilisticKnowledgeBase.from_data(ContingencyTable.zeros(schema))

    def test_empty_delta_is_noop(self, table):
        kb = ProbabilisticKnowledgeBase.from_data(table)
        keys = kb.discovery.constraints.cell_keys()
        revision = kb.update([])
        assert revision.mode == "noop"
        assert revision.added_samples == 0
        assert kb.discovery.table.total == table.total
        assert kb.discovery.constraints.cell_keys() == keys

    def test_update_accepts_raw_samples(self, schema, table):
        kb = ProbabilisticKnowledgeBase.from_data(table)
        revision = kb.update([("smoker", "yes", "no")] * 10)
        assert revision.mode in ("warm", "cold")
        expected = table + Dataset.from_samples(
            schema, [("smoker", "yes", "no")] * 10
        ).to_contingency()
        np.testing.assert_array_equal(
            kb.discovery.table.counts, expected.counts
        )

    def test_update_rejects_builder(self, schema, table):
        """A builder is not consumed by update, so accepting one would
        re-absorb its history every window; snapshot() is the safe form."""
        builder = TableBuilder(schema)
        builder.add_sample(("smoker", "yes", "no"))
        kb = ProbabilisticKnowledgeBase.from_data(table)
        with pytest.raises(DataError, match="snapshot"):
            kb.update(builder)
        kb.update(builder.snapshot())
        assert kb.sample_size == table.total + 1
        assert builder.total == 1


class TestDiscoveryEstimator:
    def test_warm_update_matches_cold_refit(self, table, delta):
        config = DiscoveryConfig(max_order=2)
        kb = ProbabilisticKnowledgeBase.from_data(table, config)
        revision = kb.update(delta)
        assert revision.mode == "warm"
        cold = discover(table + delta, config)
        assert kb.discovery.constraints.cell_keys() == (
            cold.constraints.cell_keys()
        )
        assert np.allclose(kb.model.joint(), cold.model.joint(), atol=1e-8)
