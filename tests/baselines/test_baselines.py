"""Tests for the independence / empirical baselines."""

import numpy as np
import pytest

from repro.baselines.empirical import empirical_joint, empirical_model
from repro.baselines.independence import independence_model
from repro.data.contingency import ContingencyTable
from repro.exceptions import DataError
from repro.maxent.entropy import entropy


class TestIndependence:
    def test_margins_match_data(self, table):
        model = independence_model(table)
        for name in table.schema.names:
            assert np.allclose(
                model.marginal([name]),
                table.first_order_probabilities(name),
            )

    def test_no_association(self, table):
        model = independence_model(table)
        assert model.conditional(
            {"CANCER": "yes"}, {"SMOKING": "smoker"}
        ) == pytest.approx(model.probability({"CANCER": "yes"}))


class TestEmpirical:
    def test_joint_equals_frequencies(self, table):
        joint = empirical_joint(table)
        assert np.allclose(joint, table.counts / table.total)

    def test_smoothing_fills_zeros(self, schema):
        counts = np.zeros(schema.shape, dtype=np.int64)
        counts[0, 0, 0] = 10
        table = ContingencyTable(schema, counts)
        smoothed = empirical_joint(table, smoothing=1.0)
        assert (smoothed > 0).all()
        assert smoothed.sum() == pytest.approx(1.0)

    def test_model_wrapper_matches_joint(self, table):
        model = empirical_model(table)
        assert np.allclose(model.joint(), empirical_joint(table), atol=1e-12)

    def test_model_queries(self, table):
        model = empirical_model(table)
        assert model.conditional(
            {"CANCER": "yes"}, {"SMOKING": "smoker"}
        ) == pytest.approx(240 / 1290)

    def test_negative_smoothing_rejected(self, table):
        with pytest.raises(DataError):
            empirical_joint(table, smoothing=-1.0)

    def test_entropy_ordering(self, table):
        """Independence >= discovered maxent >= empirical: each model down
        the chain satisfies strictly more data constraints."""
        from repro.discovery.engine import discover

        h_independent = entropy(independence_model(table).joint())
        h_discovered = entropy(discover(table).model.joint())
        h_empirical = entropy(empirical_joint(table))
        assert h_independent >= h_discovered - 1e-9
        assert h_discovered >= h_empirical - 1e-9

