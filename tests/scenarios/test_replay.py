"""Tests for the closed-loop query-traffic replay layer."""

import pytest

from repro.exceptions import DataError
from repro.scenarios import get_scenario
from repro.scenarios.replay import (
    latency_stats,
    percentile,
    replay_session,
    scenario_query_mix,
)


class TestPercentile:
    def test_empty_sample_is_zero(self):
        assert percentile([], 0.99) == 0.0

    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 0.50) == 3.0
        assert percentile(values, 0.99) == 4.0

    def test_latency_stats_in_milliseconds(self):
        stats = latency_stats([0.001, 0.002, 0.010])
        assert stats["p50_ms"] == pytest.approx(2.0)
        assert stats["max_ms"] == pytest.approx(10.0)
        assert stats["p99_ms"] <= stats["max_ms"]

    def test_latency_stats_empty(self):
        stats = latency_stats([])
        assert stats == {"p50_ms": 0.0, "p99_ms": 0.0, "max_ms": 0.0}


class TestScenarioQueryMix:
    def _schema(self, name="single-pairwise"):
        return get_scenario(name).build(smoke=True).table.schema

    def test_deterministic_for_seed(self):
        schema = self._schema()
        assert scenario_query_mix(schema, 42) == scenario_query_mix(
            schema, 42
        )
        assert scenario_query_mix(schema, 42) != scenario_query_mix(
            schema, 43
        )

    def test_mix_cycles_shapes(self):
        queries = scenario_query_mix(self._schema(), 7, size=6)
        assert len(queries) == 6
        marginals = [q for q in queries if "|" not in q]
        doubles = [q for q in queries if "," in q]
        assert marginals and doubles

    def test_size_validated(self):
        with pytest.raises(DataError, match="size"):
            scenario_query_mix(self._schema(), 1, size=0)

    def test_queries_are_askable(self):
        instance = get_scenario("single-pairwise").build(smoke=True)
        from repro.discovery.config import DiscoveryConfig
        from repro.discovery.engine import discover

        model = discover(
            instance.table, DiscoveryConfig(max_order=2)
        ).model
        from repro.api.session import QuerySession

        session = QuerySession(model)
        for text in scenario_query_mix(instance.table.schema, 11):
            value = session.ask(text)
            assert 0.0 <= value <= 1.0


class TestClosedLoopReplay:
    def test_counts_and_percentiles(self):
        instance = get_scenario("single-pairwise").build(smoke=True)
        from repro.discovery.config import DiscoveryConfig
        from repro.discovery.engine import discover

        model = discover(
            instance.table, DiscoveryConfig(max_order=2)
        ).model
        queries = scenario_query_mix(instance.table.schema, 3, size=2)
        # Ten back-to-back requests cycle the two-query mix five times.
        result = replay_session(model, queries, requests=10)
        assert result["requests"] == 10
        assert result["clients"] == 1
        assert result["elapsed_s"] > 0
        assert result["rps"] == pytest.approx(10 / result["elapsed_s"])
        assert result["p50_ms"] <= result["p99_ms"] <= result["max_ms"]
        assert 1e3 * result["elapsed_s"] >= result["max_ms"]


class TestReplaySession:
    def test_replays_against_fresh_sessions(self):
        instance = get_scenario("single-pairwise").build(smoke=True)
        from repro.discovery.config import DiscoveryConfig
        from repro.discovery.engine import discover

        model = discover(
            instance.table, DiscoveryConfig(max_order=2)
        ).model
        queries = scenario_query_mix(instance.table.schema, 5)
        result = replay_session(model, queries, requests=8)
        assert result["requests"] == 8
        assert result["clients"] == 1
        assert result["rps"] > 0
        assert 0.0 < result["p50_ms"] <= result["p99_ms"] <= result["max_ms"]

    def test_validation(self):
        with pytest.raises(DataError, match="requests"):
            replay_session(None, ["A=a"], requests=0)
        with pytest.raises(DataError, match="queries"):
            replay_session(None, [], requests=1)
