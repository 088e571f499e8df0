"""Tests for contingency tables: paper's Figures 1/2 are the ground truth."""

import numpy as np
import pytest

from repro.data.contingency import ContingencyTable
from repro.data.schema import Attribute, Schema
from repro.eval.paper import FIGURE2_MARGINALS
from repro.exceptions import DataError


class TestConstruction:
    def test_total_matches_paper(self, table):
        assert table.total == 3428

    def test_shape_validation(self, schema):
        with pytest.raises(DataError, match="shape"):
            ContingencyTable(schema, np.zeros((2, 2, 2)))

    def test_rejects_negative_counts(self, schema):
        counts = np.zeros(schema.shape)
        counts[0, 0, 0] = -1
        with pytest.raises(DataError, match="non-negative"):
            ContingencyTable(schema, counts)

    def test_rejects_fractional_counts(self, schema):
        counts = np.zeros(schema.shape)
        counts[0, 0, 0] = 1.5
        with pytest.raises(DataError, match="integers"):
            ContingencyTable(schema, counts)

    def test_accepts_whole_floats(self, schema):
        counts = np.full(schema.shape, 2.0)
        table = ContingencyTable(schema, counts)
        assert table.counts.dtype == np.int64

    def test_counts_read_only(self, table):
        with pytest.raises(ValueError):
            table.counts[0, 0, 0] = 99

    def test_from_samples(self):
        schema = Schema(
            [Attribute("A", ("x", "y")), Attribute("B", ("u", "v"))]
        )
        table = ContingencyTable.from_samples(
            schema, [("x", "u"), ("x", "u"), ("y", "v")]
        )
        assert table.count({"A": "x", "B": "u"}) == 2
        assert table.count({"A": "y", "B": "v"}) == 1
        assert table.total == 3

    def test_from_samples_wrong_width(self, schema):
        with pytest.raises(DataError, match="fields"):
            ContingencyTable.from_samples(schema, [("smoker", "yes")])

    def test_from_records(self):
        schema = Schema(
            [Attribute("A", ("x", "y")), Attribute("B", ("u", "v"))]
        )
        table = ContingencyTable.from_records(
            schema, [{"A": "x", "B": "v"}, {"A": "y", "B": "v"}]
        )
        assert table.marginal(["B"]).tolist() == [0, 2]

    def test_addition(self, table):
        doubled = table + table
        assert doubled.total == 2 * table.total

    def test_addition_schema_mismatch(self, table):
        other_schema = Schema([Attribute("Z", ("a", "b"))])
        other = ContingencyTable.zeros(other_schema)
        with pytest.raises(DataError):
            table + other


class TestMarginals:
    """Eqs 1-6: every marginal of Figure 2 must come out exactly."""

    @pytest.mark.parametrize("subset,expected", list(FIGURE2_MARGINALS.items()))
    def test_figure2_marginal(self, table, subset, expected):
        assert table.marginal(list(subset)).tolist() == expected

    def test_marginal_order_insensitive(self, table):
        forward = table.marginal(["SMOKING", "CANCER"])
        backward = table.marginal(["CANCER", "SMOKING"])
        assert np.array_equal(forward, backward)

    def test_marginal_full_set_is_counts(self, table):
        assert np.array_equal(
            table.marginal(list(table.schema.names)), table.counts
        )

    def test_marginal_table_collapses_schema(self, table):
        collapsed = table.marginal_table(["SMOKING", "CANCER"])
        assert collapsed.schema.names == ("SMOKING", "CANCER")
        assert collapsed.total == table.total
        assert collapsed.count({"SMOKING": "smoker", "CANCER": "yes"}) == 240

    def test_count_full_assignment(self, table):
        # Paper: "the number of smokers who do not have cancer despite a
        # family history of cancer is given as 410".
        assert (
            table.count(
                {"SMOKING": "smoker", "CANCER": "no", "FAMILY_HISTORY": "yes"}
            )
            == 410
        )

    def test_count_partial_assignment(self, table):
        assert table.count({"CANCER": "yes"}) == 433

    def test_count_accepts_indices(self, table):
        assert table.count({"SMOKING": 0, "CANCER": 0}) == 240

    def test_marginal_sums_equal_total(self, table):
        for name in table.schema.names:
            assert table.marginal([name]).sum() == table.total


class TestProbabilities:
    def test_first_order_probabilities(self, table):
        p = table.first_order_probabilities("CANCER")
        assert p == pytest.approx([433 / 3428, 2995 / 3428])

    def test_probabilities_sum_to_one(self, table):
        assert table.probabilities().sum() == pytest.approx(1.0)

    def test_probability_partial(self, table):
        assert table.probability({"SMOKING": "smoker"}) == pytest.approx(
            1290 / 3428
        )

    def test_empty_table_probabilities(self, schema):
        with pytest.raises(DataError, match="empty"):
            ContingencyTable.zeros(schema).probabilities()


class TestCellIteration:
    def test_second_order_cell_count_matches_paper(self, table):
        # Paper: "there are 16 second order cells".
        assert table.num_cells_of_order(2) == 16
        assert len(list(table.cells_of_order(2))) == 16

    def test_first_order_cells(self, table):
        cells = list(table.cells_of_order(1))
        assert len(cells) == 7  # 3 + 2 + 2
        total_per_attribute = {}
        for subset, _values, count in cells:
            total_per_attribute.setdefault(subset, 0)
            total_per_attribute[subset] += count
        assert all(v == 3428 for v in total_per_attribute.values())

    def test_third_order_cells(self, table):
        cells = list(table.cells_of_order(3))
        assert len(cells) == 12
        assert sum(count for *_rest, count in cells) == 3428

    def test_subsets_of_order(self, table):
        assert table.subsets_of_order(2) == [
            ("SMOKING", "CANCER"),
            ("SMOKING", "FAMILY_HISTORY"),
            ("CANCER", "FAMILY_HISTORY"),
        ]

    def test_order_out_of_range(self, table):
        with pytest.raises(DataError):
            table.subsets_of_order(0)
        with pytest.raises(DataError):
            table.subsets_of_order(4)


class TestRendering:
    def test_render_contains_paper_cells(self, table):
        text = table.render("SMOKING", "CANCER")
        assert "130" in text
        assert "385" in text
        assert "FAMILY_HISTORY = yes" in text

    def test_render_marginals(self, table):
        text = table.render("SMOKING", "CANCER", show_marginals=True)
        assert "1780" in text  # family history = yes slice total

    def test_render_2d(self, table):
        collapsed = table.marginal_table(["SMOKING", "CANCER"])
        text = collapsed.render(show_marginals=True)
        assert "3428" in text

    def test_render_needs_two_attributes(self):
        single = ContingencyTable.zeros(Schema([Attribute("A", ("x", "y"))]))
        with pytest.raises(DataError):
            single.render()


class TestMarginalCountsCache:
    def test_same_frozen_array_returned(self, table):
        first = table.marginal_counts(["SMOKING", "CANCER"])
        second = table.marginal_counts(["CANCER", "SMOKING"])
        assert second is first  # canonical key, computed once
        assert not first.flags.writeable

    def test_matches_uncached_marginal(self, table):
        np.testing.assert_array_equal(
            table.marginal_counts(["SMOKING", "FAMILY_HISTORY"]),
            table.marginal(["SMOKING", "FAMILY_HISTORY"]),
        )

    def test_marginal_still_returns_mutable_copy(self, table):
        marginal = table.marginal(["SMOKING"])
        marginal[0] = 0  # must not raise, must not corrupt the cache
        assert int(table.marginal_counts(["SMOKING"])[0]) == 1290

    def test_full_subset_is_the_count_tensor(self, table):
        assert table.marginal_counts(table.schema.names) is table.counts

    def test_count_uses_cache(self, table):
        assert table.count({"SMOKING": 0, "CANCER": 0}) == 240
        assert table.count({"CANCER": 0, "SMOKING": 0}) == 240

    def test_total_cached(self, table):
        assert table.total == 3428
        assert table._total == 3428
        assert table.total == 3428

    def test_sum_of_tables_has_fresh_cache(self, table):
        doubled = table + table
        assert doubled.marginal_counts(["SMOKING"]).tolist() == (
            (2 * table.marginal_counts(["SMOKING"])).tolist()
        )

    # -- the cache a sum carries over from its left operand ---------------

    @staticmethod
    def _fill_cache(table):
        for order in range(1, len(table.schema) + 1):
            for subset in table.subsets_of_order(order):
                table.marginal_counts(subset)

    @staticmethod
    def _assert_carried_exact(merged, expected_subsets):
        carried = dict(merged._marginal_cache)
        assert set(carried) == set(expected_subsets)
        for names, marginal in carried.items():
            drop = merged.schema.drop_axes(names)
            assert marginal.dtype == np.int64
            assert not marginal.flags.writeable
            assert np.array_equal(marginal, merged.counts.sum(axis=drop))

    @staticmethod
    def _random_delta(schema, seed, rows=50):
        rng = np.random.default_rng(seed)
        samples = [
            [int(rng.integers(card)) for card in schema.shape]
            for _ in range(rows)
        ]
        return ContingencyTable.from_samples(schema, samples)

    def test_sum_carries_left_cache_exactly(self, table):
        self._fill_cache(table)
        merged = table + self._random_delta(table.schema, seed=1)
        # SMOKING has three values; every proper subset is carried, the
        # full set is not (the sum's counts is that entry).
        proper = [
            subset
            for order in range(1, len(table.schema))
            for subset in table.subsets_of_order(order)
        ]
        self._assert_carried_exact(merged, proper)
        assert merged.marginal_counts(table.schema.names) is merged.counts

    def test_sum_carries_only_what_left_had_cached(self, table):
        table.marginal_counts(["CANCER", "SMOKING"])
        merged = table + table
        self._assert_carried_exact(merged, [("SMOKING", "CANCER")])

    def test_chain_of_merges_stays_exact(self, table):
        self._fill_cache(table)
        merged = table
        for seed in range(5):
            merged = merged + self._random_delta(table.schema, seed)
        proper = [
            subset
            for order in range(1, len(table.schema))
            for subset in table.subsets_of_order(order)
        ]
        self._assert_carried_exact(merged, proper)
        assert merged.total == table.total + 5 * 50
        assert merged.marginal_counts(table.schema.names) is merged.counts

    def test_empty_addend_carries_the_same_counts(self, table):
        self._fill_cache(table)
        merged = table + ContingencyTable.zeros(table.schema)
        for names, marginal in merged._marginal_cache.items():
            assert marginal is not table._marginal_cache[names]
            assert np.array_equal(marginal, table.marginal_counts(names))
            assert not marginal.flags.writeable

    def test_cell_counts_above_int32(self, table):
        big = 3 * 2**31
        counts = table.counts.copy()
        counts[0, 0, 0] += big
        left = ContingencyTable(table.schema, counts)
        self._fill_cache(left)
        addend_counts = np.zeros(table.schema.shape, dtype=np.int64)
        addend_counts[2, 1, 1] = big + 7
        merged = left + ContingencyTable(table.schema, addend_counts)
        proper = [
            subset
            for order in range(1, len(table.schema))
            for subset in table.subsets_of_order(order)
        ]
        self._assert_carried_exact(merged, proper)
        assert int(merged.marginal_counts(["SMOKING"])[2]) == (
            int(table.marginal_counts(["SMOKING"])[2]) + big + 7
        )

    def test_addend_past_float_exactness_carries_nothing(self, table):
        self._fill_cache(table)
        huge = 2**53 + 1
        addend_counts = np.zeros(table.schema.shape, dtype=np.int64)
        addend_counts[1, 0, 1] = huge
        merged = table + ContingencyTable(table.schema, addend_counts)
        assert merged._marginal_cache == {}
        assert int(merged.marginal_counts(["SMOKING"])[1]) == (
            int(table.marginal_counts(["SMOKING"])[1]) + huge
        )
