"""Tests for CSV and JSON serialization."""

import numpy as np
import pytest

from repro.data.contingency import ContingencyTable
from repro.data.dataset import Dataset
from repro.data.io import (
    read_dataset_csv,
    schema_from_dict,
    schema_to_dict,
    table_from_dict,
    table_to_dict,
    write_dataset_csv,
)
from repro.data.schema import Attribute, Schema
from repro.exceptions import DataError


class TestCSV:
    def test_round_trip_with_schema(self, schema, table, rng, tmp_path):
        dataset = Dataset.from_joint(schema, table.probabilities(), 200, rng)
        path = tmp_path / "survey.csv"
        write_dataset_csv(dataset, path)
        recovered = read_dataset_csv(path, schema)
        assert np.array_equal(recovered.rows, dataset.rows)

    def test_round_trip_inferred_schema(self, schema, table, rng, tmp_path):
        dataset = Dataset.from_joint(schema, table.probabilities(), 500, rng)
        path = tmp_path / "survey.csv"
        write_dataset_csv(dataset, path)
        recovered = read_dataset_csv(path)
        # Inferred schema sorts values, so compare contingency content by
        # labelled counts instead of raw indices.
        original = dataset.to_contingency()
        inferred = recovered.to_contingency()
        assignment = {
            "SMOKING": "smoker",
            "CANCER": "yes",
            "FAMILY_HISTORY": "no",
        }
        assert inferred.count(assignment) == original.count(assignment)

    def test_header_mismatch(self, schema, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("X,Y,Z\n1,2,3\n")
        with pytest.raises(DataError, match="header"):
            read_dataset_csv(path, schema)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("A,B\nx,u\nx\n")
        with pytest.raises(DataError, match="fields"):
            read_dataset_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            read_dataset_csv(path)

    def test_constant_column_cannot_infer(self, tmp_path):
        path = tmp_path / "constant.csv"
        path.write_text("A,B\nx,u\nx,v\n")
        with pytest.raises(DataError, match="distinct"):
            read_dataset_csv(path)


class TestJSON:
    def test_schema_round_trip(self, schema):
        assert schema_from_dict(schema_to_dict(schema)) == schema

    def test_schema_malformed(self):
        with pytest.raises(DataError, match="malformed"):
            schema_from_dict({"nope": []})

    def test_table_round_trip(self, table):
        assert table_from_dict(table_to_dict(table)) == table

    def test_table_malformed(self):
        with pytest.raises(DataError, match="malformed"):
            table_from_dict({"schema": {"attributes": []}})

    def test_table_dict_holds_the_nonzero_cells(self, table):
        data = table_to_dict(table)
        flat = table.counts.ravel()
        assert data["index"] == np.flatnonzero(flat).tolist()
        assert data["counts"] == flat[flat > 0].tolist()

    def test_sparse_wide_table_stores_only_its_nonzero_cells(self):
        schema = Schema(
            [Attribute(f"A{i}", ("0", "1")) for i in range(20)]
        )
        rng = np.random.default_rng(20)
        cells = np.sort(rng.choice(schema.num_cells, size=37, replace=False))
        counts = np.zeros(schema.num_cells, dtype=np.int64)
        counts[cells] = rng.integers(1, 1000, size=37)
        table = ContingencyTable(schema, counts.reshape(schema.shape))
        data = table_to_dict(table)
        assert data["index"] == cells.tolist()
        assert data["counts"] == counts[cells].tolist()
        assert table_from_dict(data) == table


def _table_dict(index, counts) -> dict:
    """A table dict over two binary attributes (4 cells)."""
    schema = Schema([Attribute("A", ("x", "y")), Attribute("B", ("u", "v"))])
    return {"schema": schema_to_dict(schema), "index": index, "counts": counts}


class TestMalformedTableDict:
    def test_well_formed_reads(self):
        table = table_from_dict(_table_dict([0, 3], [5, 2]))
        assert table.counts.tolist() == [[5, 0], [0, 2]]

    @pytest.mark.parametrize(
        "index, counts, message",
        [
            ([0, 1], [5], "2 index entries but 1 counts"),
            ([0, 1.0], [5, 2], "'index' holds a value that is not an int"),
            ([0, 1], [5, 2.0], "'counts' holds a value that is not an int"),
            ([0, True], [5, 2], "'index' holds a value that is not an int"),
            ([0, 1], [True, 2], "'counts' holds a value that is not an int"),
            ([0, "1"], [5, 2], "'index' holds a value that is not an int"),
            ([0, 2**63], [5, 2], "beyond int64"),
            ([0, 4], [5, 2], "outside the 4 cells"),
            ([-1, 2], [5, 2], "outside the 4 cells"),
            ([2, 1], [5, 2], "not strictly ascending"),
            ([1, 1], [5, 2], "not strictly ascending"),
            ([0, 1], [5, 0], "not positive"),
            ([0, 1], [-5, 2], "not positive"),
            ([[0, 1]], [5], "not an int"),
            ({"0": 5}, [5], "not a list"),
        ],
    )
    def test_rejected(self, index, counts, message):
        with pytest.raises(DataError, match=message):
            table_from_dict(_table_dict(index, counts))

    def test_missing_field_rejected(self):
        data = _table_dict([0], [5])
        del data["index"]
        with pytest.raises(DataError, match="malformed table dict"):
            table_from_dict(data)
