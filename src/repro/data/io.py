"""Serialization: CSV datasets and JSON round-trips for tables and schemas.

CSV is the interchange format for raw survey data (header row of attribute
names, one row per sample).  JSON carries structured artifacts — schemas,
contingency tables — between runs and into the knowledge-base format.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from repro.data.contingency import ContingencyTable
from repro.data.dataset import Dataset
from repro.data.schema import Attribute, Schema
from repro.exceptions import DataError


# -- CSV datasets -------------------------------------------------------------------


def write_dataset_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset as CSV with a header of attribute names."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(dataset.schema.names)
        for record in dataset.records():
            writer.writerow([record[name] for name in dataset.schema.names])


def read_dataset_csv(path: str | Path, schema: Schema | None = None) -> Dataset:
    """Read a dataset from CSV.

    If ``schema`` is None, a schema is inferred: each column becomes an
    attribute whose values are the sorted distinct labels observed.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path} is empty") from None
        rows = [row for row in reader if row]
    for number, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(
                f"{path}: row {number + 1} has {len(row)} fields, header "
                f"has {len(header)}"
            )
    if schema is None:
        columns = list(zip(*rows)) if rows else [[] for _ in header]
        attributes = []
        for name, column in zip(header, columns):
            labels = sorted(set(column))
            if len(labels) < 2:
                raise DataError(
                    f"{path}: column {name!r} has fewer than 2 distinct "
                    f"values; cannot infer an attribute"
                )
            attributes.append(Attribute(name, tuple(labels)))
        schema = Schema(attributes)
    else:
        if tuple(header) != schema.names:
            raise DataError(
                f"{path}: header {header} does not match schema names "
                f"{list(schema.names)}"
            )
    return Dataset.from_samples(schema, rows)


# -- JSON schemas and tables --------------------------------------------------------


def schema_to_dict(schema: Schema) -> dict:
    """JSON-ready dict for a schema."""
    return {
        "attributes": [
            {"name": a.name, "values": list(a.values)} for a in schema
        ]
    }


def schema_from_dict(data: dict) -> Schema:
    """Inverse of :func:`schema_to_dict`."""
    from repro.exceptions import SchemaError

    try:
        attributes = [
            Attribute(item["name"], tuple(item["values"]))
            for item in data["attributes"]
        ]
        return Schema(attributes)
    except (KeyError, TypeError, SchemaError) as error:
        raise DataError(f"malformed schema dict: {error}") from None


def table_to_dict(table: ContingencyTable) -> dict:
    """JSON-ready dict for a contingency table: its nonzero cells.

    ``index`` holds the row-major positions of the nonzero cells in the
    schema's shape, ascending (a position is the mixed-radix code of a
    distinct row), and ``counts`` their counts.  The dict grows with the
    distinct rows observed, not with the ``2^n`` cells of the table.
    """
    flat = table.counts.ravel()
    index = np.flatnonzero(flat)
    return {
        "schema": schema_to_dict(table.schema),
        "index": index.tolist(),
        "counts": flat[index].tolist(),
    }


def table_from_dict(data: dict) -> ContingencyTable:
    """Inverse of :func:`table_to_dict`.

    Raises :class:`DataError` unless ``index`` and ``counts`` are lists of
    JSON integers of one length (no floats, no bools), the positions lie
    in the schema's shape and strictly ascend, and every count is
    positive.
    """
    try:
        schema = schema_from_dict(data["schema"])
        index = _int_array(data["index"], "index")
        counts = _int_array(data["counts"], "counts")
    except (KeyError, TypeError) as error:
        raise DataError(f"malformed table dict: {error}") from None
    if len(index) != len(counts):
        raise DataError(
            f"malformed table dict: {len(index)} index entries but "
            f"{len(counts)} counts"
        )
    if len(index) and (index[0] < 0 or index[-1] >= schema.num_cells):
        raise DataError(
            f"malformed table dict: a cell index lies outside the "
            f"{schema.num_cells} cells of the schema"
        )
    if (np.diff(index) <= 0).any():
        raise DataError(
            "malformed table dict: cell indices are not strictly ascending"
        )
    if (counts <= 0).any():
        raise DataError("malformed table dict: a stored count is not positive")
    dense = np.zeros(schema.num_cells, dtype=np.int64)
    dense[index] = counts
    return ContingencyTable(schema, dense.reshape(schema.shape))


def _int_array(values, field: str) -> np.ndarray:
    """A list of JSON integers as an int64 array; DataError otherwise."""
    if not isinstance(values, list):
        raise DataError(
            f"malformed table dict: {field!r} is a "
            f"{type(values).__name__}, not a list"
        )
    if not set(map(type, values)) <= {int}:
        raise DataError(
            f"malformed table dict: {field!r} holds a value that is not "
            f"an integer"
        )
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise DataError(
            f"malformed table dict: {field!r} holds an integer beyond int64"
        ) from None
