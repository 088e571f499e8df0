"""Tests for the record models and the dataclass→DDL derivation."""

from dataclasses import dataclass, field

import pytest

from repro.exceptions import DataError
from repro.store.db import StoreDB
from repro.store.records import (
    ArtifactRecord,
    KBRecord,
    RevisionRecord,
    create_table_sql,
    from_row,
    record_columns,
    table_name,
    to_row,
)


@dataclass(frozen=True)
class Sample:
    __table__ = "samples"

    key: str = field(metadata={"pk": True})
    count: int
    ratio: float
    flag: bool
    payload: dict
    items: list
    note: str | None


class TestDDLDerivation:
    def test_affinities_nullability_and_primary_key(self):
        sql = create_table_sql(Sample)
        assert sql.startswith("CREATE TABLE IF NOT EXISTS samples ")
        assert "key TEXT NOT NULL" in sql
        assert "count INTEGER NOT NULL" in sql
        assert "ratio REAL NOT NULL" in sql
        assert "flag INTEGER NOT NULL" in sql
        assert "payload TEXT NOT NULL" in sql
        assert "items TEXT NOT NULL" in sql
        # Optional columns drop NOT NULL.
        assert "note TEXT," in sql or sql.endswith("note TEXT)")
        assert "note TEXT NOT NULL" not in sql
        assert "PRIMARY KEY (key)" in sql

    def test_composite_primary_key(self):
        sql = create_table_sql(RevisionRecord)
        assert "PRIMARY KEY (kb_name, number)" in sql

    def test_columns_follow_field_order(self):
        assert record_columns(KBRecord) == [
            "name",
            "created_at",
            "updated_at",
            "latest_revision",
            "latest_artifact",
        ]

    def test_table_names(self):
        assert table_name(KBRecord) == "kbs"
        assert table_name(ArtifactRecord) == "artifacts"
        assert table_name(RevisionRecord) == "revisions"

    def test_missing_table_name_rejected(self):
        @dataclass(frozen=True)
        class Nameless:
            value: int

        with pytest.raises(DataError, match="__table__"):
            table_name(Nameless)

    def test_unsupported_column_type_rejected(self):
        @dataclass(frozen=True)
        class Bad:
            __table__ = "bad"

            value: bytes

        with pytest.raises(DataError, match="unsupported column type"):
            create_table_sql(Bad)


class TestRowConversion:
    def test_round_trip_preserves_every_field(self):
        record = Sample(
            key="k",
            count=3,
            ratio=0.5,
            flag=True,
            payload={"b": 2, "a": [1, 2]},
            items=[1, "two"],
            note=None,
        )
        assert from_row(Sample, to_row(record)) == record

    def test_bool_stored_as_int(self):
        row = to_row(
            Sample(
                key="k",
                count=0,
                ratio=0.0,
                flag=True,
                payload={},
                items=[],
                note=None,
            )
        )
        assert row[3] == 1 and not isinstance(row[3], bool)

    def test_json_columns_stored_as_canonical_text(self):
        row = to_row(
            Sample(
                key="k",
                count=0,
                ratio=0.0,
                flag=False,
                payload={"b": 1, "a": 2},
                items=[],
                note="n",
            )
        )
        # Canonical JSON: sorted keys, compact separators.
        assert row[4] == '{"a":2,"b":1}'


class TestStoreDB:
    def test_insert_select_round_trip_through_sqlite(self, tmp_path):
        with StoreDB(tmp_path / "s.db", (Sample,)) as db:
            record = Sample(
                key="k",
                count=7,
                ratio=1.25,
                flag=False,
                payload={"x": [1, None, "y"]},
                items=["a", {"b": 2}],
                note=None,
            )
            db.insert(record)
            assert db.select(Sample) == [record]
            assert db.select_one(Sample, "key = ?", ("k",)) == record
            assert db.select_one(Sample, "key = ?", ("missing",)) is None

    def test_insert_ignore_reports_whether_inserted(self, tmp_path):
        with StoreDB(tmp_path / "s.db", (Sample,)) as db:
            record = Sample("k", 1, 0.0, False, {}, [], None)
            assert db.insert_ignore(record) is True
            assert db.insert_ignore(record) is False
            assert len(db.select(Sample)) == 1

    def test_replace_upserts_on_primary_key(self, tmp_path):
        with StoreDB(tmp_path / "s.db", (Sample,)) as db:
            db.insert(Sample("k", 1, 0.0, False, {}, [], None))
            db.insert(
                Sample("k", 2, 0.0, False, {}, [], None), replace=True
            )
            assert db.select_one(Sample, "key = ?", ("k",)).count == 2

    def test_tables_persist_across_connections(self, tmp_path):
        path = tmp_path / "s.db"
        with StoreDB(path, (Sample,)) as db:
            db.insert(Sample("k", 1, 0.0, False, {}, [], None))
        with StoreDB(path, (Sample,)) as db:
            assert db.select_one(Sample, "key = ?", ("k",)).count == 1
