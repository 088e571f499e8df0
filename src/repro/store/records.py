"""Typed record models — the single source of truth for the store schema.

Each table in the store is described *once*, as a frozen dataclass; the
SQLite DDL, the insert column list, and the row↔record converters are all
derived from the dataclass fields (the pydantic→DDL split of the SimCash
persistence layer, reproduced with stdlib dataclasses).  Adding a column
means adding a field — there is no second schema to keep in sync.

Field conventions
-----------------
- Python types map to SQLite affinities: ``str``→TEXT, ``int``→INTEGER,
  ``float``→REAL, ``bool``→INTEGER (0/1), ``dict``/``list``→TEXT holding
  canonical JSON.
- ``Optional[...]`` (``T | None``) drops the NOT NULL constraint.
- ``field(metadata={"pk": True})`` marks primary-key columns; several
  fields marked ``pk`` form a composite primary key.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import get_args, get_origin, get_type_hints
import types

from repro.core.serialization import canonical_json
from repro.exceptions import DataError
import json

__all__ = [
    "ArtifactRecord",
    "KBRecord",
    "RevisionRecord",
    "create_table_sql",
    "from_row",
    "record_columns",
    "table_name",
    "to_row",
]

#: Python type → SQLite column affinity.  bool precedes int (bool is an
#: int subclass, but the *annotation* is matched here, not a value).
_AFFINITY = {
    str: "TEXT",
    bool: "INTEGER",
    int: "INTEGER",
    float: "REAL",
    dict: "TEXT",
    list: "TEXT",
}

#: Annotations stored as canonical-JSON text.
_JSON_TYPES = (dict, list)


def _unwrap_optional(annotation):
    """``T | None`` → (T, nullable=True); anything else → (T, False)."""
    if get_origin(annotation) in (types.UnionType,):
        args = [a for a in get_args(annotation) if a is not type(None)]
        if len(args) == 1 and len(get_args(annotation)) == 2:
            return args[0], True
    return annotation, False


def _base_type(annotation):
    """The concrete type behind a (possibly parameterized) annotation."""
    origin = get_origin(annotation)
    return origin if origin is not None else annotation


def _columns(record_cls):
    hints = get_type_hints(record_cls)
    columns = []
    for spec in fields(record_cls):
        annotation, nullable = _unwrap_optional(hints[spec.name])
        base = _base_type(annotation)
        if base not in _AFFINITY:
            raise DataError(
                f"{record_cls.__name__}.{spec.name}: unsupported column "
                f"type {annotation!r}"
            )
        columns.append(
            {
                "name": spec.name,
                "affinity": _AFFINITY[base],
                "nullable": nullable,
                "pk": bool(spec.metadata.get("pk")),
                "json": base in _JSON_TYPES,
                "bool": base is bool,
            }
        )
    return columns


def table_name(record_cls) -> str:
    """The SQLite table a record class persists to."""
    name = getattr(record_cls, "__table__", None)
    if not name:
        raise DataError(
            f"{record_cls.__name__} has no __table__ name"
        )
    return name


def record_columns(record_cls) -> list[str]:
    """Column names, in field order (the insert column list)."""
    return [column["name"] for column in _columns(record_cls)]


def create_table_sql(record_cls) -> str:
    """``CREATE TABLE IF NOT EXISTS`` DDL derived from the dataclass."""
    parts = []
    primary = []
    for column in _columns(record_cls):
        clause = f"{column['name']} {column['affinity']}"
        if not column["nullable"]:
            clause += " NOT NULL"
        parts.append(clause)
        if column["pk"]:
            primary.append(column["name"])
    if primary:
        parts.append(f"PRIMARY KEY ({', '.join(primary)})")
    return (
        f"CREATE TABLE IF NOT EXISTS {table_name(record_cls)} "
        f"({', '.join(parts)})"
    )


def to_row(record) -> tuple:
    """A record → the tuple of SQLite-ready column values."""
    row = []
    for column in _columns(type(record)):
        value = getattr(record, column["name"])
        if value is None:
            row.append(None)
        elif column["json"]:
            row.append(canonical_json(value))
        elif column["bool"]:
            row.append(int(value))
        else:
            row.append(value)
    return tuple(row)


def from_row(record_cls, row):
    """The inverse of :func:`to_row` for one fetched row."""
    values = {}
    for column, value in zip(_columns(record_cls), row):
        if value is None:
            values[column["name"]] = None
        elif column["json"]:
            values[column["name"]] = json.loads(value)
        elif column["bool"]:
            values[column["name"]] = bool(value)
        else:
            values[column["name"]] = value
    return record_cls(**values)


# -- the store's tables ---------------------------------------------------------------


@dataclass(frozen=True)
class KBRecord:
    """One named knowledge base hosted by the store."""

    __table__ = "kbs"

    name: str = field(metadata={"pk": True})
    created_at: str
    updated_at: str
    latest_revision: int
    latest_artifact: str


@dataclass(frozen=True)
class ArtifactRecord:
    """One content-addressed model artifact (canonical KB JSON, no history).

    ``sha256`` is the content address; identical model states — e.g. a
    no-op revision — share one artifact row, so revisions deduplicate
    storage by construction.
    """

    __table__ = "artifacts"

    sha256: str = field(metadata={"pk": True})
    payload: str
    size_bytes: int
    created_at: str


@dataclass(frozen=True)
class RevisionRecord:
    """One revision of one knowledge base.

    Mirrors :class:`repro.core.knowledge_base.Revision` exactly (the
    ``constraints_*`` lists hold cell-key dicts in the same shape the KB
    format serializes), plus the content address of the model artifact
    captured at this revision.  ``artifact_sha`` is None for historical
    revisions whose state was never saved (e.g. two in-memory updates
    followed by one save: the middle state is gone, its metadata is not).
    """

    __table__ = "revisions"

    kb_name: str = field(metadata={"pk": True})
    number: int = field(metadata={"pk": True})
    mode: str
    sample_size: int
    added_samples: int
    constraints_added: list
    constraints_dropped: list
    artifact_sha: str | None
    created_at: str
