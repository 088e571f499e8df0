"""Shared SQLite plumbing for the store's front-ends.

One :class:`StoreDB` owns a connection, ensures the DDL derived from the
record models exists, and serializes access behind a lock so the serving
layer can persist from executor threads.
:class:`~repro.store.kb_store.KBStore` is the front-end over it; every
``CREATE TABLE`` is ``IF NOT EXISTS``, so a file that also holds other
tables opens unchanged.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from pathlib import Path

from repro.exceptions import DataError
from repro.store.records import (
    create_table_sql,
    from_row,
    record_columns,
    table_name,
    to_row,
)

__all__ = ["StoreDB", "utc_now"]


def utc_now() -> str:
    """ISO-8601 UTC timestamp, second resolution (row bookkeeping only)."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


class StoreDB:
    """A locked SQLite connection with record-model-derived tables."""

    def __init__(self, path: str | Path, record_types: tuple):
        self.path = str(path)
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        # The serving layer saves from executor threads; sqlite3's
        # same-thread check is replaced by our own lock around every use.
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._lock = threading.RLock()
        self._closed = False
        with self._lock, self._conn:
            for record_cls in record_types:
                self._conn.execute(create_table_sql(record_cls))

    # -- record operations --------------------------------------------------------

    def insert(self, record, replace: bool = False) -> None:
        """Insert one record; ``replace`` upserts on the primary key."""
        record_cls = type(record)
        columns = record_columns(record_cls)
        verb = "INSERT OR REPLACE" if replace else "INSERT"
        sql = (
            f"{verb} INTO {table_name(record_cls)} "
            f"({', '.join(columns)}) "
            f"VALUES ({', '.join('?' for _ in columns)})"
        )
        with self._lock, self._conn:
            self._conn.execute(sql, to_row(record))

    def insert_ignore(self, record) -> bool:
        """Insert unless the primary key exists; True when inserted."""
        record_cls = type(record)
        columns = record_columns(record_cls)
        sql = (
            f"INSERT OR IGNORE INTO {table_name(record_cls)} "
            f"({', '.join(columns)}) "
            f"VALUES ({', '.join('?' for _ in columns)})"
        )
        with self._lock, self._conn:
            cursor = self._conn.execute(sql, to_row(record))
            return cursor.rowcount > 0

    def select(
        self,
        record_cls,
        where: str = "",
        params: tuple = (),
        order_by: str = "",
    ) -> list:
        """Fetch records; ``where``/``order_by`` are raw SQL fragments."""
        sql = (
            f"SELECT {', '.join(record_columns(record_cls))} "
            f"FROM {table_name(record_cls)}"
        )
        if where:
            sql += f" WHERE {where}"
        if order_by:
            sql += f" ORDER BY {order_by}"
        with self._lock:
            rows = self._conn.execute(sql, params).fetchall()
        return [from_row(record_cls, row) for row in rows]

    def select_one(self, record_cls, where: str, params: tuple):
        """One record or None (errors if the key matches several)."""
        matches = self.select(record_cls, where=where, params=params)
        if len(matches) > 1:
            raise DataError(
                f"{table_name(record_cls)}: {where!r} matched "
                f"{len(matches)} rows, expected at most one"
            )
        return matches[0] if matches else None

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Close the connection; idempotent."""
        with self._lock:
            if not self._closed:
                self._closed = True
                self._conn.close()

    def __enter__(self) -> "StoreDB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
