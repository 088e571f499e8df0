"""Canonical JSON and content addressing for stored artifacts.

Everything durable in :mod:`repro.store` is addressed by the sha256 of
its *canonical* JSON encoding: keys sorted, separators compact, floats
rendered with Python's shortest-round-trip ``repr`` (exact for IEEE-754
binary64 on every supported platform), non-ASCII passed through as
UTF-8.  Two dicts that differ only in key insertion order therefore
canonicalize to the same bytes — which is what makes the hash a content
address rather than a serialization accident.

``NaN``/``Infinity`` are rejected outright (``allow_nan=False``): they
have no interoperable JSON encoding, so letting one through would make
an artifact that other readers cannot parse.
"""

from __future__ import annotations

import hashlib
import json

__all__ = ["canonical_bytes", "canonical_json", "content_hash", "payload_hash"]


def canonical_json(obj) -> str:
    """The canonical (sorted, compact, round-trip-exact) JSON encoding."""
    return json.dumps(
        obj,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
        allow_nan=False,
    )


def canonical_bytes(obj) -> bytes:
    """:func:`canonical_json` as UTF-8 bytes (what gets hashed/stored)."""
    return canonical_json(obj).encode("utf-8")


def content_hash(obj) -> str:
    """sha256 hex digest of the canonical encoding — the content address.

    Stable across platforms, processes, and dict insertion orders; two
    objects hash equal exactly when their canonical JSON is byte-equal.
    """
    return payload_hash(canonical_bytes(obj))


def payload_hash(payload: bytes) -> str:
    """The content address of bytes :func:`canonical_bytes` already made.

    Lets a caller that stores the encoding address it without encoding
    the object a second time.
    """
    return hashlib.sha256(payload).hexdigest()
