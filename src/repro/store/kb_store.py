"""The durable knowledge-base store: named KBs, revisions, artifacts.

A :class:`KBStore` persists named
:class:`~repro.core.knowledge_base.ProbabilisticKnowledgeBase` objects in
SQLite with their *full revision history*.  Every :meth:`save` appends
the revisions the store has not seen yet and captures the current model
state as a content-addressed artifact — the canonical JSON of
``kb.to_dict()`` *minus* the revision list, addressed by its sha256
(:func:`repro.core.serialization.content_hash`).  Two revisions with
identical model content (e.g. a no-op update) therefore share one
artifact row, and :meth:`load` reassembles the exact original dict —
artifact plus stored revision rows — so a loaded knowledge base is
byte-identical in canonical JSON to the one that was saved.

Layout (DDL derived from :mod:`repro.store.records`):

- ``kbs``        — one row per name: latest revision + latest artifact.
- ``revisions``  — one row per (name, revision): the
  :class:`~repro.core.knowledge_base.Revision` metadata plus the
  artifact captured at that revision (None when the state was never
  saved — e.g. two in-memory updates between saves).
- ``artifacts``  — content-addressed canonical JSON payloads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.core.knowledge_base import ProbabilisticKnowledgeBase
from repro.core.serialization import canonical_bytes, payload_hash
from repro.exceptions import DataError
from repro.store.db import StoreDB, utc_now
from repro.store.records import ArtifactRecord, KBRecord, RevisionRecord

__all__ = ["KBDiff", "KBStore"]


@dataclass(frozen=True)
class KBDiff:
    """What changed between two stored revisions of one knowledge base.

    ``constraints_added``/``constraints_removed`` are cell-constraint
    keys present in revision ``b`` but not ``a`` (and vice versa);
    ``constraints_changed`` are keys present in both whose fitted ``a``
    factor moved.  ``artifact_a``/``artifact_b`` are the revisions'
    content addresses — equal exactly when the model states are
    byte-identical.
    """

    kb_name: str
    revision_a: int
    revision_b: int
    artifact_a: str
    artifact_b: str
    sample_size_a: int
    sample_size_b: int
    constraints_added: tuple
    constraints_removed: tuple
    constraints_changed: tuple

    @property
    def identical(self) -> bool:
        return self.artifact_a == self.artifact_b

    def describe(self) -> str:
        """Readable multi-line diff report."""
        lines = [
            f"{self.kb_name}: revision {self.revision_a} -> "
            f"{self.revision_b}",
            f"  samples: {self.sample_size_a} -> {self.sample_size_b}",
            f"  artifact: {self.artifact_a[:12]} -> {self.artifact_b[:12]}"
            + ("  (identical)" if self.identical else ""),
        ]
        for names, values in self.constraints_added:
            lines.append(f"  + constraint {_key_text(names, values)}")
        for names, values in self.constraints_removed:
            lines.append(f"  - constraint {_key_text(names, values)}")
        for (names, values), before, after in self.constraints_changed:
            lines.append(
                f"  ~ constraint {_key_text(names, values)}: "
                f"a {before:.6g} -> {after:.6g}"
            )
        if (
            not self.constraints_added
            and not self.constraints_removed
            and not self.constraints_changed
        ):
            lines.append("  (no constraint changes)")
        return "\n".join(lines)


def _key_text(names, values) -> str:
    return (
        "(" + ", ".join(f"{n}={v}" for n, v in zip(names, values)) + ")"
    )


class KBStore:
    """SQLite-backed store of named knowledge bases with revision history."""

    RECORD_TYPES = (KBRecord, ArtifactRecord, RevisionRecord)

    def __init__(self, path: str | Path):
        self._db = StoreDB(path, self.RECORD_TYPES)

    @property
    def path(self) -> str:
        return self._db.path

    # -- saving -------------------------------------------------------------------

    def save(self, name: str, kb: ProbabilisticKnowledgeBase) -> str:
        """Persist ``kb`` under ``name``; returns the artifact's sha256.

        Appends every revision the store has not yet seen (validating
        that the overlap agrees — a different history under the same
        name is an error, not an overwrite), captures the current model
        state as a content-addressed artifact, and points the latest
        revision at it.  Saving an unchanged knowledge base is a no-op
        apart from the ``updated_at`` touch.
        """
        if not name or "/" in name:
            raise DataError(
                f"knowledge base name {name!r} must be non-empty and "
                f"contain no '/'"
            )
        document = kb.to_dict()
        revisions = document.pop("revisions", [])
        payload = canonical_bytes(document)
        # Hash the bytes already encoded: equal to content_hash(document).
        sha = payload_hash(payload)
        now = utc_now()
        self._db.insert_ignore(
            ArtifactRecord(
                sha256=sha,
                payload=payload.decode("utf-8"),
                size_bytes=len(payload),
                created_at=now,
            )
        )
        stored = self.history(name)
        self._check_lineage(name, stored, revisions)
        stored_max = stored[-1].number if stored else -1
        latest_number = revisions[-1]["number"] if revisions else -1
        for item in revisions:
            if item["number"] <= stored_max:
                continue
            self._db.insert(
                RevisionRecord(
                    kb_name=name,
                    number=item["number"],
                    mode=item["mode"],
                    sample_size=item["sample_size"],
                    added_samples=item["added_samples"],
                    constraints_added=item["constraints_added"],
                    constraints_dropped=item["constraints_dropped"],
                    artifact_sha=(
                        sha if item["number"] == latest_number else None
                    ),
                    created_at=now,
                )
            )
        existing = self._db.select_one(
            KBRecord, "name = ?", (name,)
        )
        self._db.insert(
            KBRecord(
                name=name,
                created_at=existing.created_at if existing else now,
                updated_at=now,
                latest_revision=max(latest_number, stored_max),
                latest_artifact=sha,
            ),
            replace=True,
        )
        return sha

    def _check_lineage(
        self, name: str, stored: list, revisions: list
    ) -> None:
        """Saved history must extend the stored one, never contradict it."""
        stored_by_number = {record.number: record for record in stored}
        for item in revisions:
            record = stored_by_number.get(item["number"])
            if record is None:
                continue
            matches = (
                record.mode == item["mode"]
                and record.sample_size == item["sample_size"]
                and record.added_samples == item["added_samples"]
            )
            if not matches:
                raise DataError(
                    f"knowledge base {name!r}: revision {item['number']} "
                    f"diverges from the stored history (stored "
                    f"{record.mode!r} N={record.sample_size}, saving "
                    f"{item['mode']!r} N={item['sample_size']}); use a "
                    f"different name for a different lineage"
                )
        if stored and revisions:
            # A shorter history than what is stored is also divergence:
            # the caller holds a stale fork of this knowledge base.
            if revisions[-1]["number"] < stored[-1].number:
                raise DataError(
                    f"knowledge base {name!r}: saving revision "
                    f"{revisions[-1]['number']} but the store already "
                    f"holds revision {stored[-1].number}; load the "
                    f"latest state before updating"
                )

    # -- loading ------------------------------------------------------------------

    def load(
        self, name: str, revision: int | None = None
    ) -> ProbabilisticKnowledgeBase:
        """Reassemble a stored knowledge base, at ``revision`` or latest.

        The result is byte-identical (in canonical JSON) to the
        knowledge base whose :meth:`save` captured that revision.
        """
        record = self._require_kb(name)
        if revision is None or revision == record.latest_revision:
            sha = record.latest_artifact
            number = record.latest_revision
        else:
            row = self._require_revision(name, revision)
            if row.artifact_sha is None:
                raise DataError(
                    f"knowledge base {name!r} revision {revision} has no "
                    f"stored artifact (the state was never saved at that "
                    f"revision); artifacts exist for revisions "
                    f"{self._captured_revisions(name)}"
                )
            sha = row.artifact_sha
            number = revision
        document = self.artifact(sha)
        document["revisions"] = [
            _revision_dict(row)
            for row in self.history(name)
            if row.number <= number
        ]
        return ProbabilisticKnowledgeBase.from_dict(document)

    def artifact(self, sha: str) -> dict:
        """The parsed canonical JSON document stored under ``sha``."""
        record = self._db.select_one(
            ArtifactRecord, "sha256 = ?", (sha,)
        )
        if record is None:
            raise DataError(f"no artifact {sha!r} in the store")
        return json.loads(record.payload)

    # -- history ------------------------------------------------------------------

    def names(self) -> list[str]:
        """Stored knowledge-base names, sorted."""
        return sorted(
            record.name for record in self._db.select(KBRecord)
        )

    def describe(self, name: str) -> KBRecord:
        """The store's row for ``name`` (latest revision + artifact)."""
        return self._require_kb(name)

    def history(self, name: str) -> list[RevisionRecord]:
        """Every stored revision of ``name``, oldest first."""
        return self._db.select(
            RevisionRecord,
            where="kb_name = ?",
            params=(name,),
            order_by="number",
        )

    def diff(self, name: str, revision_a: int, revision_b: int) -> KBDiff:
        """Constraint/fingerprint diff between two captured revisions."""
        document_a, sha_a = self._revision_document(name, revision_a)
        document_b, sha_b = self._revision_document(name, revision_b)
        cells_a = _cell_factor_map(document_a)
        cells_b = _cell_factor_map(document_b)
        added = tuple(
            key for key in cells_b if key not in cells_a
        )
        removed = tuple(
            key for key in cells_a if key not in cells_b
        )
        changed = tuple(
            (key, cells_a[key], cells_b[key])
            for key in cells_a
            if key in cells_b and cells_a[key] != cells_b[key]
        )
        return KBDiff(
            kb_name=name,
            revision_a=revision_a,
            revision_b=revision_b,
            artifact_a=sha_a,
            artifact_b=sha_b,
            sample_size_a=int(document_a["sample_size"]),
            sample_size_b=int(document_b["sample_size"]),
            constraints_added=added,
            constraints_removed=removed,
            constraints_changed=changed,
        )

    # -- internals ----------------------------------------------------------------

    def _require_kb(self, name: str) -> KBRecord:
        record = self._db.select_one(KBRecord, "name = ?", (name,))
        if record is None:
            raise DataError(
                f"no knowledge base named {name!r} in the store "
                f"(stored: {self.names()})"
            )
        return record

    def _require_revision(self, name: str, number: int) -> RevisionRecord:
        self._require_kb(name)
        row = self._db.select_one(
            RevisionRecord,
            "kb_name = ? AND number = ?",
            (name, number),
        )
        if row is None:
            numbers = [record.number for record in self.history(name)]
            raise DataError(
                f"knowledge base {name!r} has no revision {number} "
                f"(stored revisions: {numbers})"
            )
        return row

    def _captured_revisions(self, name: str) -> list[int]:
        return [
            row.number
            for row in self.history(name)
            if row.artifact_sha is not None
        ]

    def _revision_document(self, name: str, number: int):
        record = self._require_kb(name)
        if number == record.latest_revision:
            sha = record.latest_artifact
        else:
            row = self._require_revision(name, number)
            if row.artifact_sha is None:
                raise DataError(
                    f"knowledge base {name!r} revision {number} has no "
                    f"stored artifact; artifacts exist for revisions "
                    f"{self._captured_revisions(name)}"
                )
            sha = row.artifact_sha
        return self.artifact(sha), sha

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "KBStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"KBStore({self.path!r}, kbs={self.names()})"


def _revision_dict(row: RevisionRecord) -> dict:
    """A stored revision row → the KB format's revision dict."""
    return {
        "number": row.number,
        "mode": row.mode,
        "sample_size": row.sample_size,
        "added_samples": row.added_samples,
        "constraints_added": row.constraints_added,
        "constraints_dropped": row.constraints_dropped,
    }


def _cell_factor_map(document: dict) -> dict:
    """Artifact dict → {cell key: fitted a factor}."""
    return {
        (
            tuple(item["attributes"]),
            tuple(int(v) for v in item["values"]),
        ): float(item["a"])
        for item in document.get("cell_factors", [])
    }
