"""repro.store — the durable persistence layer.

Replaces ad-hoc JSON blobs with a SQLite-backed store whose schema is
derived from typed record models (:mod:`repro.store.records`).
:class:`KBStore` persists named knowledge bases with full revision
history and content-addressed model artifacts — ``repro history NAME``
lists revisions, ``repro diff NAME REV1 REV2`` diffs two of them, and a
reloaded knowledge base is byte-identical in canonical JSON to the saved
one.

Quick start::

    from repro.store import KBStore

    store = KBStore("kb.db")
    store.save("prod", kb)
    kb.update(delta)
    store.save("prod", kb)            # appends revision 1 + artifact
    store.history("prod")             # [RevisionRecord(number=0), ...]
    store.diff("prod", 0, 1)          # constraints added/removed/changed
    restored = store.load("prod")     # bit-identical to kb
"""

from repro.store.kb_store import KBDiff, KBStore
from repro.store.records import ArtifactRecord, KBRecord, RevisionRecord

__all__ = [
    "ArtifactRecord",
    "KBDiff",
    "KBRecord",
    "KBStore",
    "RevisionRecord",
]
