"""The run registry: benchmark and scenario runs recorded under run_ids.

Every benchmark trajectory record (``benchmarks/run_all.py --json``) and
scenario conformance outcome can be written through a
:class:`RunRegistry` instead of (or alongside) the flat
``BENCH_discovery.json`` list.  A run's ``run_id`` is derived from its
*content* (:func:`repro.core.serialization.content_hash` over the kind,
timestamp, config hash, git sha, and metrics document), so recording the
same run twice — e.g. re-running the importer over a flat file — is a
no-op, and a ``config.yaml``-style mapping of experiment passes to
run_ids stays reproducible.

``benchmarks/check_regression.py`` sources its comparable baselines from
:meth:`RunRegistry.baseline_records`; the legacy flat-file path is a thin
shim that imports the file into an in-memory registry and asks the same
query (see :func:`import_trajectory`).
"""

from __future__ import annotations

import json
import os
import subprocess
from pathlib import Path

from repro.core.serialization import content_hash
from repro.discovery.config import DiscoveryConfig
from repro.exceptions import DataError
from repro.store.db import StoreDB, utc_now
from repro.store.records import RunRecord

__all__ = [
    "RunRegistry",
    "config_hash",
    "current_git_sha",
]


def config_hash(config: DiscoveryConfig | dict) -> str:
    """Portable content hash of a discovery (or ad-hoc) configuration.

    A :class:`DiscoveryConfig` hashes through its :meth:`to_dict`, which
    deliberately excludes the machine-local execution knobs
    (``max_workers``, ``parallel_scan_threshold``) — two machines running
    the same *statistical* configuration produce the same hash even with
    different parallelism, so their runs are comparable in the registry.
    """
    if isinstance(config, DiscoveryConfig):
        config = config.to_dict()
    return content_hash(config)


def current_git_sha() -> str:
    """The checked-out commit, or "" when unknown (no git, no checkout)."""
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return result.stdout.strip() if result.returncode == 0 else ""


class RunRegistry:
    """SQLite-backed registry of benchmark/scenario runs."""

    RECORD_TYPES = (RunRecord,)

    def __init__(self, path: str | Path):
        self._db = StoreDB(path, self.RECORD_TYPES)

    @property
    def path(self) -> str:
        return self._db.path

    # -- writing ------------------------------------------------------------------

    def record(
        self,
        kind: str,
        metrics: dict,
        smoke: bool,
        cpus: int,
        config_hash: str = "",
        git_sha: str = "",
        created_at: str | None = None,
    ) -> RunRecord:
        """Record one run; returns the (possibly pre-existing) record.

        ``run_id`` is the first 16 hex digits of the content hash over
        everything identifying the run, so identical runs collapse to
        one row (idempotent imports) while any metric difference yields
        a fresh id.
        """
        if not isinstance(metrics, dict):
            raise DataError(
                f"metrics must be a dict, got {type(metrics).__name__}"
            )
        created_at = created_at or utc_now()
        run_id = content_hash(
            {
                "kind": kind,
                "created_at": created_at,
                "smoke": bool(smoke),
                "cpus": int(cpus),
                "config_hash": config_hash,
                "git_sha": git_sha,
                "metrics": metrics,
            }
        )[:16]
        record = RunRecord(
            run_id=run_id,
            kind=kind,
            created_at=created_at,
            smoke=bool(smoke),
            cpus=int(cpus),
            config_hash=config_hash,
            git_sha=git_sha,
            metrics=metrics,
        )
        self._db.insert_ignore(record)
        return record

    # -- querying -----------------------------------------------------------------

    def runs(
        self,
        kind: str | None = None,
        smoke: bool | None = None,
    ) -> list[RunRecord]:
        """Recorded runs, oldest first, optionally filtered."""
        clauses = []
        params: list = []
        if kind is not None:
            clauses.append("kind = ?")
            params.append(kind)
        if smoke is not None:
            clauses.append("smoke = ?")
            params.append(int(smoke))
        return self._db.select(
            RunRecord,
            where=" AND ".join(clauses),
            params=tuple(params),
            order_by="created_at, run_id",
        )

    def get(self, run_id: str) -> RunRecord:
        record = self._db.select_one(RunRecord, "run_id = ?", (run_id,))
        if record is None:
            raise DataError(f"no run {run_id!r} in the registry")
        return record

    def baseline_records(self, smoke: bool) -> list[dict]:
        """Benchmark metrics documents comparable to a candidate run.

        The query the perf-regression gate is built on: every benchmark
        run recorded with the same ``smoke`` flag (toy-size and full-size
        timings are never comparable), as the raw trajectory-record
        dicts ``check_regression.py`` scans for tracked ratios.
        """
        return [
            record.metrics
            for record in self.runs(kind="benchmark", smoke=smoke)
        ]

    # -- importing ----------------------------------------------------------------

    def import_trajectory(self, path: str | Path) -> int:
        """One-shot import of a flat ``BENCH_discovery.json`` trajectory.

        Each trajectory record becomes a ``benchmark`` run whose metrics
        document is the record itself, timestamped from the record.  The
        git sha and CPU count come from the record's own stamps; records
        written before ``run_all`` stamped them take the CPU count from
        their parallel section and no sha.  Content-derived
        run_ids make re-imports no-ops; returns how many records were
        newly inserted.
        """
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise DataError(
                f"cannot import trajectory {path}: {error}"
            ) from None
        if not isinstance(data, list):
            data = [data]
        before = len(self.runs(kind="benchmark"))
        for entry in data:
            if not isinstance(entry, dict):
                raise DataError(
                    f"trajectory {path} holds a non-record entry: "
                    f"{type(entry).__name__}"
                )
            parallel = entry.get("parallel") or {}
            self.record(
                kind="benchmark",
                metrics=entry,
                smoke=bool(entry.get("smoke", False)),
                cpus=int(entry.get("cpus") or parallel.get("cpus", 0)),
                git_sha=entry.get("git_sha") or "",
                created_at=entry.get("timestamp") or utc_now(),
            )
        return len(self.runs(kind="benchmark")) - before

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "RunRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"RunRegistry({self.path!r}, runs={len(self.runs())})"
