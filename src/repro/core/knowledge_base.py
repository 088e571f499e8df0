"""The public facade: fit, query, update as new data lands, serialize.

:class:`ProbabilisticKnowledgeBase` is what a downstream user touches:

>>> kb = ProbabilisticKnowledgeBase.from_data(table)
>>> kb.query("CANCER=yes | SMOKING=smoker")
0.186...
>>> kb.p("CANCER=yes").given("SMOKING=smoker").value()
0.186...
>>> kb.update(next_batch)            # warm-started rediscovery
Revision(number=1, mode='warm', ...)
>>> kb.rules(min_probability=0.6).describe()
'IF ...'

It bundles the discovery result (model + adopted constraints + audit
trace), query sessions (compiled plans, memoized marginals, answers from
the model's factored joint — see :mod:`repro.api`), rule generation, and the
incremental lifecycle: :meth:`update` merges a delta batch into the
training table, reruns discovery warm-started from the current trace
(:meth:`~repro.discovery.engine.DiscoveryEngine.rerun`) and swaps the
refined factors into the *same* model object, so every open session
self-invalidates via :meth:`~repro.maxent.model.MaxEntModel.fingerprint`
instead of being rebuilt.  Versioned JSON round-trips the model — and,
since format 3, the discovery audit trail and revision history, which is
what keeps a loaded knowledge base updatable.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.query import Query
from repro.core.rules import RuleGenerator, RuleSet
from repro.core.serialization import canonical_bytes
from repro.data.contingency import ContingencyTable
from repro.data.dataset import Dataset
from repro.data.io import schema_from_dict, schema_to_dict, table_to_dict
from repro.data.schema import Schema
from repro.data.streaming import TableBuilder, describe_schema_mismatch
from repro.discovery.config import DiscoveryConfig
from repro.discovery.engine import DiscoveryEngine, discover
from repro.discovery.trace import (
    DiscoveryResult,
    result_from_dict,
    result_to_dict,
)
from repro.exceptions import ConstraintError, ConvergenceError, DataError
from repro.maxent.constraints import (
    CellConstraint,
    CellKey,
    cellkey_from_dict,
    cellkey_to_dict,
)
from repro.maxent.model import MaxEntModel

if TYPE_CHECKING:
    # Imported lazily at runtime: repro.api pulls in repro.core.query, and a
    # module-level import here would close an import cycle through the
    # package __init__.
    from repro.api.builder import ProbabilityExpression
    from repro.api.session import QuerySession

Assignment = Mapping[str, str | int]

# Serialization format history:
#   1 — original layout, no version field (accepted on read, migrated).
#   2 — identical layout plus the explicit "format_version" marker.
#   3 — adds the revision history and (when available) the discovery audit
#       trail with its training table, making loaded KBs updatable.
#   4 — the audit trail's table holds only its nonzero cells (row-major
#       positions plus counts) instead of the whole nested count tensor.
FORMAT_VERSION = 4


@dataclass(frozen=True)
class Revision:
    """One entry of a knowledge base's lifecycle history.

    Attributes
    ----------
    number:
        0 for the initial fit, then 1, 2, ... per update.
    mode:
        ``"initial"`` (first fit), ``"warm"`` (incremental rediscovery),
        ``"cold"`` (full refit fallback), or ``"noop"`` (empty delta).
    sample_size:
        Total samples behind the model after this revision.
    added_samples:
        Samples this revision absorbed.
    constraints_added / constraints_dropped:
        Cell-constraint keys that appeared / disappeared in this revision.
    """

    number: int
    mode: str
    sample_size: int
    added_samples: int
    constraints_added: tuple[CellKey, ...] = field(default=())
    constraints_dropped: tuple[CellKey, ...] = field(default=())

    def to_dict(self) -> dict:
        return {
            "number": self.number,
            "mode": self.mode,
            "sample_size": self.sample_size,
            "added_samples": self.added_samples,
            "constraints_added": [
                cellkey_to_dict(key) for key in self.constraints_added
            ],
            "constraints_dropped": [
                cellkey_to_dict(key) for key in self.constraints_dropped
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Revision":
        return cls(
            number=int(data["number"]),
            mode=str(data["mode"]),
            sample_size=int(data["sample_size"]),
            added_samples=int(data["added_samples"]),
            constraints_added=tuple(
                cellkey_from_dict(item)
                for item in data.get("constraints_added", [])
            ),
            constraints_dropped=tuple(
                cellkey_from_dict(item)
                for item in data.get("constraints_dropped", [])
            ),
        )


class ProbabilisticKnowledgeBase:
    """A fitted probabilistic knowledge base.

    Build with :meth:`from_data` (runs the full discovery pipeline) or
    :meth:`from_model` (wrap an existing model).
    """

    def __init__(
        self,
        model: MaxEntModel,
        sample_size: int,
        discovery: DiscoveryResult | None = None,
        revisions: list[Revision] | None = None,
    ):
        self.model = model
        self.sample_size = int(sample_size)
        self.discovery = discovery
        self.revisions: list[Revision] = list(revisions or [])
        self._default_session: QuerySession | None = None

    # -- construction -------------------------------------------------------------

    @classmethod
    def from_data(
        cls,
        data: ContingencyTable | Dataset,
        config: DiscoveryConfig | None = None,
    ) -> "ProbabilisticKnowledgeBase":
        """Run the paper's full pipeline on observed data."""
        if isinstance(data, Dataset):
            table = data.to_contingency()
        elif isinstance(data, ContingencyTable):
            table = data
        else:
            raise DataError(
                f"from_data expects a Dataset or ContingencyTable, got "
                f"{type(data).__name__}"
            )
        result = discover(table, config)
        return cls(
            result.model,
            table.total,
            discovery=result,
            revisions=[
                Revision(
                    number=0,
                    mode="initial",
                    sample_size=table.total,
                    added_samples=table.total,
                    constraints_added=tuple(
                        cell.key for cell in result.found
                    ),
                )
            ],
        )

    @classmethod
    def from_model(
        cls, model: MaxEntModel, sample_size: int
    ) -> "ProbabilisticKnowledgeBase":
        """Wrap an already-fitted model (e.g. loaded from JSON)."""
        return cls(model, sample_size)

    # -- queries ------------------------------------------------------------------

    @property
    def schema(self):
        return self.model.schema

    def session(self, cache_size: int | None = None) -> QuerySession:
        """Open a new query session against this knowledge base's model.

        Sessions compile queries into plans and memoize marginals.  The
        single-query convenience methods below all delegate to a shared
        default session.
        """
        from repro.api.session import QuerySession

        if cache_size is None:
            return QuerySession(self.model)
        return QuerySession(self.model, cache_size=cache_size)

    @property
    def _session(self) -> QuerySession:
        if self._default_session is None:
            self._default_session = self.session()
        return self._default_session

    def query(self, text: str) -> float:
        """Evaluate ``"A=x | B=y"`` style query strings."""
        return self._session.ask(text)

    def query_many(self, queries: Iterable[str | Query]) -> list[float]:
        """Batch-evaluate many queries in the default session, sharing
        marginal computations (and its warm caches)."""
        return self._session.batch(queries)

    def probability(
        self, target: Assignment, given: Assignment | None = None
    ) -> float:
        """``P(target | given)`` with labelled assignments."""
        return self._session.probability(target, given)

    def distribution(
        self, attribute: str, given: Assignment | None = None
    ) -> dict[str, float]:
        """Conditional distribution of one attribute."""
        return self._session.distribution(attribute, given)

    def most_probable(
        self, given: Assignment | None = None
    ) -> tuple[dict[str, str], float]:
        """Most probable complete assignment given the evidence (MPE).

        Returns ``(assignment labels, conditional probability)``.
        """
        return self._session.most_probable(given)

    def p(self, target: str) -> "ProbabilityExpression":
        """Fluent query builder: ``kb.p("A=x").given("B=y").value()``."""
        from repro.api.builder import ProbabilityExpression

        return ProbabilityExpression(self._session, target)

    # -- incremental lifecycle -----------------------------------------------------

    @property
    def can_update(self) -> bool:
        """True when this knowledge base can absorb new data.

        Requires a discovery trace with its training table: one from
        :meth:`from_data`, or one a file of format 3 or later saved with
        its audit trail.
        """
        return self.discovery is not None and self.discovery.table is not None

    def update(self, data) -> Revision:
        """Absorb a batch of new observations into the fitted model.

        ``data`` may be a :class:`ContingencyTable`, :class:`Dataset`, or
        an iterable of samples/records (use :meth:`ingest` for a
        :class:`TableBuilder`).  The delta is merged into the training
        table and discovery reruns warm-started from the current
        constraints and ``a`` values, falling back to a cold refit when
        the new data contradict an old constraint.  The refined factors
        are swapped into the *same* model object, so open sessions
        self-invalidate through
        :meth:`~repro.maxent.model.MaxEntModel.fingerprint` on their next
        operation.  Returns the appended :class:`Revision`; an empty
        delta changes nothing and is recorded as ``mode="noop"``.
        """
        if isinstance(data, TableBuilder):
            # A builder passed here would be re-absorbed in full on every
            # call (update does not reset it) — a silent double-count.
            raise DataError(
                "pass a TableBuilder to ingest(), which absorbs its counts "
                "and resets it; or pass builder.snapshot() for a one-off "
                "copy"
            )
        if not self.can_update:
            raise DataError(
                "this knowledge base cannot be updated: it has no "
                "discovery trace (built with from_model, or loaded from "
                "a pre-format-3 file); refit with from_data or load a "
                "file of format 3 or later saved with its audit trail"
            )
        previous = self.discovery
        delta = _as_table(data, previous.table.schema)
        mismatch = describe_schema_mismatch(previous.table.schema, delta.schema)
        if mismatch:
            raise DataError(
                f"update batch schema is incompatible with the fitted "
                f"schema: {mismatch}"
            )
        before_n = self.sample_size
        mode, added, dropped = "noop", (), ()
        if delta.total:
            merged = previous.table + delta
            before = previous.constraints.cell_keys()
            with DiscoveryEngine(previous.config) as engine:
                try:
                    result = engine.rerun(merged, previous)
                    mode = "warm"
                except (ConstraintError, ConvergenceError):
                    # The new data contradict a previously adopted
                    # constraint (or the warm fit cannot converge from the
                    # old a values): restart cold, IC3-style.
                    result = engine.run(merged)
                    mode = "cold"
            after = result.constraints.cell_keys()
            added = tuple(sorted(after - before))
            dropped = tuple(sorted(before - after))
            self.model.absorb(result.model)
            # Keep one model object end to end: the trace (and therefore
            # the next update's warm start) points at the live,
            # just-refreshed model the sessions hold.
            result.model = self.model
            self.discovery = result
            self.sample_size = merged.total
        revision = Revision(
            number=len(self.revisions),
            mode=mode,
            sample_size=self.sample_size,
            added_samples=self.sample_size - before_n,
            constraints_added=added,
            constraints_dropped=dropped,
        )
        self.revisions.append(revision)
        return revision

    def ingest(self, builder: TableBuilder) -> Revision:
        """Absorb a :class:`TableBuilder`'s accumulated counts and reset it.

        The builder keeps its schema and goes back to zero so it can keep
        accumulating the next window while this knowledge base serves the
        refreshed model.
        """
        if not isinstance(builder, TableBuilder):
            raise DataError(
                f"ingest expects a TableBuilder, got {type(builder).__name__}"
            )
        revision = self.update(builder.snapshot())
        builder.reset()
        return revision

    def copy(self) -> "ProbabilisticKnowledgeBase":
        """A knowledge base whose updates never reach this one.

        Copies what an update mutates in place — the model (``update``
        absorbs the refit into it) and the revision list — and shares
        what is never mutated after it is built: the training table, the
        adopted constraints, the scan records and the config.  An update
        of the copy merges into a *new* table and builds a new discovery
        result, so the original's answers, fingerprint and serialized
        form stay exactly as they were.  The copy shares no session.
        """
        model = self.model.copy()
        discovery = None
        if self.discovery is not None:
            discovery = DiscoveryResult(
                table=self.discovery.table,
                model=model,
                constraints=self.discovery.constraints,
                scans=self.discovery.scans,
                config=self.discovery.config,
            )
        return type(self)(
            model,
            self.sample_size,
            discovery=discovery,
            revisions=self.revisions,
        )

    # -- knowledge ----------------------------------------------------------------

    @property
    def constraints(self) -> tuple[CellConstraint, ...]:
        """The significant joint probabilities the system stores."""
        if self.discovery is not None:
            return self.discovery.found
        return tuple(
            CellConstraint(names, values, self._cell_probability(names, values))
            for names, values in self.model.cell_factors
        )

    def _cell_probability(self, names, values) -> float:
        marginal = self.model.marginal(names)
        return float(marginal[values])

    def rules(
        self,
        min_probability: float = 0.0,
        min_support: float = 0.0,
        max_conditions: int = 2,
        constrained_only: bool = False,
    ) -> RuleSet:
        """Generate IF-THEN rules with probabilities.

        With ``constrained_only`` the rules come solely from discovered
        constraints (the paper's emphasis); otherwise all rules up to
        ``max_conditions`` conditions are enumerated and filtered.
        """
        generator = RuleGenerator(self.model)
        if constrained_only:
            return generator.from_constraints(min_probability, min_support)
        return generator.exhaustive(
            max_conditions=max_conditions,
            min_probability=min_probability,
            min_support=min_support,
        )

    def summary(self) -> str:
        """Readable report: schema, constraints, entropy."""
        lines = [
            f"ProbabilisticKnowledgeBase over {self.schema!r}",
            f"fitted from N={self.sample_size} samples",
            f"significant joint probabilities: {len(self.model.cell_factors)}",
        ]
        for names, values in self.model.cell_factors:
            probability = self._cell_probability(names, values)
            labels = ", ".join(
                f"{n}={self.schema.attribute(n).value_at(v)}"
                for n, v in zip(names, values)
            )
            lines.append(f"  P({labels}) = {probability:.4f}")
        return "\n".join(lines)

    # -- serialization ------------------------------------------------------------

    def to_dict(self, include_audit: bool = True) -> dict:
        """JSON-ready dict: version, schema, factors, audit trail, history.

        The discovery block (training table, adopted constraints, config,
        every scan with its Table-1 test rows) ships by default, so the
        saved file is a complete audit record — and stays updatable after
        :meth:`load`.  Pass ``include_audit=False`` to omit it: the file
        then carries only the fitted model (the pre-format-3 "ship
        without the training data" shape — smaller, discloses no counts,
        but no longer updatable after loading).
        """
        if not include_audit:
            discovery = None
        elif self.discovery is not None:
            discovery = result_to_dict(self.discovery)
        else:
            discovery = None
        return {
            "format_version": FORMAT_VERSION,
            "schema": schema_to_dict(self.schema),
            "sample_size": self.sample_size,
            "a0": self.model.a0,
            "margin_factors": {
                name: vector.tolist()
                for name, vector in self.model.margin_factors.items()
            },
            "cell_factors": [
                {
                    "attributes": list(names),
                    "values": list(values),
                    "a": factor,
                }
                for (names, values), factor in self.model.cell_factors.items()
            ],
            "table_factors": [
                {"attributes": list(names), "a": array.tolist()}
                for names, array in self.model.table_factors.items()
            ],
            "revisions": [revision.to_dict() for revision in self.revisions],
            "discovery": discovery,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProbabilisticKnowledgeBase":
        """Inverse of :meth:`to_dict`.

        Accepts the current format and every older one (v1 dicts predate
        the ``format_version`` field; v3 dicts store the training table as
        a nested count tensor; all are migrated on read).  Dicts
        written by a *newer* library version are rejected with a clear
        error rather than misread.
        """
        data = _migrate(data)
        try:
            schema = schema_from_dict(data["schema"])
            margin_factors = {
                name: np.asarray(vector, dtype=float)
                for name, vector in data["margin_factors"].items()
            }
            cell_factors = {
                (
                    tuple(item["attributes"]),
                    tuple(int(v) for v in item["values"]),
                ): float(item["a"])
                for item in data["cell_factors"]
            }
            table_factors = {
                tuple(item["attributes"]): np.asarray(item["a"], dtype=float)
                for item in data.get("table_factors", [])
            }
            model = MaxEntModel(
                schema,
                margin_factors,
                cell_factors,
                a0=float(data["a0"]),
                table_factors=table_factors,
            )
            sample_size = int(data["sample_size"])
            revisions = [
                Revision.from_dict(item)
                for item in data.get("revisions", [])
            ]
            discovery_data = data.get("discovery")
            discovery = (
                result_from_dict(discovery_data, model)
                if discovery_data is not None
                else None
            )
        except (KeyError, TypeError, ValueError) as error:
            raise DataError(f"malformed knowledge base dict: {error}") from None
        return cls(
            model, sample_size, discovery=discovery, revisions=revisions
        )

    def save(self, path: str | Path, include_audit: bool = True) -> None:
        """Write the knowledge base to a JSON file, atomically.

        The write goes to a temporary sibling file and is renamed into
        place, so a crash mid-write cannot truncate an existing file —
        which, since format 3 carries the training table, may be the only
        copy of the accumulated data.  The bytes are the canonical JSON
        the store writes (:func:`repro.core.serialization.canonical_bytes`).
        ``include_audit=False`` writes the model only — see :meth:`to_dict`
        for the trade-off.
        """
        path = Path(path)
        payload = canonical_bytes(self.to_dict(include_audit=include_audit))
        # A unique temp name per call: concurrent savers must not share
        # one scratch file, or the rename could install interleaved JSON.
        descriptor, temporary = tempfile.mkstemp(
            dir=path.parent, prefix=path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(payload)
            # mkstemp creates 0600 scratch files; keep the destination's
            # existing permissions (or a fresh umask-honoring default)
            # instead of silently tightening them on every resave.
            try:
                mode = path.stat().st_mode & 0o777
            except FileNotFoundError:
                current_umask = os.umask(0)
                os.umask(current_umask)
                mode = 0o666 & ~current_umask
            os.chmod(temporary, mode)
            os.replace(temporary, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(temporary)
            raise

    @classmethod
    def load(cls, path: str | Path) -> "ProbabilisticKnowledgeBase":
        """Read a knowledge base from a JSON file."""
        return cls.from_dict(json.loads(Path(path).read_bytes()))


def _as_table(data, schema: Schema) -> ContingencyTable:
    """Coerce an update batch into a contingency table.

    Accepts a :class:`ContingencyTable`, a :class:`Dataset`, or an
    iterable of samples (sequences in ``schema`` order) or records (dicts).
    """
    if isinstance(data, ContingencyTable):
        return data
    if isinstance(data, Dataset):
        return data.to_contingency()
    if isinstance(data, Iterable):
        rows = list(data)
        if rows and isinstance(rows[0], Mapping):
            return ContingencyTable.from_records(schema, rows)
        return ContingencyTable.from_samples(schema, rows)
    raise DataError(
        f"cannot interpret {type(data).__name__} as a batch of observations; "
        f"pass a ContingencyTable, Dataset, or an iterable of samples or "
        f"records"
    )


def _migrate_v1_to_v2(data: dict) -> dict:
    """v1 predates the version field; the payload layout is unchanged."""
    data = dict(data)
    data["format_version"] = 2
    return data


def _migrate_v2_to_v3(data: dict) -> dict:
    """v2 carried no lifecycle data: empty history, no audit trail."""
    data = dict(data)
    data["format_version"] = 3
    data.setdefault("revisions", [])
    data.setdefault("discovery", None)
    return data


def _migrate_v3_to_v4(data: dict) -> dict:
    """v3 stored the audit trail's table as a nested count tensor; v4
    stores its nonzero cells (see :func:`repro.data.io.table_to_dict`)."""
    data = dict(data)
    data["format_version"] = 4
    discovery = data.get("discovery")
    if discovery is None:
        return data
    try:
        table = discovery["table"]
        schema = schema_from_dict(table["schema"])
        counts = np.array(table["counts"])
    except (KeyError, TypeError, ValueError) as error:
        raise DataError(f"malformed format-3 table: {error}") from None
    if counts.dtype.kind not in "iu":
        raise DataError("malformed format-3 table: counts are not integers")
    # ContingencyTable checks the shape against the schema and the signs.
    dense = ContingencyTable(schema, counts)
    data["discovery"] = {**discovery, "table": table_to_dict(dense)}
    return data


# One entry per historical version, applied in sequence on read.
_MIGRATIONS = {
    1: _migrate_v1_to_v2,
    2: _migrate_v2_to_v3,
    3: _migrate_v3_to_v4,
}


def _migrate(data: dict) -> dict:
    """Bring a serialized dict up to :data:`FORMAT_VERSION`."""
    if not isinstance(data, dict):
        raise DataError(
            f"malformed knowledge base dict: expected a dict, got "
            f"{type(data).__name__}"
        )
    version = data.get("format_version", 1)
    if not isinstance(version, int) or isinstance(version, bool) or version < 1:
        raise DataError(
            f"malformed knowledge base dict: bad format_version {version!r}"
        )
    if version > FORMAT_VERSION:
        raise DataError(
            f"knowledge base has format_version {version}, but this "
            f"library only understands versions up to {FORMAT_VERSION}; "
            f"upgrade repro to read it"
        )
    while version < FORMAT_VERSION:
        data = _MIGRATIONS[version](data)
        version = data["format_version"]
    return data
