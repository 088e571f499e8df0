"""The model-lifecycle protocol: ``fit`` / ``update`` / ``refresh``.

The paper's data sources (surveys, telemetry downlinks) arrive over time,
so a learner is not a function but a *lifecycle*: fit once on what you
have, then absorb deltas as they land.  :class:`Estimator` is that
protocol; every learner in the package implements it —

- ``discovery`` — the Figure-3 engine, with warm-started rediscovery
  (:mod:`repro.estimators.discovery`);
- ``loglinear``, ``naive_bayes``, ``empirical``, ``independence`` — the
  baselines (:mod:`repro.estimators.baselines`).

A registry makes learners pluggable: ``@register_estimator`` on a
subclass adds it to :func:`available_estimators` and callers construct by
name with :func:`create_estimator`.

The base class owns the accumulated contingency table (no raw samples are
kept), validates every delta's schema, and dispatches:

- :meth:`Estimator.fit` — cold fit on fresh data;
- :meth:`Estimator.update` — merge a delta and refine, warm-started where
  the implementation supports it; returns an :class:`UpdateReport` saying
  what happened;
- :meth:`Estimator.refresh` — full cold refit of the accumulated table
  (the escape hatch when incremental refinement has drifted or the caller
  wants a guaranteed-clean model).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import ClassVar

from repro.data.contingency import ContingencyTable
from repro.data.dataset import Dataset
from repro.data.schema import Schema
from repro.data.streaming import TableBuilder, describe_schema_mismatch
from repro.exceptions import DataError
from repro.maxent.constraints import CellKey

_REGISTRY: dict[str, type["Estimator"]] = {}


def register_estimator(cls: type["Estimator"]) -> type["Estimator"]:
    """Class decorator adding an estimator to the registry under ``cls.name``.

    Duplicate names are rejected; call :func:`unregister_estimator` first
    to replace one deliberately: silently replacing one would swap the
    learner behind every caller that constructs it by name.
    """
    name = getattr(cls, "name", "")
    if not name:
        raise ValueError(
            f"estimator class {cls.__name__} needs a non-empty name"
        )
    if name in _REGISTRY and _REGISTRY[name] is not cls:
        raise ValueError(
            f"an estimator named {name!r} is already registered "
            f"({_REGISTRY[name].__name__}); unregister it first to replace it"
        )
    _REGISTRY[name] = cls
    return cls


def unregister_estimator(name: str) -> None:
    """Remove an estimator from the registry (mainly for tests/plugins)."""
    _REGISTRY.pop(name, None)


def available_estimators() -> tuple[str, ...]:
    """Names of all registered estimators, sorted."""
    return tuple(sorted(_REGISTRY))


def create_estimator(name: str, **options) -> "Estimator":
    """Instantiate a registered estimator by name.

    ``options`` are passed to the estimator's constructor (e.g.
    ``class_attribute`` for ``naive_bayes``, ``config`` for ``discovery``).
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise DataError(
            f"unknown estimator {name!r}; available: "
            f"{list(available_estimators())}"
        ) from None
    return cls(**options)


def as_table(data, schema: Schema | None = None) -> ContingencyTable:
    """Coerce batch-shaped data into a contingency table.

    Accepts a :class:`ContingencyTable`, :class:`Dataset`,
    :class:`TableBuilder` (snapshotted), or — when ``schema`` is known —
    an iterable of samples (sequences in schema order) or records (dicts).
    """
    if isinstance(data, ContingencyTable):
        return data
    if isinstance(data, Dataset):
        return data.to_contingency()
    if isinstance(data, TableBuilder):
        return data.snapshot()
    if schema is not None and isinstance(data, Iterable):
        rows = list(data)
        if rows and isinstance(rows[0], Mapping):
            return ContingencyTable.from_records(schema, rows)
        return ContingencyTable.from_samples(schema, rows)
    raise DataError(
        f"cannot interpret {type(data).__name__} as a batch of observations; "
        f"pass a ContingencyTable, Dataset, TableBuilder, or (with a known "
        f"schema) an iterable of samples or records"
    )


@dataclass(frozen=True)
class UpdateReport:
    """What one lifecycle operation did to the model.

    Attributes
    ----------
    mode:
        ``"warm"`` — the previous state was refined incrementally;
        ``"cold"`` — the model was refitted from the accumulated table;
        ``"noop"`` — the delta was empty, nothing changed.
    added / dropped:
        Identifiers of constraints that appeared / disappeared relative
        to the previous model: ``(attributes, values)``
        :data:`~repro.maxent.constraints.CellKey` tuples for cell-based
        estimators (``discovery``), bare attribute-subset tuples for
        whole-margin estimators (``loglinear``), empty for estimators
        without discovered structure.
    """

    mode: str
    added: tuple[CellKey | tuple[str, ...], ...] = field(default=())
    dropped: tuple[CellKey | tuple[str, ...], ...] = field(default=())


class Estimator(ABC):
    """A learner with a lifecycle: fit once, update on deltas, refresh.

    Subclasses implement ``_fit`` (cold fit from a table) and may override
    ``_update`` (incremental refinement given the merged table and the
    delta); the default ``_update`` falls back to a cold refit, which is
    always correct and — for the count-based baselines — already cheap.
    """

    name: ClassVar[str] = ""

    def __init__(self) -> None:
        self._table: ContingencyTable | None = None

    # -- state --------------------------------------------------------------------

    @property
    def table(self) -> ContingencyTable:
        """The accumulated training table."""
        self._require_fitted()
        return self._table

    @property
    def fitted(self) -> bool:
        return self._table is not None

    @property
    @abstractmethod
    def model(self):
        """The current fitted model (estimator-specific type)."""

    def _require_fitted(self) -> None:
        if self._table is None:
            raise DataError(
                f"estimator {self.name!r} is not fitted; call fit() first"
            )

    # -- lifecycle ----------------------------------------------------------------

    def fit(self, data) -> "Estimator":
        """Cold fit on fresh data, replacing any prior state."""
        table = as_table(data)
        if table.total == 0:
            raise DataError("cannot fit an estimator on an empty table")
        self._fit(table)
        self._table = table
        return self

    def update(self, delta) -> UpdateReport:
        """Merge a delta batch into the accumulated table and refine.

        The delta may be a table, dataset, or raw samples/records (the
        fitted schema is known).  A :class:`TableBuilder` is rejected:
        update does not consume it, so passing the same accumulating
        builder every window would silently re-absorb its whole history
        each time — pass ``builder.snapshot()`` (and ``reset()`` the
        builder) instead, or use the knowledge-base facade's ``ingest``.
        Schema incompatibilities raise a :class:`DataError` naming every
        difference; empty deltas are no-ops.
        """
        self._require_fitted()
        if isinstance(delta, TableBuilder):
            raise DataError(
                "update does not consume a TableBuilder, so passing one "
                "repeatedly would re-absorb its whole history every call; "
                "pass builder.snapshot() and reset() the builder (or use "
                "ProbabilisticKnowledgeBase.ingest, which does both)"
            )
        table = as_table(delta, schema=self._table.schema)
        mismatch = describe_schema_mismatch(self._table.schema, table.schema)
        if mismatch:
            raise DataError(
                f"update batch schema is incompatible with the fitted "
                f"schema: {mismatch}"
            )
        if table.total == 0:
            return UpdateReport(mode="noop")
        merged = self._table + table
        report = self._update(merged, table)
        self._table = merged
        return report

    def refresh(self) -> UpdateReport:
        """Full cold refit of the accumulated table."""
        self._require_fitted()
        self._fit(self._table)
        return UpdateReport(mode="cold")

    # -- hooks --------------------------------------------------------------------

    @abstractmethod
    def _fit(self, table: ContingencyTable) -> None:
        """Cold fit from ``table``."""

    def _update(
        self, merged: ContingencyTable, delta: ContingencyTable
    ) -> UpdateReport:
        """Refine after a merge; default is a cold refit of ``merged``."""
        self._fit(merged)
        return UpdateReport(mode="cold")

    def __repr__(self) -> str:
        state = f"N={self._table.total}" if self._table is not None else "unfitted"
        return f"{type(self).__name__}({state})"
