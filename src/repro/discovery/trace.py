"""Audit trail of a discovery run.

Every scan (one pass over the candidate cells at one order) is recorded
with its full list of :class:`~repro.significance.result.CellTest` rows and
the chosen constraint, so a run can be replayed, rendered as the paper's
Table 1, and asserted against in tests.  Warm-started reruns additionally
record which previously adopted constraints were re-imposed without a
fresh scan (:attr:`ScanRecord.readopted`).

The module also serializes the whole trail (:func:`result_to_dict` /
:func:`result_from_dict`) so a saved knowledge base carries its audit
records — and its training table, which is what makes a *loaded* knowledge
base updatable with warm-started rediscovery.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.data.contingency import ContingencyTable
from repro.data.io import table_from_dict, table_to_dict
from repro.discovery.config import DiscoveryConfig
from repro.exceptions import DataError
from repro.maxent.constraints import (
    CellConstraint,
    CellKey,
    ConstraintSet,
    cellkey_from_dict,
    cellkey_to_dict,
)
from repro.maxent.model import MaxEntModel
from repro.significance.result import CellTest

if TYPE_CHECKING:
    from repro.discovery.profile import DiscoveryProfile


@dataclass
class ScanRecord:
    """One scan of all candidate cells at one order.

    ``chosen`` is None for the terminating scan at each order (the scan
    that found nothing significant).  ``readopted`` lists constraints a
    warm-started rerun re-imposed from the previous revision without a
    scan; such records carry no tests.  A kernel scan's ``tests`` is a
    :class:`~repro.significance.kernels.LazyScanTests`, which builds its
    rows on first read.
    """

    order: int
    tests: Sequence[CellTest]
    chosen: CellTest | None
    fit_sweeps: int = 0
    readopted: tuple[CellKey, ...] = ()

    @property
    def significant(self) -> list[CellTest]:
        return [t for t in self.tests if t.significant]


@dataclass(frozen=True)
class ConstraintRecovery:
    """How a set of adopted constraint keys compares to a ground truth.

    The convention matches :func:`repro.synth.generators.recovery_score`:
    a truth cell counts as recovered only if its exact key was adopted,
    and every non-truth adoption is a false alarm.  With empty truth and
    no adoptions both precision and recall are 1.0 (the null scenario's
    perfect outcome); finding *nothing* when truth is non-empty scores
    0.0 on both, so a find-nothing regression can never pass a
    precision-only gate vacuously.
    """

    precision: float
    recall: float
    hits: tuple[CellKey, ...]
    false_alarms: tuple[CellKey, ...]
    missed: tuple[CellKey, ...]


def score_constraint_keys(
    truth: set[CellKey], found: set[CellKey]
) -> ConstraintRecovery:
    """Precision/recall of ``found`` constraint keys against ``truth``."""
    hits = truth & found
    false_alarms = found - truth
    missed = truth - found
    if found:
        precision = len(hits) / len(found)
    else:
        precision = 1.0 if not truth else 0.0
    recall = len(hits) / len(truth) if truth else 1.0
    return ConstraintRecovery(
        precision=precision,
        recall=recall,
        hits=tuple(sorted(hits)),
        false_alarms=tuple(sorted(false_alarms)),
        missed=tuple(sorted(missed)),
    )


@dataclass
class DiscoveryResult:
    """Everything produced by a discovery run.

    ``profile`` carries the engine's per-stage wall-clock instrumentation
    (scan / fit / verify); it is observability, not part of the audit
    trail, so it is not serialized and loaded results leave it ``None``.
    """

    table: ContingencyTable
    model: MaxEntModel
    constraints: ConstraintSet
    scans: list[ScanRecord] = field(default_factory=list)
    config: DiscoveryConfig | None = None
    profile: "DiscoveryProfile | None" = None

    @property
    def found(self) -> tuple[CellConstraint, ...]:
        """Cell constraints adopted, in discovery order."""
        return self.constraints.cells

    def adopted_keys(self) -> set[CellKey]:
        """Keys of every adopted cell constraint (order-independent)."""
        return {cell.key for cell in self.constraints.cells}

    def score_against(self, truth: set[CellKey]) -> ConstraintRecovery:
        """Score the adopted constraints against known ground truth.

        The hook that turns a discovery run on a generated workload into
        a conformance measurement (see :mod:`repro.scenarios`).
        """
        return score_constraint_keys(set(truth), self.adopted_keys())

    def found_at_order(self, order: int) -> tuple[CellConstraint, ...]:
        return self.constraints.cells_of_order(order)

    def num_scans(self) -> int:
        return len(self.scans)

    def summary(self) -> str:
        """Readable multi-line report of what was discovered."""
        schema = self.table.schema
        lines = [
            f"Discovery over N={self.table.total} samples, "
            f"{len(schema)} attributes {list(schema.names)}",
            f"scans: {len(self.scans)}, constraints found: {len(self.found)}",
        ]
        for number, constraint in enumerate(self.found, start=1):
            observed = self.table.count(
                dict(zip(constraint.attributes, constraint.values))
            )
            lines.append(
                f"  {number}. {constraint.describe(schema)}  "
                f"[observed N={observed}]"
            )
        if not self.found:
            lines.append("  (no significant correlations; attributes look independent)")
        return "\n".join(lines)


# -- serialization ------------------------------------------------------------------


def _test_to_dict(test: CellTest) -> dict:
    return {
        "attributes": list(test.attributes),
        "values": list(test.values),
        "observed": test.observed,
        "predicted_probability": test.predicted_probability,
        "mean": test.mean,
        "sd": test.sd,
        "num_sd": test.num_sd,
        "m1": test.m1,
        "m2": test.m2,
        "determined": test.determined,
        "feasible_range": test.feasible_range,
    }


def _test_from_dict(data: dict) -> CellTest:
    return CellTest(
        attributes=tuple(data["attributes"]),
        values=tuple(int(v) for v in data["values"]),
        observed=int(data["observed"]),
        predicted_probability=float(data["predicted_probability"]),
        mean=float(data["mean"]),
        sd=float(data["sd"]),
        num_sd=float(data["num_sd"]),
        m1=float(data["m1"]),
        m2=float(data["m2"]),
        determined=bool(data["determined"]),
        feasible_range=int(data["feasible_range"]),
    )


def _scan_to_dict(scan: ScanRecord) -> dict:
    return {
        "order": scan.order,
        "tests": [_test_to_dict(t) for t in scan.tests],
        # The chosen test is one of ``tests``; store its index, -1 for none.
        "chosen": scan.tests.index(scan.chosen) if scan.chosen else -1,
        "fit_sweeps": scan.fit_sweeps,
        "readopted": [cellkey_to_dict(key) for key in scan.readopted],
    }


def _scan_from_dict(data: dict) -> ScanRecord:
    tests = [_test_from_dict(item) for item in data["tests"]]
    chosen_index = int(data["chosen"])
    return ScanRecord(
        order=int(data["order"]),
        tests=tests,
        chosen=tests[chosen_index] if chosen_index >= 0 else None,
        fit_sweeps=int(data.get("fit_sweeps", 0)),
        readopted=tuple(
            cellkey_from_dict(item) for item in data.get("readopted", [])
        ),
    )


def _constraints_to_dict(constraints: ConstraintSet) -> dict:
    return {
        "margins": {
            name: constraints.margin(name).tolist()
            for name in constraints.margin_names
        },
        "cells": [
            {**cellkey_to_dict(cell.key), "probability": cell.probability}
            for cell in constraints.cells
        ],
        "subset_margins": [
            {"attributes": list(names), "probabilities": array.tolist()}
            for names, array in constraints.subset_margins.items()
        ],
    }


def _constraints_from_dict(schema, data: dict) -> ConstraintSet:
    import numpy as np

    constraints = ConstraintSet(schema)
    for name, vector in data["margins"].items():
        constraints.set_margin(name, vector)
    for item in data["cells"]:
        constraints.add_cell(
            CellConstraint(*cellkey_from_dict(item), float(item["probability"]))
        )
    for item in data.get("subset_margins", []):
        constraints.set_subset_margin(
            item["attributes"], np.asarray(item["probabilities"], dtype=float)
        )
    return constraints


def result_to_dict(result: DiscoveryResult) -> dict:
    """JSON-ready dict of the full audit trail (model stored separately).

    The fitted model is *not* included — the knowledge-base format already
    stores it at top level, and :func:`result_from_dict` re-attaches it.
    """
    return {
        "table": table_to_dict(result.table),
        "constraints": _constraints_to_dict(result.constraints),
        "config": result.config.to_dict() if result.config else None,
        "scans": [_scan_to_dict(scan) for scan in result.scans],
    }


def result_from_dict(data: dict, model: MaxEntModel) -> DiscoveryResult:
    """Inverse of :func:`result_to_dict`, re-attaching the fitted model."""
    try:
        table = table_from_dict(data["table"])
        if table.schema != model.schema:
            raise DataError(
                "discovery trace schema does not match the model schema"
            )
        config_data = data.get("config")
        return DiscoveryResult(
            table=table,
            model=model,
            constraints=_constraints_from_dict(
                model.schema, data["constraints"]
            ),
            scans=[_scan_from_dict(item) for item in data.get("scans", [])],
            config=(
                DiscoveryConfig.from_dict(config_data)
                if config_data is not None
                else None
            ),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise DataError(f"malformed discovery trace dict: {error}") from None
