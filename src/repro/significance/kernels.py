"""Vectorized discovery-scan kernels: whole-order MML evaluation.

The discovery loop (Figure 3) rescans every candidate cell after every
adoption, which makes the scan the system's hottest path.  The scalar
reference (:func:`repro.significance.mml.evaluate_cell` /
:func:`repro.significance.mml.reference_scan_order`) walks cells one by
one through dict-based counts and an O(constraints × subsets) feasible
range; :class:`OrderScanKernel` evaluates an entire order's candidate pool
with numpy array ops instead, splitting each test into

- **data-side statistics** — observed marginal counts (from
  :meth:`~repro.data.contingency.ContingencyTable.marginal_counts`'s cached
  count tensors), ``ln C(N, k)`` coefficient arrays, and the Eq-41
  feasible-range / determined tables built from lower-order count tensors
  with constraint masks.  These depend only on the table and the constraint
  set, so they are cached across adoptions within an order and selectively
  invalidated when a constraint lands in a sharing subset
  (:meth:`OrderScanKernel.notify_adopted`);
- **model-side statistics** — predicted probabilities and the H1 message
  lengths, recomputed per scan.  Each subset's marginal comes from the
  model's :class:`~repro.maxent.model.FactoredJoint`: the outer product
  of the marginals of the constraint-graph components the subset touches,
  so the ``2^n`` joint is never built.  The arithmetic then runs once over
  every candidate of the order concatenated, and the columns are sliced
  back per subset; every op is elementwise, so slicing changes no float.

**Bit-identity contract.**  The kernel's decisions are bit-identical to
the scalar reference: every float in every emitted
:class:`~repro.significance.result.CellTest` equals the scalar path's
value exactly, so the greedy argmax can never flip on a near-tie.  This
works because all transcendentals go through the same ``math.log`` /
``math.lgamma`` libm calls the scalar path uses (numpy's SIMD ``log``
differs in the last ulp), evaluated once per distinct integer count or
range, while products, sums, ``sqrt`` and comparisons — which IEEE-754
fixes exactly — run as array ops.  Benchmarks and property tests enforce
the contract (``benchmarks/bench_discovery_scan.py``,
``tests/significance/test_kernels.py``).

:class:`DiscoveryProfile` is the instrumentation the kernels expose: the
engine aggregates per-stage wall-clock (scan / fit / verify) into it, and
``repro discover --profile`` renders it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations
from math import log

import numpy as np

from repro.data.contingency import ContingencyTable
from repro.exceptions import DataError
from repro.maxent.constraints import CellKey, ConstraintSet
from repro.maxent.model import FactoredJoint, MaxEntModel
from repro.significance.binomial import (
    log_binomial_coefficients,
    log_binomial_pmf_array,
)
from repro.significance.result import CellTest

__all__ = [
    "DiscoveryProfile",
    "OrderScanKernel",
    "SubsetStats",
    "tests_from_columns",
]

#: One subset's scan output in columnar form: ``(names, candidate_values,
#: observed, predicted, mean, sd, num_sd, m1, m2, determined,
#: feasible_range)`` — plain tuples and lists of primitives, so shipping a
#: scan across a process boundary costs a fraction of pickling CellTest
#: objects.  :func:`tests_from_columns` rebuilds the exact CellTest list.
SubsetColumns = tuple


def tests_from_columns(columns: list[SubsetColumns]) -> list[CellTest]:
    """Materialize the :class:`CellTest` list a columnar scan encodes.

    This is the same construction loop :meth:`OrderScanKernel.scan` runs,
    applied to the same lists — bit-identity holds by construction.
    Float columns may arrive as ndarrays (the shared-memory transport
    keeps them in array form); ``tolist()`` is an exact float64 → float
    conversion, so the emitted values are bit-identical either way.
    """
    tests: list[CellTest] = []
    for (
        names,
        candidate_values,
        observed,
        predicted,
        mean,
        sd,
        num_sd,
        m1,
        m2,
        determined,
        feasible,
    ) in columns:
        if isinstance(predicted, np.ndarray):
            predicted = predicted.tolist()
            mean = mean.tolist()
            sd = sd.tolist()
            num_sd = num_sd.tolist()
            m1 = m1.tolist()
            m2 = m2.tolist()
        for i, values in enumerate(candidate_values):
            tests.append(
                CellTest(
                    attributes=names,
                    values=values,
                    observed=observed[i],
                    predicted_probability=predicted[i],
                    mean=mean[i],
                    sd=sd[i],
                    num_sd=num_sd[i],
                    m1=m1[i],
                    m2=m2[i],
                    determined=determined[i],
                    feasible_range=feasible[i],
                )
            )
    return tests


@dataclass
class SubsetStats:
    """Data-side statistics of one attribute subset's candidate cells.

    All arrays are compressed to the candidate cells (not-yet-constrained),
    in the same C-order the scalar scan visits them, so model-side work is
    a fancy-index away.  Valid until a constraint lands in this subset or
    in a contained lower-order subset.
    """

    names: tuple[str, ...]
    shape: tuple[int, ...]
    #: Candidate value tuples, in ``np.ndindex`` (C) order.
    candidate_values: list[tuple[int, ...]]
    #: Positions of the candidates in the raveled subset marginal.
    flat_positions: np.ndarray
    observed: np.ndarray
    observed_list: list[int]
    #: ``ln C(N, k)`` per candidate (the data term's constant part).
    log_coeff: np.ndarray
    #: Eq-41 feasible range per candidate.
    feasible_list: list[int]
    determined_list: list[bool]
    #: H2's uniform-encoding term per candidate: ``ln(range + 1)``, or 0
    #: where the cell is determined (Eq 41's ELSE branch).
    h2_range_term: np.ndarray
    #: Monotonic per-kernel build counter.  Identifies this exact build of
    #: the data-side columns, so a transport can skip re-shipping them
    #: when the receiver already holds this version (they change only on
    #: invalidation, not per scan).
    version: int = 0


@dataclass
class DiscoveryProfile:
    """Per-stage wall-clock of a discovery run (scan / fit / verify).

    ``scan`` covers candidate-pool evaluations that adopted a constraint;
    ``verify`` covers the terminating scan of each order (the one that
    confirmed nothing significant) and a rerun's per-constraint
    re-verification tests; ``fit`` covers the solver.  Rendered by
    ``repro discover --profile``.

    Alongside the stage totals, ``*_call_seconds`` keep the individual
    call durations (one entry per scan/fit/verify call, in call order) so
    per-stage latency percentiles are computable —
    :meth:`stage_percentile_ms` is what the scenario fleet's latency SLOs
    read.

    ``fit_cells`` counts the tensor cells the fit swept, summed over
    sweeps and fits (:attr:`~repro.maxent.ipf.FitResult.cells_swept`): a
    sweep works on one small tensor per connected component of the
    constraint graph and skips the components frozen at a fixed point, so
    this is what shows the fit's cost following the adopted structure
    rather than the joint's size.  The Gevarter solver does not report
    it.
    ``scan_model_cells`` is the scans' counterpart: the component-tensor
    cells each candidate-pool scan (scan and verify stages alike)
    reduced to form its marginals
    (:attr:`~repro.maxent.model.FactoredJoint.cells_reduced`), summed
    over the run.  The scalar ``"reference"`` oracle does not report it.

    ``scan_paths`` records, per scanned order, which scan implementation
    the engine chose (``"serial"`` kernel, ``"sharded"`` executor, or the
    ``"reference"`` oracle) and the candidate-pool size that drove the
    choice — the audit trail for the serial-vs-sharded auto-selection.

    Sharded orders additionally record what the transport moved:
    ``bytes_pickled`` / ``bytes_shared`` are tensor-payload bytes shipped
    inline vs through shared-memory segments, ``broadcasts_skipped`` counts
    joint rebroadcasts amortized away by an unchanged model fingerprint,
    and ``attach_ns`` is cumulative worker-side segment attach time.  The
    run totals live in the flat fields; ``transports`` keeps the same
    counters per sharded order.  Rendered by ``repro discover --profile``.
    """

    scan_seconds: float = 0.0
    scan_calls: int = 0
    scan_cells: int = 0
    verify_seconds: float = 0.0
    verify_calls: int = 0
    verify_cells: int = 0
    fit_seconds: float = 0.0
    fit_calls: int = 0
    fit_sweeps: int = 0
    fit_cells: int = 0
    scan_model_cells: int = 0
    scan_paths: list[dict] = field(default_factory=list)
    scan_call_seconds: list[float] = field(default_factory=list)
    verify_call_seconds: list[float] = field(default_factory=list)
    fit_call_seconds: list[float] = field(default_factory=list)
    bytes_pickled: int = 0
    bytes_shared: int = 0
    broadcasts_total: int = 0
    broadcasts_skipped: int = 0
    attach_ns: int = 0
    transports: list[dict] = field(default_factory=list)

    def record_scan_path(self, order: int, path: str, cells: int) -> None:
        self.scan_paths.append(
            {"order": order, "path": path, "cells": cells}
        )

    def add_transport(self, order: int, label: str, counters: dict) -> None:
        """Fold one sharded order's transport counters into the profile.

        ``label`` names the medium (``"pipe"``, ``"shm"`` or ``"tcp"``).
        """
        self.bytes_pickled += counters.get("bytes_pickled", 0)
        self.bytes_shared += counters.get("bytes_shared", 0)
        self.broadcasts_total += counters.get("broadcasts_total", 0)
        self.broadcasts_skipped += counters.get("broadcasts_skipped", 0)
        self.attach_ns += counters.get("attach_ns", 0)
        self.transports.append(
            {"order": order, "transport": label, **counters}
        )

    def add_scan(
        self, seconds: float, cells: int, model_cells: int = 0
    ) -> None:
        self.scan_seconds += seconds
        self.scan_calls += 1
        self.scan_cells += cells
        self.scan_model_cells += model_cells
        self.scan_call_seconds.append(seconds)

    def add_verify(
        self, seconds: float, cells: int, model_cells: int = 0
    ) -> None:
        self.verify_seconds += seconds
        self.verify_calls += 1
        self.verify_cells += cells
        self.scan_model_cells += model_cells
        self.verify_call_seconds.append(seconds)

    def add_fit(self, seconds: float, sweeps: int, cells: int = 0) -> None:
        self.fit_seconds += seconds
        self.fit_calls += 1
        self.fit_sweeps += sweeps
        self.fit_cells += cells
        self.fit_call_seconds.append(seconds)

    @property
    def total_seconds(self) -> float:
        return self.scan_seconds + self.verify_seconds + self.fit_seconds

    def stage_samples(self, stage: str) -> list[float]:
        """Per-call wall-clock samples (seconds) for one stage.

        ``stage`` is ``"scan"``, ``"fit"``, or ``"verify"``; the samples
        are the individual call durations folded into the stage totals,
        in call order — the population the latency-SLO percentiles are
        computed over.
        """
        try:
            return {
                "scan": self.scan_call_seconds,
                "fit": self.fit_call_seconds,
                "verify": self.verify_call_seconds,
            }[stage]
        except KeyError:
            raise ValueError(
                f"unknown profile stage {stage!r}; "
                f"expected scan, fit, or verify"
            ) from None

    def stage_percentile_ms(self, stage: str, q: float) -> float:
        """Nearest-rank percentile of one stage's call latencies, in ms.

        Returns 0.0 when the stage recorded no calls (an order-0 run or a
        loaded result), so SLO checks treat an idle stage as trivially
        within budget.
        """
        ordered = sorted(self.stage_samples(stage))
        if not ordered:
            return 0.0
        rank = min(len(ordered) - 1, max(0, int(q * len(ordered))))
        return 1e3 * ordered[rank]

    def rows(self) -> list[list[str]]:
        """Table rows (stage, calls, work, seconds, share) for rendering."""
        total = self.total_seconds or 1.0
        rows = []
        for stage, seconds, calls, work in (
            ("scan", self.scan_seconds, self.scan_calls,
             f"{self.scan_cells} cells"),
            ("fit", self.fit_seconds, self.fit_calls,
             f"{self.fit_sweeps} sweeps, {self.fit_cells} cells"),
            ("verify", self.verify_seconds, self.verify_calls,
             f"{self.verify_cells} cells"),
        ):
            rows.append(
                [stage, str(calls), work, f"{seconds:.4f}",
                 f"{100.0 * seconds / total:.1f}%"]
            )
        return rows


class OrderScanKernel:
    """Array-native evaluation of one order's whole candidate pool.

    One kernel serves one ``(table, order, constraints)`` triple across the
    scan-adopt-refit loop: the engine calls :meth:`scan` once per
    adoption round and :meth:`notify_adopted` after each adoption, so
    data-side statistics survive across rounds for every subset the new
    constraint does not touch.

    The emitted :class:`~repro.significance.result.CellTest` list is
    bit-identical to
    :func:`repro.significance.mml.reference_scan_order` — same cells, same
    order, same floats (see the module docstring).
    """

    def __init__(
        self,
        table: ContingencyTable,
        order: int,
        constraints: ConstraintSet,
        priors=None,
        subsets=None,
    ):
        from repro.significance.mml import MMLPriors

        self.table = table
        self.order = order
        self.constraints = constraints
        self.priors = priors or MMLPriors.equal()
        self.schema = table.schema
        self.total = table.total
        all_subsets = table.subsets_of_order(order)
        if subsets is None:
            self.subsets = all_subsets
        else:
            # A shard of the order's subsets (the parallel executor's unit
            # of work).  Candidate-pool accounting below stays GLOBAL —
            # Eq 45's ln(cells at order − M) counts the whole order, not
            # the shard — which is what keeps a sharded scan's m2 values
            # bit-identical to the serial path's.
            subsets = [tuple(subset) for subset in subsets]
            known = set(all_subsets)
            unknown = [subset for subset in subsets if subset not in known]
            if unknown:
                raise DataError(
                    f"subsets {unknown} are not order-{order} subsets of "
                    f"the table schema"
                )
            self.subsets = subsets
        self._num_cells_at_order = table.num_cells_of_order(order)
        self._stats: dict[tuple[str, ...], SubsetStats] = {}
        self._stats_builds = 0
        # Exposed instrumentation (aggregated into DiscoveryProfile by the
        # engine; also readable directly after standalone scans).
        self.scan_calls = 0
        self.cells_evaluated = 0
        self.last_model_cells = 0
        self.last_scan_seconds = 0.0
        self.total_scan_seconds = 0.0

    # -- cache management ---------------------------------------------------------

    def invalidate(self) -> None:
        """Drop all cached data-side statistics."""
        self._stats.clear()

    def notify_adopted(self, key: CellKey) -> None:
        """Selectively invalidate after ``key`` joined the constraint set.

        A new constraint changes the candidate mask and the Eq-41 sibling
        terms of its own subset; a new *lower-order* constraint changes the
        feasible bounds of every scanned subset containing it.  Subsets
        sharing no attributes with the constraint keep their statistics.
        """
        names = key[0]
        if len(names) > self.order:
            return
        if len(names) == self.order:
            self._stats.pop(names, None)
            return
        contained = set(names)
        for subset in list(self._stats):
            if contained <= set(subset):
                self._stats.pop(subset, None)

    def stats_version(self, names: tuple[str, ...]) -> int:
        """Version of the cached data-side statistics for ``names`` (0 when
        not built).  Bumps exactly when the columns' data-side content can
        have changed, so transports key re-ship decisions on it."""
        stats = self._stats.get(names)
        return 0 if stats is None else stats.version

    # -- scanning -----------------------------------------------------------------

    def scan(self, model: MaxEntModel | FactoredJoint) -> list[CellTest]:
        """Evaluate every candidate cell at this order against ``model``.

        Equivalent to the scalar reference scan: one factored marginal per
        subset, then array arithmetic over the cached data-side
        statistics.  ``model`` may also be the model's
        :class:`~repro.maxent.model.FactoredJoint` itself — what the
        sharded executor's workers hold.
        """
        columns = self.scan_columns(model)
        start = time.perf_counter()
        tests = tests_from_columns(columns)
        construction = time.perf_counter() - start
        self.last_scan_seconds += construction
        self.total_scan_seconds += construction
        return tests

    def scan_columns(
        self,
        model: MaxEntModel | FactoredJoint,
        float_arrays: bool = False,
    ) -> list[SubsetColumns]:
        """The scan in columnar form: one tuple of lists per subset.

        Everything :meth:`scan` computes, minus the
        :class:`~repro.significance.result.CellTest` construction — the
        shape the sharded executor ships across process boundaries
        (pickling lists of primitives is several times cheaper than
        pickling dataclass instances) and materializes lazily via
        :func:`tests_from_columns`.

        ``float_arrays=True`` keeps the six float columns as float64
        ndarrays instead of converting them to lists — the form the
        shared-memory transport writes into output slabs without ever
        constructing per-cell Python floats.  ``tolist()`` is exact, so
        both forms decode to bit-identical CellTests.
        """
        start = time.perf_counter()
        factors = model if isinstance(model, FactoredJoint) else model.factored()
        reduced_before = factors.cells_reduced
        order = self.order
        found_at_order = len(self.constraints.cells_of_order(order))
        pool = self._num_cells_at_order - found_at_order
        active: list[SubsetStats] = []
        predicted_parts = []
        for names in self.subsets:
            stats = self._stats.get(names)
            if stats is None:
                stats = self._build_stats(names)
                self._stats_builds += 1
                stats.version = self._stats_builds
                self._stats[names] = stats
            if not stats.candidate_values:
                continue
            if pool < 1:
                raise DataError(
                    f"candidate pool at order {order} is {pool}; "
                    f"no cells remain to choose from"
                )
            active.append(stats)
            predicted_parts.append(
                factors.marginal(names).ravel()[stats.flat_positions]
            )
        columns: list[SubsetColumns] = []
        if active:
            floats = self._model_side(active, predicted_parts, pool)
            if not float_arrays:
                floats = [column.tolist() for column in floats]
            offset = 0
            for stats in active:
                stop = offset + len(stats.candidate_values)
                columns.append(
                    (
                        stats.names,
                        stats.candidate_values,
                        stats.observed_list,
                        *(column[offset:stop] for column in floats),
                        stats.determined_list,
                        stats.feasible_list,
                    )
                )
                offset = stop
        cells = sum(len(stats.candidate_values) for stats in active)
        elapsed = time.perf_counter() - start
        self.scan_calls += 1
        self.cells_evaluated += cells
        self.last_model_cells = factors.cells_reduced - reduced_before
        self.last_scan_seconds = elapsed
        self.total_scan_seconds += elapsed
        return columns

    def _model_side(self, active, predicted_parts, pool) -> list[np.ndarray]:
        """The six float columns over every active subset's candidates.

        One pass over the concatenated candidates instead of one per
        subset: every op is elementwise, so the floats equal the
        per-subset ones bit for bit.
        """
        n = self.total
        predicted = np.concatenate(predicted_parts)
        np.minimum(
            np.maximum(predicted, 0.0, out=predicted), 1.0, out=predicted
        )
        observed = np.concatenate([stats.observed for stats in active])
        observed_float = observed.astype(float)
        lbp = log_binomial_pmf_array(
            observed,
            n,
            predicted,
            log_coefficients=np.concatenate(
                [stats.log_coeff for stats in active]
            ),
        )
        m1 = -log(self.priors.p_h1) - lbp
        m2 = (-log(self.priors.p_h2_prime) + log(pool)) + np.concatenate(
            [stats.h2_range_term for stats in active]
        )
        mean = n * predicted
        sd = np.sqrt(n * predicted * (1.0 - predicted))
        with np.errstate(divide="ignore", invalid="ignore"):
            num_sd = (observed_float - mean) / sd
        zero_sd = sd == 0.0
        if zero_sd.any():
            num_sd[zero_sd] = np.where(
                observed_float[zero_sd] == mean[zero_sd], 0.0, np.inf
            )
        return [predicted, mean, sd, num_sd, m1, m2]

    # -- data-side construction ---------------------------------------------------

    def _build_stats(self, names: tuple[str, ...]) -> SubsetStats:
        schema = self.schema
        shape = tuple(schema.attribute(n).cardinality for n in names)
        observed_full = self.table.marginal_counts(names)
        mask = np.ones(shape, dtype=bool)
        for cell in self.constraints.cells_of_order(self.order):
            if cell.attributes == names:
                mask[cell.values] = False
        feasible_full, determined_full = self._feasible_tables(
            names, shape, observed_full
        )
        flat_positions = np.flatnonzero(mask.ravel())
        candidate_values = [
            tuple(int(v) for v in index) for index in np.argwhere(mask)
        ]
        observed = observed_full.ravel()[flat_positions]
        feasible = feasible_full.ravel()[flat_positions]
        determined = determined_full.ravel()[flat_positions]
        feasible_list = feasible.tolist()
        # One math.log per distinct range keeps bit-identity with the
        # scalar ``log(cell_range + 1)`` at O(distinct) cost.
        log_by_range = {
            value: log(value + 1) for value in np.unique(feasible).tolist()
        }
        log_range = np.array(
            [log_by_range[value] for value in feasible_list], dtype=float
        )
        return SubsetStats(
            names=names,
            shape=shape,
            candidate_values=candidate_values,
            flat_positions=flat_positions,
            observed=observed,
            observed_list=observed.tolist(),
            log_coeff=log_binomial_coefficients(self.total, observed),
            feasible_list=feasible_list,
            determined_list=determined.tolist(),
            h2_range_term=np.where(determined, 0.0, log_range),
        )

    def _feasible_tables(
        self,
        names: tuple[str, ...],
        shape: tuple[int, ...],
        observed_full: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Eq-41 range and determined tables for a whole subset at once.

        Mirrors :func:`repro.significance.mml.feasible_range` for every
        candidate cell of the subset: per contributing lower-order combo,
        the bound is the combo's marginal count minus the counts of
        already-significant same-subset cells sharing the projection, and
        a cell is determined when some combo's sharing cells cover all its
        siblings.  Pure integer arithmetic — exact by construction.
        """
        order = len(names)
        constraints = self.constraints
        same = [c for c in constraints.cells if c.attributes == names]
        bounds = np.full(shape, self.total, dtype=np.int64)
        determined = np.zeros(shape, dtype=bool)
        for size in range(1, order):
            for combo in combinations(range(order), size):
                t_names = tuple(names[i] for i in combo)
                t_shape = tuple(shape[i] for i in combo)
                if size == 1:
                    active = None
                else:
                    cons = [
                        c for c in constraints.cells
                        if c.attributes == t_names
                    ]
                    if not cons:
                        continue
                    active = np.zeros(t_shape, dtype=bool)
                    for c in cons:
                        active[c.values] = True
                base = self.table.marginal_counts(t_names)
                shared = np.zeros(t_shape, dtype=np.int64)
                sharing = np.zeros(t_shape, dtype=np.int64)
                for c in same:
                    projection = tuple(c.values[i] for i in combo)
                    shared[projection] += int(observed_full[c.values])
                    sharing[projection] += 1
                siblings = 1
                for i in range(order):
                    if i not in combo:
                        siblings *= shape[i]
                siblings -= 1
                broadcast_shape = tuple(
                    shape[i] if i in combo else 1 for i in range(order)
                )
                bound = (base - shared).reshape(broadcast_shape)
                det = (sharing >= siblings).reshape(broadcast_shape)
                if active is None:
                    bounds = np.minimum(bounds, bound)
                    determined |= det
                else:
                    active_full = np.broadcast_to(
                        active.reshape(broadcast_shape), shape
                    )
                    bounds = np.where(
                        active_full, np.minimum(bounds, bound), bounds
                    )
                    determined |= active_full & np.broadcast_to(det, shape)
        return np.maximum(bounds, 0), determined
