"""Vectorized discovery-scan kernels: whole-order MML evaluation.

The discovery loop (Figure 3) rescans every candidate cell after every
adoption, which makes the scan the system's hottest path.  The scalar
reference (:func:`repro.significance.mml.evaluate_cell` /
:func:`repro.significance.mml.reference_scan_order`) walks cells one by
one through dict-based counts and an O(constraints × subsets) feasible
range; :class:`OrderScanKernel` evaluates an entire order's candidate pool
with numpy array ops instead, splitting each test into

- **data-side statistics** — observed marginal counts, ``ln C(N, k)``
  coefficients, and the Eq-41 feasible-range / determined tables.  They
  depend only on the table and the constraint set, so they are cached
  across adoptions within an order and selectively invalidated when a
  constraint lands in a sharing subset
  (:meth:`OrderScanKernel.notify_adopted`).  A scan builds the stats of
  every subset it is missing in one pass: the subsets' count tensors are
  stacked per shape, the first-order bounds are a gather and a minimum
  over those stacks, and one ``ln C(N, k)`` call and one ``math.log`` per
  distinct range serve the whole order.  Only subsets that hold a
  constraint (an adopted cell in the subset, or an adopted lower-order
  cell inside it) get the per-subset Eq-41 corrections;
- **model-side statistics** — predicted probabilities and the H1 message
  lengths, recomputed per scan.  Each subset's marginal comes from the
  model's :class:`~repro.maxent.model.FactoredJoint`: the outer product
  of the marginals of the constraint-graph components the subset touches,
  so the ``2^n`` joint is never built.  The arithmetic then runs once over
  every candidate of the order concatenated, and the columns are sliced
  back per subset; every op is elementwise, so slicing changes no float.

A scan returns its columns wrapped in :class:`LazyScanTests`: the engine
reads one cell per scan (:meth:`LazyScanTests.best`), and the
:class:`~repro.significance.result.CellTest` rows of the audit trail are
built only when something reads them.

**Bit-identity contract.**  The kernel's decisions are bit-identical to
the scalar reference: every float in every emitted
:class:`~repro.significance.result.CellTest` equals the scalar path's
value exactly, so the greedy argmax can never flip on a near-tie.  This
works because all transcendentals go through the same ``math.log`` /
``math.lgamma`` libm calls the scalar path uses (numpy's SIMD ``log``
differs in the last ulp), evaluated once per distinct integer count or
range, while products, sums, ``sqrt``, minima and comparisons — which
IEEE-754 fixes exactly — run as array ops.  Benchmarks and property tests
enforce the contract (``benchmarks/bench_discovery_scan.py``,
``tests/significance/test_kernels.py``).
"""

from __future__ import annotations

import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass
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
from repro.significance.mml import MMLPriors, most_significant
from repro.significance.result import CellTest

__all__ = [
    "LazyScanTests",
    "OrderScanKernel",
    "SubsetStats",
    "tests_from_columns",
]

#: One subset's scan output in columnar form: ``(names, candidate_values,
#: observed, predicted, mean, sd, num_sd, m1, m2, determined,
#: feasible_range)``.  The six float columns are float64 arrays, the rest
#: lists of primitives, so shipping a scan across a process boundary costs
#: a fraction of pickling CellTest objects.  :func:`tests_from_columns`
#: rebuilds the exact CellTest list.
SubsetColumns = tuple


def tests_from_columns(columns: list[SubsetColumns]) -> list[CellTest]:
    """Materialize the :class:`CellTest` list a columnar scan encodes.

    Float columns may be ndarrays or lists; ``tolist()`` is an exact
    float64 → float conversion, so the emitted values are bit-identical
    either way.
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


def _best_in_columns(columns) -> int | None:
    """Flat index of the most significant cell in ``columns``, or None.

    Mirrors :func:`repro.significance.mml.most_significant` exactly.  A
    cell is significant when ``m2 - m1 < 0``, so NaN never is.  Among the
    significant cells, ``np.argmin`` keeps the first of equal minima,
    the cell ``min()`` lands on.  Float64 subtraction is IEEE-identical
    whether the columns are lists or arrays, so the pick cannot flip.
    """
    if not columns:
        return None
    m1 = np.concatenate([np.asarray(c[7], dtype=float) for c in columns])
    m2 = np.concatenate([np.asarray(c[8], dtype=float) for c in columns])
    delta = m2 - m1
    significant = delta < 0.0
    if not significant.any():
        return None
    return int(np.argmin(np.where(significant, delta, np.inf)))


def _test_at(columns, index: int) -> CellTest:
    """Materialize the single CellTest at a flat position in ``columns``.

    Slices a one-row view of the owning subset's columns and reuses
    :func:`tests_from_columns`, the one construction site for the
    columnar-to-CellTest mapping.
    """
    for subset_columns in columns:
        count = len(subset_columns[1])
        if index < count:
            row = (
                subset_columns[0],
                *(
                    # .item() exactly unwraps the np scalars array
                    # columns yield, so the CellTest holds plain floats.
                    [
                        column[index].item()
                        if isinstance(column[index], np.generic)
                        else column[index]
                    ]
                    for column in subset_columns[1:]
                ),
            )
            return tests_from_columns([row])[0]
        index -= count
    raise IndexError(f"flat index {index} beyond the scan's cells")


class LazyScanTests(Sequence):
    """A scan's CellTest list, materialized only when read.

    Behaves as the list :func:`repro.significance.mml.reference_scan_order`
    returns — same length, items, order and equality — but holds the
    scan's columns (one list of :data:`SubsetColumns` per shard) and
    decodes them on first access.  :meth:`best` picks the adopted cell
    from the columns and builds that one CellTest only, which is all the
    scan-adopt-refit loop reads.  The engine stores these in
    :class:`~repro.discovery.trace.ScanRecord`; trace serialization,
    Table-1 rendering and equality checks materialize them transparently.
    """

    def __init__(self, shard_columns: list[list[SubsetColumns]]):
        self._shards = shard_columns
        self._count = sum(
            len(subset_columns[1])
            for columns in shard_columns
            for subset_columns in columns
        )
        self._tests: list[CellTest] | None = None
        self._lock = threading.Lock()

    def best(self) -> CellTest | None:
        """The cell :func:`~repro.significance.mml.most_significant` picks.

        Reads the ``m2 - m1`` columns and builds one CellTest; the rest of
        the list stays unbuilt.
        """
        shards = self._shards
        if shards is None:
            return most_significant(self._tests)
        columns = [c for shard in shards for c in shard]
        index = _best_in_columns(columns)
        return None if index is None else _test_at(columns, index)

    def _materialize(self) -> list[CellTest]:
        # Serving reads traces from multiple threads; the lock makes the
        # decode happen exactly once, and every reader sees one list.
        if self._tests is None:
            with self._lock:
                if self._tests is None:
                    tests: list[CellTest] = []
                    for columns in self._shards:
                        tests.extend(tests_from_columns(columns))
                    self._tests = tests
                    self._shards = None  # the columns are no longer needed
        return self._tests

    @property
    def materialized(self) -> bool:
        return self._tests is not None

    def __getstate__(self) -> dict:
        # Locks don't pickle; a serialized instance carries the decoded
        # CellTests (they're being read anyway — this IS a read).
        return {"count": self._count, "tests": self._materialize()}

    def __setstate__(self, state: dict) -> None:
        self._count = state["count"]
        self._tests = state["tests"]
        self._shards = None
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        return self._materialize()[index]

    def __iter__(self):
        return iter(self._materialize())

    def index(self, value, *bounds) -> int:
        # The list's own index, not Sequence's item-by-item Python loop:
        # serializing a trace looks up each scan's chosen cell.
        return self._materialize().index(value, *bounds)

    def __eq__(self, other) -> bool:
        if isinstance(other, LazyScanTests):
            return self._materialize() == other._materialize()
        if isinstance(other, list):
            return self._materialize() == other
        return NotImplemented

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __repr__(self) -> str:
        state = "materialized" if self.materialized else "lazy"
        return f"LazyScanTests({self._count} tests, {state})"


@dataclass
class SubsetStats:
    """Data-side statistics of one attribute subset's candidate cells.

    All arrays are compressed to the candidate cells (not-yet-constrained),
    in the same C-order the scalar scan visits them, so model-side work is
    a fancy-index away.  Valid until a constraint lands in this subset or
    in a contained lower-order subset.
    """

    names: tuple[str, ...]
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
        # Per-shape cell lists, shared by every unconstrained subset.
        self._cells_by_shape: dict[tuple[int, ...], tuple] = {}
        self._first: np.ndarray | None = None
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

    def scan(self, model: MaxEntModel | FactoredJoint) -> LazyScanTests:
        """Evaluate every candidate cell at this order against ``model``.

        Equivalent to the scalar reference scan: one factored marginal per
        subset, then array arithmetic over the cached data-side
        statistics.  ``model`` may also be the model's
        :class:`~repro.maxent.model.FactoredJoint` itself — what the
        sharded executor's workers hold.  The tests come back lazy:
        :meth:`LazyScanTests.best` reads the adopted cell without building
        the rest.
        """
        return LazyScanTests([self.scan_columns(model)])

    def scan_columns(
        self, model: MaxEntModel | FactoredJoint
    ) -> list[SubsetColumns]:
        """The scan in columnar form: one :data:`SubsetColumns` per subset.

        Everything :meth:`scan` computes, minus the
        :class:`~repro.significance.result.CellTest` construction — the
        shape the sharded executor ships across process boundaries.  The
        six float columns are views of float64 arrays over the whole
        order, never expanded into per-cell Python floats.
        """
        start = time.perf_counter()
        factors = model if isinstance(model, FactoredJoint) else model.factored()
        reduced_before = factors.cells_reduced
        order = self.order
        found_at_order = len(self.constraints.cells_of_order(order))
        pool = self._num_cells_at_order - found_at_order
        missing = [names for names in self.subsets if names not in self._stats]
        if missing:
            self._build_missing(missing)
        active: list[SubsetStats] = []
        predicted_parts = []
        for names in self.subsets:
            stats = self._stats[names]
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

    def _build_missing(self, missing: list[tuple[str, ...]]) -> None:
        """Build the data-side statistics of every subset in ``missing``.

        One vectorised pass for the whole batch.  Subsets are grouped by
        shape and their count tensors stacked, so the Eq-41 first-order
        bounds of a group are one gather per axis and a minimum.  Subsets
        that hold a constraint — an adopted cell of their own, or an
        adopted lower-order cell inside them — get the candidate mask and
        the per-subset corrections of :meth:`_feasible_tables`.  Then one
        :func:`~repro.significance.binomial.log_binomial_coefficients`
        call covers every candidate, and ``math.log`` runs once per
        distinct range, which keeps bit-identity with the scalar
        ``log(range + 1)`` at O(distinct) cost.
        """
        schema = self.schema
        table = self.table
        cardinality = {attr.name: attr.cardinality for attr in schema}
        cells_by_subset: dict[tuple[str, ...], list] = {}
        for cell in self.constraints.cells:
            cells_by_subset.setdefault(cell.attributes, []).append(cell)
        lower = [
            set(names)
            for names in cells_by_subset
            if 1 < len(names) < self.order
        ]
        groups: dict[tuple[int, ...], list[tuple[str, ...]]] = {}
        for names in missing:
            shape = tuple(cardinality[name] for name in names)
            groups.setdefault(shape, []).append(names)
        if self._first is None:
            self._first = self._first_order_counts()
        first = self._first
        axis = {name: i for i, name in enumerate(schema.names)}

        # Candidate columns of every group, concatenated below, and per
        # group its subsets, shape and candidate mask (None: all cells).
        built = []
        observed_parts, feasible_parts, determined_parts = [], [], []
        for shape, subsets in groups.items():
            observed = np.stack(
                [table.marginal_counts(names) for names in subsets]
            ).reshape(len(subsets), -1)
            feasible = self._first_order_bounds(
                first, axis, shape, subsets
            ).reshape(len(subsets), -1)
            # Without a constraint only first-order margins bound a cell,
            # and a cell with siblings (every cardinality is >= 2) is
            # never determined by them alone.
            determined = np.zeros(feasible.shape, dtype=bool)
            mask = None
            for row, names in enumerate(subsets):
                same = cells_by_subset.get(names, ())
                if not same and not any(
                    combo <= set(names) for combo in lower
                ):
                    continue
                bounds, det = self._feasible_tables(
                    names,
                    observed[row].reshape(shape),
                    feasible[row].reshape(shape),
                    cells_by_subset,
                )
                feasible[row] = bounds.ravel()
                determined[row] = det.ravel()
                if same:
                    if mask is None:
                        mask = np.ones(feasible.shape, dtype=bool)
                    for cell in same:
                        position = np.ravel_multi_index(cell.values, shape)
                        mask[row, position] = False
            built.append((subsets, shape, mask))
            for parts, array in (
                (observed_parts, observed),
                (feasible_parts, feasible),
                (determined_parts, determined),
            ):
                parts.append(array.ravel() if mask is None else array[mask])

        observed_all = np.concatenate(observed_parts)
        feasible_all = np.concatenate(feasible_parts)
        determined_all = np.concatenate(determined_parts)
        log_coeff_all = log_binomial_coefficients(self.total, observed_all)
        ranges, inverse = np.unique(feasible_all, return_inverse=True)
        log_range = np.array(
            [log(value + 1) for value in ranges.tolist()], dtype=float
        )[inverse.ravel()]
        h2_all = np.where(determined_all, 0.0, log_range)
        observed_list = observed_all.tolist()
        feasible_list = feasible_all.tolist()
        determined_list = determined_all.tolist()

        offset = 0
        for subsets, shape, mask in built:
            cells = self._cells_of_shape(shape)
            for row, names in enumerate(subsets):
                if mask is None or mask[row].all():
                    candidate_values, flat_positions = cells
                else:
                    flat_positions = np.flatnonzero(mask[row])
                    candidate_values = [
                        cells[0][i] for i in flat_positions.tolist()
                    ]
                stop = offset + len(candidate_values)
                self._stats[names] = SubsetStats(
                    names=names,
                    candidate_values=candidate_values,
                    flat_positions=flat_positions,
                    observed=observed_all[offset:stop],
                    observed_list=observed_list[offset:stop],
                    log_coeff=log_coeff_all[offset:stop],
                    feasible_list=feasible_list[offset:stop],
                    determined_list=determined_list[offset:stop],
                    h2_range_term=h2_all[offset:stop],
                )
                offset = stop
        for names in missing:
            self._stats_builds += 1
            self._stats[names].version = self._stats_builds

    def _cells_of_shape(
        self, shape: tuple[int, ...]
    ) -> tuple[list[tuple[int, ...]], np.ndarray]:
        """Every cell of a subset of ``shape``: value tuples in C order,
        and their flat positions."""
        cells = self._cells_by_shape.get(shape)
        if cells is None:
            size = int(np.prod(shape))
            cells = (list(np.ndindex(shape)), np.arange(size))
            self._cells_by_shape[shape] = cells
        return cells

    def _first_order_counts(self) -> np.ndarray:
        """First-order counts of every attribute, one padded row each."""
        schema = self.schema
        first = np.zeros(
            (len(schema), max(schema.shape)), dtype=np.int64
        )
        for i, attr in enumerate(schema):
            first[i, : attr.cardinality] = self.table.marginal_counts(
                (attr.name,)
            )
        return first

    def _first_order_bounds(
        self,
        first: np.ndarray,
        axis: dict[str, int],
        shape: tuple[int, ...],
        subsets: list[tuple[str, ...]],
    ) -> np.ndarray:
        """Eq-41 bounds from the first-order margins alone, per subset.

        A cell's bound is the smallest first-order count among its
        values; for a group of same-shape subsets that is one gather per
        axis and a minimum, shaped ``(subsets, *shape)``.
        """
        order = len(shape)
        if order == 1:
            # No lower-order marginal contains a first-order cell.
            return np.full((len(subsets), *shape), self.total, dtype=np.int64)
        bounds = None
        for position, size in enumerate(shape):
            rows = first[[axis[names[position]] for names in subsets], :size]
            rows = rows.reshape(
                (len(subsets),)
                + tuple(size if i == position else 1 for i in range(order))
            )
            bounds = rows if bounds is None else np.minimum(bounds, rows)
        return bounds

    def _feasible_tables(
        self,
        names: tuple[str, ...],
        observed_full: np.ndarray,
        first_bounds: np.ndarray,
        cells_by_subset: dict[tuple[str, ...], list],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Eq-41 range and determined tables of a subset that holds a
        constraint.

        Mirrors :func:`repro.significance.mml.feasible_range` for every
        candidate cell of the subset: per contributing lower-order combo,
        the bound is the combo's marginal count minus the counts of
        already-significant same-subset cells sharing the projection, and
        a cell is determined when some combo's sharing cells cover all its
        siblings.  ``first_bounds`` already holds the first-order combos'
        bounds without shared counts; as shared counts only lower a bound,
        taking the minimum with the corrected ones gives the same table.
        Pure integer arithmetic — exact by construction.
        """
        shape = first_bounds.shape
        order = len(names)
        same = cells_by_subset.get(names, ())
        bounds = first_bounds
        determined = np.zeros(shape, dtype=bool)
        for size in range(1, order):
            for combo in combinations(range(order), size):
                t_names = tuple(names[i] for i in combo)
                t_shape = tuple(shape[i] for i in combo)
                if size == 1:
                    if not same:
                        continue
                    active = None
                else:
                    cons = cells_by_subset.get(t_names)
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
