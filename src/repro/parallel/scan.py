"""Sharded discovery scans: one order's candidate pool across workers.

The discovery loop's hot path is the per-order candidate scan; PR 3
vectorized it, this module spreads it over cores.  The unit of sharding is
the attribute *subset*: each worker builds an
:class:`~repro.significance.kernels.OrderScanKernel` restricted to a
contiguous slice of the order's canonical subset list, so its data-side
statistics (counts, coefficient arrays, Eq-41 range tables) are built once
per order per worker and survive across the scan-adopt-refit rounds
exactly as the serial kernel's do.

Per scan the master ships the model's per-component tensors
(:class:`~repro.maxent.model.FactoredJoint`, one small tensor per
connected component of the constraint graph — never the ``2^n`` joint)
once; per adoption it broadcasts the adopted constraint so every worker's
constraint-set copy (and kernel cache invalidation) tracks the master's.
One protocol runs on every pool; the only per-medium piece is the tensor
codec (:mod:`repro.parallel.shm`), derived from the pool:

- the component tensors travel as one flat float64 block plus a
  components/shapes layout, fingerprint-amortized — shipped (as a
  shared-segment handle under ``shm``, as the array itself under
  ``inline``) only when ``model.fingerprint()`` changes, referenced as
  ``("cached", fp)`` otherwise;
- data-side columns (candidate values, observed counts,
  determined/feasible tables) are shipped once per kernel-cache build and
  referenced by version afterwards;
- under ``shm``, shard result float columns of at least
  :data:`RESULT_THRESHOLD_BYTES` come back through per-worker shared
  output slabs; everything else returns in the reply.

A worker asked to reuse state it does not hold raises
:class:`~repro.exceptions.StaleWorkerStateError`, and the master replays
the order with full payloads — the recovery a reconnected remote worker
needs, on one code path for every pool.

Three things keep the parallel path fast where a naive port would not be:

- workers ship scans in **columnar** form (primitive columns — several
  times cheaper to move than CellTest objects), so the master's per-scan
  serial work is a cheap decode of a few columns plus one argmax over
  the ``m2 - m1`` columns;
- those float columns stay float64 *arrays* end to end — one slab write
  and read, or one pickled block — never expanding into per-cell Python
  floats on the hot path;
- the full :class:`~repro.significance.result.CellTest` list the audit
  trail wants is wrapped in
  :class:`~repro.significance.kernels.LazyScanTests`, as the serial
  kernel's is, and only materialized when something actually reads it
  (trace serialization, summaries, equality checks) — never on the
  scan-adopt-refit hot path.

**Bit-identity.**  Candidate-pool accounting inside each shard kernel is
global (Eq 45 counts the whole order), every float is produced by the same
kernel code on the same inputs, shards are contiguous slices of the
canonical subset order, and the argmax runs over the shards' columns in
that order with ``min()``'s first-of-equals tie-breaking — so decisions,
traces, and fitted models are bit-identical to the serial path.
``tests/parallel/`` enforces this across shard counts and uneven splits.
"""

from __future__ import annotations

import numpy as np

from repro.data.contingency import ContingencyTable
from repro.exceptions import ParallelError, StaleWorkerStateError
from repro.maxent.constraints import CellConstraint, ConstraintSet
from repro.maxent.model import FactoredJoint, MaxEntModel
from repro.parallel.pool import WorkerPool, shard_bounds
from repro.parallel.shm import (
    open_codec,
    read_tensor,
    take_attach_ns,
)
from repro.significance.kernels import LazyScanTests, OrderScanKernel
from repro.significance.result import CellTest

__all__ = ["ShardedScanExecutor", "scan_order_sharded"]

_TASK_INIT = f"{__name__}:_init_order"
_TASK_SCAN = f"{__name__}:_scan_shard"
_TASK_ADOPT = f"{__name__}:_adopt"
_TASK_END = f"{__name__}:_end_order"

#: Shard float columns smaller than this return in the reply even under
#: the shm codec — below it the slab bookkeeping costs more than the copy.
RESULT_THRESHOLD_BYTES = 32 * 1024


# -- worker-side tasks ------------------------------------------------------------


def _init_order(state, table_ref, order, constraints, priors, subsets) -> None:
    # Each worker owns a private constraint copy that evolves via _adopt
    # broadcasts.  Process workers get one implicitly from pickling; the
    # explicit copy keeps the inline fallback identical (adopting into
    # the master's set through a shared reference would double-add).
    #
    # The table is a broadcast-amortized reference: ("table", table) ships
    # it (pickled — once per executor lifetime for a given table object),
    # ("cached",) reuses the one from a previous order.  A fresh
    # sent_versions makes the first scan ship every data column.
    kind = table_ref[0]
    if kind == "table":
        state["table"] = table_ref[1]
    elif "table" not in state:
        # StaleWorkerStateError so a master talking to a reconnected (or
        # fresh) remote worker can recover by re-shipping the full table.
        raise StaleWorkerStateError(
            "worker was told to reuse a cached table it never received"
        )
    state["kernel"] = OrderScanKernel(
        state["table"], order, constraints.copy(), priors, subsets=subsets
    )
    state["sent_versions"] = {}


def _active_kernel(state) -> OrderScanKernel:
    kernel = state.get("kernel")
    if kernel is None:
        raise StaleWorkerStateError(
            "scan worker has no active order (fresh connection?)"
        )
    return kernel


def _scan_shard(state, factors_ref, slab):
    """One shard scan.

    The model arrives fingerprint-amortized: ``("factors", fp, layout,
    ref)`` ships its component tensors (``ref`` is a codec reference to
    the flat block — a shared-segment handle or the array itself; see
    :meth:`~repro.maxent.model.FactoredJoint.pack`) and caches them
    worker-side, surviving order boundaries exactly as the master's
    ``_published_fingerprint`` does; ``("cached", fp)`` reuses the cached
    copy.  Any cache miss — no active kernel, no factors, factors for
    another fingerprint — raises :class:`StaleWorkerStateError` rather
    than scanning stale state; the master recovers by replaying the
    order with full payloads.

    Returns ``(meta, block, attach_ns, model_cells)``: per-subset
    metadata (data-side columns, or a version reference when the master
    already holds them), the concatenated float columns — written into
    ``slab`` and ``None`` here when the codec provided one, else the
    array itself — segment attach time, and the component-tensor cells
    the scan reduced.
    """
    kernel = _active_kernel(state)
    if factors_ref[0] == "factors":
        _kind, fingerprint, layout, ref = factors_ref
        # A private copy: the block is tiny, and the cache must not alias
        # a segment the master rewrites for the next model.
        block = np.array(read_tensor(state, ref))
        state["factors"] = FactoredJoint.unpack(layout, block)
        state["factors_fingerprint"] = fingerprint
    elif (
        "factors" not in state
        or state["factors_fingerprint"] != factors_ref[1]
    ):
        raise StaleWorkerStateError(
            "worker was told to reuse cached model factors it does not hold "
            "(or holds for a different model fingerprint)"
        )
    columns = kernel.scan_columns(state["factors"])
    sent_versions = state["sent_versions"]
    meta = []
    floats = []
    for subset_columns in columns:
        names = subset_columns[0]
        count = len(subset_columns[1])
        version = kernel.stats_version(names)
        if sent_versions.get(names) == version:
            meta.append(("cached", names, version, count))
        else:
            sent_versions[names] = version
            meta.append(
                (
                    "data",
                    names,
                    subset_columns[1],  # candidate_values
                    subset_columns[2],  # observed
                    subset_columns[9],  # determined
                    subset_columns[10],  # feasible_range
                    version,
                    count,
                )
            )
        floats.extend(subset_columns[3:9])
    floats = floats or [np.empty(0, dtype=np.float64)]
    if slab is None:
        block = np.concatenate(floats)
    else:
        size = sum(column.size for column in floats)
        out = read_tensor(state, slab, writable=True)[:size]
        np.concatenate(floats, out=out)
        block = None
    return meta, block, take_attach_ns(state), kernel.last_model_cells


def _adopt(state, constraint) -> None:
    kernel = _active_kernel(state)
    kernel.constraints.add_cell(constraint)
    kernel.notify_adopted(constraint.key)


def _end_order(state) -> None:
    state.pop("kernel", None)
    state.pop("sent_versions", None)


# -- master side ------------------------------------------------------------------


class ShardedScanExecutor:
    """Runs per-order candidate scans sharded across a worker pool.

    The executor mirrors the engine's use of a single
    :class:`~repro.significance.kernels.OrderScanKernel`:
    :meth:`begin_order` distributes the order's subsets,
    :meth:`scan` evaluates the whole candidate pool (lazy tests plus the
    globally most significant cell),
    :meth:`notify_adopted` keeps worker constraint copies in sync after
    each adoption, :meth:`end_order` drops worker state.

    One executor (and its pool) serves a whole discovery run — workers
    persist across orders, only their per-order kernels are rebuilt.

    Without a ``pool``, worker addresses (``worker_addresses``, else
    ``REPRO_WORKER_ADDRESSES``) mean remote daemons — one pool slot per
    entry, shards running over TCP, ``retry`` bounding connect/read
    behavior — and otherwise ``max_workers`` local processes.  The
    tensor codec follows from the pool (see
    :func:`repro.parallel.shm.open_codec`); :attr:`transport` names it
    for profiles, and ``counters`` accumulates what it moved.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        pool: WorkerPool | None = None,
        worker_addresses=None,
        retry=None,
    ):
        if pool is None:
            from repro.distributed.client import open_pool

            pool = open_pool(max_workers, worker_addresses, retry)
        self.pool = pool
        self.max_workers = pool.max_workers
        self._codec = open_codec(pool)
        self.counters = self._codec.counters
        self._active_shards = 0
        self._published_fingerprint: int | None = None
        # Strong reference on purpose: `is` against a live object is the
        # only safe identity test (an id() can be recycled after GC).
        self._last_table: ContingencyTable | None = None
        # What begin_order was last called with, kept so the whole order
        # can be replayed after a worker reports stale state.
        self._order_args: tuple | None = None
        self._slabs: list = []
        self._data_cache: list[dict] = []
        #: Component-tensor cells the last scan's shards reduced.
        self.last_model_cells = 0

    @property
    def transport(self) -> str:
        """Profile label of the medium: ``"pipe"``, ``"shm"`` or ``"tcp"``."""
        return self._codec.label

    def begin_order(
        self,
        table: ContingencyTable,
        order: int,
        constraints: ConstraintSet,
        priors=None,
    ) -> None:
        """Broadcast the order's state; shard its subsets over workers."""
        subsets = table.subsets_of_order(order)
        shards = max(1, min(self.max_workers, len(subsets)))
        bounds = shard_bounds(len(subsets), shards)
        self._active_shards = shards

        def init_args(table_ref):
            return [
                (table_ref, order, constraints, priors, tuple(subsets[a:b]))
                for a, b in bounds
            ]

        if table is self._last_table:
            table_ref = ("cached",)
        else:
            table_ref = ("table", table)
        try:
            self.pool.run(_TASK_INIT, init_args(table_ref))
        except StaleWorkerStateError:
            # A reconnected remote worker lost its cached table (and
            # model factors); re-ship both in full.
            self._published_fingerprint = None
            self.pool.run(_TASK_INIT, init_args(("table", table)))
        self._order_args = (table, order, constraints, priors)
        self._last_table = table
        # _published_fingerprint deliberately survives order boundaries:
        # when nothing was adopted at the previous order the model (and
        # its cached factors) is unchanged, so the next order's first scan
        # skips the reship too.
        self._open_slabs(table, [subsets[a:b] for a, b in bounds])

    def _open_slabs(self, table: ContingencyTable, shard_subsets) -> None:
        """Size per-shard output slabs and reset the data-column cache.

        A slab holds a shard's six float columns laid out back to back;
        the cell-count upper bound (every marginal cell of every shard
        subset — candidates can only be fewer) sizes it once per order.
        Shards below :data:`RESULT_THRESHOLD_BYTES` get no slab.
        """
        sizes = []
        for subsets in shard_subsets:
            cells = 0
            for names in subsets:
                size = 1
                for name in names:
                    size *= table.schema.attribute(name).cardinality
                cells += size
            floats = cells * 6
            sizes.append(
                floats if floats * 8 >= RESULT_THRESHOLD_BYTES else None
            )
        self._slabs = self._codec.open_slabs(sizes)
        self._data_cache = [{} for _ in shard_subsets]

    def scan(
        self, model: MaxEntModel
    ) -> tuple[LazyScanTests, CellTest | None]:
        """One whole-order scan.

        Returns ``(tests, best)``: the lazily-materialized CellTest list
        (canonical order) and the most significant cell — the same one
        :func:`~repro.significance.mml.most_significant` would pick from
        the serial scan, read from the columns without decoding the full
        results.

        A :class:`StaleWorkerStateError` from any worker — a reconnected
        connection whose pinned kernel/factors died with its predecessor —
        is recovered by replaying the whole order with full payloads and
        scanning again.  The replay rebuilds each worker kernel from the
        master's *current* constraint set, which is exactly the state an
        uninterrupted worker holds, so the retried scan stays
        bit-identical.
        """
        if self._active_shards == 0:
            raise ParallelError("no active order; call begin_order first")
        counters = self.counters
        fingerprint = model.fingerprint()
        counters.broadcasts_total += 1
        if fingerprint == self._published_fingerprint:
            counters.broadcasts_skipped += 1
            factors_ref = ("cached", fingerprint)
        else:
            factors_ref = self._ship_factors(model, fingerprint)
        try:
            replies = self._run_scan(factors_ref)
        except StaleWorkerStateError:
            self._replay_order()
            counters.broadcasts_total += 1
            replies = self._run_scan(self._ship_factors(model, fingerprint))
        self._published_fingerprint = fingerprint
        self.last_model_cells = sum(reply[3] for reply in replies)
        tests = LazyScanTests(self._decode(replies))
        return tests, tests.best()

    def _ship_factors(self, model: MaxEntModel, fingerprint: int) -> tuple:
        # Until the shards acknowledge them, no factors count as published:
        # a failed dispatch must not leave a "cached" reference behind.
        self._published_fingerprint = None
        layout, block = model.factored().pack()
        ref = self._codec.put("factors", block, self._active_shards)
        return ("factors", fingerprint, layout, ref)

    def _run_scan(self, factors_ref: tuple) -> list:
        return self.pool.run(
            _TASK_SCAN,
            [(factors_ref, slab) for slab in self._slabs],
        )

    def _replay_order(self) -> None:
        """Re-ship the active order in full after a stale-state report."""
        if self._order_args is None:
            raise ParallelError("no active order; call begin_order first")
        self._last_table = None
        self._published_fingerprint = None
        self.begin_order(*self._order_args)

    def _decode(self, replies: list) -> list:
        """Rebuild per-shard columnar results from replies and caches.

        Float columns are sliced out of the reply's block, or out of one
        private copy of the slab's used region (the slab is rewritten next
        scan; LazyScanTests may be read long after); data-side columns
        come from the reply or from the per-shard version cache.
        """
        counters = self.counters
        shard_columns = []
        for shard, (meta, block, attach_ns, _cells) in enumerate(replies):
            counters.attach_ns += attach_ns
            if block is None:
                block = self._codec.read_slab(
                    shard, 6 * sum(entry[-1] for entry in meta)
                )
            else:
                counters.bytes_pickled += block.nbytes
            cache = self._data_cache[shard]
            columns = []
            offset = 0
            for entry in meta:
                if entry[0] == "data":
                    (_kind, names, candidate_values, observed, determined,
                     feasible, version, count) = entry
                    cache[names] = (
                        version, candidate_values, observed, determined,
                        feasible,
                    )
                else:
                    _kind, names, version, count = entry
                    cached = cache.get(names)
                    if cached is None or cached[0] != version:
                        raise ParallelError(
                            f"shard {shard} referenced data columns "
                            f"{names}@{version} the master does not hold"
                        )
                    (_version, candidate_values, observed, determined,
                     feasible) = cached
                floats = []
                for _ in range(6):
                    floats.append(block[offset : offset + count])
                    offset += count
                columns.append(
                    (names, candidate_values, observed, *floats,
                     determined, feasible)
                )
            shard_columns.append(columns)
        return shard_columns

    def notify_adopted(self, constraint: CellConstraint) -> None:
        """Sync an adoption into every worker's constraint copy.

        A worker that lost its kernel is rebuilt by replaying the order:
        the engine adds ``constraint`` to the order's constraint set
        before notifying, so the replayed kernels already hold it.
        """
        if self._active_shards == 0:
            raise ParallelError("no active order; call begin_order first")
        try:
            self.pool.run(_TASK_ADOPT, [(constraint,)] * self._active_shards)
        except StaleWorkerStateError:
            self._replay_order()

    def end_order(self) -> None:
        """Drop worker-side kernels (workers stay alive for the next order).

        Safe on a dead pool: the engine calls this from a ``finally``, and
        raising here would mask the error that killed the scan.
        """
        if self._active_shards and not self.pool.closed:
            self.pool.run(_TASK_END, [()] * self._active_shards)
        self._active_shards = 0
        self._codec.release_slabs()
        self._slabs = []
        self._data_cache = []

    def close(self) -> None:
        self._active_shards = 0
        self._slabs = []
        self._data_cache = []
        self._published_fingerprint = None
        self._last_table = None
        self._order_args = None
        self._codec.close()
        self.pool.close()

    def __enter__(self) -> "ShardedScanExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ShardedScanExecutor(pool={self.pool!r})"


def scan_order_sharded(
    table: ContingencyTable,
    model: MaxEntModel,
    order: int,
    constraints: ConstraintSet,
    priors=None,
    shards: list[tuple[int, int]] | None = None,
    num_shards: int = 2,
) -> list[CellTest]:
    """One sharded whole-order scan, run in-process.

    The pure sharding algebra without a pool: split the order's subsets at
    ``shards`` bounds (default: :func:`~repro.parallel.pool.shard_bounds`
    over ``num_shards``), scan each slice with a restricted kernel, and
    concatenate.  Exists so equivalence tests can exercise arbitrary —
    including adversarially uneven — splits cheaply; the executor above
    runs the same per-shard code in worker processes.
    """
    subsets = table.subsets_of_order(order)
    if shards is None:
        shards = shard_bounds(len(subsets), num_shards)
    factors = model.factored()
    tests: list[CellTest] = []
    for start, stop in shards:
        kernel = OrderScanKernel(
            table,
            order,
            constraints,
            priors,
            subsets=tuple(subsets[start:stop]),
        )
        tests.extend(kernel.scan(factors))
    return tests
