"""The shared-memory codec: segments, handles, cleanup.

Covers the codec seam in isolation — how the codec is derived from the
platform, pool/free-list reuse, zero-copy attach views — and its hard
guarantees: no
shared-memory segment outlives its owner, whether the owner closes
cleanly, is garbage collected, dies with a worker, or exits the
interpreter without cleaning up at all.
"""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import ParallelError
from repro.maxent.model import MaxEntModel
from repro.parallel.shm import (
    SegmentAttachments,
    SharedTensorPool,
    TransportCounters,
    shm_available,
)

HAS_SHM = shm_available()
HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

needs_shm = pytest.mark.skipif(
    not HAS_SHM, reason="shared memory unavailable on this platform"
)


def shm_names() -> set:
    """Names in /dev/shm (POSIX) — the leak oracle for subprocess tests."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


def test_transport_is_derived_from_where_workers_are(monkeypatch):
    """No option picks the medium; the platform does.  Local workers get
    shm where the platform has it and pipe (the inline codec) where it
    does not; a leftover ``REPRO_PARALLEL_TRANSPORT`` changes nothing."""
    from repro.parallel import shm
    from repro.parallel.scan import ShardedScanExecutor

    monkeypatch.setenv("REPRO_PARALLEL_TRANSPORT", "pipe")

    def label(**kwargs):
        with ShardedScanExecutor(**kwargs) as executor:
            return executor.transport

    if HAS_SHM:
        assert label(max_workers=2) == "shm"
    monkeypatch.setattr(shm, "shm_available", lambda: False)
    assert label(max_workers=2) == "pipe"


@needs_shm
class TestSharedTensorPool:
    def test_publish_round_trips_exact_bytes(self):
        rng = np.random.default_rng(5)
        array = rng.random((7, 3))
        with SharedTensorPool() as pool:
            handle = pool.publish(array)
            # Views alias the attachment's mapping: the attachments
            # object must outlive them (dropping it unmaps the segment).
            attachments = SegmentAttachments()
            view = attachments.view(handle)
            assert view.dtype == np.float64
            assert not view.flags.writeable
            assert view.tobytes() == array.tobytes()
            attachments.close()

    def test_free_list_reuses_segment_per_shape(self):
        with SharedTensorPool() as pool:
            handle_a, _view = pool.acquire((4, 4), np.float64)
            pool.release(handle_a)
            handle_b, _view = pool.acquire((4, 4), np.float64)
            # Same mapped segment, new generation.
            assert handle_b.name == handle_a.name
            assert handle_b.generation > handle_a.generation
            # A different shape maps a new segment.
            handle_c, _view = pool.acquire((2, 8), np.float64)
            assert handle_c.name != handle_b.name
            assert len(pool.segment_names) == 2

    def test_close_unlinks_every_segment(self):
        pool = SharedTensorPool()
        handles = [pool.publish(np.zeros(16)) for _ in range(3)]
        pool.release(handles[0])  # free and in-use alike must go
        names = set(pool.segment_names)
        assert names <= shm_names()
        pool.close()
        assert not names & shm_names()
        assert pool.closed
        pool.close()  # idempotent

    def test_close_survives_live_views(self):
        # Close must unlink even with a caller-held view outstanding.
        # The view dangles afterwards (numpy does not pin the mapping) —
        # owners drop their views before closing, as the executors do.
        pool = SharedTensorPool()
        handle, view = pool.acquire((8,), np.float64)
        names = set(pool.segment_names)
        del view
        pool.close()
        assert not names & shm_names()

    def test_acquire_after_close_rejected(self):
        pool = SharedTensorPool()
        pool.close()
        with pytest.raises(ParallelError):
            pool.acquire((2,), np.float64)

    def test_garbage_collection_unlinks(self):
        pool = SharedTensorPool()
        pool.publish(np.ones(32))
        names = set(pool.segment_names)
        del pool
        assert not names & shm_names()

    def test_attach_to_unlinked_segment_raises_parallel_error(self):
        pool = SharedTensorPool()
        handle = pool.publish(np.ones(4))
        pool.close()
        with pytest.raises(ParallelError, match="attach"):
            SegmentAttachments().view(handle)

    def test_attachments_cache_by_name(self):
        with SharedTensorPool() as pool:
            handle = pool.publish(np.arange(6.0))
            attachments = SegmentAttachments()
            first = attachments.view(handle)
            assert attachments.take_attach_ns() > 0
            again = attachments.view(handle)
            # Second view re-uses the mapping: no new attach time.
            assert attachments.take_attach_ns() == 0
            assert np.array_equal(first, again)
            attachments.close()

    def test_writable_view_feeds_master_copy(self):
        with SharedTensorPool() as pool:
            handle, master_view = pool.acquire((5,), np.float64)
            worker = SegmentAttachments()
            slab = worker.view(handle, writable=True)
            slab[:] = [1.0, 2.0, 3.0, 4.0, 5.0]
            assert master_view.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
            worker.close()


class TestTransportCounters:
    def test_delta_subtracts_snapshot(self):
        counters = TransportCounters()
        counters.bytes_shared += 100
        snapshot = counters.snapshot()
        counters.bytes_shared += 50
        counters.broadcasts_total += 2
        counters.broadcasts_skipped += 1
        delta = counters.delta(snapshot)
        assert delta.bytes_shared == 50
        assert delta.broadcasts_total == 2
        assert delta.broadcasts_skipped == 1
        assert delta.bytes_pickled == 0

    def test_to_dict_is_json_ready(self):
        data = TransportCounters(bytes_pickled=3, attach_ns=9).to_dict()
        assert data["bytes_pickled"] == 3
        assert data["attach_ns"] == 9
        assert set(data) == {
            "bytes_pickled",
            "bytes_shared",
            "broadcasts_total",
            "broadcasts_skipped",
            "attach_ns",
        }


@needs_shm
class TestCleanupGuarantees:
    """No leaked segments: worker death, GC, and interpreter shutdown."""

    def _run_child(self, code: str) -> subprocess.CompletedProcess:
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        return subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )

    def test_interpreter_exit_without_close_leaks_nothing(self):
        # The atexit hook (and failing that, the resource tracker) must
        # reap segments a sloppy caller never released.
        before = shm_names()
        result = self._run_child(
            "import numpy as np\n"
            "from repro.parallel.shm import SharedTensorPool\n"
            "pool = SharedTensorPool()\n"
            "handle = pool.publish(np.ones((64, 64)))\n"
            "print(handle.name)\n"
        )
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        leaked = shm_names() - before
        assert not leaked

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_worker_death_leaks_no_segments(self):
        # Workers only attach; the master owns every segment, so killing
        # the whole pool mid-order must leave /dev/shm clean after close.
        from repro.parallel.pool import WorkerPool
        from repro.parallel.scan import ShardedScanExecutor
        from repro.eval.paper import paper_table
        from repro.maxent.constraints import ConstraintSet

        table = paper_table()
        constraints = ConstraintSet.first_order(table)
        model = MaxEntModel.independent(
            table.schema,
            {
                name: table.first_order_probabilities(name)
                for name in table.schema.names
            },
        )
        before = shm_names()
        executor = ShardedScanExecutor(pool=WorkerPool(2))
        executor.begin_order(table, 2, constraints, None)
        executor.scan(model)
        with pytest.raises(ParallelError):
            executor.pool.run("_tasks:die", [(), ()])
        executor.end_order()  # safe on the dead pool
        executor.close()
        assert not shm_names() - before

    def test_executor_close_releases_all_segments(self, monkeypatch):
        from repro.parallel import scan as scan_module
        from repro.parallel.pool import WorkerPool
        from repro.parallel.scan import ShardedScanExecutor
        from repro.eval.paper import paper_table
        from repro.maxent.constraints import ConstraintSet

        table = paper_table()
        constraints = ConstraintSet.first_order(table)
        model = MaxEntModel.independent(
            table.schema,
            {
                name: table.first_order_probabilities(name)
                for name in table.schema.names
            },
        )
        before = shm_names()
        # Force slabs even at toy size.
        monkeypatch.setattr(scan_module, "RESULT_THRESHOLD_BYTES", 0)
        with ShardedScanExecutor(
            pool=WorkerPool(2, inline=True)
        ) as executor:
            executor.begin_order(table, 2, constraints, None)
            executor.scan(model)
            executor.end_order()
            assert shm_names() - before  # segments live mid-run
        assert not shm_names() - before
