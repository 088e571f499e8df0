"""WorkerPool: pinned dispatch, state persistence, failure surfacing."""

import multiprocessing

import pytest

from repro.exceptions import (
    DataError,
    ParallelError,
    ReproError,
    StaleWorkerStateError,
)
from repro.parallel import pool as pool_module
from repro.parallel.pool import WorkerPool, resolve_task, shard_bounds

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

ECHO = "_tasks:echo"
PUT = "_tasks:put"
GET = "_tasks:get"
DATA_ERROR = "_tasks:raise_data_error"
VALUE_ERROR = "_tasks:raise_value_error"
STALE = "_tasks:raise_stale"
SLEEP = "_tasks:sleep_for"
DIE = "_tasks:die"


class TestShardBounds:
    def test_even_split(self):
        assert shard_bounds(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_uneven_split_front_loads_remainder(self):
        assert shard_bounds(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_more_shards_than_items(self):
        bounds = shard_bounds(2, 4)
        assert bounds == [(0, 1), (1, 2), (2, 2), (2, 2)]

    def test_zero_items(self):
        assert shard_bounds(0, 3) == [(0, 0), (0, 0), (0, 0)]

    def test_covers_everything_contiguously(self):
        for n_items in range(0, 23):
            for n_shards in range(1, 7):
                bounds = shard_bounds(n_items, n_shards)
                assert bounds[0][0] == 0
                assert bounds[-1][1] == n_items
                for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                    assert stop == start

    def test_rejects_bad_counts(self):
        with pytest.raises(ParallelError):
            shard_bounds(3, 0)
        with pytest.raises(ParallelError):
            shard_bounds(-1, 2)


class TestResolveTask:
    def test_resolves_module_functions(self):
        func = resolve_task("_tasks:echo")
        assert func({}, 7) == 7

    @pytest.mark.parametrize(
        "address",
        [
            "no_colon",
            ":func",
            "mod:",
            "no.such.module:fn",
            "_tasks:no_such_function",
        ],
    )
    def test_rejects_bad_addresses(self, address):
        with pytest.raises(ParallelError):
            resolve_task(address)


class TestInlinePool:
    def test_results_in_shard_order(self):
        with WorkerPool(3, inline=True) as pool:
            assert pool.run(ECHO, [(1,), (2,), (3,)]) == [1, 2, 3]

    def test_state_is_per_worker_slot(self):
        with WorkerPool(2, inline=True) as pool:
            pool.run(PUT, [("k", "worker0"), ("k", "worker1")])
            assert pool.run(GET, [("k",), ("k",)]) == ["worker0", "worker1"]

    def test_max_workers_one_defaults_to_inline(self):
        pool = WorkerPool(1)
        assert pool.inline
        assert pool.run(ECHO, [("x",)]) == ["x"]
        pool.close()

    def test_too_many_shards_rejected(self):
        with WorkerPool(2, inline=True) as pool:
            with pytest.raises(ParallelError):
                pool.run(ECHO, [(1,), (2,), (3,)])

    def test_closed_pool_rejected(self):
        pool = WorkerPool(2, inline=True)
        pool.close()
        with pytest.raises(ParallelError):
            pool.run(ECHO, [(1,)])

    def test_rejects_nonpositive_worker_count(self):
        with pytest.raises(ParallelError):
            WorkerPool(0)

    def test_library_errors_reraised_as_themselves(self):
        # Same failure contract as the process pool.
        with WorkerPool(2, inline=True) as pool:
            with pytest.raises(DataError, match="boom"):
                pool.run(DATA_ERROR, [("boom",), ("boom",)])
            assert pool.run(ECHO, [(1,), (2,)]) == [1, 2]

    def test_foreign_errors_wrapped_in_parallel_error(self):
        with WorkerPool(2, inline=True) as pool:
            with pytest.raises(ParallelError, match="ValueError"):
                pool.run(VALUE_ERROR, [("nope",), ("nope",)])

    def test_stale_state_error_reraised_as_itself(self):
        # A ParallelError subclass keeps its type, as on the process
        # path, so the sharded scan's order replay sees it.
        with WorkerPool(1) as pool:
            with pytest.raises(StaleWorkerStateError):
                pool.run(STALE, [()])

    def test_all_shards_run_before_an_error_is_raised(self):
        # Mirrors the process path, which collects every reply first:
        # shard 1 fails but shards 0 and 2 still execute.
        with WorkerPool(3, inline=True) as pool:
            with pytest.raises(ParallelError):
                pool.run(
                    "_tasks:put_or_die",
                    [("k", "w0"), (None, None), ("k", "w2")],
                )
            assert pool.run(GET, [("k",), ("k",), ("k",)]) == [
                "w0",
                None,
                "w2",
            ]


@pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
class TestProcessPool:
    def test_results_in_shard_order(self):
        with WorkerPool(3) as pool:
            assert not pool.inline
            assert pool.run(ECHO, [(1,), (2,), (3,)]) == [1, 2, 3]

    def test_state_pinned_to_workers_across_calls(self):
        with WorkerPool(2) as pool:
            pool.run(PUT, [("k", "w0"), ("k", "w1")])
            # Pinned dispatch: the same worker serves the same shard slot,
            # so per-worker caches survive across run() calls.
            assert pool.run(GET, [("k",), ("k",)]) == ["w0", "w1"]

    def test_broadcast_hits_every_worker(self):
        with WorkerPool(2) as pool:
            pool.broadcast(PUT, "k", "same")
            assert pool.run(GET, [("k",), ("k",)]) == ["same", "same"]

    def test_library_errors_reraised_as_themselves(self):
        with WorkerPool(2) as pool:
            with pytest.raises(DataError, match="boom"):
                pool.run(DATA_ERROR, [("boom",), ("boom",)])
            # The pool survives a task exception.
            assert pool.run(ECHO, [(1,), (2,)]) == [1, 2]

    def test_foreign_errors_wrapped_in_parallel_error(self):
        with WorkerPool(1, inline=False) as pool:
            with pytest.raises(ParallelError, match="ValueError"):
                pool.run(VALUE_ERROR, [("nope",)])

    def test_stale_state_error_reraised_as_itself(self):
        with WorkerPool(1, inline=False) as pool:
            with pytest.raises(StaleWorkerStateError):
                pool.run(STALE, [()])

    def test_read_timeout_raises(self, monkeypatch):
        """A hung worker raises instead of blocking the master forever,
        and the pool closes behind it."""
        monkeypatch.setattr(pool_module, "REPLY_TIMEOUT", 0.2)
        pool = WorkerPool(1, inline=False)
        try:
            with pytest.raises(ParallelError, match="did not reply"):
                pool.run(SLEEP, [(2.0,)])
            assert pool.closed
        finally:
            pool.close()

    def test_dead_worker_surfaces_as_repro_error(self):
        with WorkerPool(2) as pool:
            with pytest.raises(ParallelError, match="died"):
                pool.run(DIE, [(), ()])
            assert isinstance(ParallelError("x"), ReproError)
            # A dead worker poisons the pool; it reports closed afterwards.
            with pytest.raises(ParallelError):
                pool.run(ECHO, [(1,)])

    def test_close_is_idempotent(self):
        pool = WorkerPool(2)
        pool.run(ECHO, [(1,), (2,)])
        pool.close()
        pool.close()

    def test_spawn_start_method_round_trips(self):
        # Spawn-safety: the child re-imports task modules by dotted name
        # (multiprocessing ships the parent's sys.path to spawned
        # children, so the same addresses resolve).
        with WorkerPool(2, start_method="spawn") as pool:
            assert pool.broadcast(ECHO, 5) == [5, 5]
            pool.run(PUT, [("k", "w0"), ("k", "w1")])
            assert pool.run(GET, [("k",), ("k",)]) == ["w0", "w1"]


class TestInterpreterShutdown:
    """Abandoned pools must die quietly when the interpreter exits.

    ``WorkerPool.__del__`` (and the module atexit hook backing it) runs
    during shutdown, when module globals other finalizers rely on may
    already be None — the regression these subprocess tests pin is an
    ignored-exception traceback on stderr from exactly that window.
    """

    def _exit_cleanly(self, code: str) -> None:
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[2] / "src")
        tests = str(Path(__file__).resolve().parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr, result.stderr
        assert "Exception ignored" not in result.stderr, result.stderr

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_running_pool_abandoned_at_exit(self):
        self._exit_cleanly(
            "from repro.parallel.pool import WorkerPool\n"
            "pool = WorkerPool(2)\n"  # module global: None'd at shutdown
            "assert pool.run('_tasks:echo', [(1,), (2,)]) == [1, 2]\n"
        )

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_pool_held_only_by_cycle_at_exit(self):
        # A pool kept alive by a reference cycle is torn down by the
        # shutdown GC pass, the worst-cased timing for __del__.
        self._exit_cleanly(
            "from repro.parallel.pool import WorkerPool\n"
            "pool = WorkerPool(2)\n"
            "pool.run('_tasks:put', [('k', 1), ('k', 2)])\n"
            "cycle = {'pool': pool}\n"
            "cycle['self'] = cycle\n"
            "del pool, cycle\n"
        )

    def test_inline_pool_abandoned_at_exit(self):
        self._exit_cleanly(
            "from repro.parallel.pool import WorkerPool\n"
            "pool = WorkerPool(3, inline=True)\n"
            "pool.run('_tasks:echo', [(1,), (2,), (3,)])\n"
        )
