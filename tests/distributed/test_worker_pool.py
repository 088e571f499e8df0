"""TcpWorkerPool against an in-process WorkerServer: the WorkerPool
contract (pinned dispatch, state persistence, failure surfacing) over
real sockets, plus the retry/timeout surface shared with the inline
pool.
"""

import socket
import threading
import time

import pytest

from repro.distributed import (
    DEFAULT_RETRY,
    RetryPolicy,
    TcpWorkerPool,
    WorkerServer,
)
from repro.exceptions import (
    DataError,
    ParallelError,
    StaleWorkerStateError,
)
from repro.parallel.pool import WorkerPool

ECHO = "_tcp_tasks:echo"
PUT = "_tcp_tasks:put"
GET = "_tcp_tasks:get"
DATA_ERROR = "_tcp_tasks:raise_data_error"
STALE = "_tcp_tasks:raise_stale"
SLEEP = "_tcp_tasks:sleep_for"
FLAKY = "_tcp_tasks:flaky"

#: Fast-failing policy for the error-path tests.
QUICK = RetryPolicy(
    connect_timeout=0.25, read_timeout=5.0, attempts=2, backoff=0.01
)


@pytest.fixture
def server():
    with WorkerServer() as worker_server:
        yield worker_server


@pytest.fixture
def pool(server):
    with TcpWorkerPool([server.address_text] * 4, retry=QUICK) as tcp_pool:
        yield tcp_pool


def unused_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestDispatch:
    def test_echo_round_trip(self, pool):
        assert pool.run(ECHO, [(1,), (2,), (3,), (4,)]) == [1, 2, 3, 4]

    def test_broadcast_hits_every_worker(self, pool):
        assert pool.broadcast(ECHO, "hi") == ["hi"] * 4

    def test_pinned_state_is_per_slot_even_on_one_daemon(self, pool):
        """Four connections to one daemon are four independent pinned
        workers: slot-private state, exactly like four processes."""
        pool.run(PUT, [("k", index) for index in range(4)])
        assert pool.run(GET, [("k",)] * 4) == [0, 1, 2, 3]

    def test_state_persists_across_runs(self, pool):
        pool.run(PUT, [("key", "value")])
        assert pool.run(GET, [("key",)]) == ["value"]

    def test_fewer_shards_than_workers(self, pool):
        assert pool.run(ECHO, [(9,)]) == [9]

    def test_too_many_shards_raises(self, pool):
        with pytest.raises(ParallelError, match="shard count"):
            pool.run(ECHO, [(0,)] * 5)


class TestFailures:
    def test_library_errors_re_raise_as_themselves(self, pool):
        with pytest.raises(DataError, match="bad shard"):
            pool.run(DATA_ERROR, [("bad shard",)] * 4)
        # An error reply is not a transport failure: the pool survives.
        assert not pool.closed
        assert pool.run(ECHO, [(1,)]) == [1]

    def test_stale_state_error_crosses_the_wire_as_itself(self, pool):
        """StaleWorkerStateError is the recovery signal the executors
        catch — it must arrive as its own type, not ParallelError."""
        with pytest.raises(StaleWorkerStateError):
            pool.broadcast(STALE)
        assert not pool.closed

    def test_connect_failure_raises_after_bounded_attempts(self):
        address = f"127.0.0.1:{unused_port()}"
        pool = TcpWorkerPool([address], retry=QUICK)
        with pytest.raises(ParallelError, match="could not connect"):
            pool.run(ECHO, [(1,)])

    def test_read_timeout_surfaces_as_parallel_error(self, server):
        slow = RetryPolicy(
            connect_timeout=0.25, read_timeout=0.2, attempts=1
        )
        with TcpWorkerPool([server.address_text], retry=slow) as pool:
            with pytest.raises(ParallelError, match="died"):
                pool.run(SLEEP, [(1.0,)])
            assert pool.closed

    def test_server_death_mid_conversation_closes_the_pool(self, server):
        pool = TcpWorkerPool([server.address_text] * 2, retry=QUICK)
        assert pool.run(ECHO, [(1,), (2,)]) == [1, 2]
        server.close()
        with pytest.raises(ParallelError, match="died|dispatch"):
            pool.run(ECHO, [(1,), (2,)])
        assert pool.closed

    def test_run_after_close_raises(self, pool):
        pool.close()
        with pytest.raises(ParallelError, match="closed"):
            pool.run(ECHO, [(1,)])


class TestReconnect:
    def test_reconnect_drops_pinned_state(self, pool):
        pool.run(PUT, [("key", "value")] * 4)
        pool.reconnect()
        # Fresh connections get fresh private state dicts server-side.
        assert pool.run(GET, [("key",)] * 4) == [None] * 4

    def test_reconnect_on_closed_pool_raises(self, pool):
        pool.close()
        with pytest.raises(ParallelError, match="closed"):
            pool.reconnect()


class TestCounters:
    def test_wire_bytes_and_round_trips_are_counted(self, pool):
        before = pool.counters.to_dict()
        pool.run(ECHO, [("payload",)] * 4)
        pool.broadcast(ECHO, "again")
        after = pool.counters.to_dict()
        assert after["round_trips"] - before["round_trips"] == 2
        # Every run moves at least 8 frames (4 calls + 4 replies).
        assert after["bytes_wire"] - before["bytes_wire"] > 0


class TestLeaks:
    def test_close_leaves_no_server_threads_or_connections(self, server):
        pool = TcpWorkerPool([server.address_text] * 3)
        pool.run(ECHO, [(1,)] * 3)
        pool.close()
        server.close()
        lingering = [
            thread.name
            for thread in threading.enumerate()
            if thread.is_alive()
            and thread.name.startswith("repro-worker")
        ]
        assert lingering == []
        assert server._connections == []

    def test_finished_connections_leave_no_tracked_handlers(self, server):
        """A long-lived daemon tracks only live connections: 50
        connect/close cycles leave at most one handler thread behind."""
        for index in range(50):
            with TcpWorkerPool([server.address_text]) as pool:
                assert pool.run(ECHO, [(index,)]) == [index]
        deadline = time.monotonic() + 5.0
        while len(server._handlers) > 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(server._handlers) <= 1


class TestRetryPolicy:
    def test_transient_errors_are_retried(self):
        attempts = []

        def action():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("blip")
            return "done"

        policy = RetryPolicy(attempts=3, backoff=0.0)
        assert policy.call(action) == "done"
        assert len(attempts) == 3

    def test_attempts_exhausted_re_raises_the_last_error(self):
        policy = RetryPolicy(attempts=2, backoff=0.0)
        with pytest.raises(OSError, match="always"):
            policy.call(lambda: (_ for _ in ()).throw(OSError("always")))

    def test_library_errors_never_retry(self):
        attempts = []

        def action():
            attempts.append(1)
            raise DataError("not transient")

        policy = RetryPolicy(attempts=3, backoff=0.0)
        with pytest.raises(DataError):
            policy.call(action)
        assert len(attempts) == 1

    def test_validation(self):
        with pytest.raises(ParallelError):
            RetryPolicy(attempts=0)
        with pytest.raises(ParallelError):
            RetryPolicy(connect_timeout=0)
        with pytest.raises(ParallelError):
            RetryPolicy(backoff=-1)

    def test_backoff_doubles_between_attempts(self, monkeypatch):
        import repro.distributed.retry as retry_module

        sleeps = []
        monkeypatch.setattr(
            retry_module.time, "sleep", lambda s: sleeps.append(s)
        )
        policy = RetryPolicy(attempts=3, backoff=0.1)
        with pytest.raises(OSError):
            policy.call(lambda: (_ for _ in ()).throw(OSError("x")))
        assert sleeps == [0.1, 0.2]


class TestInlineParity:
    """Satellite fix: the inline WorkerPool fallback honors the same
    retry/timeout surface as the remote transports — one code path for
    the error-path tests."""

    def test_inline_pool_retries_transient_errors(self):
        pool = WorkerPool(
            max_workers=1, retry=RetryPolicy(attempts=3, backoff=0.0)
        )
        assert pool.run(FLAKY, [(3,)]) == [3]  # two OSErrors, then ok

    def test_inline_pool_exhausts_attempts_then_wraps(self):
        pool = WorkerPool(
            max_workers=1, retry=RetryPolicy(attempts=2, backoff=0.0)
        )
        with pytest.raises(ParallelError, match="OSError"):
            pool.run(FLAKY, [(5,)])  # needs 5 attempts, gets 2

    def test_inline_stale_state_error_matches_remote_behavior(
        self, server
    ):
        inline = WorkerPool(max_workers=1)
        with pytest.raises(StaleWorkerStateError):
            inline.run(STALE, [()])
        with TcpWorkerPool([server.address_text]) as remote:
            with pytest.raises(StaleWorkerStateError):
                remote.run(STALE, [()])

    def test_inline_pool_uses_the_shared_default_policy(self):
        assert WorkerPool(max_workers=1).retry is DEFAULT_RETRY

    def test_process_pool_read_timeout_raises(self):
        """The process transport honors read_timeout too: a hung worker
        raises instead of blocking the master forever."""
        import multiprocessing

        if not multiprocessing.get_all_start_methods():
            pytest.skip("no multiprocessing start method available")
        pool = WorkerPool(
            max_workers=1,
            inline=False,
            retry=RetryPolicy(attempts=1, read_timeout=0.2),
        )
        try:
            with pytest.raises(ParallelError, match="did not reply"):
                pool.run(SLEEP, [(2.0,)])
            assert pool.closed
        finally:
            pool.close()


class TestServerLifecycle:
    def test_close_is_idempotent(self, server):
        server.close()
        server.close()

    def test_address_requires_start(self):
        with pytest.raises(RuntimeError):
            WorkerServer().address  # noqa: B018 - the property raises

    def test_serve_forever_unblocks_on_close(self, server):
        waiter = threading.Thread(target=server.serve_forever)
        waiter.start()
        time.sleep(0.05)
        assert waiter.is_alive()
        server.close()
        waiter.join(timeout=2.0)
        assert not waiter.is_alive()
