"""MicroBatcher contract: adaptive dispatch, cutoffs, and error isolation.

A submission that finds nothing in flight is dispatched at once; the
ones that arrive while a flush runs wait in a backlog that goes out,
whole, when that flush settles.  Only a backlog that reaches
``max_batch`` is flushed beside a running flush.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DataError
from repro.serve.batcher import MicroBatcher


def run(coro):
    return asyncio.run(coro)


async def spin(steps: int = 10) -> None:
    """Let the loop run ``steps`` rounds of ready callbacks, no timers."""
    for _ in range(steps):
        await asyncio.sleep(0)


class Recorder:
    """An echo runner that records every flushed batch."""

    def __init__(self):
        self.batches: list[list] = []

    async def __call__(self, queries):
        self.batches.append(list(queries))
        return [f"result:{query}" for query in queries]


class Gated:
    """A runner whose every flush waits until the test settles it.

    ``settle(index, outcome)`` ends flush ``index``: ``"ok"`` echoes
    each query (an ``Exception`` entry for queries in ``bad``),
    ``"raise"`` raises, ``"short"`` returns one result too few and
    ``"cancel"`` cancels the flush's await.
    """

    def __init__(self, max_batch: int = 64, bad=frozenset()):
        self.max_batch = max_batch
        self.bad = bad
        self.batches: list[list] = []
        self.gates: list[asyncio.Future] = []
        # Flushes that started while another was running with fewer
        # than max_batch queries: the batcher must never allow one.
        self.violations: list[list] = []

    async def __call__(self, queries):
        queries = list(queries)
        if self.open() and len(queries) != self.max_batch:
            self.violations.append(queries)
        gate = asyncio.get_running_loop().create_future()
        self.batches.append(queries)
        self.gates.append(gate)
        outcome = await gate
        if outcome == "raise":
            raise RuntimeError("pool died")
        if outcome == "short":
            return [f"result:{query}" for query in queries[:-1]]
        return [
            ValueError(f"bad:{query}")
            if query in self.bad
            else f"result:{query}"
            for query in queries
        ]

    def open(self) -> list[int]:
        return [i for i, gate in enumerate(self.gates) if not gate.done()]

    def settle(self, index: int, outcome: str = "ok") -> None:
        if outcome == "cancel":
            self.gates[index].cancel()
        else:
            self.gates[index].set_result(outcome)


class TestCoalescing:
    def test_lone_submission_dispatches_without_a_timer(self):
        """An idle batcher sends a submission on at once: the runner is
        reached after a few loop rounds, and no timer is ever armed."""
        runner = Recorder()

        async def scenario():
            loop = asyncio.get_running_loop()

            def no_timers(*args, **kwargs):
                raise AssertionError("the batcher armed a timer")

            loop.call_at = no_timers  # call_later goes through call_at
            batcher = MicroBatcher(runner)
            first = asyncio.ensure_future(batcher.submit("a"))
            await spin(3)
            assert first.done()
            second = await batcher.submit("b")
            return first.result(), second, batcher.stats

        first, second, stats = run(scenario())
        assert (first, second) == ("result:a", "result:b")
        assert runner.batches == [["a"], ["b"]]
        assert stats.flushes == 2
        assert stats.coalesced_flushes == 0

    def test_zero_interval_dispatches_each_submission_alone(self):
        """The batcher waits zero time for company: submissions that
        arrive one after another each go out in a flush of their own."""
        runner = Recorder()

        async def scenario():
            batcher = MicroBatcher(runner)
            await batcher.submit("a")
            await batcher.submit("b")
            return batcher.stats

        stats = run(scenario())
        assert runner.batches == [["a"], ["b"]]
        assert stats.flushes == 2
        assert stats.coalesced_flushes == 0

    def test_submissions_during_a_slow_flush_go_out_together(self):
        runner = Gated()

        async def scenario():
            batcher = MicroBatcher(runner)
            first = asyncio.ensure_future(batcher.submit("a"))
            await spin()
            rest = [
                asyncio.ensure_future(batcher.submit(query))
                for query in ("b", "c", "d")
            ]
            await spin()
            assert runner.batches == [["a"]]  # b, c, d wait
            assert batcher.pending == 3
            runner.settle(0)
            await spin()
            assert runner.batches == [["a"], ["b", "c", "d"]]
            runner.settle(1)
            return await asyncio.gather(first, *rest), batcher.stats

        results, stats = run(scenario())
        assert results == ["result:a", "result:b", "result:c", "result:d"]
        assert stats.coalesced_flushes == 1

    def test_backlog_never_exceeds_max_batch_per_flush(self):
        runner = Gated(max_batch=2)

        async def scenario():
            batcher = MicroBatcher(runner, max_batch=2)
            tasks = [
                asyncio.ensure_future(batcher.submit(index))
                for index in range(8)
            ]
            await spin()
            # 0 goes alone; the backlog flushes each time it reaches 2,
            # beside the running flush; 7 waits for the flushes to end.
            assert runner.batches == [[0], [1, 2], [3, 4], [5, 6]]
            assert batcher.pending == 1
            for index in range(4):
                runner.settle(index)
            await spin()
            assert runner.batches[4:] == [[7]]
            runner.settle(4)
            return await asyncio.gather(*tasks)

        assert run(scenario()) == [f"result:{index}" for index in range(8)]
        assert runner.violations == []

    def test_stats_track_mean_and_max_batch(self):
        runner = Recorder()

        async def scenario():
            batcher = MicroBatcher(runner)
            # 0 is dispatched alone; 1-3 queue behind it.
            await asyncio.gather(*(batcher.submit(i) for i in range(4)))
            await batcher.submit("solo")
            return batcher.stats.to_dict()

        stats = run(scenario())
        assert runner.batches == [[0], [1, 2, 3], ["solo"]]
        assert stats["submitted"] == 5
        assert stats["flushes"] == 3
        assert stats["coalesced_flushes"] == 1
        assert stats["max_batch"] == 3
        assert stats["mean_batch"] == pytest.approx(5 / 3)
        assert stats["errors"] == 0


class TestErrorIsolation:
    def test_exception_entry_fails_only_its_own_future(self):
        async def runner(queries):
            return [
                ValueError(f"bad:{query}") if query == "bad" else query
                for query in queries
            ]

        async def scenario():
            batcher = MicroBatcher(runner)
            good, bad, also_good = await asyncio.gather(
                batcher.submit("a"),
                batcher.submit("bad"),
                batcher.submit("c"),
                return_exceptions=True,
            )
            return good, bad, also_good, batcher.stats

        good, bad, also_good, stats = run(scenario())
        assert good == "a"
        assert also_good == "c"
        assert isinstance(bad, ValueError)
        assert stats.errors == 1

    def test_runner_crash_fails_the_whole_flush(self):
        async def runner(queries):
            raise RuntimeError("pool died")

        async def scenario():
            batcher = MicroBatcher(runner)
            return await asyncio.gather(
                batcher.submit("a"),
                batcher.submit("b"),
                return_exceptions=True,
            )

        results = run(scenario())
        assert all(isinstance(result, RuntimeError) for result in results)

    def test_wrong_result_count_fails_the_flush(self):
        async def runner(queries):
            return [*queries, "one-too-many"]

        async def scenario():
            batcher = MicroBatcher(runner)
            return await asyncio.gather(
                batcher.submit("a"),
                batcher.submit("b"),
                return_exceptions=True,
            )

        results = run(scenario())
        assert all(isinstance(result, DataError) for result in results)

    @pytest.mark.parametrize(
        "outcome, error",
        [
            ("raise", RuntimeError),
            ("short", DataError),
            ("cancel", DataError),
        ],
    )
    def test_failed_flush_releases_the_in_flight_slot(self, outcome, error):
        """However a flush fails, its backlog is dispatched next and a
        later submission still gets an answer: nothing wedges."""
        runner = Gated()

        async def scenario():
            batcher = MicroBatcher(runner)
            doomed = asyncio.ensure_future(batcher.submit("a"))
            await spin()
            queued = asyncio.ensure_future(batcher.submit("b"))
            await spin()
            runner.settle(0, outcome)
            await spin()
            assert runner.batches == [["a"], ["b"]]
            runner.settle(1)
            answers = await asyncio.gather(
                doomed, queued, return_exceptions=True
            )
            late = asyncio.ensure_future(batcher.submit("c"))
            await spin()
            runner.settle(2)
            return answers, await late, batcher

        (failed, answered), late, batcher = run(scenario())
        assert isinstance(failed, error)
        assert answered == "result:b"
        assert late == "result:c"
        assert batcher.stats.errors == 1
        assert batcher.pending == 0


class TestLifecycle:
    def test_closed_batcher_rejects_submissions(self):
        async def scenario():
            batcher = MicroBatcher(Recorder())
            batcher.close()
            with pytest.raises(DataError, match="closed"):
                await batcher.submit("late")

        run(scenario())

    def test_drain_flushes_pending_submissions(self):
        """drain() waits for the flush in flight and for the backlog
        queued behind it."""
        runner = Gated()

        async def scenario():
            batcher = MicroBatcher(runner)
            running = asyncio.ensure_future(batcher.submit("running"))
            await spin()
            parked = asyncio.ensure_future(batcher.submit("parked"))
            await spin()
            assert batcher.pending == 1
            drained = asyncio.ensure_future(batcher.drain())
            await spin()
            runner.settle(0)
            await spin()
            assert not drained.done()  # the backlog is now in flight
            runner.settle(1)
            await drained
            assert running.done() and parked.done()
            return running.result(), parked.result()

        assert run(scenario()) == ("result:running", "result:parked")
        assert runner.batches == [["running"], ["parked"]]

    def test_invalid_knobs_raise(self):
        with pytest.raises(DataError, match="max_batch"):
            MicroBatcher(Recorder(), max_batch=0)


# -- random interleavings -----------------------------------------------------

OUTCOMES = ("ok", "ok", "raise", "short", "cancel")

steps = st.one_of(
    st.tuples(st.just("submit"), st.integers(0, 3)),
    st.tuples(
        st.just("settle"),
        st.integers(0, 7),
        st.sampled_from(OUTCOMES),
        st.integers(0, 6),
    ),
)


@given(
    max_batch=st.integers(1, 4),
    script=st.lists(steps, max_size=40),
)
@settings(max_examples=400, deadline=None)
def test_random_interleavings_answer_every_query_in_fifo_order(
    max_batch, script
):
    """Random arrivals and flush completions (including failed ones):
    every future gets its own query's answer, flushes carry the queries
    in submission order, none carries more than ``max_batch``, and a
    flush starts beside a running one only with a full backlog."""
    bad = {query for query in range(len(script)) if query % 5 == 4}
    runner = Gated(max_batch=max_batch, bad=bad)

    async def scenario():
        batcher = MicroBatcher(runner, max_batch=max_batch)
        tasks = []
        for step in script:
            if step[0] == "submit":
                query = len(tasks)
                tasks.append(asyncio.ensure_future(batcher.submit(query)))
                await spin(step[1])
            else:
                _, pick, outcome, rounds = step
                open_flushes = runner.open()
                if open_flushes:
                    index = open_flushes[pick % len(open_flushes)]
                    runner.settle(index, outcome)
                await spin(rounds)
        for _ in range(10 * len(script) + 10):
            open_flushes = runner.open()
            if not open_flushes and all(task.done() for task in tasks):
                break
            if open_flushes:
                runner.settle(open_flushes[0])
            await spin()
        assert all(task.done() for task in tasks), "the batcher wedged"
        assert batcher.pending == 0
        return [task.exception() or task.result() for task in tasks]

    answers = run(scenario())
    assert runner.violations == []
    assert all(len(batch) <= max_batch for batch in runner.batches)
    dispatched = [query for batch in runner.batches for query in batch]
    assert dispatched == list(range(len(answers)))  # FIFO, each once
    for batch, gate in zip(runner.batches, runner.gates):
        outcome = "cancel" if gate.cancelled() else gate.result()
        for query in batch:
            answer = answers[query]
            if outcome == "raise":
                assert isinstance(answer, RuntimeError)
            elif outcome in ("short", "cancel"):
                assert isinstance(answer, DataError)
            elif query in bad:
                assert isinstance(answer, ValueError)
                assert str(answer) == f"bad:{query}"
            else:
                assert answer == f"result:{query}"
