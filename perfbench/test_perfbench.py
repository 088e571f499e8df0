"""Tests of the benchmark's own helpers (run with ``python -m pytest perfbench``)."""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

import pytest

from perfbench import measure, run, spans


# -- the percentile rule -------------------------------------------------------


def test_tail_reports_p99_only_with_ten_samples_beyond():
    values = list(range(1, 1001))
    assert measure.tail(values) == (0.99, 990, 1000)
    q, value, count = measure.tail(values[:999])
    assert (q, count) == (0.9, 999)
    assert measure.beyond(999, 0.99) == 9


def test_tail_falls_back_to_p90_and_then_the_median():
    assert measure.tail(range(100)) == (0.9, 89, 100)
    assert measure.tail(range(99))[0] == 0.5
    q, value, count = measure.tail([5.0, 1.0, 3.0])
    assert (q, value, count) == (0.5, 3.0, 3)


def test_tail_ignores_input_order():
    values = [float(v) for v in range(2000)]
    assert measure.tail(values[::-1]) == measure.tail(values)


# -- open-loop lateness accounting ---------------------------------------------


def test_open_loop_latency_runs_from_the_due_time():
    loop = measure.OpenLoop(rate=10.0, start=100.0)
    assert loop.due(3) == pytest.approx(100.3)
    loop.record(0, sent=100.0, done=100.05, ok=True)
    # Sent 50 ms late behind a stall: the wait counts as latency, and the
    # generator's lateness is kept apart.
    loop.record(1, sent=100.15, done=100.2, ok=True)
    assert loop.latencies == pytest.approx([0.05, 0.1])
    assert loop.lateness == pytest.approx([0.0, 0.05])


def test_open_loop_early_send_is_not_negative_lateness():
    loop = measure.OpenLoop(rate=2.0, start=0.0)
    loop.record(1, sent=0.4, done=0.6, ok=True)
    assert loop.lateness == [0.0]
    assert loop.latencies == pytest.approx([0.1])


def test_failed_request_misses_every_latency_limit():
    loop = measure.OpenLoop(rate=100.0, start=0.0)
    loop.record(0, sent=0.0, done=0.001, ok=False)
    assert loop.failed == 1
    assert loop.attempted == 1
    assert loop.latencies == [measure.FAILED_LATENCY_S]


def test_open_loop_rejects_a_non_positive_rate():
    with pytest.raises(ValueError):
        measure.OpenLoop(rate=0.0, start=0.0)


# -- calibration normalisation -------------------------------------------------


def test_normalise_restates_a_timing_at_reference_speed():
    ref = measure.CALIB_REF_S
    assert measure.normalise(2.0, ref) == pytest.approx(2.0)
    # A host running at half speed doubles both the timing and the
    # calibration; the normalised value does not move.
    assert measure.normalise(4.0, 2 * ref) == pytest.approx(2.0)
    assert measure.normalise(1.0, 0.5, ref_s=0.25) == pytest.approx(0.5)


def test_normalise_rejects_a_non_positive_calibration():
    with pytest.raises(ValueError):
        measure.normalise(1.0, 0.0)


def test_calibrate_returns_a_positive_duration():
    assert 0.0 < measure.calibrate(passes=3) < 5.0


# -- span self time -------------------------------------------------------------


def _span(name, start_s, end_s, parent=None, rid=None):
    return [name, int(start_s * 1e9), int(end_s * 1e9), parent, rid]


def test_self_time_subtracts_children_and_counts_overlap_once():
    items = [
        _span("run", 0, 10),
        _span("fit", 1, 4, parent=0),
        _span("scan", 3, 6, parent=0),  # overlaps fit by 1 s
        _span("inner", 1.5, 2.5, parent=1),
    ]
    assert spans.self_time_each(items) == pytest.approx([5.0, 2.0, 3.0, 1.0])


def test_self_time_clips_children_to_the_parent():
    items = [_span("run", 0, 2), _span("late", 1, 5, parent=0)]
    assert spans.self_time_each(items)[0] == pytest.approx(1.0)


def test_root_of_follows_parents_to_the_outermost_span():
    items = [
        _span("a", 0, 3),
        _span("b", 1, 2, parent=0),
        _span("c", 1, 2, parent=1),
        _span("d", 4, 5),
    ]
    assert spans.root_of(items) == [0, 0, 0, 3]


class _Layer:
    def outer(self, x):
        return self.inner(x) + 1

    def inner(self, x):
        return x * 2

    @classmethod
    def build(cls, x):
        return x


def test_wrapped_calls_nest_and_carry_the_request_id(tmp_path):
    recorder = spans.Recorder()
    originals = {
        name: spans.wrap(recorder, _Layer, name, f"layer.{name}")
        for name in ("outer", "inner", "build")
    }
    try:
        spans.set_request(7)
        assert _Layer().outer(3) == 7
        assert _Layer.build(5) == 5
        recorder.enabled = False
        _Layer().outer(1)
    finally:
        for name, original in originals.items():
            setattr(_Layer, name, original)
        spans.set_request(None)
    names = [span[0] for span in recorder.spans]
    assert names == ["layer.outer", "layer.inner", "layer.build"]
    assert [span[3] for span in recorder.spans] == [None, 0, None]
    assert {span[4] for span in recorder.spans} == {7}
    path = tmp_path / "spans.jsonl"
    recorder.write(path)
    assert spans.load(path) == recorder.spans


def test_classify_renames_a_span_from_its_result():
    recorder = spans.Recorder()

    class Scanner:
        def scan(self, found):
            return found

    spans.wrap(
        recorder,
        Scanner,
        "scan",
        "scan",
        lambda found: "scan" if found else "verify",
    )
    Scanner().scan(True)
    Scanner().scan(False)
    assert [span[0] for span in recorder.spans] == ["scan", "verify"]


def test_async_spans_keep_their_own_parents_across_tasks():
    recorder = spans.Recorder()

    class Handler:
        async def handle(self, delay):
            return await self.work(delay)

        async def work(self, delay):
            await asyncio.sleep(delay)
            return delay

    spans.wrap(recorder, Handler, "handle", "handle")
    spans.wrap(recorder, Handler, "work", "work")

    async def main():
        handler = Handler()
        return await asyncio.gather(handler.handle(0.02), handler.handle(0.01))

    assert asyncio.run(main()) == [0.02, 0.01]
    by_index = recorder.spans
    handles = [i for i, span in enumerate(by_index) if span[0] == "handle"]
    works = [span for span in by_index if span[0] == "work"]
    assert sorted(span[3] for span in works) == sorted(handles)
    for span in works:
        parent = by_index[span[3]]
        assert parent[1] <= span[1] and span[2] <= parent[2]


# -- BENCHMARK.json -------------------------------------------------------------


def test_benchmark_json_names_the_metrics_the_runner_reports():
    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    )
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        run.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
