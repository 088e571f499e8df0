"""Incremental update throughput: warm-started kb.update() vs cold refit.

The order-3 scaling scenario (medical-survey world, planted two- and
three-way structure, ``max_order=3``): fit a base window, then absorb
delta batches of increasing size two ways —

- ``kb.update(delta)``: warm-started rediscovery (re-verify + re-impose
  the adopted constraints, refit from the previous ``a`` values, one
  verification scan per order);
- a cold ``from_data`` refit of the merged table (the pre-lifecycle
  answer to new data).

Shape criteria: both paths adopt identical constraints and agree on the
joint to solver tolerance, every warm revision actually reports
``mode="warm"``, and for streaming-sized batches (up to ~1/8 of the base
window) the warm path is at least 1.5x faster.  (The threshold was 3x
when the cold baseline paid a full scalar candidate scan per adoption;
the vectorized scan kernels roughly halved cold discovery, so the warm
path's remaining edge — skipping candidate scans entirely — is honestly
worth ~2x now.  Absolute warm latency is unchanged-or-better; only the
ratio's denominator improved.)

Each batch times both paths as the median of ``REPEATS`` alternating
repetitions, each warm update on a freshly built knowledge base and each
cold refit on a freshly merged table: one pair of ~10–20 ms timings is
too noisy to hold a ratio gate.

Set ``REPRO_BENCH_SMOKE=1`` to run the same assertions at tiny sizes in
CI: equivalence and the warm-path mode are still enforced — so the
incremental path cannot silently regress — but the wall-clock ratio is
not, since timings at toy sizes are noise.
"""

import os
import statistics
import time

import numpy as np
import pytest

from repro.core.knowledge_base import ProbabilisticKnowledgeBase
from repro.discovery.config import DiscoveryConfig
from repro.eval.tables import format_table
from repro.synth.surveys import medical_survey_population

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

N_BASE = 4000 if SMOKE else 60000
# Batch sizes to absorb; the speedup criterion applies to streaming-sized
# batches (<= SPEEDUP_BATCH_LIMIT).  Very large batches shift the fit
# targets far enough that the warm solve itself dominates, and the
# advantage honestly shrinks — the table reports that too.
BATCHES = (200, 500) if SMOKE else (2000, 8000, 20000)
SPEEDUP_BATCH_LIMIT = N_BASE // 8
MIN_SPEEDUP = 1.5
#: Alternating warm/cold repetitions per batch; the gate reads medians.
REPEATS = 3 if SMOKE else 7


@pytest.fixture(scope="module")
def population():
    return medical_survey_population()


def test_bench_incremental_update(population, write_report):
    config = DiscoveryConfig(max_order=3)
    rng = np.random.default_rng(19)
    base = population.sample_table(N_BASE, rng)

    rows = []
    speedups = {}
    for batch in BATCHES:
        delta = population.sample_table(batch, rng)
        warm_times, cold_times = [], []
        for _ in range(REPEATS):
            kb = ProbabilisticKnowledgeBase.from_data(base, config)
            start = time.perf_counter()
            revision = kb.update(delta)
            warm_times.append(time.perf_counter() - start)

            # A fresh sum each time: a table caches its marginals, so a
            # reused one would make every later cold refit cheaper.
            merged = base + delta
            start = time.perf_counter()
            cold = ProbabilisticKnowledgeBase.from_data(merged, config)
            cold_times.append(time.perf_counter() - start)
        warm_seconds = statistics.median(warm_times)
        cold_seconds = statistics.median(cold_times)

        # The incremental path must not silently diverge from a cold refit.
        assert revision.mode == "warm", (
            f"update of a same-population batch fell back to "
            f"{revision.mode!r}"
        )
        assert kb.sample_size == merged.total
        assert {c.key for c in kb.constraints} == {
            c.key for c in cold.constraints
        }
        np.testing.assert_allclose(
            kb.model.joint(), cold.model.joint(), atol=1e-8
        )

        speedup = cold_seconds / warm_seconds
        speedups[batch] = speedup
        rows.append(
            [
                batch,
                f"{warm_seconds:.4f}",
                f"{cold_seconds:.4f}",
                f"{speedup:.1f}x",
                revision.mode,
            ]
        )

    text = (
        f"INCREMENTAL UPDATE VS COLD REFIT "
        f"(order-3 scaling scenario, base N={N_BASE}, "
        f"median of {REPEATS})\n\n"
        + format_table(
            ["batch", "warm update (s)", "cold refit (s)", "speedup", "mode"],
            rows,
        )
    )
    write_report("incremental_update.txt", text)

    if not SMOKE:
        streaming = {
            batch: speedup
            for batch, speedup in speedups.items()
            if batch <= SPEEDUP_BATCH_LIMIT
        }
        assert streaming, "no streaming-sized batches were benchmarked"
        worst = min(streaming.values())
        assert worst >= MIN_SPEEDUP, (
            f"warm-started update only {worst:.1f}x faster than a cold "
            f"refit for streaming-sized batches (need >= {MIN_SPEEDUP}x)"
        )


def test_bench_repeated_updates_stream(population, write_report):
    """A stream of updates mostly rides the warm path, and open sessions
    serve every refreshed model without being rebuilt.

    Structure hovering exactly at the significance threshold may cross it
    as N grows and dip back on a later batch — the re-verification then
    correctly falls back to a cold rediscovery that drops it — so the
    stream is allowed occasional ``cold`` revisions; the incremental path
    must carry the majority.
    """
    config = DiscoveryConfig(max_order=3)
    rng = np.random.default_rng(23)
    n_batches = 3 if SMOKE else 8
    batch = 200 if SMOKE else 4000

    kb = ProbabilisticKnowledgeBase.from_data(
        population.sample_table(N_BASE, rng), config
    )
    session = kb.session()
    query = "HEART_DISEASE=yes | EXERCISE=sedentary, DIET=poor"
    session.ask(query)

    rows = []
    modes = []
    for number in range(1, n_batches + 1):
        start = time.perf_counter()
        revision = kb.update(population.sample_table(batch, rng))
        seconds = time.perf_counter() - start
        answer = session.ask(query)
        rows.append(
            [number, revision.mode, f"{seconds:.4f}", f"{answer:.4f}"]
        )
        modes.append(revision.mode)
        # The open session always serves the just-refreshed model ...
        assert session.model is kb.model
        assert 0.0 <= answer <= 1.0
        # ... which always matches what a fresh session would answer.
        assert answer == pytest.approx(kb.session().ask(query), rel=1e-12)

    assert modes.count("warm") >= (len(modes) + 1) // 2, (
        f"incremental path fell back cold too often: {modes}"
    )

    write_report(
        "incremental_update_stream.txt",
        f"REPEATED UPDATES, LIVE SESSION (batch={batch})\n\n"
        + format_table(
            ["revision", "mode", "update (s)", "live session answer"], rows
        ),
    )
