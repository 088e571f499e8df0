"""The serve-mixed workload (benchmark side).

The benchmark discovers the knowledge base of ``stress-wide-16`` rows,
stores it, and starts ``repro serve --store DB --port 0`` with shipped
defaults (or, traced, ``perfbench.serve_launcher``).  It times set-up over
several launches and then drives the last server through three phases:

1. reads only: open loop at 150 req/s on one connection;
2. reads at full speed: closed loop on two connections;
3. the phase-1 reads while the second connection sends closed-loop
   ``POST /update`` requests, each a 2,000-row delta.

Reads draw from 1,024 distinct queries with Zipf(1.1) popularity.  Every
served answer is checked for exact equality with the in-process answer
under the fingerprint the response reports; the benchmark replays the
same deltas in-process to know those answers.
"""

from __future__ import annotations

import contextlib
import json
import re
import threading
import time

import numpy as np

from perfbench import launch, loadgen, measure, spans

WORLD = "stress-wide-16"
KB = "wide"
ROWS = 40_000
DELTA_ROWS = 2_000
MAX_UPDATES = 24
QUERIES = 1024
ZIPF = 1.1
READ_RATE = 150.0
SETUP_LAUNCHES = 4
#: Shares of the run's seconds given to phases 1, 2 and 3.
PHASES = (0.35, 0.1, 0.55)

_PORT = re.compile(r"serving .* on http://[\d.]+:(\d+)")


def default_seed() -> int:
    """The registered seed of ``stress-wide-16``."""
    from repro.scenarios.registry import get_scenario

    return get_scenario(WORLD).seed


def query_mix(schema, seed: int) -> list[str]:
    """``QUERIES`` distinct queries from the scenario query mix."""
    from repro.scenarios.replay import scenario_query_mix

    distinct: dict[str, None] = {}
    salt = 0
    while len(distinct) < QUERIES:
        for text in scenario_query_mix(schema, seed + salt, size=4 * QUERIES):
            distinct.setdefault(text, None)
        salt += 1
    return list(distinct)[:QUERIES]


def prepare(seed: int, workdir):
    """Discover and store the KB; build queries, picks and deltas."""
    from repro.core.knowledge_base import ProbabilisticKnowledgeBase
    from repro.discovery.config import DiscoveryConfig
    from repro.scenarios.registry import get_scenario
    from repro.store import KBStore

    scenario = get_scenario(WORLD)
    population = scenario.build(smoke=True).population
    rng = np.random.default_rng(seed)
    table = population.sample(ROWS, rng).to_contingency()
    kb = ProbabilisticKnowledgeBase.from_data(
        table, DiscoveryConfig(max_order=scenario.max_order)
    )
    workdir.mkdir(parents=True, exist_ok=True)
    db = str(workdir / "kb.db")
    with KBStore(db) as store:
        store.save(KB, kb)
    queries = query_mix(table.schema, seed)
    weights = 1.0 / np.arange(1, QUERIES + 1) ** ZIPF
    picks = rng.choice(QUERIES, size=20_000, p=weights / weights.sum())
    deltas = [
        population.sample(DELTA_ROWS, rng).rows.tolist()
        for _ in range(MAX_UPDATES)
    ]
    return db, queries, [int(p) for p in picks], deltas


def start(db: str, trace: bool, spans_path: str):
    """Launch a server on ``db``; returns the Launched child and its port."""
    if trace:
        argv = launch.python("-m", "perfbench.serve_launcher", spans_path)
    else:
        argv = launch.python("-m", "repro.cli")
    argv += ["serve", "--store", db, "--port", "0"]
    box = {}

    def ready(line: str) -> bool:
        match = _PORT.search(line)
        if not match:
            return False
        box["port"] = int(match.group(1))
        conn = loadgen.Connection(box["port"])
        try:
            health = conn.get_json("/health")
        finally:
            conn.close()
        if health is None or health["status"] != "ok":
            raise RuntimeError(f"server is listening but unhealthy: {health}")
        return True

    started = launch.launch(argv, ready, stream="stderr")
    return started, box["port"]


def run(seed: int, seconds: float, trace: bool, workdir) -> dict:
    """One run of serve-mixed; returns an outcome dict."""
    db, queries, picks, deltas = prepare(seed, workdir)
    spans_path = str(workdir / "spans.jsonl")
    launches = []
    for _ in range(SETUP_LAUNCHES - 1):
        started, _ = start(db, trace, spans_path)
        launch.stop(started.process)
        launches.append(started)
    server, port = start(db, trace, spans_path)
    launches.append(server)
    drain = threading.Thread(target=_drain, args=(server.process,))
    drain.start()
    try:
        phases = drive(port, queries, picks, deltas, seconds)
        phases["peak_rss_mb"] = measure.vm_hwm_mb(server.process.pid)
    finally:
        launch.stop(server.process)
        drain.join(30)
    return summarise(phases, launches, db, queries, deltas, trace, spans_path)


def _drain(process) -> None:
    """Read a child's stderr until it ends, so the pipe never fills."""
    with contextlib.suppress(ValueError, OSError):
        process.stderr.read()


def drive(port: int, queries, picks, deltas, seconds: float) -> dict:
    """Run the three phases against the server on ``port``."""
    reads = [
        loadgen.request("POST", f"/kb/{KB}/query", {"query": text})
        for text in queries
    ]
    updates = [
        loadgen.request("POST", f"/kb/{KB}/update", {"samples": delta})
        for delta in deltas
    ]
    first, second = loadgen.Connection(port), loadgen.Connection(port)
    calibrator = launch.Calibrator()
    try:
        out = {"fingerprint": first.get_json(f"/kb/{KB}")["fingerprint"]}
        out["window_ns"] = [time.perf_counter_ns()]
        out["p1"] = loadgen.open_loop(
            first, reads, picks, READ_RATE, seconds * PHASES[0]
        )
        out["window_ns"].append(time.perf_counter_ns())
        out["p2"] = loadgen.closed_loop(
            [first, second], reads, picks, seconds * PHASES[1]
        )
        out["window_ns"].append(time.perf_counter_ns())
        done = threading.Event()
        sent: list[tuple[float, int, bytes, float]] = []

        def updater() -> None:
            # Each update is bracketed by calibrations, run in a helper
            # process while the server only serves reads.
            calib = calibrator()
            for wire in updates:
                if done.is_set():
                    break
                clock = time.perf_counter()
                status, body = second.send(wire)
                elapsed = time.perf_counter() - clock
                after = calibrator()
                sent.append((elapsed, status, body, (calib + after) / 2))
                calib = after

        thread = threading.Thread(target=updater)
        thread.start()
        out["window_ns"].append(time.perf_counter_ns())
        out["p3"] = loadgen.open_loop(
            first, reads, picks[::-1], READ_RATE, seconds * PHASES[2]
        )
        done.set()
        thread.join()
        out["window_ns"].append(time.perf_counter_ns())
        out["updates"] = sent
        out["stats"] = first.get_json(f"/kb/{KB}/stats")
    finally:
        first.close()
        second.close()
        calibrator.close()
    return out


def expected_answers(db: str, queries, deltas, needed):
    """In-process answers and revisions, replaying the applied deltas.

    ``needed[k]`` holds the query indices served under revision ``k``
    (0 is the stored KB).  Returns ``{(k, pick): answer}`` and the
    :class:`~repro.core.knowledge_base.Revision` each update appended.
    Updating one KB in place gives the answers the server's clones give,
    because the clone is an exact round trip.
    """
    from repro.data.streaming import TableBuilder
    from repro.store import KBStore

    with KBStore(db) as store:
        kb = store.load(KB, revision=0)
    answers, revisions = {}, []
    for step, picks in enumerate(needed):
        if step:
            builder = TableBuilder(kb.schema)
            for sample in deltas[step - 1]:
                builder.add_sample(sample)
            revisions.append(kb.update(builder.snapshot()))
        with kb.session() as session:
            for pick in sorted(picks):
                answers[step, pick] = session.ask(queries[pick])
    return answers, revisions


def served(responses, revision_of):
    """Decode read responses into ``(pick, revision, answer)``, or None.

    Fingerprints are hashes private to the server process, so
    ``revision_of`` maps each one the server announced to its revision;
    a refused request or an unknown fingerprint decodes to None.
    """
    out = []
    for pick, status, body in responses:
        reply = json.loads(body) if status == 200 else {}
        revision = revision_of.get(reply.get("fingerprint"))
        out.append(None if revision is None else (pick, revision, reply["answer"]))
    return out


def failures(reads, answers) -> int:
    """Reads refused, or not bit-identical to the in-process answer."""
    return sum(
        read is None or answers[read[1], read[0]] != read[2] for read in reads
    )


def same_revision(reply: dict, step: int, revision) -> bool:
    """Whether a served update matches the in-process replay's revision."""
    return (
        reply["revision"] == step
        and reply["mode"] == revision.mode
        and reply["sample_size"] == revision.sample_size
        and reply["constraints_added"] == len(revision.constraints_added)
        and reply["constraints_dropped"] == len(revision.constraints_dropped)
    )


def summarise(phases, launches, db, queries, deltas, trace, spans_path):
    """End-to-end and per-layer metrics of one serve-mixed run."""
    updates = phases["updates"]
    applied = [json.loads(item[2]) for item in updates if item[1] == 200]
    revision_of = {phases["fingerprint"]: 0}
    revision_of.update(
        {reply["fingerprint"]: step for step, reply in enumerate(applied, 1)}
    )
    loop1, read1 = phases["p1"]
    rps, read2 = phases["p2"]
    loop3, read3 = phases["p3"]
    reads = {
        phase: served(responses, revision_of)
        for phase, responses in (("p1", read1), ("p2", read2), ("p3", read3))
    }
    needed = [set() for _ in range(len(applied) + 1)]
    for read in (r for phase in reads.values() for r in phase if r):
        needed[read[1]].add(read[0])
    answers, revisions = expected_answers(db, queries, deltas, needed)
    failed = {phase: failures(items, answers) for phase, items in reads.items()}
    bad_updates = len(updates) - len(applied) + sum(
        not same_revision(reply, step, revision)
        for step, (reply, revision) in enumerate(zip(applied, revisions), 1)
    )
    done = [item for item in updates if item[1] == 200]
    q1, p99, count1 = measure.tail(loop1.latencies)
    q3, mixed, count3 = measure.tail(loop3.latencies)
    stats = phases["stats"]["batcher"]
    modes = [reply["mode"] for reply in applied]
    layers = {
        "serve.query_p50_ms": 1e3 * measure.median(loop1.latencies),
        "serve.query_p99_ms": 1e3 * p99,
        "serve.query_tail_q": q1,
        "serve.query_samples": count1,
        "serve.query_rps": rps,
        "serve.mixed_p99_ms": 1e3 * mixed,
        "serve.mixed_tail_q": q3,
        "serve.mixed_samples": count3,
        "serve.p1.sent": loop1.attempted,
        "serve.p1.failed": failed["p1"],
        "serve.p2.sent": len(read2),
        "serve.p2.failed": failed["p2"],
        "serve.p3.sent": loop3.attempted,
        "serve.p3.failed": failed["p3"],
        "serve.p3.updates": len(updates),
        "serve.updates_warm": modes.count("warm"),
        "serve.updates_cold": modes.count("cold"),
        "serve.batcher.flushes": stats["flushes"],
        "serve.batcher.mean_batch": stats["mean_batch"],
        "serve.batcher.coalesced_share": (
            stats["coalesced_flushes"] / stats["flushes"]
            if stats["flushes"]
            else 0.0
        ),
        "loadgen.late_ms": 1e3
        * measure.median(loop1.lateness + loop3.lateness),
        "calib_ms": 1e3 * measure.median([item[3] for item in updates]),
        "raw.update_s": measure.median([item[0] for item in done]),
        "raw.setup_s": measure.median([item.raw_s for item in launches]),
    }
    if trace:
        layers.update(
            traced_layers(spans_path, phases["window_ns"], len(applied))
        )
    attempted = loop1.attempted + len(read2) + loop3.attempted + len(updates)
    return {
        "attempted": attempted,
        "failed": sum(failed.values()) + bad_updates,
        "metrics": {
            "setup_s": measure.median([item.setup_s for item in launches]),
            "op_ms": 1e3 * measure.median(loop1.latencies),
            "update_s": measure.median(
                [measure.normalise(item[0], item[3]) for item in done]
            ),
            "peak_rss_mb": phases["peak_rss_mb"],
        },
        "layers": layers,
    }


def traced_layers(spans_path: str, window_ns, updates: int) -> dict:
    """Per-layer times from the traced server's spans.

    Read-path spans are averaged over phases 1 and 2; update-path spans
    are summed over phase 3 and divided by the updates it applied.
    """
    items = spans.load(spans_path)
    with open(spans_path + ".counters.json") as handle:
        counters = json.load(handle)
    reads = (window_ns[0], window_ns[2])
    mixed = (window_ns[3], window_ns[4])
    samples: dict[str, list[float]] = {}
    for name, start, end, parent, _rid in items:
        if reads[0] <= start < reads[1]:
            key = name
        elif mixed[0] <= start < mixed[1]:
            key = "p3/" + name + ("" if parent is None else "/child")
        else:
            continue
        samples.setdefault(key, []).append((end - start) / 1e9)

    def mean_ms(name):
        values = samples.get(name, [])
        return 1e3 * sum(values) / len(values) if values else 0.0

    def per_update(*names):
        total = sum(sum(samples.get(f"p3/{n}", [])) for n in names)
        return total / updates if updates else 0.0

    lookups = counters["hits"] + counters["misses"]
    return {
        "serve.wait_ms": mean_ms("serve.wait"),
        "serve.parse_ms": mean_ms("serve.parse"),
        "serve.encode_ms": mean_ms("serve.encode"),
        "api.evaluate_ms": mean_ms("api.evaluate"),
        "api.cache_hit_ratio": counters["hits"] / lookups if lookups else 0.0,
        "core.clone_s": per_update("core.to_dict", "core.from_dict"),
        "discovery.rerun_s": per_update("discovery.rerun"),
        "store.save_s": per_update("store.save"),
        "maxent.fit_s": per_update("maxent.fit", "maxent.fit/child"),
    }
