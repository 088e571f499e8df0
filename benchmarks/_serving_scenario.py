"""The serving-bench workload shared between ``bench_serving.py`` and
the ``run_all.py`` trajectory emitter — one definition of the traffic,
so recorded serving numbers always measure exactly what CI asserts.

The workload is the paper's knowledge base behind the full network
stack (:mod:`repro.serve`): real sockets, HTTP framing, JSON bodies,
the coalescing batcher, and the session pool.  Two load modes:

- **closed loop** — N client threads, each issuing its next request the
  moment the previous answer lands.  Measures sustainable throughput
  (RPS) and per-request latency under self-limiting load.
- **open loop** — requests dispatched on a fixed schedule regardless of
  completion (the arrival pattern of independent clients), with latency
  measured from the *scheduled* send time, so queueing delay counts.

Every served answer is checked bit-identical to in-process
``kb.query()`` — the throughput run doubles as a conformance sweep.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.core.knowledge_base import ProbabilisticKnowledgeBase
from repro.eval.paper import paper_table
from repro.scenarios.replay import latency_stats as _latency_stats
from repro.serve import ServeClient, ServeConfig, serve_in_thread

#: Concurrent closed-loop clients (and open-loop dispatch workers).
CLIENTS = 4

#: The query mix: a serving-shaped spread of marginals, conditionals,
#: and multi-evidence conditionals over the paper's attributes.
QUERY_MIX = [
    "CANCER=yes",
    "CANCER=yes | SMOKING=smoker",
    "CANCER=yes | SMOKING=non-smoker",
    "CANCER=yes | FAMILY_HISTORY=yes",
    "SMOKING=smoker | CANCER=yes",
    "FAMILY_HISTORY=yes | CANCER=yes",
    "CANCER=yes | SMOKING=smoker, FAMILY_HISTORY=yes",
    "SMOKING=non-smoker | FAMILY_HISTORY=no",
]


def requests_per_client(smoke: bool) -> int:
    return 60 if smoke else 400


def build_kb() -> ProbabilisticKnowledgeBase:
    return ProbabilisticKnowledgeBase.from_data(paper_table())


def serve_config() -> ServeConfig:
    return ServeConfig(max_batch=32, pool_size=4)


def expected_answers(kb: ProbabilisticKnowledgeBase) -> dict[str, float]:
    """In-process ground truth for the mix, for exact-equality checks."""
    return {text: kb.query(text) for text in QUERY_MIX}


def closed_loop(
    host: str, port: int, clients: int, requests: int
) -> dict:
    """``clients`` threads, each firing ``requests`` back-to-back queries.

    Returns RPS, latency percentiles, and every (query, answer) pair for
    the bit-identity check.
    """
    barrier = threading.Barrier(clients + 1)
    latencies: list[list[float]] = [[] for _ in range(clients)]
    answers: list[list[tuple[str, float]]] = [[] for _ in range(clients)]

    def worker(slot: int) -> None:
        client = ServeClient(host, port)
        # One warm-up round trip so connection setup is off the clock.
        client.health()
        barrier.wait()
        for index in range(requests):
            text = QUERY_MIX[(slot + index) % len(QUERY_MIX)]
            start = time.perf_counter()
            answer = client.ask(text_kb, text)
            latencies[slot].append(time.perf_counter() - start)
            answers[slot].append((text, answer))
        client.close()

    text_kb = "paper"
    threads = [
        threading.Thread(target=worker, args=(slot,), daemon=True)
        for slot in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    flat_latencies = [value for chunk in latencies for value in chunk]
    total = clients * requests
    return {
        "clients": clients,
        "requests": total,
        "rps": total / elapsed,
        "elapsed_s": elapsed,
        **_latency_stats(flat_latencies),
        "answers": [pair for chunk in answers for pair in chunk],
    }


def open_loop(
    host: str, port: int, target_rps: float, total: int, workers: int
) -> dict:
    """Fixed-schedule dispatch at ``target_rps``; latency includes queue
    wait (measured from each request's scheduled send time)."""
    interval = 1.0 / target_rps
    latencies: list[float] = []
    lock = threading.Lock()
    pool = ThreadPoolExecutor(max_workers=workers)
    # One keep-alive connection per dispatch thread (an HTTP connection
    # is not safe to share between concurrent in-flight requests).
    local = threading.local()
    clients: list[ServeClient] = []

    def client_for_thread() -> ServeClient:
        client = getattr(local, "client", None)
        if client is None:
            client = ServeClient(host, port)
            client.health()
            local.client = client
            with lock:
                clients.append(client)
        return client

    def fire(index: int, scheduled: float) -> None:
        client = client_for_thread()
        text = QUERY_MIX[index % len(QUERY_MIX)]
        client.ask("paper", text)
        with lock:
            latencies.append(time.perf_counter() - scheduled)

    started = time.perf_counter()
    futures = []
    for index in range(total):
        scheduled = started + index * interval
        now = time.perf_counter()
        if scheduled > now:
            time.sleep(scheduled - now)
        futures.append(pool.submit(fire, index, scheduled))
    for future in futures:
        future.result()
    elapsed = time.perf_counter() - started
    pool.shutdown()
    for client in clients:
        client.close()
    return {
        "target_rps": target_rps,
        "achieved_rps": total / elapsed,
        "requests": total,
        **_latency_stats(latencies),
    }


def inprocess_qps(
    kb: ProbabilisticKnowledgeBase, requests: int
) -> float:
    """Sequential warm in-process queries per second, same mix."""
    with kb.session() as session:
        for text in QUERY_MIX:  # warm the plan/marginal caches
            session.ask(text)
        started = time.perf_counter()
        for index in range(requests):
            session.ask(QUERY_MIX[index % len(QUERY_MIX)])
        elapsed = time.perf_counter() - started
    return requests / elapsed


def measure_serving(smoke: bool) -> dict:
    """The serving trajectory metrics (bit-identity always asserted)."""
    kb = build_kb()
    expected = expected_answers(
        ProbabilisticKnowledgeBase.from_dict(kb.to_dict())
    )
    requests = requests_per_client(smoke)

    with serve_in_thread({"paper": kb}, config=serve_config()) as handle:
        single = closed_loop(handle.host, handle.port, 1, requests)
        multi = closed_loop(
            handle.host, handle.port, CLIENTS, requests
        )
        for run in (single, multi):
            for text, answer in run.pop("answers"):
                if answer != expected[text]:
                    raise AssertionError(
                        f"served answer for {text!r} diverged from "
                        f"in-process: {answer!r} != {expected[text]!r}"
                    )
        open_stats = open_loop(
            handle.host,
            handle.port,
            target_rps=max(10.0, 0.5 * multi["rps"]),
            total=CLIENTS * requests,
            workers=CLIENTS,
        )
        control = ServeClient(handle.host, handle.port)
        batcher = control.kb_stats("paper")["batcher"]
        control.close()

    baseline_qps = inprocess_qps(kb, max(200, requests))
    return {
        "clients": CLIENTS,
        "query_mix": len(QUERY_MIX),
        "requests_per_client": requests,
        "single_client_rps": single["rps"],
        "single_client_p50_ms": single["p50_ms"],
        "rps": multi["rps"],
        "p50_ms": multi["p50_ms"],
        "p99_ms": multi["p99_ms"],
        "throughput_ratio": multi["rps"] / single["rps"],
        "open_loop": open_stats,
        "coalescing": batcher,
        "inprocess_qps": baseline_qps,
        "served_vs_inprocess": multi["rps"] / baseline_qps,
        "bit_identical": True,
    }
