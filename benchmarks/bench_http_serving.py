"""The HTTP front end: wire overhead bounded, answers and budget exact.

A mixed seeded request stream (range batches and count batches, each
distinct query asked ``REPEATS`` times by its own client session) served
three ways:

* **in-process baseline** — ``serve_many``: the asyncio tier with
  in-flight coalescing, no sockets;
* **HTTP, 1/2/4 workers** — :class:`~repro.net.MultiprocHTTPServer` behind
  one port, one keep-alive :class:`~repro.net.BlowfishClient` per client
  session on its own thread, budget truth in a shared SQLite ledger.

Claims asserted:

* answers over the wire are bitwise identical to the in-process tier at
  every worker count (seeded requests are deterministic; connection
  affinity keeps a session's repeats on one worker);
* the shared ledger holds exactly one spend per client session;
* the in-process baseline coalesces: each distinct query executes once and
  its in-flight repeats share that execution;
* the wire tax is bounded: 1-worker HTTP throughput is within
  ``MAX_HTTP_OVERHEAD``x of the in-process baseline (JSON + sockets +
  per-request HTTP framing may cost, but never an order of magnitude).

Writes ``benchmarks/results/http_serving.csv`` (req/s, p50/p99 ms per
deployment; baseline row is workers=0).
"""

from __future__ import annotations

import functools
import threading
import time

import numpy as np

from conftest import record

from repro import Database, Domain, Policy
from repro.api import BlowfishService, SQLiteLedgerStore, serve_many
from repro.experiments.results import ResultTable
from repro.net import BlowfishClient, MultiprocHTTPServer

SIZE = 2_000
N_TUPLES = 4_000
QUERIES_PER_BATCH = 200
N_DISTINCT = 8  #: distinct queries == client sessions
REPEATS = 4
THETA = 2
EPSILON = 0.5
SEED = 20140623
WORKER_COUNTS = (1, 2, 4)
MAX_HTTP_OVERHEAD = 2.5  #: max allowed baseline_rps / http_rps at 1 worker

N_REQUESTS = N_DISTINCT * REPEATS


def _domain():
    return Domain.integers("v", SIZE)


def _database():
    rng = np.random.default_rng(SEED)
    return Database.from_indices(_domain(), rng.integers(0, SIZE, size=N_TUPLES))


def _bench_service(ledger_path):
    # module-level so worker processes can rebuild it; the engine pool is
    # warmed so the timed window measures serving, not deployment startup
    ledger = None if ledger_path is None else SQLiteLedgerStore(ledger_path)
    service = BlowfishService(ledger_store=ledger)
    service.register_dataset("data", _database())
    service.pool.get(Policy.distance_threshold(_domain(), THETA), EPSILON)
    return service


def _bench_request(i):
    """Request ``i``: query ``i // REPEATS`` asked for the ``i % REPEATS``-th
    time by session ``client-{query}`` — repeats are free via the release
    cache, and connection affinity keeps them on one worker."""
    domain = _domain()
    query = i // REPEATS
    rng = np.random.default_rng(SEED + query)
    request = {
        "policy": Policy.distance_threshold(domain, THETA).to_spec(),
        "epsilon": EPSILON,
        "dataset": {"name": "data"},
        "session": f"client-{query}",
        "budget": 4 * EPSILON,
        "seed": SEED + query,
    }
    if query % 2 == 0:
        los = rng.integers(0, SIZE, size=QUERIES_PER_BATCH)
        his = rng.integers(0, SIZE, size=QUERIES_PER_BATCH)
        los, his = np.minimum(los, his), np.maximum(los, his)
        request["queries"] = {
            "kind": "range_batch",
            "los": los.tolist(),
            "his": his.tolist(),
        }
    else:
        starts = rng.integers(0, SIZE - 200, size=QUERIES_PER_BATCH // 4)
        widths = rng.integers(20, 200, size=QUERIES_PER_BATCH // 4)
        request["queries"] = [
            {"kind": "count", "support": list(range(int(s), int(s + w)))}
            for s, w in zip(starts, widths)
        ]
    return request


def _quantile(latencies, q):
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _run_http(workers, ledger_path):
    """Serve the stream over HTTP: one keep-alive client per session, each
    on its own thread, requests constructed outside the timed window."""
    server = MultiprocHTTPServer(
        functools.partial(_bench_service, ledger_path), workers=workers
    )
    host, port = server.start()
    requests = {
        c: [_bench_request(c * REPEATS + j) for j in range(REPEATS)]
        for c in range(N_DISTINCT)
    }
    responses = {}
    latencies = []
    latency_lock = threading.Lock()
    errors = []
    go = threading.Event()

    def run_client(c):
        try:
            with BlowfishClient(host, port) as client:
                go.wait(30)
                out = []
                for request in requests[c]:
                    t0 = time.perf_counter()
                    response = client.handle(request)
                    dt = time.perf_counter() - t0
                    assert client.last_status == 200, response
                    out.append(response)
                    with latency_lock:
                        latencies.append(dt)
                responses[c] = out
        except BaseException as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=run_client, args=(c,)) for c in range(N_DISTINCT)
    ]
    try:
        for t in threads:
            t.start()
        start = time.perf_counter()
        go.set()
        for t in threads:
            t.join(120)
        elapsed = time.perf_counter() - start
    finally:
        codes = server.stop(timeout=30)
    assert not errors, errors
    assert all(code == 0 for code in codes), codes
    ordered = [responses[c][j] for c in range(N_DISTINCT) for j in range(REPEATS)]
    return ordered, N_REQUESTS / elapsed, latencies


def test_http_serving_overhead_and_identity(tmp_path):
    # in-process baseline: same stream through the asyncio tier directly
    service = _bench_service(None)
    requests = [_bench_request(i) for i in range(N_REQUESTS)]
    t0 = time.perf_counter()
    base_responses, stats = serve_many(service, requests)
    base_elapsed = time.perf_counter() - t0
    base_rps = N_REQUESTS / base_elapsed
    assert all(r["ok"] for r in base_responses), base_responses
    assert stats["executed"] == N_DISTINCT, stats
    assert stats["coalesced"] == N_REQUESTS - N_DISTINCT, stats
    base_answers = [r["answers"] for r in base_responses]

    table = ResultTable(
        f"HTTP serving vs in-process tier ({N_REQUESTS} mixed requests, "
        f"{N_DISTINCT} keep-alive clients, |domain|={SIZE})",
        x_label="worker processes (0 = in-process serve_many)",
        y_label="value",
    )
    table.add("req_per_s", 0, base_rps, base_rps, base_rps)
    table.add("p50_ms", 0, base_elapsed / N_REQUESTS * 1e3, 0, 0)
    table.add("p99_ms", 0, base_elapsed / N_REQUESTS * 1e3, 0, 0)

    rps_by_workers = {}
    for workers in WORKER_COUNTS:
        ledger_path = str(tmp_path / f"ledger-{workers}.sqlite")
        responses, rps, latencies = _run_http(workers, ledger_path)

        # bitwise identity with the in-process tier, at every worker count
        assert [r["answers"] for r in responses] == base_answers, (
            f"{workers}-worker HTTP answers diverged from the in-process tier"
        )
        # exact budget truth in the shared ledger: one spend per client
        ledger = SQLiteLedgerStore(ledger_path)
        try:
            assert len(ledger.keys()) == N_DISTINCT
            for key in ledger.keys():
                assert len(ledger.entries(key)) == 1
                assert abs(ledger.total(key) - EPSILON) < 1e-12
        finally:
            ledger.close()

        rps_by_workers[workers] = rps
        table.add("req_per_s", workers, rps, rps, rps)
        table.add("p50_ms", workers, _quantile(latencies, 0.5) * 1e3, 0, 0)
        table.add("p99_ms", workers, _quantile(latencies, 0.99) * 1e3, 0, 0)
        print(
            f"{workers} worker(s): {rps:,.0f} req/s over HTTP "
            f"(in-process {base_rps:,.0f}), p50 "
            f"{_quantile(latencies, 0.5) * 1e3:.1f}ms, p99 "
            f"{_quantile(latencies, 0.99) * 1e3:.1f}ms"
        )

    record(table, "http_serving")

    overhead = base_rps / rps_by_workers[1]
    print(f"1-worker HTTP overhead vs in-process: {overhead:.2f}x")
    assert overhead < MAX_HTTP_OVERHEAD, (
        f"HTTP serving at 1 worker is {overhead:.2f}x slower than the "
        f"in-process tier (allowed < {MAX_HTTP_OVERHEAD}x) — the wire tax "
        "(JSON + sockets + framing) must stay bounded"
    )
