"""The sharded serving tier: throughput up, answers bit-identical.

A mixed request stream (range batches and count-mask batches, every
request seeded, each distinct query asked ``REPEATS`` times — two thirds
sessionless, one third under per-client sessions whose spends land in a
shared SQLite budget ledger) served four ways:

* **baseline** — one synchronous :class:`BlowfishService`, requests
  handled one by one (the pre-tier deployment);
* **1/2/4 workers** — :class:`ShardedServiceRunner`: session-sharded
  worker processes over one SQLite ledger file, each worker fronted by
  the coalescing :class:`AsyncBlowfishService`.

Claims asserted:

* answers are bitwise identical across the baseline and every worker
  count (seeded requests are deterministic and sharding preserves
  per-session order);
* the shared ledger records exactly one spend per client session — no
  lost spends, no double charges, at any worker count;
* 4-worker throughput is at least 2.5x the baseline.  On a single-core
  CI runner that win is *coalescing*, not parallelism: the baseline pays
  a full release for every sessionless repeat, while in-flight duplicates
  inside each worker share one execution (the timing harness excludes
  request construction and process startup via a prepare/go handshake).

Writes ``benchmarks/results/serving_tier.csv`` (req/s, p50/p99 ms per
deployment).
"""

from __future__ import annotations

import functools
import time

import numpy as np

from conftest import record

from repro import Database, Domain, Policy
from repro.api import BlowfishService, ShardedServiceRunner, SQLiteLedgerStore
from repro.experiments.results import ResultTable

SIZE = 4_000
N_TUPLES = 8_000
QUERIES_PER_BATCH = 400
N_DISTINCT = 12  #: distinct queries; ids 0..7 sessionless, 8..11 sessioned
N_SESSIONED = 4
REPEATS = 6
THETA = 2
EPSILON = 0.5
SEED = 20140623
WORKER_COUNTS = (1, 2, 4)
MIN_SPEEDUP = 2.5

N_REQUESTS = N_DISTINCT * REPEATS


def _domain():
    return Domain.integers("v", SIZE)


def _database():
    rng = np.random.default_rng(SEED)
    return Database.from_indices(_domain(), rng.integers(0, SIZE, size=N_TUPLES))


def _bench_service(ledger_path):
    # module-level so worker processes can rebuild it (runs in the worker;
    # the SQLite connection is opened there, never pickled)
    ledger = None if ledger_path is None else SQLiteLedgerStore(ledger_path)
    service = BlowfishService(ledger_store=ledger)
    service.register_dataset("data", _database())
    # warm the engine pool (deployment startup cost, identical for the
    # baseline and every worker) so the timed window measures serving
    service.pool.get(Policy.distance_threshold(_domain(), THETA), EPSILON)
    return service


def _bench_session(i):
    # affinity key: repeats of one query must land on one worker — for
    # sessioned queries that is their session (per-session order), for
    # sessionless ones it is what lets in-flight duplicates coalesce
    query = i // REPEATS
    if query < N_DISTINCT - N_SESSIONED:
        return f"anon-{query}"
    return f"client-{query}"


def _bench_request(i):
    """Request ``i``: query ``i // REPEATS`` asked for the ``i % REPEATS``-th
    time.  Sessionless repeats are the coalescing fodder (the baseline
    re-releases for each); sessioned repeats are free via the release
    cache in every deployment."""
    domain = _domain()
    query = i // REPEATS
    rng = np.random.default_rng(SEED + query)
    request = {
        "policy": Policy.distance_threshold(domain, THETA).to_spec(),
        "epsilon": EPSILON,
        "dataset": {"name": "data"},
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
        starts = rng.integers(0, SIZE - 400, size=QUERIES_PER_BATCH // 4)
        widths = rng.integers(40, 400, size=QUERIES_PER_BATCH // 4)
        request["queries"] = [
            {"kind": "count", "support": list(range(int(s), int(s + w)))}
            for s, w in zip(starts, widths)
        ]
    if query >= N_DISTINCT - N_SESSIONED:
        request["session"] = _bench_session(i)
        request["budget"] = 4 * EPSILON
    return request


def _baseline():
    """One sync service, one request at a time — with per-request latency."""
    service = _bench_service(None)
    requests = [_bench_request(i) for i in range(N_REQUESTS)]
    start = time.perf_counter()
    responses, latencies = [], []
    for request in requests:
        t0 = time.perf_counter()
        responses.append(service.handle(request))
        latencies.append(time.perf_counter() - t0)
    elapsed = time.perf_counter() - start
    return responses, elapsed, latencies


def _quantile(latencies, q):
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def test_sharded_tier_throughput_and_identity(tmp_path):
    base_responses, base_elapsed, base_latencies = _baseline()
    assert all(r["ok"] for r in base_responses), base_responses
    base_rps = N_REQUESTS / base_elapsed
    base_answers = [r["answers"] for r in base_responses]

    table = ResultTable(
        f"Sharded serving tier ({N_REQUESTS} mixed requests, {REPEATS}x "
        f"repeats, |domain|={SIZE}, theta={THETA})",
        x_label="worker processes (0 = sync baseline)",
        y_label="value",
    )
    table.add("req_per_s", 0, base_rps, base_rps, base_rps)
    table.add("p50_ms", 0, _quantile(base_latencies, 0.5) * 1e3, 0, 0)
    table.add("p99_ms", 0, _quantile(base_latencies, 0.99) * 1e3, 0, 0)

    rps_by_workers = {}
    for workers in WORKER_COUNTS:
        ledger_path = str(tmp_path / f"ledger-{workers}.sqlite")
        runner = ShardedServiceRunner(
            functools.partial(_bench_service, ledger_path), workers=workers
        )
        result = runner.run(N_REQUESTS, _bench_request, shard_key=_bench_session)
        assert all(r["ok"] for r in result.responses), result.responses

        # bitwise identity with the baseline, at every worker count
        assert [r["answers"] for r in result.responses] == base_answers, (
            f"{workers}-worker answers diverged from the sync baseline"
        )
        # exact budget truth in the shared ledger: one spend per client
        ledger = SQLiteLedgerStore(ledger_path)
        assert len(ledger.keys()) == N_SESSIONED
        for key in ledger.keys():
            assert len(ledger.entries(key)) == 1
            assert abs(ledger.total(key) - EPSILON) < 1e-12

        rps = result.requests_per_second
        rps_by_workers[workers] = rps
        table.add("req_per_s", workers, rps, rps, rps)
        table.add("p50_ms", workers, result.latency_quantile(0.5) * 1e3, 0, 0)
        table.add("p99_ms", workers, result.latency_quantile(0.99) * 1e3, 0, 0)
        stats = result.tier_stats
        print(
            f"{workers} worker(s): {rps:,.0f} req/s "
            f"(baseline {base_rps:,.0f}), p50 "
            f"{result.latency_quantile(0.5) * 1e3:.1f}ms, p99 "
            f"{result.latency_quantile(0.99) * 1e3:.1f}ms; "
            f"{stats['coalesced']}/{stats['received']} coalesced"
        )

    record(table, "serving_tier")

    speedup = rps_by_workers[4] / base_rps
    print(f"4-worker speedup over sync baseline: {speedup:.2f}x")
    assert speedup >= MIN_SPEEDUP, (
        f"4-worker tier is {speedup:.2f}x the sync baseline "
        f"({rps_by_workers[4]:,.0f} vs {base_rps:,.0f} req/s); need "
        f">= {MIN_SPEEDUP}x"
    )
