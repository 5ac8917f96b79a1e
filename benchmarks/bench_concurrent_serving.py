"""Multi-threaded serving: correct budget totals and the plan-cache win.

Two claims about :class:`repro.api.BlowfishService` under a thread pool:

* **Correctness** — 16 threads hammering ``handle()`` with the *same
  brand-new session key* construct exactly one :class:`Session` ledger,
  release exactly once, and the epsilon reported across responses sums to
  exactly what that ledger recorded (no lost or double spends); parallel
  ``plan`` ops return answers bitwise identical to serial execution.
* **Speed** — repeated identical workloads skip candidate scoring via the
  cross-tenant :class:`PlanCache`: the cached-plan path is measurably
  faster than cold planning (a 4,400-query mixed workload over
  |T| = 20,000, where scoring runs the O(q * |T|) mask statistics), with
  the cached plan's executed answers bitwise identical to the cold plan's.

Writes ``benchmarks/results/concurrent_serving.csv``.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from conftest import record

from repro import Database, Domain, Policy, Workload
from repro.api import BlowfishService
from repro.experiments.results import ResultTable
from repro.plan import Executor, QueryGroup

SIZE = 20_000
N_TUPLES = 40_000
N_RANGES = 4_000
N_COUNTS = 400
THETA = 2
EPSILON = 0.5
SEED = 20140623
N_THREADS = 16
REPEATS = 5


def _setting():
    rng = np.random.default_rng(SEED)
    domain = Domain.integers("v", SIZE)
    db = Database.from_indices(domain, rng.integers(0, SIZE, size=N_TUPLES))
    los = rng.integers(0, SIZE, size=N_RANGES)
    his = rng.integers(0, SIZE, size=N_RANGES)
    los, his = np.minimum(los, his), np.maximum(los, his)
    starts = rng.integers(0, SIZE - 500, size=N_COUNTS)
    widths = rng.integers(50, 500, size=N_COUNTS)
    masks = np.zeros((N_COUNTS, SIZE), dtype=bool)
    for i, (s, w) in enumerate(zip(starts, widths)):
        masks[i, s : s + w] = True
    workload = Workload(
        domain,
        [QueryGroup.ranges(los, his), QueryGroup.counts(masks, name="bands")],
    )
    service = BlowfishService()
    service.register_dataset("data", db)
    return service, domain, db, workload, (los, his)


def test_concurrent_totals_and_plan_cache_speedup():
    service, domain, db, workload, (los, his) = _setting()
    policy = Policy.distance_threshold(domain, THETA)

    # -- correctness: one ledger, no lost spends, same new session key --------
    request = {
        "policy": policy.to_spec(),
        "epsilon": EPSILON,
        "dataset": {"name": "data"},
        "queries": {"kind": "range_batch", "los": los.tolist(), "his": his.tolist()},
        "session": "hammered",
        "budget": 4 * EPSILON,
    }
    with ThreadPoolExecutor(N_THREADS) as pool:
        responses = list(pool.map(lambda _: service.handle(dict(request)), range(N_THREADS)))
    assert all(r["ok"] for r in responses), responses
    assert len(service._sessions) == 1, "racing handles built more than one ledger"
    (session,) = service._sessions.values()
    reported = sum(r["meta"]["epsilon_spent"] for r in responses)
    ledger = session.accountant.sequential_total()
    assert abs(reported - ledger) < 1e-12, (reported, ledger)
    assert abs(ledger - EPSILON) < 1e-12, ledger  # exactly one release
    assert [r["meta"]["release_cache"]["range"] for r in responses].count("miss") == 1
    first = responses[0]["answers"]
    assert all(r["answers"] == first for r in responses)

    # -- parallel plan ops: bitwise identical to serial -----------------------
    plan_request = {
        "op": "plan",
        "policy": policy.to_spec(),
        "epsilon": EPSILON,
        "dataset": {"name": "data"},
        "queries": workload.to_spec(),
        "seed": SEED,
    }
    serial_service, *_ = _setting()
    serial = [serial_service.handle(dict(plan_request)) for _ in range(N_THREADS)]
    with ThreadPoolExecutor(N_THREADS) as pool:
        parallel = list(
            pool.map(lambda _: service.handle(dict(plan_request)), range(N_THREADS))
        )
    assert all(r["ok"] for r in serial + parallel)
    for r in parallel:
        assert r["answers"] == serial[0]["answers"], "parallel diverged from serial"
    assert service.pool.plan_cache.stats()["size"] >= 1

    # -- speed: cached plans skip candidate scoring ---------------------------
    engine = service.pool.get(policy, EPSILON)
    cold = warm = float("inf")
    for _ in range(REPEATS):
        service.pool.plan_cache.clear()
        t0 = time.perf_counter()
        plan_cold, state = engine.plan_with_meta(workload)
        cold = min(cold, time.perf_counter() - t0)
        assert state == "miss"
        t0 = time.perf_counter()
        plan_warm, state = engine.plan_with_meta(workload)
        warm = min(warm, time.perf_counter() - t0)
        assert state == "hit"
        # cached plans are stored payload-free and re-bound on every hit
        assert plan_warm.fingerprint() == plan_cold.fingerprint()

    # cached plans execute bitwise-identically to cold-compiled ones
    service.pool.plan_cache.clear()
    fresh, _ = engine.plan_with_meta(workload)
    a = Executor(engine).run(fresh, db, rng=np.random.default_rng(SEED)).answers
    cached, _ = engine.plan_with_meta(workload)
    b = Executor(engine).run(cached, db, rng=np.random.default_rng(SEED)).answers
    assert np.array_equal(a, b)

    table = ResultTable(
        f"Concurrent serving ({N_THREADS} threads, {N_RANGES + N_COUNTS} mixed "
        f"queries, |T|={SIZE}, theta={THETA})",
        x_label="path (0=cold plan, 1=cached plan)",
        y_label="value",
    )
    for i, (label, t) in enumerate((("cold", cold), ("cached", warm))):
        table.add("plan-latency-ms", i, t * 1e3, t * 1e3, t * 1e3)
    table.add("speedup", 0, cold / warm, cold / warm, cold / warm)
    record(table, "concurrent_serving")

    print(
        f"cold plan {cold * 1e3:.2f}ms, cached {warm * 1e3:.2f}ms "
        f"({cold / warm:.1f}x); ledger total {ledger:g} across {N_THREADS} "
        f"racing requests"
    )

    assert warm <= cold * 0.5, (
        f"cached-plan path ({warm * 1e3:.2f}ms) is not measurably faster than "
        f"cold planning ({cold * 1e3:.2f}ms)"
    )
