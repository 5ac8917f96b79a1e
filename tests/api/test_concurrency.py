"""Multi-threaded serving: one ledger per key, no lost spends, shared plans.

The guarantees the README's "Thread safety" section advertises, asserted
under real thread pools with barriers maximizing contention:

* racing ``handle()`` calls for the same brand-new session key construct
  exactly one :class:`Session` ledger, and the epsilon reported across the
  responses sums to exactly what that ledger recorded;
* concurrent spends on one session never lose increments;
* parallel ``plan`` ops return answers bitwise identical to serial
  execution, with the compiled plan shared through the cross-tenant
  :class:`PlanCache`;
* :class:`EnginePool` hands every racing caller the same engine object and
  reports the hit/miss of *this* call, not a neighbour's.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro import Database, Domain, Policy
from repro.api import BlowfishService, EnginePool, PlanCache, serve_many
from repro.stream import synthetic_feed

N_THREADS = 16


@pytest.fixture
def domain():
    return Domain.integers("v", 150)


@pytest.fixture
def db(domain):
    rng = np.random.default_rng(7)
    return Database.from_indices(domain, rng.integers(0, domain.size, 1_500))


def _service(db):
    service = BlowfishService()
    service.register_dataset("data", db)
    return service


def _hammer(n_threads, worker):
    """Run ``worker(i)`` on n_threads threads released through one barrier."""
    barrier = threading.Barrier(n_threads)
    results: list = [None] * n_threads
    errors: list = []

    def run(i):
        try:
            barrier.wait()
            results[i] = worker(i)
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    return results


class TestSessionRaces:
    def test_same_new_session_key_creates_exactly_one_ledger(self, domain, db):
        service = _service(db)
        request = json.loads(json.dumps({
            "policy": Policy.line(domain).to_spec(),
            "epsilon": 0.5,
            "dataset": {"name": "data"},
            "queries": {"kind": "range_batch", "los": [5, 0], "his": [60, 149]},
            "session": "hammered",
            "budget": 5.0,
        }))

        responses = _hammer(N_THREADS, lambda i: service.handle(dict(request)))

        assert all(r["ok"] for r in responses), responses
        # exactly one Session ever existed for the key
        assert len(service._sessions) == 1
        (session,) = service._sessions.values()
        # one release total: one "miss", every other request reused it free
        cache_states = [r["meta"]["release_cache"]["range"] for r in responses]
        assert cache_states.count("miss") == 1
        # no spend was lost and none double-charged: the per-response deltas
        # sum to exactly what the surviving ledger recorded
        total = sum(r["meta"]["epsilon_spent"] for r in responses)
        assert total == pytest.approx(session.accountant.sequential_total())
        assert session.accountant.sequential_total() == pytest.approx(0.5)
        assert all(r["meta"]["session_total"] == pytest.approx(0.5) for r in responses)
        # every response was answered from the one shared release
        first = responses[0]["answers"]
        assert all(r["answers"] == first for r in responses)

    def test_concurrent_fresh_releases_never_lose_spends(self, domain, db):
        # each thread sends a linear query with a distinct weight row, so
        # every request must charge one fresh sub-batch release
        service = _service(db)
        base = {
            "policy": Policy.line(domain).to_spec(),
            "epsilon": 0.5,
            "dataset": {"name": "data"},
            "session": "spender",
        }

        def worker(i):
            weights = [0.0] * db.n
            weights[i] = 1.0
            request = json.loads(json.dumps({
                **base, "queries": [{"kind": "linear", "weights": weights}]
            }))
            return service.handle(request)

        responses = _hammer(N_THREADS, worker)

        assert all(r["ok"] for r in responses), responses
        assert all(
            r["meta"]["epsilon_spent"] == pytest.approx(0.5) for r in responses
        )
        (session,) = service._sessions.values()
        assert session.accountant.sequential_total() == pytest.approx(0.5 * N_THREADS)
        assert sum(r["meta"]["epsilon_spent"] for r in responses) == pytest.approx(
            session.accountant.sequential_total()
        )


class TestParallelPlans:
    def _plan_request(self, domain, tenant):
        support = [int(i) for i in range(40, 90)]
        return json.loads(json.dumps({
            "op": "plan",
            "policy": Policy.distance_threshold(domain, 4).to_spec(),
            "epsilon": 0.5,
            "dataset": {"name": "data"},
            "queries": [{"kind": "range", "lo": 10, "hi": 100},
                        {"kind": "range", "lo": 0, "hi": 149},
                        {"kind": "count", "support": support}],
            "session": f"tenant-{tenant}",
            "seed": 1234,
        }))

    def test_parallel_plan_ops_match_serial_bitwise(self, domain, db):
        serial = _service(db)
        expected = [
            serial.handle(self._plan_request(domain, i)) for i in range(N_THREADS)
        ]
        assert all(r["ok"] for r in expected), expected

        concurrent = _service(db)
        got = _hammer(
            N_THREADS, lambda i: concurrent.handle(self._plan_request(domain, i))
        )
        assert all(r["ok"] for r in got), got
        for r_serial, r_parallel in zip(expected, got):
            assert r_parallel["answers"] == r_serial["answers"]
            assert r_parallel["plan"]["fingerprint"] == r_serial["plan"]["fingerprint"]

        # one workload, one cached plan, shared across every tenant
        stats = concurrent.pool.plan_cache.stats()
        assert stats["size"] == 1
        assert stats["hits"] >= 1
        assert any(r["meta"]["plan_cache"] == "hit" for r in got)


class TestPoolRaces:
    def test_racing_gets_share_one_engine(self, domain):
        pool = EnginePool()
        policy = Policy.distance_threshold(domain, 6)
        engines = _hammer(N_THREADS, lambda i: pool.get_with_meta(policy, 0.5))
        objects = {id(e) for e, _ in engines}
        assert len(objects) == 1
        assert len(pool) == 1
        flags = [flag for _, flag in engines]
        assert flags.count("miss") == 1
        stats = pool.stats()
        assert stats["hits"] + stats["misses"] == N_THREADS
        assert pool.key(policy, 0.5) in pool

    def test_get_with_meta_is_per_call_not_a_counter_delta(self, domain):
        pool = EnginePool()
        a = Policy.line(domain)
        b = Policy.distance_threshold(domain, 3)
        assert pool.get_with_meta(a, 0.5)[1] == "miss"
        # a different tenant's hit must not mislabel this tenant's miss
        assert pool.get_with_meta(a, 0.5)[1] == "hit"
        assert pool.get_with_meta(b, 0.5)[1] == "miss"
        assert pool.get_with_meta(b, 0.5)[1] == "hit"


class TestPlanCache:
    def test_lru_bound_and_stats(self):
        cache = PlanCache(maxsize=2)
        assert cache.lookup(("a",)) is None
        assert cache.store(("a",), "plan-a") == "plan-a"
        assert cache.store(("b",), "plan-b") == "plan-b"
        assert cache.lookup(("a",)) == "plan-a"  # refreshes "a"
        cache.store(("c",), "plan-c")            # evicts "b"
        assert cache.lookup(("b",)) is None
        assert cache.lookup(("a",)) == "plan-a"
        stats = cache.stats()
        assert stats["size"] == 2 and stats["evictions"] == 1
        assert stats["hits"] == 2 and stats["misses"] == 2
        assert len(cache) == 2 and ("a",) in cache

    def test_racing_stores_converge_on_the_incumbent(self):
        cache = PlanCache()
        stored = _hammer(N_THREADS, lambda i: cache.store(("k",), f"plan-{i}"))
        assert len(set(stored)) == 1
        assert cache.lookup(("k",)) == stored[0]

    def test_only_a_plan_larger_than_max_bytes_goes_uncached(self):
        class Sized:
            def __init__(self, n):
                self.n = n

            def nbytes(self):
                return self.n

        cache = PlanCache(maxsize=256, max_bytes=1_000)
        fits, big = Sized(900), Sized(1_001)
        assert cache.store(("fits",), fits) is fits
        assert cache.store(("big",), big) is big
        assert ("fits",) in cache and ("big",) not in cache
        stats = cache.stats()
        assert stats["oversize"] == 1 and stats["bytes"] == 900


class TestFitsAndStreamsUnderConcurrency:
    """Per-dataset fits and the stream tick are explicit planner inputs, so
    interleaved requests on datasets with different fits (and on a stream)
    can never score under a neighbour's cost model."""

    FITS = {
        "uniform-ages": "uniform",
        "payroll": "synthetic-grid",
        "twitter-feed": "twitter",
    }
    CONTINUAL = {"hierarchical-interval", "sliding-window"}

    @staticmethod
    def _service():
        stream, batches = synthetic_feed(domain_size=64, ticks=1, per_tick=200, rng=0)
        domain = stream.domain
        rng = np.random.default_rng(3)
        db = Database.from_indices(domain, rng.integers(0, 64, 400))
        service = BlowfishService()
        service.register_dataset("uniform-ages", db)
        service.register_dataset("payroll", db)
        service.register_stream("twitter-feed", stream)
        service.handle(
            {"op": "append", "stream": "twitter-feed", "indices": batches[0].tolist()}
        )
        service.handle({"op": "tick", "stream": "twitter-feed"})
        return service, domain

    def _requests(self, domain):
        names = sorted(self.FITS)
        requests = []
        for i in range(24):
            name = names[i % 3]
            request = {
                "op": "plan",
                "policy": Policy.distance_threshold(domain, 2).to_spec(),
                "epsilon": 0.5,
                "dataset": {"name": name},
                # two workloads per dataset: plan-cache hits and misses mix
                "queries": {"kind": "range_batch", "los": [i % 2, 10], "his": [40, 63]},
                "session": f"tenant-{i}",
                "seed": i,
                "trace": True,
            }
            if name == "twitter-feed" and i % 2 == 0:
                request["plan_budget"] = {
                    "kind": "stream_budget", "total": 4.0, "horizon": 16
                }
            requests.append(request)
        return requests

    @staticmethod
    def _spans(node, name):
        found = [node] if node.get("name") == name else []
        for child in node.get("children", ()):
            found.extend(TestFitsAndStreamsUnderConcurrency._spans(child, name))
        return found

    def test_each_compile_uses_its_own_fit_and_answers_match_serial(self):
        service, domain = self._service()
        requests = self._requests(domain)
        responses, _stats = serve_many(service, [dict(r) for r in requests], max_workers=4)
        serial_service, _ = self._service()
        serial = [serial_service.handle(dict(r)) for r in requests]

        compiled = set()
        for request, response, reference in zip(requests, responses, serial):
            assert response["ok"], response
            name = request["dataset"]["name"]
            for span in self._spans(response["meta"]["trace"], "planner.compile"):
                assert span["attributes"]["cost_model"] == self.FITS[name]
                compiled.add(name)
            assert response["answers"] == reference["answers"]
            scored = {
                n for step in response["plan"]["steps"] for n, _ in step.get("scores", ())
            }
            if "plan_budget" in request:
                # a stream tick: the continual candidates compete
                assert scored & self.CONTINUAL
            else:
                # one-shot: they are never even scored
                assert not scored & self.CONTINUAL, response["plan"]["steps"]
        assert compiled == set(self.FITS)
