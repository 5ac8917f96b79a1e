"""The asyncio serving tier: coalescing is exact and answers are unchanged.

Pure-asyncio tests (no plugin needed — each test drives its own loop via
``asyncio.run``):

* identical *seeded* in-flight requests execute once and every waiter gets
  the same response; unseeded requests never coalesce (two unseeded
  answers must be two noise draws);
* responses through the tier are bitwise identical to the sync service
  handling the same stream;
* an exception inside the sync service propagates to every coalesced
  waiter; stats add up (``received == coalesced + executed``);
* distinct requests execute concurrently on the pool — none waits for a
  neighbour to finish, and a neighbour's failure stays its own.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro import Database, Domain, Policy
from repro.api import AsyncBlowfishService, BlowfishService, serve_many


@pytest.fixture
def domain():
    return Domain.integers("v", 80)


@pytest.fixture
def db(domain):
    rng = np.random.default_rng(11)
    return Database.from_indices(domain, rng.integers(0, domain.size, 800))


def _service(db):
    service = BlowfishService()
    service.register_dataset("data", db)
    return service


class _CountingService:
    """Wraps a service, counting (thread-safely) how often handle() runs."""

    def __init__(self, inner, fail: Exception | None = None):
        self.inner = inner
        self.fail = fail
        self.calls = 0
        self._lock = threading.Lock()

    def handle(self, request):
        with self._lock:
            self.calls += 1
        if self.fail is not None:
            raise self.fail
        return self.inner.handle(request)


def _range_request(domain, *, seed=None, session=None, lo=10, hi=60):
    request = {
        "policy": Policy.line(domain).to_spec(),
        "epsilon": 0.5,
        "dataset": {"name": "data"},
        "queries": [{"kind": "range", "lo": lo, "hi": hi}],
    }
    if seed is not None:
        request["seed"] = seed
    if session is not None:
        request["session"] = session
    return request


class TestCoalescable:
    def test_rules(self, domain):
        can = AsyncBlowfishService._coalescable
        assert can({"op": "describe"})
        assert can({"op": "explain"})
        assert can({"seed": 3})
        assert can({"op": "plan", "seed": 0})
        assert not can({})  # unseeded answer: a fresh noise draw
        assert not can({"seed": True})  # bools are not seeds
        assert not can({"seed": 3.5})
        assert not can("not-a-dict")

    def test_digest_is_order_insensitive(self):
        a = AsyncBlowfishService._digest({"x": 1, "y": [2, 3]})
        b = AsyncBlowfishService._digest({"y": [2, 3], "x": 1})
        assert a == b and a is not None
        assert AsyncBlowfishService._digest({"x": object()}) is None


class TestCoalescing:
    def test_identical_seeded_requests_execute_once(self, domain, db):
        counting = _CountingService(_service(db))
        request = _range_request(domain, seed=5)

        async def run():
            async with AsyncBlowfishService(counting) as tier:
                return await tier.handle_many([dict(request) for _ in range(12)]), tier.stats()

        responses, stats = asyncio.run(run())
        assert all(r["ok"] for r in responses), responses
        assert counting.calls == 1
        assert stats["executed"] == 1 and stats["coalesced"] == 11
        assert stats["received"] == stats["executed"] + stats["coalesced"]
        first = responses[0]
        assert all(r is first for r in responses)  # the shared response object

    def test_unseeded_requests_never_coalesce(self, domain, db):
        counting = _CountingService(_service(db))
        request = _range_request(domain)  # no seed: each ask is a new draw

        async def run():
            async with AsyncBlowfishService(counting) as tier:
                return await tier.handle_many([dict(request) for _ in range(6)]), tier.stats()

        responses, stats = asyncio.run(run())
        assert all(r["ok"] for r in responses)
        assert counting.calls == 6
        assert stats["coalesced"] == 0 and stats["executed"] == 6
        # and they really are independent draws
        assert len({r["answers"][0] for r in responses}) > 1

    def test_distinct_seeded_requests_do_not_share(self, domain, db):
        counting = _CountingService(_service(db))
        requests = [_range_request(domain, seed=i) for i in range(5)]

        async def run():
            async with AsyncBlowfishService(counting) as tier:
                return await tier.handle_many(requests), tier.stats()

        responses, stats = asyncio.run(run())
        assert all(r["ok"] for r in responses)
        assert counting.calls == 5 and stats["coalesced"] == 0


class TestAnswersUnchanged:
    def test_tier_matches_sync_service_bitwise(self, domain, db):
        # sessionless seeded requests are pure functions of the request, so
        # the tier's concurrent scheduling cannot show through: every answer
        # must equal the sync service's, bit for bit
        requests = [
            _range_request(domain, seed=i, lo=i, hi=40 + i) for i in range(8)
        ]
        expected = [_service(db).handle(dict(r)) for r in requests]
        got, stats = serve_many(_service(db), [dict(r) for r in requests])
        assert all(r["ok"] for r in got), got
        assert [r["answers"] for r in got] == [r["answers"] for r in expected]
        assert stats["received"] == 8
        assert stats["executed"] == 8

    def test_session_repeats_identical_in_any_order(self, domain, db):
        # within a session the guarantee is per *request*: repeats of one
        # seeded request are answer-identical however the tier schedules
        # them (first execution releases, the rest coalesce or reuse free)
        request = _range_request(domain, seed=9, session="tenant")
        got, _stats = serve_many(_service(db), [dict(request) for _ in range(6)])
        assert all(r["ok"] for r in got), got
        assert len({tuple(r["answers"]) for r in got}) == 1
        expected = _service(db).handle(dict(request))
        assert got[0]["answers"] == expected["answers"]


class TestErrorsAndLifecycle:
    def test_service_exception_propagates_to_every_waiter(self, domain, db):
        boom = RuntimeError("ledger on fire")
        counting = _CountingService(_service(db), fail=boom)
        request = _range_request(domain, seed=1)

        async def run():
            async with AsyncBlowfishService(counting) as tier:
                results = await asyncio.gather(
                    *(tier.handle(dict(request)) for _ in range(4)),
                    return_exceptions=True,
                )
                return results, tier.stats()

        results, stats = asyncio.run(run())
        assert all(r is boom for r in results)  # coalesced waiters share the failure
        assert counting.calls == 1

    def test_sequential_repeats_execute_fresh(self, domain, db):
        # coalescing is strictly *in-flight*: once a request resolves, its
        # digest leaves the map and a later repeat executes again (at-rest
        # reuse is the session release cache's job, not the tier's)
        service = _service(db)
        counting = _CountingService(service)
        request = _range_request(domain, seed=2)

        async def run():
            async with AsyncBlowfishService(counting) as tier:
                first = await tier.handle(dict(request))
                second = await tier.handle(dict(request))
                return first, second, tier.stats()

        first, second, stats = asyncio.run(run())
        # sequential (not concurrent) repeats: nothing in flight, both run
        assert counting.calls == 2
        assert stats["coalesced"] == 0
        assert first["answers"] == second["answers"]  # seeded: still identical

    def test_validation(self):
        with pytest.raises(ValueError):
            AsyncBlowfishService(max_workers=0)


class _BarrierService:
    """Each ``handle`` waits until two calls are inside it at once."""

    def __init__(self, fail_on=None):
        self.barrier = threading.Barrier(2, timeout=5)
        self.fail_on = fail_on

    def handle(self, request):
        self.barrier.wait()
        if request["name"] == self.fail_on:
            raise RuntimeError(f"{request['name']} failed")
        return {"ok": True, "name": request["name"]}


class TestConcurrentDispatch:
    def test_two_requests_execute_at_once(self):
        # a tier that ran one request after the other would leave the
        # barrier at one party until its timeout breaks it
        async def run():
            async with AsyncBlowfishService(_BarrierService(), max_workers=2) as tier:
                return await tier.handle_many([{"name": "a"}, {"name": "b"}])

        responses = asyncio.run(run())
        assert [r["name"] for r in responses] == ["a", "b"]

    def test_failure_does_not_reach_a_concurrent_neighbour(self):
        async def run():
            async with AsyncBlowfishService(
                _BarrierService(fail_on="a"), max_workers=2
            ) as tier:
                return await asyncio.gather(
                    tier.handle({"name": "a"}),
                    tier.handle({"name": "b"}),
                    return_exceptions=True,
                ), tier.stats()

        (failed, ok), stats = asyncio.run(run())
        assert isinstance(failed, RuntimeError) and str(failed) == "a failed"
        assert ok == {"ok": True, "name": "b"}
        assert stats["executed"] == 2 and stats["coalesced"] == 0
