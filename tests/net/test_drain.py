"""The drain seam under the HTTP layer, and the status mapping table.

``AsyncBlowfishService.drain()`` is the contract the server's graceful
shutdown leans on: everything accepted before the drain settles (queued
requests still execute — nothing is dropped), everything after raises
``ServiceDraining``.  ``status_for_response`` is the one function that
turns service error kinds into wire statuses.
"""

from __future__ import annotations

import asyncio
import gc

import pytest

from repro.api import AsyncBlowfishService, ServiceDraining
from repro.net import status_for_response

from harness import make_service, seeded_request


# -- status mapping ---------------------------------------------------------------------


def test_status_for_response_mapping():
    assert status_for_response({"ok": True, "answers": []}) == 200
    assert (
        status_for_response({"ok": False, "error": {"kind": "budget_exhausted"}})
        == 409
    )
    # a refusal carrying a diagnostic code (EdgeScanRefused details) is 422
    assert (
        status_for_response(
            {"ok": False, "error": {"kind": "invalid_request", "code": "POL201"}}
        )
        == 422
    )
    assert (
        status_for_response({"ok": False, "error": {"kind": "invalid_request"}})
        == 400
    )
    assert status_for_response({"ok": False, "error": {"kind": "internal"}}) == 500
    # malformed shapes never map to a success status
    assert status_for_response(None) == 500
    assert status_for_response({"ok": False}) == 500
    assert status_for_response({"ok": False, "error": "boom"}) == 500


# -- the drain seam ---------------------------------------------------------------------


def test_drain_flushes_accepted_work_and_rejects_new():
    service = make_service()

    async def main():
        tier = AsyncBlowfishService(service)
        try:
            tasks = [
                asyncio.ensure_future(tier.handle(seeded_request(i)))
                for i in range(5)
            ]
            await asyncio.sleep(0.01)  # let every submission enqueue
            assert not tier.draining
            await tier.drain()
            assert tier.draining
            for task in tasks:
                assert task.done()
                assert task.result()["ok"] is True  # accepted work settled
            with pytest.raises(ServiceDraining):
                await tier.handle(seeded_request(9))
        finally:
            await tier.aclose()

    asyncio.run(main())


def test_drain_is_idempotent_and_aclose_still_works():
    service = make_service()

    async def main():
        tier = AsyncBlowfishService(service)
        response = await tier.handle(seeded_request(0))
        assert response["ok"]
        await tier.drain()
        await tier.drain()  # second drain is a no-op, not an error
        await tier.aclose()

    asyncio.run(main())


def test_drain_retrieves_abandoned_waiter_exceptions():
    """A waiter whose connection was aborted mid-flight never consumes its
    future; ``drain()`` must mark any exception on it retrieved so shutdown
    does not log "exception was never retrieved"."""
    problems: list[str] = []

    async def main():
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(
            lambda _loop, ctx: problems.append(ctx.get("message", ""))
        )
        tier = AsyncBlowfishService(make_service())
        # a pending submission exactly as handle() registers one, whose
        # waiter has gone away and whose execution fails mid-drain
        fut = loop.create_future()
        tier._pending.add(fut)
        fut.add_done_callback(tier._pending.discard)
        loop.call_later(0.02, fut.set_exception, RuntimeError("batch blew up"))
        await tier.drain()
        assert fut.done()
        del fut
        gc.collect()
        await asyncio.sleep(0)
        await tier.aclose()

    asyncio.run(main())
    assert not [m for m in problems if "never retrieved" in m], problems


def test_request_id_does_not_defeat_coalescing():
    """Unique per-request ids must not change the coalescing identity."""
    service = make_service()

    async def main():
        tier = AsyncBlowfishService(service)
        try:
            base = seeded_request(0, session="shared")
            tasks = [
                asyncio.ensure_future(
                    tier.handle(dict(base, request_id=f"rid-{i}"))
                )
                for i in range(4)
            ]
            responses = await asyncio.gather(*tasks)
            stats = tier.stats()
            assert stats["executed"] == 1
            assert stats["coalesced"] == 3
            assert all(r["answers"] == responses[0]["answers"] for r in responses)
        finally:
            await tier.aclose()

    asyncio.run(main())
