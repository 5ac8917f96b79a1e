"""``AsyncBlowfishService``: an asyncio façade over ``BlowfishService``.

The sync service is a pure function of its maps: ``handle(dict) -> dict``,
thread-safe, blocking.  An async deployment (an HTTP front end, a queue
consumer) needs two things layered on top, and they belong together
because both exploit the same fact — identical requests are
interchangeable:

* **In-flight coalescing.**  Blowfish answering is deterministic whenever
  the request pins its noise stream (an explicit ``seed``) or touches no
  noise at all (``describe``/``explain``): equal request dicts produce
  equal responses, and — the privacy-relevant half — *one* execution
  spends at most what each individual execution would have (repeated
  queries are free post-processing, Theorem 4.1; a single release serves
  every waiter).  So while such a request is in flight, arriving
  duplicates simply await the same future instead of compiling, releasing
  and spending again.  Requests that do not opt into determinism (no seed)
  are never coalesced: two unseeded answers are two different noise draws
  and must stay that way.

* **Concurrent dispatch.**  Every request that does not join an
  in-flight execution is handed straight to the thread pool as its own
  job and resolves its own future when that job finishes: nothing waits
  for a batch to fill or for a neighbour's request to finish first.  The
  event loop stays free for intake while NumPy-heavy work runs in the
  pool (which releases the GIL for the array parts).

Coalesced waiters share the *same response object* as the execution they
joined; responses are treated as immutable everywhere in this codebase, so
sharing is safe — but it also means a coalesced duplicate sees the
original's metadata (e.g. its ``epsilon_spent``), exactly as if it had
been the request that executed.

Usage::

    async with AsyncBlowfishService(service) as tier:
        responses = await tier.handle_many(requests)

or, from synchronous code, :func:`serve_many`.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import json
from concurrent.futures import ThreadPoolExecutor

from .. import obs
from .service import BlowfishService

__all__ = ["AsyncBlowfishService", "ServiceDraining", "serve_many"]

#: Ops that never draw noise — always coalescable, seed or not.
_NOISELESS_OPS = frozenset({"describe", "explain", "check"})

#: Request fields that do not change the response the service computes —
#: excluded from the coalescing digest so that two otherwise-identical
#: requests differing only in caller-side correlation metadata still share
#: one execution.  A coalesced waiter consequently sees the *executing*
#: request's ``meta.request_id``; the HTTP front end rewrites it per
#: connection (copy-on-write) before anything reaches a client.
_IDENTITY_FREE_FIELDS = frozenset({"request_id"})


class ServiceDraining(RuntimeError):
    """Submission refused: the tier is draining and accepts no new work.

    Raised by :meth:`AsyncBlowfishService.handle` once :meth:`drain` (or
    :meth:`aclose`) has begun.  Work accepted before the drain started is
    unaffected — its awaiting callers still get their responses.
    """


class AsyncBlowfishService:
    """Asyncio front end: in-flight coalescing over a sync service.

    Parameters
    ----------
    service:
        The :class:`BlowfishService` to front; a fresh one by default.
    max_workers:
        Thread-pool width.  The sync service is thread-safe, so up to this
        many requests execute concurrently, one pool thread each.
    """

    def __init__(self, service: BlowfishService | None = None, *, max_workers: int = 4):
        if max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.service = service if service is not None else BlowfishService()
        self.max_workers = max_workers
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="blowfish-tier"
        )
        self._inflight: dict[str, asyncio.Future] = {}
        self._pending: set[asyncio.Future] = set()
        self._draining = False
        self._stats = {"received": 0, "coalesced": 0, "executed": 0}

    # -- coalescing identity ---------------------------------------------------------
    @staticmethod
    def _coalescable(request: dict) -> bool:
        """Whether equal copies of ``request`` may share one execution.

        True only when the response is a deterministic function of the
        request: noiseless ops, or an explicitly seeded noise stream.  An
        unseeded answering request asked twice must draw twice.
        """
        if not isinstance(request, dict):
            return False
        if request.get("op", "answer") in _NOISELESS_OPS:
            return True
        seed = request.get("seed")
        return isinstance(seed, int) and not isinstance(seed, bool)

    @staticmethod
    def _digest(request: dict) -> str | None:
        """Canonical identity of a request dict, or None if not canonicalizable.

        Correlation-only fields (:data:`_IDENTITY_FREE_FIELDS`) are dropped
        first: a request id names *who asked*, not *what was asked*, and
        must not defeat coalescing of otherwise-equal requests.
        """
        if any(field in request for field in _IDENTITY_FREE_FIELDS):
            request = {
                k: v for k, v in request.items() if k not in _IDENTITY_FREE_FIELDS
            }
        try:
            payload = json.dumps(
                request, sort_keys=True, separators=(",", ":"), allow_nan=False
            )
        except (TypeError, ValueError):
            return None
        return hashlib.sha256(payload.encode()).hexdigest()

    # -- the async boundary ----------------------------------------------------------
    async def handle(self, request: dict) -> dict:
        """Serve one request; equal in-flight requests execute once.

        Raises :class:`ServiceDraining` once :meth:`drain`/:meth:`aclose`
        has begun — a draining tier accepts no new work (not even joins of
        still-in-flight executions: the joiner is a *new* submission).
        """
        if self._draining:
            obs.metrics().counter("async_requests_total", outcome="rejected").inc()
            raise ServiceDraining("service tier is draining; no new requests accepted")
        self._stats["received"] += 1
        obs.metrics().counter("async_requests_total", outcome="received").inc()
        digest = self._digest(request) if self._coalescable(request) else None
        if digest is not None:
            inflight = self._inflight.get(digest)
            if inflight is not None:
                self._stats["coalesced"] += 1
                obs.metrics().counter("async_requests_total", outcome="coalesced").inc()
                return await inflight
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        if digest is not None:
            self._inflight[digest] = future
        execution = loop.run_in_executor(self._executor, self.service.handle, request)
        self._pending.add(execution)
        execution.add_done_callback(functools.partial(self._settle, future, digest))
        return await future

    async def handle_many(self, requests) -> list[dict]:
        """Serve a request collection concurrently, preserving order."""
        return list(await asyncio.gather(*(self.handle(r) for r in requests)))

    def _settle(
        self, future: asyncio.Future, digest: str | None, execution: asyncio.Future
    ) -> None:
        """Hand a finished execution's outcome to the future its waiters await."""
        self._pending.discard(execution)
        if digest is not None and self._inflight.get(digest) is future:
            del self._inflight[digest]
        self._stats["executed"] += 1
        obs.metrics().counter("async_requests_total", outcome="executed").inc()
        exc = execution.exception()  # propagated to the awaiting callers
        if future.cancelled():
            return
        if exc is not None:
            future.set_exception(exc)
        else:
            future.set_result(execution.result())

    # -- lifecycle -------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Traffic counters: received, coalesced, executed.

        ``received == coalesced + executed`` once the tier is drained; the
        coalesced count is the number of executions the tier avoided.
        """
        return dict(self._stats)

    @property
    def draining(self) -> bool:
        """Whether the tier has stopped accepting new submissions."""
        return self._draining

    async def drain(self) -> None:
        """Reject new submissions and flush everything already accepted.

        After ``drain()`` returns, every request accepted before the drain
        began has its response (or exception) set — requests still waiting
        for a pool thread are executed, nothing is dropped — and further
        :meth:`handle` calls raise :class:`ServiceDraining`.  The worker
        pool stays alive; :meth:`aclose` remains the terminal step.  This
        is the seam a long-lived front end's graceful shutdown hangs off:
        stop intake first, then wait here for in-flight truth to settle.

        Idempotent and safe to call concurrently with in-flight requests.
        """
        self._draining = True
        # flush: every accepted request resolves, even ones still waiting
        # for a pool thread (a waiter that went away does not cancel them)
        while self._pending:
            done, _ = await asyncio.wait(tuple(self._pending))
            for execution in done:
                # mark any stored exception retrieved so shutdown does not
                # log "exception was never retrieved"
                if not execution.cancelled():
                    execution.exception()
        # one more turn of the loop: callers whose futures resolved just
        # before the drain began get to run before it returns
        await asyncio.sleep(0)

    async def aclose(self) -> None:
        """Drain (flush accepted work, reject new), then release the pool."""
        await self.drain()
        self._executor.shutdown(wait=True)

    async def __aenter__(self) -> "AsyncBlowfishService":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    def __repr__(self) -> str:
        s = self._stats
        return (
            f"AsyncBlowfishService(workers={self.max_workers}, "
            f"executed={s['executed']}, coalesced={s['coalesced']})"
        )


def serve_many(
    service: BlowfishService,
    requests,
    *,
    max_workers: int = 4,
) -> tuple[list[dict], dict]:
    """Run a request stream through a temporary async tier, synchronously.

    Returns ``(responses, stats)`` with responses in request order — the
    convenience entry point for scripts and benchmarks that want
    coalescing without owning an event loop.
    """

    async def run():
        async with AsyncBlowfishService(service, max_workers=max_workers) as tier:
            responses = await tier.handle_many(requests)
            return responses, tier.stats()

    return asyncio.run(run())
