"""Shared harness for the HTTP serving tests.

``ServerHarness`` runs one :class:`~repro.net.BlowfishHTTPServer` on a
dedicated event-loop thread so blocking test code (clients, raw sockets,
signals) drives it exactly like external traffic would.  ``close()``
triggers the server's own graceful drain and joins the thread — every test
exercises the real shutdown path, not a daemon-thread teardown.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro import Database, Domain, Policy
from repro.api import BlowfishService
from repro.net import BlowfishHTTPServer

DOMAIN_SIZE = 60


def make_domain() -> Domain:
    return Domain.integers("v", DOMAIN_SIZE)


def make_service(seed: int = 3, cls=BlowfishService, **kwargs):
    """A service over a deterministic dataset — same seed, same data."""
    domain = make_domain()
    rng = np.random.default_rng(seed)
    db = Database.from_indices(domain, rng.integers(0, domain.size, 500))
    service = cls(**kwargs)
    service.register_dataset("data", db)
    return service


def seeded_request(i: int, *, session: str | None = None, epsilon: float = 0.5,
                   budget: float = 50.0, seed: int = 100) -> dict:
    """Deterministic request ``i``: seeded, so answers are reproducible."""
    lo = i % (DOMAIN_SIZE - 10)
    return {
        "policy": Policy.line(make_domain()).to_spec(),
        "epsilon": epsilon,
        "dataset": {"name": "data"},
        "queries": [{"kind": "range", "lo": lo, "hi": lo + 9}],
        "session": session if session is not None else f"client-{i}",
        "budget": budget,
        "seed": seed + i,
    }


class GatedService(BlowfishService):
    """``handle`` blocks on :attr:`gate` for requests carrying ``hold``.

    ``entered`` counts executions that reached the gate — coalesced
    duplicates never get here, so it measures actual service-side work.
    """

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()
        self.entered = threading.Semaphore(0)
        self.executions = 0
        self._count_lock = threading.Lock()

    def handle(self, request):
        if isinstance(request, dict) and request.get("hold"):
            with self._count_lock:
                self.executions += 1
            self.entered.release()
            self.gate.wait(20)
            request = {k: v for k, v in request.items() if k != "hold"}
        return super().handle(request)


class ServerHarness:
    """One server on its own event-loop thread; ``close()`` drains it."""

    def __init__(self, service=None, **options):
        self._ready = threading.Event()
        self._failure: BaseException | None = None
        self.server: BlowfishHTTPServer | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self.address: tuple[str, int] | None = None
        #: set once the drain was scheduled; it must be scheduled only once
        self._closing = False
        self._thread = threading.Thread(
            target=self._run, args=(service, options), daemon=True
        )
        self._thread.start()
        if not self._ready.wait(20):
            raise RuntimeError("server thread did not become ready")
        if self._failure is not None:
            raise RuntimeError("server failed to start") from self._failure

    def _run(self, service, options) -> None:
        async def main():
            try:
                self.server = BlowfishHTTPServer(service, **options)
                self.loop = asyncio.get_running_loop()
                self.address = await self.server.start()
            except BaseException as exc:
                self._failure = exc
                self._ready.set()
                return
            self._ready.set()
            await self.server.serve_forever()

        asyncio.run(main())

    @property
    def host(self) -> str:
        return self.address[0]

    @property
    def port(self) -> int:
        return self.address[1]

    def begin_close(self, deadline: float | None = None) -> None:
        """Kick off the graceful drain without waiting for it."""
        server, loop = self.server, self.loop
        self._closing = True

        def _go():
            loop.create_task(server.close(deadline=deadline))

        loop.call_soon_threadsafe(_go)

    def close(self, deadline: float | None = None) -> None:
        """Drain (unless :meth:`begin_close` already started it) and join."""
        if (
            not self._closing
            and self.server is not None
            and self.loop is not None
            and self._thread.is_alive()
        ):
            self.begin_close(deadline)
        self._thread.join(30)
        assert not self._thread.is_alive(), "server thread failed to drain"

    def __enter__(self) -> "ServerHarness":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@pytest.fixture
def harness():
    """A running server over the deterministic demo service."""
    with ServerHarness(make_service()) as h:
        yield h
