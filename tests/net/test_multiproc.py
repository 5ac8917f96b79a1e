"""Multi-worker HTTP serving: one port, one budget truth, merged metrics.

Workers are real forked processes behind a real shared port; budget truth
lives in one SQLite ledger.  The acceptance properties pinned here:

* keep-alive clients spread across workers get answers bitwise-identical
  to the in-process service, with exactly one ledger spend per client;
* ``/metrics`` scraped from *any* worker reports whole-tier counts;
* SIGTERM drains every worker gracefully — in-flight requests complete
  (0 dropped) and workers exit 0.
"""

from __future__ import annotations

import re
import threading
import time
from functools import partial

import numpy as np
import pytest

from repro import Database, Domain
from repro.api import BlowfishService, SQLiteLedgerStore
from repro.net import BlowfishClient, MultiprocHTTPServer

from harness import make_service, seeded_request

DOMAIN_SIZE = 60


# module-level factories: picklable under any multiprocessing start method
def _worker_service(ledger_path: str, cls=BlowfishService):
    domain = Domain.integers("v", DOMAIN_SIZE)
    rng = np.random.default_rng(3)  # same data as harness.make_service
    db = Database.from_indices(domain, rng.integers(0, domain.size, 500))
    service = cls(ledger_store=SQLiteLedgerStore(ledger_path))
    service.register_dataset("data", db)
    return service


class _SlowService(BlowfishService):
    """Requests carrying ``slow`` take ~0.8s — long enough that a SIGTERM
    mid-request exercises the drain path, short enough to finish in it."""

    def handle(self, request):
        if isinstance(request, dict) and request.get("slow"):
            time.sleep(0.8)
            request = {k: v for k, v in request.items() if k != "slow"}
        return super().handle(request)


def _slow_worker_service(ledger_path: str):
    return _worker_service(ledger_path, cls=_SlowService)


def _broken_factory():
    raise ValueError("this worker cannot be built")


def test_one_ledger_spend_per_client_across_workers(tmp_path):
    ledger_path = str(tmp_path / "ledger.sqlite")
    reference = make_service()  # in-process twin: same seed, same data
    clients = 6
    repeats = 3
    results: dict[int, list[dict]] = {}
    errors: list[BaseException] = []

    with MultiprocHTTPServer(
        partial(_worker_service, ledger_path), workers=2
    ) as server:

        def run_client(c: int) -> None:
            try:
                # one keep-alive connection per client: its repeats all hit
                # the same worker, whose release cache answers them free
                with BlowfishClient(server.host, server.port) as client:
                    out = []
                    for _ in range(repeats):
                        response = client.handle(seeded_request(c))
                        assert client.last_status == 200, response
                        out.append(response)
                    results[c] = out
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=run_client, args=(c,)) for c in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    assert not errors, errors
    assert sorted(results) == list(range(clients))
    for c, responses in results.items():
        direct = reference.handle(seeded_request(c))
        for response in responses:
            assert response["answers"] == direct["answers"]
            # a fresh release spends 0.5, a repeat reuses it for free
            assert response["meta"]["epsilon_spent"] in {0.0, 0.5}
    ledger = SQLiteLedgerStore(ledger_path)
    try:
        keys = ledger.keys()
        assert len(keys) == clients  # one session per client
        for key in keys:
            assert ledger.total(key) == pytest.approx(0.5)  # exactly one spend
            assert len(ledger.entries(key)) == 1
    finally:
        ledger.close()


def test_metrics_scrape_merges_all_workers(tmp_path):
    ledger_path = str(tmp_path / "ledger.sqlite")
    total_requests = 12
    with MultiprocHTTPServer(
        partial(_worker_service, ledger_path), workers=2, metrics_flush=0.1
    ) as server:

        def run_client(c: int) -> None:
            with BlowfishClient(server.host, server.port) as client:
                for j in range(3):
                    assert client.handle(seeded_request(4 * c + j))["ok"]

        threads = [threading.Thread(target=run_client, args=(c,)) for c in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)

        # any worker's scrape must converge on the whole-tier count once
        # every worker's spool flush (0.1s cadence) has caught up
        pattern = re.compile(
            r'repro_http_requests_total\{route="handle",status="200"\} (\d+)'
        )
        deadline = time.monotonic() + 10
        seen = -1
        while time.monotonic() < deadline:
            with BlowfishClient(server.host, server.port) as client:
                match = pattern.search(client.metrics_text())
            seen = int(match.group(1)) if match else -1
            if seen == total_requests:
                break
            time.sleep(0.2)
        assert seen == total_requests


def test_ledger_gauges_merge_by_max_not_sum(tmp_path):
    """Every worker reports every key of the shared ledger; the merged
    scrape must show each client's one spend once, not once per worker."""
    ledger_path = str(tmp_path / "ledger.sqlite")
    clients = 4
    gauge = re.compile(r'^repro_ledger_spent_epsilon\{key="([^"]*)"\} (\S+)$', re.M)
    with MultiprocHTTPServer(
        partial(_worker_service, ledger_path), workers=2, metrics_flush=0.1
    ) as server:
        for c in range(clients):
            with BlowfishClient(server.host, server.port) as client:
                assert client.handle(seeded_request(c))["ok"]
        # every spend is in the ledger now; after a few 0.1s flushes both
        # workers' spooled snapshots carry every key at 0.5
        time.sleep(1.0)
        with BlowfishClient(server.host, server.port) as client:
            text = client.metrics_text()
    spent = {key: float(value) for key, value in gauge.findall(text)}
    assert len(spent) == clients, text
    assert all(value == 0.5 for value in spent.values()), spent


def test_sigterm_drains_inflight_to_completion(tmp_path):
    """Workers signalled mid-request finish it (0 dropped) and exit 0."""
    ledger_path = str(tmp_path / "ledger.sqlite")
    server = MultiprocHTTPServer(
        partial(_slow_worker_service, ledger_path), workers=2, drain_deadline=10.0
    )
    server.start()
    results: dict[int, tuple[int, dict]] = {}
    errors: list[BaseException] = []

    def run_client(c: int) -> None:
        try:
            with BlowfishClient(server.host, server.port, retries=0) as client:
                response = client.handle(dict(seeded_request(c), slow=True))
                results[c] = (client.last_status, response)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run_client, args=(c,)) for c in range(3)]
    for t in threads:
        t.start()
    time.sleep(0.35)  # all three are in flight (each takes ~0.8s)
    codes = server.stop(timeout=30)  # SIGTERM -> graceful drain
    for t in threads:
        t.join(60)
    assert not errors, errors
    assert sorted(results) == [0, 1, 2]
    for c, (status, response) in results.items():
        assert status == 200, response  # in-flight work was NOT dropped
        assert response["ok"] is True
    assert codes == [0, 0]


def test_worker_startup_failure_is_reported():
    server = MultiprocHTTPServer(_broken_factory, workers=1)
    with pytest.raises(RuntimeError, match="worker failed to start"):
        server.start()
    assert server._procs == []  # everything was reaped


def test_rejects_nonpositive_workers():
    with pytest.raises(ValueError):
        MultiprocHTTPServer(_broken_factory, workers=0)
