"""``ShardedServiceRunner``: run one logical service across worker processes.

One :class:`~repro.api.service.BlowfishService` per process, requests
sharded across processes by session affinity, budget truth shared through a
:class:`~repro.api.ledger.LedgerStore` (typically
:class:`~repro.api.ledger.SQLiteLedgerStore` on a common path).  This is
the process-level tier above the in-process striping
(:mod:`repro.api.striping`) and the asyncio front end
(:mod:`repro.api.async_service`): each worker runs its requests through an
:class:`AsyncBlowfishService`, so in-flight coalescing applies per shard.

Sharding is by *session*, not round-robin: one session's requests all land
on one worker, so its spends hit the shared ledger in program order and
its release cache behaves exactly as in a single process — which is what
makes answers bitwise identical across worker counts (seeded requests are
deterministic; sessionless requests don't care where they run).

The runner measures honestly: workers *build* their requests before the
clock starts (a prepare/go handshake — request construction, often the
dominant cost for large count-mask workloads, is excluded), and only
indices cross the pipe on the way in.  ``request_factory`` and
``service_factory`` must be picklable under the chosen start method; with
the default ``"fork"`` context closures are fine, under ``"spawn"`` use
module-level functions or :func:`functools.partial`.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
import zlib
from dataclasses import dataclass, field

from .. import obs

__all__ = ["ShardedServiceRunner", "ShardedRunResult"]


def _stable_shard(key, workers: int) -> int:
    """Deterministic shard for a hashable key (stable across processes/runs,
    unlike ``hash()`` under PYTHONHASHSEED randomization)."""
    return zlib.crc32(repr(key).encode()) % workers


def _worker_main(
    conn, service_factory, request_factory, indices, async_opts, metrics_on=False
) -> None:
    try:
        if metrics_on:
            # a fresh registry per worker: enables recording AND discards
            # any instrument state inherited across fork, so this worker's
            # snapshot — and the parent's merged report — counts only the
            # traffic this worker actually served
            obs.configure(registry=obs.MetricsRegistry())
        else:
            obs.metrics().clear()
        service = service_factory()
        requests = [request_factory(i) for i in indices]
        conn.send(("prepared", len(requests)))
        message = conn.recv()
        if message != "go":  # parent aborted during prepare
            return
        start = time.perf_counter()
        responses, latencies, stats = _serve_shard(service, requests, async_opts)
        elapsed = time.perf_counter() - start
        snapshot = (
            service.metrics_snapshot()
            if hasattr(service, "metrics_snapshot")
            else obs.metrics().snapshot()
        )
        conn.send(("done", indices, responses, elapsed, latencies, stats, snapshot))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


def _serve_shard(service, requests, async_opts):
    """Serve one shard's requests, timing each through the async tier."""
    import asyncio

    from .async_service import AsyncBlowfishService

    if async_opts is None:
        responses, latencies = [], []
        for request in requests:
            start = time.perf_counter()
            responses.append(service.handle(request))
            latencies.append(time.perf_counter() - start)
        return responses, latencies, {}

    async def run():
        async with AsyncBlowfishService(service, **async_opts) as tier:
            loop = asyncio.get_running_loop()

            async def timed(request):
                start = loop.time()
                response = await tier.handle(request)
                return response, loop.time() - start

            pairs = await asyncio.gather(*(timed(r) for r in requests))
            return (
                [response for response, _ in pairs],
                [latency for _, latency in pairs],
                tier.stats(),
            )

    return asyncio.run(run())


@dataclass
class ShardedRunResult:
    """Outcome of one sharded run, with responses back in request order."""

    responses: list
    n_workers: int
    wall_elapsed: float  #: parent-measured go -> last worker done
    worker_elapsed: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)  #: per request, queue-inclusive
    tier_stats: dict = field(default_factory=dict)  #: summed async-tier counters
    #: one merged metrics report over every worker's snapshot
    #: (:func:`repro.obs.merge_snapshots`: counters/histograms summed,
    #: gauges maxed) plus the raw per-worker snapshots for drill-down
    metrics: dict = field(default_factory=dict)
    worker_metrics: list = field(default_factory=list)

    @property
    def requests_per_second(self) -> float:
        return len(self.responses) / self.wall_elapsed if self.wall_elapsed > 0 else 0.0

    def latency_quantile(self, q: float) -> float:
        """Empirical latency quantile (nearest-rank), seconds."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        rank = min(len(ordered) - 1, max(0, int(q * len(ordered))))
        return ordered[rank]


class ShardedServiceRunner:
    """Fan a request stream over ``workers`` service processes.

    Parameters
    ----------
    service_factory:
        Zero-arg callable building each worker's service — including
        registering datasets and attaching the shared ledger store.  Runs
        *in the worker*, so per-process state (SQLite connections, engine
        pools) is never pickled.
    workers:
        Number of service processes.
    mp_context:
        ``multiprocessing`` start method (default ``"fork"``).
    use_async:
        Front each worker with :class:`AsyncBlowfishService` (default);
        ``False`` serves the shard with a bare synchronous loop instead —
        the runner's own control for measuring what coalescing buys.
    metrics:
        Enable the metrics registry inside every worker (a fresh one per
        process, so nothing leaks across fork).  Each worker's snapshot
        rides the result pipe and the parent merges them into
        :attr:`ShardedRunResult.metrics` — per-worker counters summed,
        budget gauges maxed.
    tier_workers:
        Thread-pool width of each worker's async tier.
    """

    def __init__(
        self,
        service_factory,
        *,
        workers: int = 2,
        mp_context: str = "fork",
        use_async: bool = True,
        metrics: bool = False,
        tier_workers: int = 4,
    ):
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.service_factory = service_factory
        self.workers = int(workers)
        self.metrics = bool(metrics)
        self._ctx = mp.get_context(mp_context)
        self._async_opts = {"max_workers": tier_workers} if use_async else None

    def shard_of(self, key) -> int:
        return _stable_shard(key, self.workers)

    def run(self, n_requests: int, request_factory, *, shard_key=None) -> ShardedRunResult:
        """Serve requests ``request_factory(0..n_requests-1)`` across workers.

        ``shard_key(i)`` maps a request index to its affinity key (its
        session id, typically); equal keys land on the same worker.  The
        default shards round-robin by index — correct only for
        sessionless streams.
        """
        shards: list[list[int]] = [[] for _ in range(self.workers)]
        for i in range(n_requests):
            shard = (
                i % self.workers
                if shard_key is None
                else _stable_shard(shard_key(i), self.workers)
            )
            shards[shard].append(i)

        procs, pipes = [], []
        for indices in shards:
            parent_conn, child_conn = self._ctx.Pipe()
            proc = self._ctx.Process(
                target=_worker_main,
                args=(
                    child_conn,
                    self.service_factory,
                    request_factory,
                    indices,
                    self._async_opts,
                    self.metrics,
                ),
            )
            proc.start()
            child_conn.close()
            procs.append(proc)
            pipes.append(parent_conn)

        try:
            for conn in pipes:  # barrier: every shard built its requests
                message = conn.recv()
                if message[0] == "error":
                    raise RuntimeError(f"shard worker failed during prepare:\n{message[1]}")
            start = time.perf_counter()
            for conn in pipes:
                conn.send("go")

            responses: list = [None] * n_requests
            worker_elapsed: list[float] = []
            latencies: list[float] = []
            tier_stats: dict = {}
            worker_metrics: list = []
            for conn in pipes:
                message = conn.recv()
                if message[0] == "error":
                    raise RuntimeError(f"shard worker failed:\n{message[1]}")
                (
                    _,
                    indices,
                    shard_responses,
                    elapsed,
                    shard_latencies,
                    stats,
                    snapshot,
                ) = message
                for index, response in zip(indices, shard_responses):
                    responses[index] = response
                worker_elapsed.append(elapsed)
                latencies.extend(shard_latencies)
                worker_metrics.append(snapshot)
                for name, value in stats.items():
                    tier_stats[name] = tier_stats.get(name, 0) + value
            wall = time.perf_counter() - start
        finally:
            for conn in pipes:
                conn.close()
            for proc in procs:
                proc.join(timeout=30)
                if proc.is_alive():
                    proc.terminate()
                    proc.join()

        return ShardedRunResult(
            responses=responses,
            n_workers=self.workers,
            wall_elapsed=wall,
            worker_elapsed=worker_elapsed,
            latencies=latencies,
            tier_stats=tier_stats,
            metrics=obs.merge_snapshots(worker_metrics),
            worker_metrics=worker_metrics,
        )
