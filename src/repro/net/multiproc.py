"""Multi-core HTTP serving: N worker processes behind one port.

One :class:`~repro.net.server.BlowfishHTTPServer` per process, all
answering on the same address, budget truth shared through whatever
:class:`~repro.api.ledger.LedgerStore` the ``service_factory`` attaches
(typically :class:`~repro.api.ledger.SQLiteLedgerStore` on a common path).
This is the one way to run the service across processes; ``python -m repro
serve --workers N`` runs it.

Placement
---------
A request is served by whichever worker accepted its connection, so every
request on one keep-alive connection lands on one worker and a repeat there
is free post-processing of the held release.  The shared ledger's
compare-and-spend keeps the budget whichever worker charges, but releases
are held per worker: a session spread over several connections can land on
two workers and pay for the same release twice.

Socket scheme
-------------
With ``SO_REUSEPORT`` available (Linux), the parent binds a placeholder
socket — never listening — to claim the port, and every worker binds its
*own* listening socket on that address: the kernel then hashes incoming
connections across workers, which balances better than N processes
fighting over one accept queue.  Without it, the parent binds and listens
once and workers inherit the pre-bound socket across ``fork``.  Both ends
of the scheme are invisible to clients: one ``host:port`` either way.

Metrics
-------
Each worker runs its own fresh :class:`~repro.obs.MetricsRegistry` (nothing
leaks across fork) and spools its snapshot to a shared directory — on every
``/metrics`` scrape and every ``metrics_flush`` seconds in between.  A
scrape answered by *any* worker merges every worker's latest spooled
snapshot via :func:`repro.obs.merge_snapshots` (counters/histograms sum,
gauges max), so a Prometheus pointed at the shared port sees whole-tier
truth no matter which worker the kernel hands its connection to.

Shutdown
--------
:meth:`MultiprocHTTPServer.stop` (or a SIGTERM to a worker) triggers the
per-worker graceful drain: stop accepting, finish in-flight requests up to
the drain deadline, settle the async tier, exit 0.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import socket
import tempfile
import time
import traceback

from .. import obs
from .server import BlowfishHTTPServer

__all__ = ["MultiprocHTTPServer"]

#: Listen backlog for each worker's socket.
_BACKLOG = 128


def _reuse_port_available() -> bool:
    return hasattr(socket, "SO_REUSEPORT")


def _bind_socket(host: str, port: int, *, listen: bool, reuse_port: bool):
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        if reuse_port:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        if listen:
            sock.listen(_BACKLOG)
        sock.setblocking(False)
    except BaseException:
        sock.close()
        raise
    return sock


class _MetricsSpool:
    """Per-worker snapshot files under one directory, merged on scrape."""

    def __init__(self, directory: str, index: int):
        self.directory = directory
        self.index = index
        self.path = os.path.join(directory, f"worker-{index}.json")

    def flush(self, snapshot: dict) -> None:
        """Atomically publish this worker's latest snapshot."""
        tmp = f"{self.path}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(snapshot, fh)
            os.replace(tmp, self.path)
        except OSError:
            # a torn spool write must never fail a scrape or a request;
            # the stale file (if any) stays in place
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def merged(self, own_snapshot: dict) -> dict:
        """Merge every worker's latest spooled snapshot; own is live."""
        self.flush(own_snapshot)
        snapshots = []
        try:
            names = sorted(os.listdir(self.directory))
        except OSError:
            names = []
        for name in names:
            if not (name.startswith("worker-") and name.endswith(".json")):
                continue
            if name == os.path.basename(self.path):
                snapshots.append(own_snapshot)
                continue
            try:
                with open(os.path.join(self.directory, name), encoding="utf-8") as fh:
                    snapshots.append(json.load(fh))
            except (OSError, json.JSONDecodeError):
                continue  # a worker mid-write or just gone: skip, not fail
        if not snapshots:
            snapshots = [own_snapshot]
        return obs.merge_snapshots(snapshots)


def _http_worker_main(
    conn,
    index: int,
    service_factory,
    host: str,
    port: int,
    shared_sock,
    spool_dir: str | None,
    metrics_flush: float,
    server_options: dict,
) -> None:
    """One worker process: build the service, serve until drained."""
    import asyncio

    try:
        # a fresh registry per worker: discards anything inherited across
        # fork so the spooled snapshot counts only this worker's traffic
        obs.configure(registry=obs.MetricsRegistry())
        service = service_factory()
        sock = (
            shared_sock
            if shared_sock is not None
            else _bind_socket(host, port, listen=True, reuse_port=True)
        )
        spool = _MetricsSpool(spool_dir, index) if spool_dir is not None else None
        metrics_source = (
            (lambda: spool.merged(service.metrics_snapshot()))
            if spool is not None
            else None
        )
        server = BlowfishHTTPServer(
            service,
            sock=sock,
            metrics_source=metrics_source,
            configure_metrics=False,
            **server_options,
        )

        async def main():
            server.install_signal_handlers()
            await server.start()
            flusher = None
            if spool is not None and metrics_flush > 0:

                async def flush_loop():
                    while True:
                        spool.flush(service.metrics_snapshot())
                        await asyncio.sleep(metrics_flush)

                flusher = asyncio.get_running_loop().create_task(flush_loop())
            conn.send(("ready", index, server.port))
            try:
                await server.serve_forever()
            finally:
                if flusher is not None:
                    flusher.cancel()
                if spool is not None:
                    spool.flush(service.metrics_snapshot())

        asyncio.run(main())
    except BaseException:
        try:
            conn.send(("error", index, traceback.format_exc()))
        except Exception:
            pass
        raise SystemExit(1)
    finally:
        conn.close()


class MultiprocHTTPServer:
    """Run ``workers`` HTTP serving processes behind one address.

    Parameters
    ----------
    service_factory:
        Zero-arg callable building each worker's service —
        registering datasets and attaching the *shared* ledger store
        happens in the worker.  Under ``"fork"`` closures are fine; under
        ``"spawn"`` use module-level functions or :func:`functools.partial`.
    workers:
        Number of serving processes.
    host / port:
        The shared bind address (``port=0`` picks a free port).
    mp_context:
        ``multiprocessing`` start method.  The default ``"fork"`` supports
        both socket schemes; ``"spawn"`` requires ``SO_REUSEPORT`` (the
        inherited-socket scheme cannot cross a spawn).
    metrics_flush:
        Seconds between background spool flushes of each worker's metrics
        snapshot (0 disables the background flush; scrapes still flush).
    server_options:
        Keyword options forwarded to every worker's
        :class:`BlowfishHTTPServer` (``max_inflight``, ``max_body``,
        timeouts, ``drain_deadline``, tier options...).
    """

    def __init__(
        self,
        service_factory,
        *,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        mp_context: str = "fork",
        metrics_flush: float = 0.5,
        **server_options,
    ):
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.service_factory = service_factory
        self.workers = int(workers)
        self.host = host
        self.port = int(port)
        self.metrics_flush = float(metrics_flush)
        self.server_options = dict(server_options)
        self._ctx = mp.get_context(mp_context)
        if mp_context != "fork" and not _reuse_port_available():
            raise ValueError(
                "inherited-socket serving requires the 'fork' start method; "
                "this platform has no SO_REUSEPORT alternative"
            )
        self._parent_sock = None
        self._spool_dir: tempfile.TemporaryDirectory | None = None
        self._procs: list = []
        self._pipes: list = []

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def start(self, *, ready_timeout: float = 30.0) -> tuple[str, int]:
        """Bind, spawn the workers, wait until every one is accepting."""
        if self._procs:
            raise RuntimeError("already started")
        reuse_port = _reuse_port_available()
        # claim the port in the parent either way: with SO_REUSEPORT the
        # placeholder never listens (the kernel only balances across
        # listeners), without it this is the one socket everybody shares
        self._parent_sock = _bind_socket(
            self.host, self.port, listen=not reuse_port, reuse_port=reuse_port
        )
        self.port = self._parent_sock.getsockname()[1]
        self._spool_dir = tempfile.TemporaryDirectory(prefix="repro-metrics-")
        shared = None if reuse_port else self._parent_sock
        for index in range(self.workers):
            parent_conn, child_conn = self._ctx.Pipe()
            proc = self._ctx.Process(
                target=_http_worker_main,
                args=(
                    child_conn,
                    index,
                    self.service_factory,
                    self.host,
                    self.port,
                    shared,
                    self._spool_dir.name,
                    self.metrics_flush,
                    self.server_options,
                ),
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._pipes.append(parent_conn)
        deadline = time.monotonic() + ready_timeout
        for conn in self._pipes:
            remaining = max(0.0, deadline - time.monotonic())
            if not conn.poll(remaining):
                self.stop(timeout=5.0)
                raise RuntimeError("worker did not become ready in time")
            message = conn.recv()
            if message[0] != "ready":
                failure = message[2] if len(message) > 2 else message
                self.stop(timeout=5.0)
                raise RuntimeError(f"worker failed to start:\n{failure}")
        return (self.host, self.port)

    def stop(self, *, timeout: float = 15.0) -> list[int | None]:
        """SIGTERM every worker (graceful drain) and reap; returns exit codes."""
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()  # SIGTERM -> worker's graceful drain
        deadline = time.monotonic() + timeout
        codes: list[int | None] = []
        for proc in self._procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()
                proc.join()
            codes.append(proc.exitcode)
        for conn in self._pipes:
            try:
                conn.close()
            except Exception:
                pass
        self._procs, self._pipes = [], []
        if self._parent_sock is not None:
            self._parent_sock.close()
            self._parent_sock = None
        if self._spool_dir is not None:
            self._spool_dir.cleanup()
            self._spool_dir = None
        return codes

    def wait(self) -> list[int | None]:
        """Block until every worker exits on its own (e.g. after SIGTERM
        delivered externally); returns exit codes without re-signalling."""
        for proc in self._procs:
            proc.join()
        return [proc.exitcode for proc in self._procs]

    def __enter__(self) -> "MultiprocHTTPServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "running" if self._procs else "stopped"
        return (
            f"MultiprocHTTPServer({self.host}:{self.port}, "
            f"workers={self.workers}, {state})"
        )
