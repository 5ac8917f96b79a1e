"""The three workloads: seeded request sequences, rounds, and their checks.

A *round* sets the system up from nothing (data generation, service and
server construction, warm-up of every policy), replays the workload's
whole seeded request sequence in a closed loop, tears the system down and
checks every response.  A run repeats whole rounds; every round of a run
replays the same requests, so operation counts, ``epsilon_spent`` and
``answer_rmse`` repeat exactly, round to round and run to run.

The seed changes the range endpoints, the count supports, the stream's
arrival order and the noise seeds.  It never changes the *shape* of a
round — which tenants exist, which policy each uses, which requests are
fresh and how large each batch is — so the share of fresh work and the
privacy spend are the same for every seed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import resource
import threading
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro import Policy
from repro.api import BlowfishService, SQLiteLedgerStore
from repro.datasets import (
    adult_capital_loss_dataset,
    adult_capital_loss_domain,
    twitter_latitude_dataset,
    twitter_latitude_domain,
)
from repro.net import BlowfishClient, MultiprocHTTPServer
from repro.stream import twitter_replay

from .checks import Checks, analytic_mse, prefix_counts, range_truth
from .layers import Recorder, layer_stats_from_scrape, parse_prometheus

EPSILON = 0.5

#: Requests replayed on a throwaway system before the first round.
WARM_READS = 40

#: (dataset, policy kind, distance threshold in the domain's own units).
#: Adult capital-loss values are the indices themselves; twitter latitude
#: values are 5 km apart, so 10 km is a threshold of 2 indices.
POLICIES = (
    ("adult", "distance", 4),
    ("adult", "distance", 32),
    ("adult", "distance", 256),
    ("adult", "line", None),
    ("adult", "dp", None),
    ("twitter", "distance", 10.0),
    ("twitter", "distance", 40.0),
    ("twitter", "distance", 160.0),
    ("twitter", "line", None),
    ("twitter", "dp", None),
)

_UNIT = {"adult": 1.0, "twitter": 5.0}


@dataclass
class PolicyInfo:
    name: str
    kind: str  # "distance", "line" or "dp"
    dataset: str
    spec: dict
    theta: int  # distance threshold in domain indices
    size: int


def policy_info(dataset: str, domain, kind: str, theta, unit: float) -> PolicyInfo:
    """A policy spec plus what the checks need to know about it."""
    if kind == "distance":
        policy = Policy.distance_threshold(domain, theta)
        return PolicyInfo(
            f"{dataset}/theta={theta:g}",
            kind,
            dataset,
            policy.to_spec(),
            round(theta / unit),
            domain.size,
        )
    if kind == "line":
        policy = Policy.line(domain)
        return PolicyInfo(f"{dataset}/line", kind, dataset, policy.to_spec(), 1, domain.size)
    policy = Policy.differential_privacy(domain)
    return PolicyInfo(f"{dataset}/dp", kind, dataset, policy.to_spec(), domain.size, domain.size)


def policies() -> list[PolicyInfo]:
    domains = {"adult": adult_capital_loss_domain(), "twitter": twitter_latitude_domain()}
    return [
        policy_info(dataset, domains[dataset], kind, theta, _UNIT[dataset])
        for dataset, kind, theta in POLICIES
    ]


def wire_policies() -> list[PolicyInfo]:
    """The distance-threshold policies, the only ones ``wire_reads`` uses."""
    return [info for info in policies() if info.kind == "distance"]


def load_datasets() -> dict:
    """The registered data: the paper's adult and twitter equivalents."""
    return {"adult": adult_capital_loss_dataset(rng=0), "twitter": twitter_latitude_dataset(rng=0)}


def warm_up(service, infos) -> None:
    """First touch of every policy: parse, engine build, sensitivities."""
    for info in infos:
        response = service.handle(
            {
                "op": "explain",
                "policy": info.spec,
                "epsilon": EPSILON,
                "queries": {"kind": "range_batch", "los": [0], "his": [info.size - 1]},
            }
        )
        if not response.get("ok"):
            raise RuntimeError(f"warm-up of {info.name} failed: {response}")


def random_ranges(rng, size: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    a = rng.integers(0, size, n)
    b = rng.integers(0, size, n)
    return np.minimum(a, b), np.maximum(a, b)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Read:
    """What the benchmark knows about one generated request."""

    tenant: str | None
    op: str
    policy: PolicyInfo | None
    request: dict
    # group name -> ("range", los, his) or ("count", lo, hi) interval supports
    groups: dict = field(default_factory=dict)
    stale_ok: bool = False
    tick: int | None = None


@dataclass
class RoundResult:
    setup_s: float
    timed_s: float
    latencies: list
    outcomes: Counter
    n_queries: int
    responses: list
    peak_rss_mb: float
    traced: bool
    layers: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    ledger: dict = field(default_factory=dict)  # key -> [LedgerEntry]
    request_bytes: int = 0
    response_bytes: int = 0


def _outcome(response, status=200) -> str:
    if not isinstance(response, dict):
        return "error"
    if status != 200 or not response.get("ok"):
        return (response.get("error") or {}).get("kind", f"http_{status}")
    return "ok"


def _read_ledger(path: str) -> dict:
    store = SQLiteLedgerStore(path)
    try:
        return {key: store.entries(key) for key in store.keys()}
    finally:
        store.close()


def _service_counters(service) -> dict:
    plans = service.pool.plan_cache.stats()
    return {
        "engine_misses": service.pool.stats()["misses"],
        "plan_hits": plans["hits"],
        "plan_lookups": plans["hits"] + plans["misses"],
    }


class Workload:
    """Runs and checks rounds; subclasses build the requests."""

    name = ""
    #: tenants replayed from their first request after the first round
    replay_sample = 4

    def __init__(self, seed: int, run_dir: str):
        self.seed = int(seed)
        self.run_dir = run_dir
        self.infos = policies()
        self.reads: list[Read] = []
        self.truth: dict = {}
        self._round = 0

    # -- helpers --------------------------------------------------------------------
    def _ledger_path(self) -> str:
        """A new SQLite ledger file for each system the run builds."""
        self._round += 1
        return os.path.join(self.run_dir, f"ledger-{self._round}.sqlite")

    def _run_inprocess(self, make_service, traced: bool) -> RoundResult:
        """Set up, replay every read on one thread, tear down."""
        recorder = Recorder().install() if traced else None
        try:
            t0 = perf_counter()
            service, ledger_path = make_service()
            setup_s = perf_counter() - t0
            if recorder is not None:
                recorder.phase = "timed"
            latencies = []
            responses = []
            handle = service.handle
            t_start = perf_counter()
            for read in self.reads:
                t = perf_counter()
                response = handle(read.request)
                latencies.append(perf_counter() - t)
                responses.append(response)
            timed_s = perf_counter() - t_start
        finally:
            if recorder is not None:
                recorder.uninstall()
        counters = _service_counters(service)
        service.ledger_store.close()
        return RoundResult(
            setup_s=setup_s,
            timed_s=timed_s,
            latencies=latencies,
            outcomes=Counter((r.op, _outcome(resp)) for r, resp in zip(self.reads, responses)),
            n_queries=sum(_n_queries(r) for r in self.reads),
            responses=responses,
            peak_rss_mb=peak_rss_mb(),
            traced=traced,
            layers=recorder.snapshot() if recorder is not None else {},
            counters=counters,
            ledger=_read_ledger(ledger_path),
        )

    def _new_service(self):
        path = self._ledger_path()
        service = BlowfishService(ledger_store=SQLiteLedgerStore(path))
        for name, db in load_datasets().items():
            service.register_dataset(name, db)
        return service, path

    # -- checking -------------------------------------------------------------------
    def check_answers(self, result: RoundResult, checks: Checks) -> tuple[float, int]:
        """Error bound and noise per group; returns (sum sq error, answers)."""
        sq, n = 0.0, 0
        held: dict = {}  # (tenant, release key) -> epsilon it was charged
        for read, response in zip(self.reads, result.responses):
            if not read.groups or not isinstance(response, dict) or not response.get("ok"):
                continue
            answers = np.asarray(response["answers"], dtype=np.float64)
            offset = 0
            served = self.served_by(read, response, held)
            for gname, spec in read.groups.items():
                truth = self.group_truth(read, response, spec)
                got = answers[offset : offset + truth.size]
                offset += truth.size
                strategy, eps, fresh, extra = served[gname]
                support = float(np.mean(spec[2] - spec[1] + 1)) if spec[0] == "count" else 1.0
                mse = analytic_mse(
                    strategy,
                    size=read.policy.size,
                    theta=read.policy.theta,
                    epsilon=eps,
                    support=support,
                    **extra,
                )
                checks.group(
                    f"{self.name}:{read.tenant}:{gname}:{strategy}", got, truth, mse, fresh=fresh
                )
                sq += float(np.sum((got - truth) ** 2))
                n += truth.size
            if offset != answers.size:
                checks.fail("error_bound", f"{read.tenant}: {answers.size} answers for {offset} queries")
        return sq, n

    def group_truth(self, read: Read, response: dict, spec) -> np.ndarray:
        return range_truth(self.truth[read.policy.dataset], spec[1], spec[2])

    def served_by(self, read: Read, response: dict, held: dict) -> dict:
        """group -> (strategy, epsilon charged, fresh?, extra analytic args)."""
        cache = response["meta"].get("release_cache", {})
        if read.op == "answer":
            strategy = response["meta"]["strategies"]["range"]["strategy"]
            key = (read.tenant, "range")
            fresh = cache.get("range") == "miss"
            if fresh:
                held[key] = EPSILON
            return {g: (strategy, held[key], fresh, {}) for g in read.groups}
        charged = {}
        for step in response["plan"]["steps"]:
            if step["epsilon"] > 0:
                charged[step["release"]] = step["epsilon"]
        out = {}
        for step in response["plan"]["steps"]:
            key = (read.tenant, step["release"])
            fresh = step["release"] in charged
            if fresh:
                held[key] = charged[step["release"]]
            out[step["group"]] = (step["strategy"], held[key], fresh, {})
        return out

    def check_round(self, result: RoundResult, checks: Checks) -> dict:
        """Every output check on one round; returns its exact figures."""
        sq, n = self.check_answers(result, checks)
        reported = 0.0
        for read, response in zip(self.reads, result.responses):
            if not isinstance(response, dict) or not response.get("ok"):
                continue
            meta = response.get("meta", {})
            spent = meta.get("epsilon_spent")
            if spent is None:
                continue
            reported += spent
            cache = meta.get("release_cache", {})
            all_held = bool(cache) and all(v == "hit" for v in cache.values())
            if read.stale_ok or (all_held and self.hits_are_free(read)):
                checks.zero_spend(f"{self.name}:{read.tenant}", spent)
        epsilon = checks.ledger(result.ledger, self.budget_per_key, reported)
        digest = hashlib.sha256()
        for response in result.responses:
            answers = response.get("answers") if isinstance(response, dict) else None
            digest.update(b"-" if answers is None else np.asarray(answers, np.float64).tobytes())
        return {
            "epsilon_spent": epsilon,
            "answer_rmse": math.sqrt(sq / n) if n else 0.0,
            "digest": digest.hexdigest(),
        }

    def hits_are_free(self, read: Read) -> bool:
        return True

    def replay_tenants(self) -> list[str]:
        tenants = sorted({r.tenant for r in self.reads if r.tenant is not None})
        rng = np.random.default_rng([self.seed, 99])
        picks = rng.choice(len(tenants), size=min(self.replay_sample, len(tenants)), replace=False)
        return [tenants[i] for i in sorted(picks)]

    def replay(self, result: RoundResult, checks: Checks) -> None:
        """Replay sampled tenants from their first request, in process.

        Requests that belong to no tenant (stream appends and ticks) are
        replayed too, in order, so every tenant sees the same data."""
        sampled = set(self.replay_tenants())
        service, _ = self.replay_service()
        try:
            for read, response in zip(self.reads, result.responses):
                if read.tenant is None:
                    service.handle(read.request)
                elif read.tenant in sampled:
                    again = service.handle(read.request)
                    checks.replay(
                        f"{self.name}:{read.tenant}",
                        response.get("answers") if isinstance(response, dict) else None,
                        again.get("answers"),
                    )
        finally:
            service.ledger_store.close()

    def make_service(self):
        """A fresh, warmed, in-process system: ``(service, ledger path)``."""
        raise NotImplementedError

    def replay_service(self):
        return self.make_service()

    def run_round(self, traced: bool) -> RoundResult:
        return self._run_inprocess(self.make_service, traced)

    def warm_process(self) -> None:
        """Pay this process's one-time costs (lazy imports, first numpy
        calls) on a throwaway system, outside every measured round."""
        service, _ = self.make_service()
        for read in self.reads[:WARM_READS]:
            service.handle(read.request)
        service.ledger_store.close()


def _n_queries(read: Read) -> int:
    return sum(int(np.size(spec[1])) for spec in read.groups.values())


# -- wire_reads ----------------------------------------------------------------------

CONNECTIONS = 2
SLOTS_PER_CONNECTION = 250
NEW_TENANT_EVERY = 5
WIRE_SIZES = (50, 100, 200, 500, 1000, 2000)


def wire_service(ledger_path: str, traced: bool):
    """Service factory run inside the HTTP worker process.

    Builds the served configuration (registered datasets, shared SQLite
    ledger), warms every policy, and — when traced — installs the layer
    wrappers in the worker.  Its ``metrics_snapshot`` also carries the
    worker's peak RSS and the layer totals, so one ``/metrics`` scrape
    ships them back to the load generator.
    """
    recorder = Recorder().install() if traced else None
    service = BlowfishService(ledger_store=SQLiteLedgerStore(ledger_path))
    for name, db in load_datasets().items():
        service.register_dataset(name, db)
    warm_up(service, wire_policies())
    if recorder is not None:
        recorder.phase = "timed"
    base = service.metrics_snapshot

    def metrics_snapshot():
        snap = base()
        snap["gauges"].append({"name": "perfbench_peak_rss_mb", "labels": {}, "value": peak_rss_mb()})
        for key, value in _service_counters(service).items():
            snap["gauges"].append({"name": f"perfbench_{key}", "labels": {}, "value": float(value)})
        if recorder is not None:
            snap["gauges"].extend(recorder.export())
        return snap

    service.metrics_snapshot = metrics_snapshot
    return service


class WireReads(Workload):
    """Range-batch reads over HTTP from two keep-alive connections."""

    name = "wire_reads"
    budget_per_key = 2 * EPSILON

    def prepare(self) -> None:
        self.infos = wire_policies()
        data = load_datasets()
        self.truth = {k: prefix_counts(db.indices, db.domain.size) for k, db in data.items()}
        self.per_connection: list[list[tuple[str, Read]]] = []
        for c in range(CONNECTIONS):
            rng = np.random.default_rng([self.seed, 1, c])
            sizes = []
            for _ in range(0, SLOTS_PER_CONNECTION, len(WIRE_SIZES)):
                sizes.extend(rng.permutation(WIRE_SIZES).tolist())
            reads = []
            for j in range(SLOTS_PER_CONNECTION):
                n_tenants = j // NEW_TENANT_EVERY + 1
                # a new tenant arrives every NEW_TENANT_EVERY slots; other
                # slots go to already-open tenants in a fixed rotation
                k = n_tenants - 1 if j % NEW_TENANT_EVERY == 0 else (j * 7 + c) % n_tenants
                info = self.infos[(2 * k + c) % len(self.infos)]
                los, his = random_ranges(rng, info.size, sizes[j])
                # half answers, half plans; NEW_TENANT_EVERY is odd, so
                # arriving tenants alternate too and fresh releases land on
                # both ops
                op = "answer" if j % 2 == 0 else "plan"
                request = {
                    "op": op,
                    "policy": info.spec,
                    "epsilon": EPSILON,
                    "dataset": {"name": info.dataset},
                    "session": f"w{c}-{k}",
                    "budget": 2 * EPSILON,
                    "seed": int(rng.integers(0, 2**62)),
                }
                if op == "answer":
                    request["queries"] = {"kind": "range_batch", "los": los.tolist(), "his": his.tolist()}
                else:
                    request["queries"] = {
                        "kind": "workload",
                        "groups": [
                            {"name": "ranges", "family": "range", "los": los.tolist(), "his": his.tolist()}
                        ],
                    }
                read = Read(f"w{c}-{k}", op, info, request, {"ranges": ("range", los, his)})
                reads.append((f"w{c}-{j}", read))
            self.per_connection.append(reads)
        self.reads = [read for conn in self.per_connection for _, read in conn]
        self.request_bytes = sum(len(json.dumps(r.request)) for r in self.reads)

    def replay_service(self):
        return self._new_service()

    def warm_process(self) -> None:
        """Nothing to do: every round serves from a newly started worker."""

    def run_round(self, traced: bool) -> RoundResult:
        ledger_path = self._ledger_path()
        t0 = perf_counter()
        server = MultiprocHTTPServer(
            functools.partial(wire_service, ledger_path, traced),
            workers=1,
            mp_context="spawn",
        )
        try:
            host, port = server.start(ready_timeout=120.0)
            setup_s = perf_counter() - t0
            results = [None] * CONNECTIONS
            barrier = threading.Barrier(CONNECTIONS + 1, timeout=120)
            threads = [
                threading.Thread(
                    target=_client_loop,
                    args=(host, port, self.per_connection[c], results, c, barrier),
                )
                for c in range(CONNECTIONS)
            ]
            for t in threads:
                t.start()
            barrier.wait()
            t_start = perf_counter()
            for t in threads:
                t.join()
            timed_s = perf_counter() - t_start
            with BlowfishClient(host, port, retries=0, timeout=60) as client:
                scrape = parse_prometheus(client.metrics_text())
        finally:
            codes = server.stop(timeout=60)
        latencies, responses, statuses = [], [], []
        for c in range(CONNECTIONS):
            lat, resp, stat = results[c]
            latencies.extend(lat)
            responses.extend(resp)
            statuses.extend(stat)
        outcomes = Counter(
            (read.op, _outcome(resp, status))
            for read, resp, status in zip(self.reads, responses, statuses)
        )
        if any(code != 0 for code in codes):
            outcomes[("server_exit", "error")] += 1
        gauge = {name: value for (name, labels), value in scrape.items() if not labels}
        return RoundResult(
            setup_s=setup_s,
            timed_s=timed_s,
            latencies=latencies,
            outcomes=outcomes,
            n_queries=sum(_n_queries(r) for r in self.reads),
            responses=responses,
            peak_rss_mb=gauge["repro_perfbench_peak_rss_mb"],
            traced=traced,
            layers=layer_stats_from_scrape(scrape),
            counters={
                "engine_misses": gauge["repro_perfbench_engine_misses"],
                "plan_hits": gauge["repro_perfbench_plan_hits"],
                "plan_lookups": gauge["repro_perfbench_plan_lookups"],
                "async_executed": scrape.get(
                    ("repro_async_requests_total", frozenset({("outcome", "executed")})), 0.0
                ),
                "async_batches": scrape.get(("repro_async_batches_total", frozenset()), 0.0),
            },
            ledger=_read_ledger(ledger_path),
            request_bytes=self.request_bytes,
            response_bytes=sum(len(json.dumps(r)) for r in responses if r is not None),
        )


def _client_loop(host, port, reads, results, c, barrier) -> None:
    """One keep-alive connection replaying its reads in a closed loop."""
    latencies, responses, statuses = [], [], []
    try:
        with BlowfishClient(host, port, retries=0, timeout=60) as client:
            client.healthz()  # connect outside the timed phase
            barrier.wait()
            for rid, read in reads:
                t = perf_counter()
                try:
                    response = client.handle(read.request, request_id=rid)
                    status = client.last_status
                except Exception as exc:  # counted as a failed operation
                    response, status = {"ok": False, "error": {"kind": type(exc).__name__}}, 0
                latencies.append(perf_counter() - t)
                responses.append(response)
                statuses.append(status)
    finally:
        missing = len(reads) - len(responses)
        responses.extend([None] * missing)
        statuses.extend([0] * missing)
        results[c] = (latencies, responses, statuses)


# -- fresh_tenants -------------------------------------------------------------------

FRESH_REQUESTS = 200
FRESH_RANGE_SIZES = (50, 100, 200, 400)
FRESH_COUNTS = 16
TEMPLATES_PER_POLICY = 2


class FreshTenants(Workload):
    """Every request opens a new tenant and plans a mixed workload."""

    name = "fresh_tenants"
    budget_per_key = 2 * EPSILON

    def prepare(self) -> None:
        data = load_datasets()
        self.truth = {k: prefix_counts(db.indices, db.domain.size) for k, db in data.items()}
        templates = {}
        for p, info in enumerate(self.infos):
            for t in range(TEMPLATES_PER_POLICY):
                templates[p, t] = self._groups(np.random.default_rng([self.seed, 2, p, t]), info, t)
        rng = np.random.default_rng([self.seed, 3])
        for i in range(FRESH_REQUESTS):
            p = i % len(self.infos)
            info = self.infos[p]
            if (i // len(self.infos)) % 2 == 0:
                # a shared template: the cross-tenant plan cache serves it
                groups = templates[p, (i // (2 * len(self.infos))) % TEMPLATES_PER_POLICY]
            else:
                groups = self._groups(rng, info, i // len(self.infos))
            request = {
                "op": "plan",
                "policy": info.spec,
                "epsilon": EPSILON,
                "dataset": {"name": info.dataset},
                "session": f"f-{i}",
                "budget": 2 * EPSILON,
                "seed": int(rng.integers(0, 2**62)),
                "queries": {
                    "kind": "workload",
                    "groups": [
                        {
                            "name": "ranges",
                            "family": "range",
                            "los": groups["ranges"][1].tolist(),
                            "his": groups["ranges"][2].tolist(),
                        },
                        {
                            "name": "counts",
                            "family": "count",
                            "supports": [
                                list(range(int(lo), int(hi) + 1))
                                for lo, hi in zip(groups["counts"][1], groups["counts"][2])
                            ],
                        },
                    ],
                },
            }
            self.reads.append(Read(f"f-{i}", "plan", info, request, groups))

    @staticmethod
    def _groups(rng, info: PolicyInfo, k: int) -> dict:
        los, his = random_ranges(rng, info.size, FRESH_RANGE_SIZES[k % len(FRESH_RANGE_SIZES)])
        # fixed widths, seeded positions: the planner's choice between
        # sharing the range release and a separate histogram depends on
        # the widths, and must not change with the seed
        width = np.linspace(1, info.size // 16, FRESH_COUNTS).astype(np.int64)
        starts = rng.integers(0, info.size - width + 1)
        return {"ranges": ("range", los, his), "counts": ("count", starts, starts + width - 1)}

    def make_service(self):
        service, path = self._new_service()
        warm_up(service, self.infos)
        return service, path

    def utility_table(self, result: RoundResult) -> dict:
        """RMSE per policy: the Blowfish-vs-differential-privacy comparison."""
        sq: Counter = Counter()
        n: Counter = Counter()
        for read, response in zip(self.reads, result.responses):
            if not response.get("ok"):
                continue
            answers = np.asarray(response["answers"], dtype=np.float64)
            truth = np.concatenate([self.group_truth(read, response, s) for s in read.groups.values()])
            sq[read.policy.name] += float(np.sum((answers - truth) ** 2))
            n[read.policy.name] += truth.size
        return {name: math.sqrt(sq[name] / n[name]) for name in sq}


# -- stream_ticks --------------------------------------------------------------------

TICKS = 32
ANALYSTS = 6
APPENDS_PER_TICK = 4
STREAM_TOTAL = 4.0
STREAM_SIZES = (100, 200, 400)
#: analyst policies over the latitude stream: (kind, threshold in km)
STREAM_POLICIES = (("line", None), ("distance", 10.0), ("distance", 40.0))


class StreamTicks(Workload):
    """Appends, a tick, then fresh and stale-tolerant reads, every tick."""

    name = "stream_ticks"
    budget_per_key = STREAM_TOTAL
    # each replayed analyst re-runs every append and tick with it
    replay_sample = 2

    def prepare(self) -> None:
        domain = twitter_latitude_domain()
        self.infos = infos = [
            policy_info("feed", domain, kind, theta, _UNIT["twitter"])
            for kind, theta in STREAM_POLICIES
        ]
        _, batches = twitter_replay(ticks=TICKS, rng=self.seed)
        seen = np.empty(0, dtype=np.int64)
        self.tick_truth = []
        for batch in batches:
            seen = np.concatenate([seen, batch])
            self.tick_truth.append(prefix_counts(seen, domain.size))
        rng = np.random.default_rng([self.seed, 4])
        budget = {"kind": "stream_budget", "total": STREAM_TOTAL, "horizon": TICKS}
        slot = 0
        for t, batch in enumerate(batches):
            for part in np.array_split(batch, APPENDS_PER_TICK):
                req = {"op": "append", "stream": "feed", "indices": part.tolist()}
                self.reads.append(Read(None, "append", None, req, tick=t))
            self.reads.append(Read(None, "tick", None, {"op": "tick", "stream": "feed"}, tick=t))
            for a in range(ANALYSTS):
                # one fresh and one stale-tolerant read per analyst per tick;
                # on odd (t + a) the stale read comes first and is served
                # from last tick's synopsis, within max_staleness = 1
                order = (False, True) if t == 0 or (t + a) % 2 == 0 else (True, False)
                info = infos[a % len(infos)]
                for stale_ok in order:
                    los, his = random_ranges(rng, domain.size, STREAM_SIZES[slot % len(STREAM_SIZES)])
                    slot += 1
                    group = {"name": "ranges", "family": "range", "los": los.tolist(), "his": his.tolist()}
                    if stale_ok:
                        group["max_staleness"] = 1
                    req = {
                        "op": "plan",
                        "policy": info.spec,
                        "epsilon": EPSILON,
                        "dataset": {"name": "feed"},
                        "session": f"analyst-{a}",
                        "plan_budget": budget,
                        "seed": int(rng.integers(0, 2**62)),
                        "queries": {"kind": "workload", "groups": [group]},
                    }
                    self.reads.append(
                        Read(f"analyst-{a}", "plan", info, req, {"ranges": ("range", los, his)}, stale_ok, t)
                    )

    def make_service(self):
        stream, _ = twitter_replay(ticks=TICKS, rng=self.seed)
        path = self._ledger_path()
        service = BlowfishService(ledger_store=SQLiteLedgerStore(path))
        service.register_stream("feed", stream)
        warm_up(service, self.infos)
        return service, path

    def run_round(self, traced: bool) -> RoundResult:
        result = super().run_round(traced)
        result.counters["free_reads"] = sum(
            1
            for read, response in zip(self.reads, result.responses)
            if read.stale_ok and response.get("ok") and response["meta"]["epsilon_spent"] == 0.0
        )
        return result

    def group_truth(self, read: Read, response: dict, spec) -> np.ndarray:
        covered = self._covered_tick(response)
        return range_truth(self.tick_truth[covered], spec[1], spec[2])

    @staticmethod
    def _covered_tick(response: dict) -> int:
        nodes = response["meta"]["stream"]["decomposition"]
        return max(node["ticks"][1] for node in nodes)

    def served_by(self, read: Read, response: dict, held: dict) -> dict:
        stream = response["meta"]["stream"]
        nodes = stream["decomposition"]
        (step,) = response["plan"]["steps"]
        # every node carries the same amortized epsilon; the analytic error
        # sums one ordered release per maintained node
        eps = nodes[0]["epsilon"]
        fresh = response["meta"]["epsilon_spent"] > 0
        return {"ranges": (step["strategy"], eps, fresh, {"parts": len(nodes)})}

    def check_round(self, result: RoundResult, checks: Checks) -> dict:
        for read, response in zip(self.reads, result.responses):
            if read.op != "plan" or not response.get("ok"):
                continue
            age = read.tick - self._covered_tick(response)
            if age < 0 or age > (1 if read.stale_ok else 0):
                checks.fail(
                    "error_bound", f"{read.tenant} at tick {read.tick} served data {age} ticks old"
                )
        return super().check_round(result, checks)

    def hits_are_free(self, read: Read) -> bool:
        # the counter's key is always held ("hit"); fresh reads still pay
        # for folding the new tick, so only stale-tolerant reads must be free
        return read.stale_ok


WORKLOADS = {cls.name: cls for cls in (WireReads, FreshTenants, StreamTicks)}
