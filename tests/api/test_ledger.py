"""Ledger stores: one budget truth across threads, processes, and services.

The :class:`LedgerStore` contract (atomic compare-and-spend, exact refusal
at the cap, append-only entries) asserted for both implementations, then
the deployment-level guarantees the seam buys:

* a 4-process SQLite stress: racing workers over one file never jointly
  overspend — admissions stop exactly at the cap, every other attempt is a
  clean :class:`BudgetExceededError`, and no admitted spend is lost;
* a child forked while a parent thread is inside ``charge()`` can still
  charge (the process-local charge lock is re-created after fork);
* two :class:`BlowfishService` instances sharing one SQLite file behave as
  one logical service: spends made through either are visible to (and
  enforced against) the other, surviving session-cache eviction.
"""

from __future__ import annotations

import multiprocessing
import os
import threading

import numpy as np
import pytest

from repro import Database, Domain, Policy
from repro.api import BlowfishService, InMemoryLedgerStore, SQLiteLedgerStore
from repro.core.composition import BudgetExceededError, PrivacyAccountant

N_THREADS = 16


@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    if request.param == "memory":
        return InMemoryLedgerStore()
    return SQLiteLedgerStore(str(tmp_path / "ledger.sqlite"))


class TestStoreContract:
    def test_charge_totals_and_entries(self, store):
        assert store.total("s") == 0.0
        assert store.charge("s", 0.5, label="range") == 0.5
        assert store.charge("s", 0.25, label="count", ids=frozenset({1, 2})) == 0.75
        assert store.total("s") == pytest.approx(0.75)
        labels = [e.label for e in store.entries("s")]
        assert labels == ["range", "count"]
        assert store.entries("s")[1].ids == frozenset({1, 2})
        assert store.keys() == ["s"]

    def test_keys_are_independent(self, store):
        store.charge("a", 0.5)
        store.charge("b", 0.25)
        assert store.total("a") == 0.5
        assert store.total("b") == 0.25
        assert sorted(store.keys()) == ["a", "b"]

    def test_refusal_at_cap_records_nothing(self, store):
        store.charge("s", 0.75, budget=1.0)
        with pytest.raises(BudgetExceededError):
            store.charge("s", 0.5, budget=1.0)
        assert store.total("s") == pytest.approx(0.75)
        assert len(store.entries("s")) == 1
        # the exact fit still goes through (float slack, not strictness)
        store.charge("s", 0.25, budget=1.0)
        assert store.total("s") == pytest.approx(1.0)

    def test_negative_epsilon_rejected(self, store):
        with pytest.raises(ValueError):
            store.charge("s", -0.1)

    def test_clear(self, store):
        store.charge("a", 0.5)
        store.charge("b", 0.5)
        store.clear("a")
        assert store.total("a") == 0.0 and store.total("b") == 0.5
        store.clear()
        assert store.keys() == []

    def test_threaded_chargers_never_lose_or_overspend(self, store):
        budget, epsilon = 2.0, 0.25  # exactly 8 admissions fit
        outcomes: list = []
        barrier = threading.Barrier(N_THREADS)

        def worker():
            barrier.wait()
            try:
                store.charge("hot", epsilon, budget=budget)
                outcomes.append("ok")
            except BudgetExceededError:
                outcomes.append("refused")

        threads = [threading.Thread(target=worker) for _ in range(N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert outcomes.count("ok") == 8
        assert outcomes.count("refused") == N_THREADS - 8
        assert store.total("hot") == pytest.approx(budget)
        assert len(store.entries("hot")) == 8


class TestAccountantDelegation:
    def test_accountant_spends_through_the_store(self, store):
        domain = Domain.integers("v", 10)
        policy = Policy.line(domain)
        acct = PrivacyAccountant(policy, budget=1.0, store=store, key="tenant-1")
        acct.spend(0.5, label="release")
        assert store.total("tenant-1") == pytest.approx(0.5)
        assert acct.sequential_total() == pytest.approx(0.5)
        with pytest.raises(BudgetExceededError):
            acct.spend(0.75)
        assert store.total("tenant-1") == pytest.approx(0.5)

    def test_two_accountants_one_key_share_a_ledger(self, store):
        # the eviction/restart story: a rebuilt accountant finds old spends
        domain = Domain.integers("v", 10)
        policy = Policy.line(domain)
        first = PrivacyAccountant(policy, budget=1.0, store=store, key="k")
        first.spend(0.75)
        rebuilt = PrivacyAccountant(policy, budget=1.0, store=store, key="k")
        assert rebuilt.sequential_total() == pytest.approx(0.75)
        with pytest.raises(BudgetExceededError):
            rebuilt.spend(0.5)


# -- multi-process stress -------------------------------------------------------------

ATTEMPTS_PER_PROC = 20
N_PROCS = 4
STRESS_EPSILON = 0.25
STRESS_BUDGET = 5.0  # exactly 20 admissions across all processes


def _stress_worker(path, barrier, queue):
    # module-level so the "spawn" start method can import it; spawn (not
    # fork) is the point — each worker opens the file cold, like a real
    # service process
    from repro.api import SQLiteLedgerStore
    from repro.core.composition import BudgetExceededError

    store = SQLiteLedgerStore(path)
    barrier.wait()
    admitted = refused = 0
    for _ in range(ATTEMPTS_PER_PROC):
        try:
            store.charge("shared", STRESS_EPSILON, budget=STRESS_BUDGET)
            admitted += 1
        except BudgetExceededError:
            refused += 1
    queue.put((admitted, refused))


class TestMultiProcessStress:
    def test_four_processes_admit_exactly_the_cap(self, tmp_path):
        path = str(tmp_path / "stress.sqlite")
        SQLiteLedgerStore(path)  # create the schema up front
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(N_PROCS)
        queue = ctx.Queue()
        procs = [
            ctx.Process(target=_stress_worker, args=(path, barrier, queue))
            for _ in range(N_PROCS)
        ]
        for p in procs:
            p.start()
        results = [queue.get(timeout=120) for _ in range(N_PROCS)]
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0

        admitted = sum(a for a, _ in results)
        refused = sum(r for _, r in results)
        assert admitted == int(STRESS_BUDGET / STRESS_EPSILON)  # exactly at the cap
        assert refused == N_PROCS * ATTEMPTS_PER_PROC - admitted
        # no admitted spend was lost: the file agrees with the admissions
        store = SQLiteLedgerStore(path)
        assert store.total("shared") == pytest.approx(STRESS_BUDGET)
        assert len(store.entries("shared")) == admitted


class _StallingStore(SQLiteLedgerStore):
    """Stalls the parent's charges inside ``charge()``, holding the
    process-local charge lock (but not yet SQLite's writer slot)."""

    def __init__(self, path):
        super().__init__(path)
        self.parent_pid = os.getpid()
        self.entered = threading.Event()
        self.release = threading.Event()

    def _charge_once(self, *args):
        if os.getpid() == self.parent_pid:
            self.entered.set()
            self.release.wait(timeout=30)
        return super()._charge_once(*args)


def _charge_and_exit(store):
    store.charge("child", 0.5)
    os._exit(0)


class TestForkSafety:
    def test_child_forked_mid_charge_can_charge(self, tmp_path):
        store = _StallingStore(str(tmp_path / "fork.sqlite"))
        stalled = threading.Thread(target=store.charge, args=("parent", 0.25))
        stalled.start()
        try:
            assert store.entered.wait(timeout=10)
            # the child inherits the held lock but not the thread holding it
            child = multiprocessing.get_context("fork").Process(
                target=_charge_and_exit, args=(store,)
            )
            child.start()
            child.join(timeout=20)
            if child.is_alive():
                child.kill()
                child.join()
            assert child.exitcode == 0
        finally:
            store.release.set()
            stalled.join(timeout=30)
        assert not stalled.is_alive()
        assert store.total("child") == pytest.approx(0.5)
        assert store.total("parent") == pytest.approx(0.25)


# -- two services, one ledger file ----------------------------------------------------


class TestSharedLedgerServices:
    def _service(self, db, path):
        service = BlowfishService(ledger_store=SQLiteLedgerStore(path))
        service.register_dataset("data", db)
        return service

    def test_budget_enforced_across_service_instances(self, tmp_path):
        domain = Domain.integers("v", 100)
        rng = np.random.default_rng(3)
        db = Database.from_indices(domain, rng.integers(0, 100, 1_000))
        path = str(tmp_path / "shared.sqlite")

        def request(weights_row):
            weights = [0.0] * db.n
            weights[weights_row] = 1.0
            return {
                "policy": Policy.line(domain).to_spec(),
                "epsilon": 0.5,
                "dataset": {"name": "data"},
                "queries": [{"kind": "linear", "weights": weights}],
                "session": "travelling-analyst",
                "budget": 1.0,
                "seed": 7,
            }

        first = self._service(db, path)
        r1 = first.handle(request(0))
        assert r1["ok"], r1
        assert r1["meta"]["session_total"] == pytest.approx(0.5)

        # a *different* service process-equivalent: fresh caches, same file
        second = self._service(db, path)
        r2 = second.handle(request(1))
        assert r2["ok"], r2
        # the second service saw the first's spend in its session total
        assert r2["meta"]["session_total"] == pytest.approx(1.0)

        # and enforces the cap the first service's spends already half-used
        r3 = second.handle(request(2))
        assert not r3["ok"]
        assert r3["error"]["kind"] == "budget_exhausted"
        # refusal spent nothing: the first service's repeat of its own query
        # is still answered free from its release cache at the same total
        r4 = first.handle(request(0))
        assert r4["ok"], r4
        assert r4["meta"]["epsilon_spent"] == 0.0
        assert r4["meta"]["session_total"] == pytest.approx(1.0)


class TestSessionBound:
    """Below ``max_sessions`` no session is forgotten, so a repeated read is
    answered from the held release and charged once."""

    def test_every_tenant_pays_once_at_the_bound(self):
        n, epsilon = 64, 0.5
        domain = Domain.integers("v", 100)
        db = Database.from_indices(domain, np.random.default_rng(5).integers(0, 100, 1_000))
        store = InMemoryLedgerStore()
        service = BlowfishService(ledger_store=store, max_sessions=n)
        service.register_dataset("data", db)
        policy = Policy.line(domain).to_spec()
        for _ in range(2):
            for tenant in range(n):
                resp = service.handle(
                    {
                        "policy": policy,
                        "epsilon": epsilon,
                        "dataset": {"name": "data"},
                        "queries": [{"kind": "range", "lo": 10, "hi": 60}],
                        "session": f"tenant-{tenant}",
                        "seed": tenant,
                    }
                )
                assert resp["ok"], resp
        assert sum(store.total(key) for key in store.keys()) == n * epsilon
        (evictions,) = [
            c["value"]
            for c in service.metrics_snapshot()["counters"]
            if c["name"] == "lru_evictions_total" and c["labels"] == {"map": "sessions"}
        ]
        assert evictions == 0


# -- refusals before the charge -------------------------------------------------------


class TestMisshapenLinearRefusal:
    """A linear query needs one weight per tuple; one that has not is
    refused before the ledger is charged, fresh or against a held release."""

    @pytest.fixture
    def setting(self):
        domain = Domain.integers("v", 128)
        db = Database.from_indices(domain, np.random.default_rng(0).integers(0, 128, 3_000))
        service = BlowfishService(ledger_store=InMemoryLedgerStore())
        service.register_dataset("data", db)
        base = {
            "op": "answer",
            "policy": Policy.line(domain).to_spec(),
            "epsilon": 0.5,
            "dataset": {"name": "data"},
            "session": "analyst",
        }
        return service, base

    @staticmethod
    def _total(service, label=None) -> float:
        store = service.ledger_store
        return sum(
            e.epsilon
            for key in store.keys()
            for e in store.entries(key)
            if label is None or e.label == label
        )

    def _linear_total(self, service) -> float:
        return self._total(service, "linear")

    def _linear(self, service, base, width, seed):
        return service.handle(
            {**base, "queries": [{"kind": "linear", "weights": [1.0] * width}], "seed": seed}
        )

    def test_fresh_release_refused_uncharged(self, setting):
        service, base = setting
        resp = self._linear(service, base, 128, seed=1)
        assert not resp["ok"]
        assert resp["error"]["kind"] == "invalid_request"
        assert self._linear_total(service) == 0.0

    def test_held_release_refused_uncharged(self, setting):
        service, base = setting
        assert self._linear(service, base, 3_000, seed=1)["ok"]
        assert self._linear_total(service) == 0.5
        resp = self._linear(service, base, 128, seed=2)
        assert not resp["ok"]
        assert resp["error"]["kind"] == "invalid_request"
        assert self._linear_total(service) == 0.5

    def test_mixed_request_refused_before_any_charge(self, setting):
        # the range and histogram steps run before the linear one; none of
        # them may charge when the linear group is refused
        service, base = setting
        resp = service.handle(
            {
                **base,
                "queries": [
                    {"kind": "range", "lo": 10, "hi": 100},
                    {"kind": "count", "support": [3, 4, 5, 90]},
                    {"kind": "linear", "weights": [1.0] * 128},
                ],
                "seed": 3,
            }
        )
        assert not resp["ok"]
        assert resp["error"]["kind"] == "invalid_request"
        assert "128 columns" in resp["error"]["message"]
        assert self._total(service) == 0.0
