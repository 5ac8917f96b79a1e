"""Pluggable budget-ledger stores: one budget truth, any number of workers.

Blowfish serving treats the accountant as the single source of truth for
spent budget (HeMD14 §4.1: sequential composition adds epsilons across
everything released under one policy).  PRs 2-5 kept that truth as a list
buried inside each :class:`~repro.api.Session`, which caps the deployment
at one process — a second worker would happily re-spend a budget the first
already exhausted.  This module extracts the truth behind a small store
interface so where the ledger lives is a deployment choice:

* :class:`InMemoryLedgerStore` — the default for a single process; spend
  lists sharded under :class:`~repro.api.striping.LockStripes` so sessions
  on different keys never contend.
* :class:`SQLiteLedgerStore` — a file shared by any number of worker
  processes; every charge is an atomic compare-and-spend inside a SQLite
  ``BEGIN IMMEDIATE`` transaction, so concurrent workers can never jointly
  overspend a budget and the refusal at the cap is exact.

The interface is three methods (``charge``/``total``/``entries``) plus
introspection; :class:`~repro.core.PrivacyAccountant` delegates to
whichever store it is bound to, and :class:`~repro.api.BlowfishService`
binds every named session's accountant to the service's store under a key
derived from the session identity.  A useful consequence: with a shared
store, budget enforcement survives session-LRU eviction and process
restarts — the rebuilt session's accountant finds the old spends.

Charges are *append-only*: epsilon, once spent, is never refunded
(post-processing is free, releases are not reversible), so stores never
need an update or delete path in the spend flow — which is what makes the
SQLite transaction so simple.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time

from .. import obs
from ..core.composition import (
    BUDGET_SLACK,
    BudgetExceededError,
    LedgerEntry,
    PrivacyAccountant,
)
from .striping import LockStripes

__all__ = [
    "LedgerStore",
    "InMemoryLedgerStore",
    "SQLiteLedgerStore",
    "LedgerStoreError",
    "parallel_aware_totals",
]


class LedgerStoreError(RuntimeError):
    """A ledger backend failed in a way that is not a budget refusal —
    corrupted database file, writer slot never freed, schema missing.
    Raised instead of leaking backend-specific exceptions (or hanging) so
    operators see which ledger file is broken and why."""


class LedgerStore:
    """What a budget ledger must do; see module docstring for the contract.

    ``charge`` is the load-bearing method: it must atomically check the
    proposed new total against ``budget`` (refusing with
    :class:`BudgetExceededError` when it exceeds the cap by more than
    ``BUDGET_SLACK``) and record the spend, such that no interleaving of
    concurrent chargers — threads or processes, as the implementation
    supports — admits a combined total above the cap or loses a spend.
    ``PrivacyAccountant`` only requires this duck type, not the base class.
    """

    def charge(
        self,
        key: str,
        epsilon: float,
        *,
        label: str = "",
        budget: float | None = None,
        ids: frozenset[int] | None = None,
    ) -> float:
        """Atomically record a spend; returns the new total for ``key``."""
        raise NotImplementedError

    def total(self, key: str) -> float:
        """The sequential-composition total spent under ``key``."""
        raise NotImplementedError

    def entries(self, key: str) -> list[LedgerEntry]:
        """Every spend recorded under ``key``, in charge order."""
        raise NotImplementedError

    def keys(self) -> list[str]:
        """Every key with at least one recorded spend."""
        raise NotImplementedError

    def clear(self, key: str | None = None) -> None:
        """Forget ``key``'s spends (or everything) — test/ops tooling only."""
        raise NotImplementedError


def _check_epsilon(epsilon: float) -> float:
    epsilon = float(epsilon)
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    return epsilon


class InMemoryLedgerStore(LedgerStore):
    """Striped in-process ledger: the single-process default.

    Semantically the accountant's old private spend list, with two
    upgrades: many sessions share one store (keyed), and the
    compare-and-spend is atomic under the key's stripe lock, so it no
    longer relies on the caller serializing spends.  Keys on different
    stripes never contend.
    """

    def __init__(self, *, stripes: int = 16):
        self._stripes = LockStripes(stripes)
        self._entries: dict[str, list[LedgerEntry]] = {}

    def charge(
        self,
        key: str,
        epsilon: float,
        *,
        label: str = "",
        budget: float | None = None,
        ids: frozenset[int] | None = None,
    ) -> float:
        epsilon = _check_epsilon(epsilon)
        reg = obs.metrics()
        reg.counter("ledger_charge_attempts_total", backend="memory").inc()
        with self._stripes.lock_for(key):
            entries = self._entries.setdefault(key, [])
            new_total = sum(e.epsilon for e in entries) + epsilon
            if budget is not None and new_total > budget + BUDGET_SLACK:
                reg.counter("ledger_charge_denials_total", backend="memory").inc()
                raise BudgetExceededError(epsilon, new_total, budget)
            entries.append(LedgerEntry(label, epsilon, ids))
            return new_total

    def total(self, key: str) -> float:
        with self._stripes.lock_for(key):
            return float(sum(e.epsilon for e in self._entries.get(key, ())))

    def entries(self, key: str) -> list[LedgerEntry]:
        with self._stripes.lock_for(key):
            return list(self._entries.get(key, ()))

    def keys(self) -> list[str]:
        # dict iteration is safe against concurrent setdefault in CPython,
        # but take the stripes one by one so entry lists are never mid-append
        return [k for k in list(self._entries) if self._entries.get(k)]

    def clear(self, key: str | None = None) -> None:
        if key is not None:
            with self._stripes.lock_for(key):
                self._entries.pop(key, None)
            return
        for k in list(self._entries):
            with self._stripes.lock_for(k):
                self._entries.pop(k, None)

    def __repr__(self) -> str:
        return f"InMemoryLedgerStore(keys={len(self.keys())}, stripes={len(self._stripes)})"


class SQLiteLedgerStore(LedgerStore):
    """A ledger shared across worker processes through one SQLite file.

    Every charge runs ``BEGIN IMMEDIATE`` → ``SELECT SUM(epsilon)`` →
    budget check → ``INSERT`` → ``COMMIT``.  ``BEGIN IMMEDIATE`` takes the
    database's single writer slot up front, so the read-check-insert is
    serialized against every other charger — across threads *and*
    processes — making the compare-and-spend atomic: no interleaving loses
    a spend or admits a total beyond ``budget + BUDGET_SLACK``.  Readers
    (``total``/``entries``) run outside transactions and, under WAL mode,
    never block chargers.

    Connections are per-thread (SQLite connections are not thread-safe to
    share) and lazily opened, so the store object itself may be passed
    freely between threads and survives ``fork()`` — children just open
    their own connections on first use.  ``busy_timeout`` makes chargers
    wait for the writer slot instead of failing fast.  Chargers of one
    process first queue on a process-local lock, which hands the slot over
    at once where SQLite's busy handler would sleep and poll for it; like
    the connections, the lock is re-created after ``fork()``.

    The budget is *not* stored: callers bind it per accountant, and the
    serving layer derives both key and budget deterministically from the
    session identity, so every worker asks the same question.  The store
    only guarantees the arithmetic is race-free.
    """

    #: How many times ``charge`` re-attempts a transiently locked database
    #: before giving up with :class:`LedgerStoreError`.  ``busy_timeout``
    #: already absorbs writer contention; the retries exist so a stray
    #: external lock (another process holding the file past the timeout)
    #: surfaces as a clear bounded-latency error rather than a hang.
    CHARGE_RETRIES = 3

    def __init__(self, path: str, *, timeout: float = 30.0):
        self.path = str(path)
        self.timeout = float(timeout)
        self._local = threading.local()
        self._charge_lock = (os.getpid(), threading.Lock())
        # create the schema eagerly so readers of a fresh file see a table,
        # not an error, and concurrent first-chargers don't race the DDL
        con = self._conn()
        try:
            con.execute(
                "CREATE TABLE IF NOT EXISTS ledger_spends ("
                " seq INTEGER PRIMARY KEY AUTOINCREMENT,"
                " key TEXT NOT NULL,"
                " label TEXT NOT NULL DEFAULT '',"
                " epsilon REAL NOT NULL,"
                " ids TEXT)"
            )
            con.execute(
                "CREATE INDEX IF NOT EXISTS ledger_spends_key ON ledger_spends(key)"
            )
            con.commit()
        except sqlite3.DatabaseError as exc:
            raise LedgerStoreError(
                f"ledger database {self.path!r} is unusable "
                f"(corrupted file or not a SQLite database): {exc}"
            ) from exc

    def _conn(self) -> sqlite3.Connection:
        # connections must not cross fork(): a child inheriting the parent's
        # connection would share its file descriptors and locks
        pid = os.getpid()
        con = getattr(self._local, "con", None)
        if con is None or self._local.pid != pid:
            try:
                con = sqlite3.connect(
                    self.path, timeout=self.timeout, isolation_level=None
                )
                con.execute("PRAGMA journal_mode=WAL")
                con.execute(f"PRAGMA busy_timeout={int(self.timeout * 1000)}")
            except sqlite3.Error as exc:
                raise LedgerStoreError(
                    f"cannot open ledger database {self.path!r}: {exc}"
                ) from exc
            self._local.con = con
            self._local.pid = pid
        return con

    def charge(
        self,
        key: str,
        epsilon: float,
        *,
        label: str = "",
        budget: float | None = None,
        ids: frozenset[int] | None = None,
    ) -> float:
        epsilon = _check_epsilon(epsilon)
        reg = obs.metrics()
        reg.counter("ledger_charge_attempts_total", backend="sqlite").inc()
        last_exc: sqlite3.OperationalError | None = None
        for attempt in range(self.CHARGE_RETRIES + 1):
            if attempt:
                reg.counter("ledger_charge_retries_total", backend="sqlite").inc()
                time.sleep(0.01 * attempt)
            try:
                with self._process_charge_lock():
                    return self._charge_once(key, epsilon, label, budget, ids)
            except BudgetExceededError:
                reg.counter("ledger_charge_denials_total", backend="sqlite").inc()
                raise
            except sqlite3.OperationalError as exc:
                # "database is locked" after busy_timeout already elapsed:
                # a writer is stuck beyond our patience — retry briefly,
                # then fail loudly instead of hanging the request thread
                last_exc = exc
            except sqlite3.DatabaseError as exc:
                raise LedgerStoreError(
                    f"ledger database {self.path!r} failed during charge "
                    f"(corrupted or tampered file?): {exc}"
                ) from exc
        raise LedgerStoreError(
            f"ledger database {self.path!r} stayed locked through "
            f"{self.CHARGE_RETRIES + 1} charge attempts "
            f"(busy_timeout={self.timeout}s each): {last_exc}"
        ) from last_exc

    def _process_charge_lock(self) -> threading.Lock:
        # a lock inherited through fork() may be held by a parent thread
        # that does not exist in the child: never wait on it there
        pid, lock = self._charge_lock
        if pid != os.getpid():
            lock = threading.Lock()
            self._charge_lock = (os.getpid(), lock)
        return lock

    def _charge_once(self, key, epsilon, label, budget, ids) -> float:
        con = self._conn()
        con.execute("BEGIN IMMEDIATE")
        try:
            (spent,) = con.execute(
                "SELECT COALESCE(SUM(epsilon), 0.0) FROM ledger_spends WHERE key = ?",
                (key,),
            ).fetchone()
            new_total = float(spent) + epsilon
            if budget is not None and new_total > budget + BUDGET_SLACK:
                raise BudgetExceededError(epsilon, new_total, budget)
            con.execute(
                "INSERT INTO ledger_spends (key, label, epsilon, ids) VALUES (?, ?, ?, ?)",
                (
                    key,
                    label,
                    epsilon,
                    None if ids is None else json.dumps(sorted(ids)),
                ),
            )
        except BaseException:
            try:
                con.execute("ROLLBACK")
            except sqlite3.Error:
                pass  # the original failure is the interesting one
            raise
        con.execute("COMMIT")
        return new_total

    def total(self, key: str) -> float:
        try:
            (spent,) = (
                self._conn()
                .execute(
                    "SELECT COALESCE(SUM(epsilon), 0.0) FROM ledger_spends WHERE key = ?",
                    (key,),
                )
                .fetchone()
            )
        except sqlite3.DatabaseError as exc:
            raise LedgerStoreError(
                f"ledger database {self.path!r} failed reading totals: {exc}"
            ) from exc
        return float(spent)

    def entries(self, key: str) -> list[LedgerEntry]:
        try:
            rows = list(
                self._conn().execute(
                    "SELECT label, epsilon, ids FROM ledger_spends"
                    " WHERE key = ? ORDER BY seq",
                    (key,),
                )
            )
        except sqlite3.DatabaseError as exc:
            raise LedgerStoreError(
                f"ledger database {self.path!r} failed reading entries: {exc}"
            ) from exc
        return [
            LedgerEntry(
                label,
                float(epsilon),
                None if ids is None else frozenset(json.loads(ids)),
            )
            for label, epsilon, ids in rows
        ]

    def keys(self) -> list[str]:
        try:
            rows = list(
                self._conn().execute(
                    "SELECT DISTINCT key FROM ledger_spends ORDER BY key"
                )
            )
        except sqlite3.DatabaseError as exc:
            raise LedgerStoreError(
                f"ledger database {self.path!r} failed listing keys: {exc}"
            ) from exc
        return [key for (key,) in rows]

    def clear(self, key: str | None = None) -> None:
        con = self._conn()
        if key is None:
            con.execute("DELETE FROM ledger_spends")
        else:
            con.execute("DELETE FROM ledger_spends WHERE key = ?", (key,))
        con.commit()

    def close(self) -> None:
        """Close this thread's connection (others close with their threads)."""
        con = getattr(self._local, "con", None)
        if con is not None:
            con.close()
            self._local.con = None

    def __repr__(self) -> str:
        return f"SQLiteLedgerStore({self.path!r})"


def parallel_aware_totals(store: LedgerStore, policy) -> dict[str, dict]:
    """Per-key composition report over a shared ledger store.

    Reads every key's entries back — including the ``ids`` scopes that
    :class:`SQLiteLedgerStore` serializes but nothing consumed until now —
    and reports, per key, the worst-case sequential total (Theorem 4.1)
    next to the parallel-composition-aware total (Theorems 4.2/4.3: spends
    on pairwise-disjoint id sets cost their max when ``policy`` admits it).
    The gap between the two is exactly the budget a deployment overstates
    by ignoring spend scopes.

    ``policy`` is the Blowfish policy the parallel-composition hypotheses
    are checked against; ledger keys are opaque digests, so the caller —
    who bound keys to sessions — supplies it.  Returns::

        {key: {"sequential": float, "parallel_aware": float,
               "entries": int, "scoped_entries": int}}
    """
    report: dict[str, dict] = {}
    for key in store.keys():
        accountant = PrivacyAccountant(policy, store=store, key=key)
        entries = store.entries(key)
        report[key] = {
            "sequential": accountant.sequential_total(),
            "parallel_aware": accountant.parallel_aware_total(),
            "entries": len(entries),
            "scoped_entries": sum(1 for e in entries if e.ids is not None),
        }
    return report
