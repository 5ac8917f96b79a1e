"""Per-client serving state: a budget ledger plus release reuse.

A :class:`Session` binds one client to ``(engine, database)`` and owns the
two things that must never be shared across tenants:

* the **ledger** — a :class:`PrivacyAccountant` charged for every synopsis
  released on the client's behalf (pooled engines themselves are
  accountant-less);
* the **releases** — the noisy synopses already paid for, so any number of
  repeated queries are answered as free post-processing (Theorem 4.1
  charges per release, not per query).
"""

from __future__ import annotations

from threading import RLock

import numpy as np

from .. import obs
from ..analysis.bounds import DEFAULT_FIT
from ..core.composition import PrivacyAccountant
from ..core.database import Database
from ..core.rng import ensure_rng
from ..engine.engine import PolicyEngine
from ..plan.workload import ANY_AGE, QueryGroup, Workload

__all__ = ["Session"]

def _staleness_floor(workload) -> int:
    """The tightest freshness bound any group in ``workload`` demands.

    An undeclared bound means "current tick" (0) on streams, so one strict
    group pins the whole workload to fresh data.
    """
    bounds = [
        g.max_staleness if g.max_staleness is not None else 0
        for g in workload.groups
    ]
    return min(bounds, default=0)


class Session:
    """One client's query-answering session against a (possibly pooled) engine.

    Parameters
    ----------
    engine:
        The engine serving this session, typically from an
        :class:`~repro.api.EnginePool`.
    db:
        The data every release is computed on.  Pinned at construction
        because cached releases are only valid for the data they were drawn
        from.
    budget:
        Optional total epsilon this session may spend; exceeding it raises
        before any noisy output is computed.
    client_id:
        Opaque tag for logs and service bookkeeping.
    ledger, ledger_key:
        Optional shared :class:`~repro.api.ledger.LedgerStore` (and the key
        this session charges under) for deployments where budget truth must
        outlive this process or this object — worker fleets over a SQLite
        store, or budget enforcement across session-LRU eviction.  When
        omitted the accountant keeps a private in-process ledger, exactly
        the historical behaviour.  Releases are *not* shared through the
        ledger: a sibling session on another worker re-releases (and the
        shared ledger charges it), so cross-worker traffic for one session
        should be routed to one worker — the sharding rule
        :mod:`repro.api.workers` applies.

    Thread safety
    -------------
    Every answering/planning entry point runs under the session's own
    re-entrant lock, so a release's ledger charge and its insertion into
    :attr:`releases` are one atomic step: two concurrent requests on one
    session compose exactly as two sequential ones do (Theorem 4.1 — one
    spend per fresh release, the second request reuses for free), never as
    two racing releases that each charge the budget and then overwrite each
    other.  Distinct sessions never contend — they only share the pooled
    engine, which synchronizes its own internals.
    """

    def __init__(
        self,
        engine: PolicyEngine,
        db: Database,
        *,
        budget: float | None = None,
        client_id: str | None = None,
        ledger=None,
        ledger_key: str | None = None,
    ):
        if db.domain != engine.policy.domain:
            raise ValueError("database is over a different domain than the policy")
        self.engine = engine
        self.db = db
        self.client_id = client_id
        if ledger is not None:
            key = ledger_key if ledger_key is not None else (client_id or "session")
            self.accountant = PrivacyAccountant(
                engine.policy, budget, store=ledger, key=key
            )
        else:
            self.accountant = PrivacyAccountant(engine.policy, budget)
        #: release key -> released synopsis; the executor adds to it in place.
        self.releases: dict = {}
        #: release key -> tick it was released at (streaming sessions only;
        #: drives the per-group staleness bounds the planner enforces)
        self.release_ticks: dict[str, int] = {}
        #: attached StreamDataset, or None for the classic pinned-db session
        self.stream = None
        #: StreamState when the stream came with a StreamBudget
        self.stream_state = None
        self._db_tick: int = -1
        # re-entrant: plan_execute_with_meta locks, then calls the locked
        # plan_with_meta on the same thread
        self._lock = RLock()

    # -- streaming -----------------------------------------------------------------
    def attach_stream(self, stream, budget=None) -> "Session":
        """Bind this session to an append-only :class:`~repro.stream.StreamDataset`.

        The session's database becomes the stream's sealed snapshot and is
        re-synced (under the session lock, spend-free) at the top of every
        answer/plan entry point, so queries always see the latest sealed
        tick.  Held releases are *not* invalidated by new ticks — their age
        is tracked in :attr:`release_ticks` and the planner decides, per
        query group's ``max_staleness``, whether a held release may still
        serve for free.

        With ``budget`` (a :class:`~repro.stream.StreamBudget`) the session
        gets a :class:`~repro.stream.StreamState`: continual-release
        mechanisms amortizing the budget's total over its horizon, which
        plan compilation scores against the one-shot strategies.
        """
        from ..stream.serving import StreamState

        if stream.domain != self.engine.policy.domain:
            raise ValueError("stream is over a different domain than the policy")
        with self._lock:
            self.stream = stream
            self.db = stream.snapshot()
            self._db_tick = stream.tick
            self.release_ticks = {}
            self.stream_state = (
                None if budget is None else StreamState(self.engine, stream, budget)
            )
        return self

    def _sync_stream(self) -> None:
        """Refresh the pinned db to the stream's latest sealed tick.

        Spend-free by design: syncing only swaps the snapshot and the tick
        counter.  What to do about now-stale releases is a *planning*
        decision (freshness bounds, re-release, degradation), never a
        side effect of observing time pass.
        """
        if self.stream is not None and self.stream.tick != self._db_tick:
            self.db = self.stream.snapshot()
            self._db_tick = self.stream.tick

    def _staleness(self) -> dict[str, int] | None:
        """Age in ticks of every held release (``None`` off-stream)."""
        if self.stream is None:
            return None
        return {
            key: self._db_tick - self.release_ticks.get(key, self._db_tick)
            for key in self.releases
        }

    def _record_births(self, cached_before) -> None:
        """Stamp the current tick on releases this call produced.

        An unstamped key is also (re)stamped — a release evicted and
        re-released within one call must restart its age at 0, not inherit
        the evicted stamp's absence.
        """
        if self.stream is None:
            return
        for key in self.releases:
            if key not in cached_before or key not in self.release_ticks:
                self.release_ticks[key] = self._db_tick

    # -- planning & answering ------------------------------------------------------
    def plan_with_meta(
        self, workload, *, optimize: bool = True, budget=None, fit: str = DEFAULT_FIT
    ):
        """Compile a plan for ``workload`` that knows this session's cache:
        ``(plan, plan_cache)``, the cache outcome being ``"hit"``/``"miss"``/
        ``"uncached"``.  Nothing is executed or spent: this is the preview
        the ``"explain"`` op reports.

        Releases the session already holds are charged 0 and offered as
        reuse candidates (row-aware for linear batches), so repeat plans
        get cheaper as the session warms.  Pooled engines memoize
        cost-driven plans in the cross-tenant :class:`~repro.api.PlanCache`
        (keyed on this session's release state among everything else), so
        other tenants with the same workload skip candidate scoring.

        ``budget`` (a :class:`repro.plan.PlanBudget`) plans budget-first:
        before compiling, the session's remaining ledger budget is
        consulted, so a plan that cannot fit degrades per the budget's
        degradation mode — ``strict`` raises
        :class:`~repro.core.composition.BudgetExceededError` here, at
        planning time, before any noise is drawn or epsilon spent.

        On a streaming session the compile first syncs to the latest sealed
        tick and hands the planner each held release's age, so per-group
        freshness bounds decide free reuse.  A
        :class:`~repro.stream.StreamBudget` plans the *tick's* amortized
        share and hands the planner the tick's
        :class:`~repro.analysis.bounds.StreamContext` (which is what lets
        the continual-release strategies compete); past the horizon a strict
        budget raises here, spend-free, and the degrade modes compile
        against a zero remaining budget so the planner's degradation
        machinery (drop / stale reuse) takes over.

        ``fit`` names the cost-model fit the plan is scored under (the
        service passes the dataset's).
        """
        from ..stream.budget import StreamBudget

        with self._lock, obs.tracer().span("session.plan") as span:
            self._sync_stream()
            staleness = self._staleness()
            stream = None
            if isinstance(budget, StreamBudget):
                if self.stream_state is None:
                    raise ValueError(
                        "a StreamBudget needs a session with an attached stream "
                        "and stream budget (Session.attach_stream)"
                    )
                ss = self.stream_state
                ss.check_horizon()  # strict refuses past-horizon ticks here
                remaining = 0.0 if ss.past_horizon() else None
                budget = budget.tick_budget()
                stream = ss.plan_context()
                span.set(stream_tick=self._db_tick)
            else:
                remaining = None
                if budget is not None and self.accountant.budget is not None:
                    remaining = self.accountant.remaining()
                    span.set(remaining_budget=remaining)
            plan, plan_cache = self.engine.plan_with_meta(
                workload,
                optimize=optimize,
                existing=self.releases,
                budget=budget,
                remaining=remaining,
                staleness=staleness,
                fit=fit,
                stream=stream,
            )
            span.set(plan_cache=plan_cache)
            return plan, plan_cache

    def plan_execute_with_meta(
        self,
        workload,
        *,
        optimize: bool = True,
        budget=None,
        rng=None,
        fit: str = DEFAULT_FIT,
    ):
        """Compile and run ``workload`` in one lock acquisition: ``(plan,
        plan_cache, answers, meta)``.

        The single answering path: ``optimize=False`` runs the registry's
        fixed per-family dispatch (the ``"answer"`` op), ``optimize=True``
        the cost-driven plan (the ``"plan"`` op), scored under ``fit``.  The
        remaining-budget consult and the resulting spends happen atomically
        with respect to concurrent requests on this session — a plan judged
        affordable (or degraded to fit) cannot be invalidated by an
        interleaved spend before it executes.

        ``meta`` carries the epsilon this call spent, the session's running
        total and the executor's per-release-key ``"hit"``/``"miss"``
        outcomes (plus ``"degraded"`` and, with a stream budget,
        ``"stream"``) — exactly what :class:`~repro.api.BlowfishService`
        returns to clients.
        """
        from ..plan import Executor

        with self._lock, obs.tracer().span(
            "session.plan_execute", client=self.client_id
        ):
            rng = ensure_rng(rng)
            self._sync_stream()
            on_stream = self.stream is not None
            spent_before = self.accountant.sequential_total() if on_stream else None
            ss = self.stream_state
            if ss is not None:
                # a previously chosen counter is continual: fold every newly
                # sealed tick in (amortized spends) before planning sees it
                # — unless every group tolerates the synopsis's current age
                ss.advance_if_sticky(
                    self, rng, tolerance=_staleness_floor(workload)
                )
            plan, plan_cache = self.plan_with_meta(
                workload, optimize=optimize, budget=budget, fit=fit
            )
            cached_before = set(self.releases)
            if on_stream:
                self._stream_fixup(plan, rng)
            with obs.tracer().span("session.execute") as span:
                result = Executor(self.engine).run(
                    plan, self.db, rng=rng, releases=self.releases, accountant=self.accountant
                )
                self._record_births(cached_before)
                total = self.accountant.sequential_total()
                meta = {
                    # the amortized stream spends happen beside the
                    # executor's own ledger; on a stream the honest
                    # per-call figure is the accountant delta
                    "epsilon_spent": (
                        result.epsilon_spent if spent_before is None else total - spent_before
                    ),
                    "session_total": total,
                    "release_cache": result.release_cache,
                }
                degraded = plan.degraded()
                if degraded:
                    meta["degraded"] = degraded
                if ss is not None:
                    meta["stream"] = ss.describe()
                span.set(epsilon_spent=meta["epsilon_spent"], session_total=total)
            if result.epsilon_spent:
                obs.metrics().counter("epsilon_spent_total").inc(result.epsilon_spent)
            for key, age in (self._staleness() or {}).items():
                obs.metrics().gauge("stream_release_age", key=key).set(age)
            return plan, plan_cache, result.answers, meta

    def answer_ranges_with_meta(self, los, his, *, rng=None) -> tuple[np.ndarray, dict]:
        """A fixed-mode range read: ``(answers, meta)``.

        Kept only because ``perfbench/layers.py`` wraps this method by name
        (through ``cls.__dict__``); the service never calls it.
        """
        return self.plan_execute_with_meta(
            Workload(self.db.domain, [QueryGroup.ranges(los, his, max_staleness=ANY_AGE)]),
            optimize=False,
            rng=rng,
        )[2:]

    def _stream_fixup(self, plan, rng) -> None:
        """Reconcile a tick's compiled plan with the stream serving state.

        For every step that charges fresh epsilon: a stream-managed key
        (the interval counter / window releaser) is brought current through
        the amortized mechanisms — its spend is ``per_node``/``per_tick``
        through the session accountant, never the plan's one-shot
        allocation, and the executor then serves it as a held release.  A
        *non-managed* key the session still holds from an older tick is
        evicted, so the executor re-releases it fresh from the synced
        snapshot instead of silently serving stale data the plan decided to
        pay to replace.
        """
        ss = self.stream_state
        for step in plan.steps:
            if step.family == "linear" or step.degradation is not None:
                continue
            if step.epsilon <= 0:
                continue  # free reuse: the planner accepted the held age
            key = step.release
            if ss is not None and ss.managed(key):
                ss.ensure_fresh(key, self, rng)
            elif (
                key in self.releases
                and self._db_tick - self.release_ticks.get(key, self._db_tick) > 0
            ):
                del self.releases[key]
                self.release_ticks.pop(key, None)

    # -- budget --------------------------------------------------------------------
    @property
    def spent(self) -> float:
        """Total epsilon this session has been charged (Theorem 4.1)."""
        return self.accountant.sequential_total()

    @property
    def budget(self) -> float | None:
        return self.accountant.budget

    def remaining(self) -> float:
        """Budget left, or raise if the session was opened without one."""
        return self.accountant.remaining()

    def __repr__(self) -> str:
        who = f"client_id={self.client_id!r}, " if self.client_id else ""
        return (
            f"Session({who}spent={self.spent:.4g}, budget={self.budget}, "
            f"releases={sorted(map(str, self.releases))})"
        )
