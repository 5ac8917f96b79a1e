"""The pure-JSON serving boundary: ``BlowfishService.handle(dict) -> dict``.

Everything that crosses :meth:`BlowfishService.handle` is a plain dict of
JSON-native values — a different process, queue consumer or language
binding can drive the whole library through this one method.  A request
names a policy (as a spec), an epsilon, a dataset and a batch of query
specs; the response carries per-query answers plus metadata: which strategy
served each family, the calibrated sensitivity/scale, the epsilon actually
spent, and cache hit/miss for the engine and each release.

Request shape (``op: "answer"``)::

    {
      "op": "answer",                  # default; also "plan", "explain", "describe",
                                       # and "append"/"tick" for registered streams
      "version": 1,                    # optional spec-schema pin
      "policy": { ...Policy.to_spec()... },
      "epsilon": 0.5,
      "dataset": {"name": "adult"}     # registered server-side, or
                 {"indices": [3, 17, ...]},   # inline domain indices
      "queries": [ {"kind": "range", "lo": 0, "hi": 9}, ... ]
                 or {"kind": "range_batch", "los": [...], "his": [...]}
                 or {"kind": "workload", "groups": [...]},
      "session": "client-42",          # optional: persistent ledger + reuse
      "budget": 2.0,                   # optional, applied when the session opens
      "seed": 0,                       # optional: reproducible noise
      "options": {"range": {"fanout": 16}},   # optional mechanism options
      "request_id": "req-1",           # optional correlation id: echoed as
                                       # meta.request_id and stamped on the
                                       # root request span
    }

Every answering op runs one path — compile a :mod:`repro.plan` plan
against the session's held releases, then execute it.  ``op: "answer"``
compiles the registry's fixed per-family dispatch, so its
``meta.release_cache`` and ``meta.strategies`` are keyed by family
(``"range"``, ``"histogram"``, ``"linear"``), and on streams a held release
serves it at any age.  ``op: "plan"`` answers the same query shapes
through the cost-driven planner: per group
the predicted-cheapest mechanism is chosen and releases are shared where
reuse is predicted to win, with the executed plan's per-step report in the
response (``"mode": "fixed"`` compiles the dispatch ``"answer"`` runs).
``op: "explain"`` compiles and returns the plan (chosen mechanism,
predicted RMSE, sensitivity, epsilon split per group) without touching any
data or spending any budget.  ``"plan"`` and ``"explain"`` accept an
optional ``"plan_budget"`` — ``{"total": 1.0, "degradation":
"drop_optional"}`` or ``{"uniform": 0.25}`` — for budget-first planning:
the total is split adaptively across the plan's fresh releases to minimize
predicted workload error, and a session whose remaining budget cannot
cover the total degrades per the requested mode (dropped groups answer
``null``) instead of failing mid-execution.

Malformed requests never raise: the response is ``{"ok": false, "error":
{"field": ..., "message": ..., "kind": ...}}`` with the offending field
named and a stable machine-readable ``kind`` — ``"invalid_request"`` for
client mistakes, ``"budget_exhausted"`` when a session's ledger refuses a
spend.  The refused release never draws noise, but earlier groups of the
same request may already have been charged and cached (check
``session_total`` on the next request).  Genuine internal failures are *not* masked
as client errors: an unexpected ``RuntimeError`` propagates to the caller's
crash handling instead of being dressed up as a refusal.

Repeated requests are cheap by construction: policies parse once per
distinct spec digest, engines are shared through an :class:`EnginePool`,
compiled plans are shared across tenants through its
:class:`~repro.api.PlanCache`, and a session's released synopses answer
repeat queries as free post-processing.

``handle`` is safe to call from any number of threads.  The session and
policy maps are exact-LRU :class:`~repro.api.lru.LRUMap` s: each holds
its lock only for a lookup, insert or eviction, and exactly one
:class:`Session` ledger ever exists per key — concurrent requests against
one session serialize on that session's own lock and budget spends are
never lost.  Eviction is global LRU, so no session is forgotten while
fewer than ``max_sessions`` are open.

Where budgets are *stored* is pluggable: pass ``ledger_store`` (see
:mod:`repro.api.ledger`) and every named session's accountant charges a
shared ledger under a key derived deterministically from the session
identity.  With a :class:`~repro.api.ledger.SQLiteLedgerStore`, any number
of worker processes serving the same tenants enforce one budget truth —
and enforcement survives session-LRU eviction, because a rebuilt session's
accountant finds the old spends under the same ledger key.
"""

from __future__ import annotations

import hashlib
import math
from threading import Lock
from time import perf_counter

import numpy as np

from .. import obs
from ..analysis.bounds import COST_MODEL_FITS, DEFAULT_FIT, StreamContext, fit_report
from ..check import SpecChecker
from ..core.composition import BudgetExceededError
from ..core.database import Database
from ..core.graphs import EdgeScanRefused
from ..core.policy import Policy
from ..core.queries import Query, _int_array
from ..core.rng import ensure_rng
from ..core.specbase import SpecError, check_version, spec_get
from ..plan import PlanBudget, Workload
from ..plan.workload import ANY_AGE, validate_range_arrays
from .lru import LRUMap
from .pool import EnginePool, _options_key
from .session import Session
from .specs import spec_digest

__all__ = ["BlowfishService"]


class BlowfishService:
    """Multi-tenant Blowfish query answering over plain-dict requests.

    Parameters
    ----------
    pool:
        Engine pool shared by every request; defaults to a fresh
        :class:`EnginePool`.
    max_sessions:
        Bound on concurrently remembered named sessions (LRU-evicted).
        Evicting a session forgets its releases *and* its ledger, so budget
        enforcement across eviction is the deployment's responsibility.
    max_policies:
        Bound on memoized parsed policies, keyed by spec digest.
    ledger_store:
        Optional shared budget ledger (:mod:`repro.api.ledger`).  When set,
        every *named* session's accountant charges this store under a key
        derived from the session identity; ephemeral (sessionless) requests
        keep private single-request ledgers.  When None (the default),
        sessions keep private in-process ledgers exactly as before.
    strict_check:
        Opt-in static admission (:mod:`repro.check`): policies and plan
        budgets with error-severity diagnostics are refused when first
        parsed — before any engine is built or budget spent — with the
        diagnostic code and full field path in the error.  Off by default:
        the analyzer is always available non-destructively via the
        ``"check"`` op.
    """

    def __init__(
        self,
        *,
        pool: EnginePool | None = None,
        max_sessions: int = 1024,
        max_policies: int = 128,
        ledger_store=None,
        strict_check: bool = False,
    ):
        self.pool = pool if pool is not None else EnginePool()
        self.max_sessions = max_sessions
        self.max_policies = max_policies
        self.ledger_store = ledger_store
        # opt-in static admission: error-severity repro.check findings on a
        # policy or plan budget are refused at parse time, before any
        # engine is built or budget touched
        self.strict_check = bool(strict_check)
        self._checker = SpecChecker()
        self._datasets: dict[str, Database] = {}
        self._streams: dict = {}
        # exact-LRU maps locked only for lookup/insert/evict — parsing,
        # planning and answering all happen outside any service-level lock
        self._sessions = LRUMap(max_sessions)
        self._policies = LRUMap(max_policies)
        self._datasets_lock = Lock()
        self._dataset_fits: dict[str, str | None] = {}

    # -- server-side state ----------------------------------------------------------
    def register_dataset(
        self, name: str, db: Database, *, calibration: str | None = None
    ) -> None:
        """Make ``db`` addressable by requests as ``{"dataset": {"name": name}}``.

        ``calibration`` pins the cost-model fit family
        (:data:`~repro.analysis.bounds.COST_MODEL_FITS`) this dataset's
        plans are scored under; every request on the dataset passes it to
        the planner, so other tenants keep their own fit.  Omitted, the fit
        is auto-selected from the dataset name (see :meth:`_resolve_fit`).
        """
        fit = self._resolve_fit(name, calibration)
        with self._datasets_lock:
            if name in self._streams:
                raise ValueError(f"{name!r} is already a registered stream")
            self._datasets[name] = db
            self._dataset_fits[name] = fit

    def register_stream(self, name: str, stream, *, calibration: str | None = None) -> None:
        """Make an append-only :class:`~repro.stream.StreamDataset`
        addressable as ``{"dataset": {"name": name}}``.

        Stream names share the dataset namespace (a request cannot tell —
        and should not care — whether a name is pinned or streaming); a
        stream resolves to its latest sealed snapshot, and sessions opened
        against it track release staleness per tick.  ``calibration`` works
        exactly as in :meth:`register_dataset`.  The ``"append"`` and
        ``"tick"`` ops mutate registered streams by name.
        """
        fit = self._resolve_fit(name, calibration)
        with self._datasets_lock:
            if name in self._datasets:
                raise ValueError(f"{name!r} is already a registered (pinned) dataset")
            self._streams[name] = stream
            self._dataset_fits[name] = fit

    @staticmethod
    def _resolve_fit(name: str, calibration: str | None) -> str | None:
        """The fit family a registered ``name`` is planned under.

        An explicit ``calibration`` must name a registered fit.  Otherwise
        a fit family whose leading token appears in the name is picked
        (``"uniform-ages"`` → ``"uniform"``); no match gives ``None``, the
        shipped default.
        """
        if calibration is not None:
            if calibration not in COST_MODEL_FITS:
                known = ", ".join(sorted(COST_MODEL_FITS))
                raise ValueError(
                    f"unknown calibration family {calibration!r} (known: {known})"
                )
            return calibration
        lowered = name.lower()
        for family in sorted(COST_MODEL_FITS):
            # the shipped default is never an auto-upgrade
            if family != DEFAULT_FIT and family.split("-")[0] in lowered:
                return family
        return None

    def datasets(self) -> tuple[str, ...]:
        with self._datasets_lock:
            return tuple(self._datasets)

    def streams(self) -> tuple[str, ...]:
        with self._datasets_lock:
            return tuple(self._streams)

    def dataset_calibration(self, name: str) -> str | None:
        """The fit family ``name``'s plans are scored under, or None."""
        with self._datasets_lock:
            return self._dataset_fits.get(name)

    def _fit_for(self, dataset_key) -> str:
        """The fit a request on ``dataset_key`` is planned under."""
        if dataset_key is not None and dataset_key[0] in ("name", "stream"):
            return self.dataset_calibration(dataset_key[1]) or DEFAULT_FIT
        return DEFAULT_FIT

    # -- the boundary ----------------------------------------------------------------
    def handle(self, request: dict) -> dict:
        """Serve one request; returns an error response rather than raising
        for anything the client got wrong.  A budget-refused release draws
        no noise (earlier groups of the same request may already be
        charged) and is reported as ``error.kind == "budget_exhausted"``;
        internal bugs (unexpected ``RuntimeError`` s) propagate — they are
        not client errors.

        Observability: every call records ``requests_total{op,outcome}``
        and a ``request_seconds{op}`` latency observation in the active
        metrics registry (no-ops unless :func:`repro.obs.configure` turned
        metrics on).  A request carrying ``"trace": true`` opts into
        per-request tracing — the response's ``meta.trace`` holds the
        span tree (service → session → planner → executor → mechanism,
        with the epsilon charged per release as a span attribute) — even
        when process-wide tracing stays off.
        """
        is_dict = isinstance(request, dict)
        op = request.get("op", "answer") if is_dict else "invalid"
        if not isinstance(op, str):
            op = "invalid"
        req_tracer = token = None
        if is_dict and request.get("trace") is True:
            req_tracer = obs.Tracer()
            token = obs.push_tracer(req_tracer)
        tracer = obs.tracer()
        start = perf_counter()
        outcome = "ok"
        try:
            with tracer.span("service.handle", op=op) as span:
                if is_dict and request.get("request_id") is not None:
                    span.set(request_id=str(request["request_id"]))
                try:
                    response = self._dispatch(request)
                except SpecError as exc:
                    outcome = "invalid_request"
                    response = _error(exc.field, str(exc))
                except BudgetExceededError as exc:
                    outcome = "budget_exhausted"
                    response = _error(None, str(exc), kind="budget_exhausted")
                except (ValueError, TypeError, LookupError, OverflowError) as exc:
                    outcome = "invalid_request"
                    response = _error(None, str(exc))
                    if isinstance(exc, EdgeScanRefused):
                        # share the static analyzer's vocabulary: the code
                        # is the diagnostic repro.check predicts this
                        # refusal under, plus the bound that tripped
                        response["error"].update(exc.details())
                span.set(outcome=outcome)
        finally:
            if token is not None:
                obs.pop_tracer(token)
        reg = obs.metrics()
        reg.counter("requests_total", op=op, outcome=outcome).inc()
        reg.histogram("request_seconds", op=op).observe(perf_counter() - start)
        if is_dict and request.get("request_id") is not None:
            # correlation id round-trip: the network tier's traces/metrics
            # join this response (and its span tree, stamped above) by id.
            # Error responses carry it too — a refused request is still a
            # request somebody is trying to trace.
            response.setdefault("meta", {})["request_id"] = str(request["request_id"])
        if req_tracer is not None:
            roots = req_tracer.take()
            if roots:
                response.setdefault("meta", {})["trace"] = roots[0].to_dict()
        return response

    def _dispatch(self, request: dict) -> dict:
        if not isinstance(request, dict):
            raise SpecError("request", f"expected a mapping, got {type(request).__name__}")
        check_version(request, "request", required=False)
        op = spec_get(request, "op", str, "request", required=False, default="answer")
        if op in ("answer", "plan"):
            return self._execute(request, op)
        if op == "explain":
            return self._explain(request)
        if op == "describe":
            return self._describe(request)
        if op == "append":
            return self._append(request)
        if op == "tick":
            return self._tick(request)
        if op == "check":
            return self._check(request)
        raise SpecError(
            "request.op",
            f"unknown op {op!r} (known: answer, plan, explain, describe, "
            "append, tick, check)",
        )

    # -- shared request plumbing ----------------------------------------------------
    @staticmethod
    def _annotate_request_span(engine, session_id, engine_cache) -> None:
        """Stamp tenant identity onto the request's root span (if tracing)."""
        span = obs.tracer().current()
        if span is not None:
            span.set(
                policy_fingerprint=engine.fingerprint,
                epsilon=engine.epsilon,
                session=session_id,
                engine_cache=engine_cache,
            )

    def _engine_for(self, request: dict):
        policy = self._policy_for(spec_get(request, "policy", dict, "request"))
        epsilon = spec_get(request, "epsilon", (int, float), "request")
        options = spec_get(request, "options", dict, "request", required=False)
        # the pool reports hit/miss for this call; a before/after delta of
        # its global counters would mislabel us under concurrent tenants
        engine, engine_cache = self.pool.get_with_meta(policy, epsilon, options=options)
        return engine, engine_cache, options

    def _policy_for(self, spec: dict) -> Policy:
        digest = spec_digest(spec)
        policy = self._policies.get(digest)
        if policy is not None:
            return policy
        # parse outside any lock (graph construction can be expensive);
        # racing parsers of one digest yield interchangeable policies and
        # the map's double-checked insert keeps the incumbent
        policy = Policy.from_spec(spec, "request.policy")
        if self.strict_check:
            # once per digest: memoized policies were already admitted
            self._refuse_on_errors(
                self._checker.check_objects(
                    policy=policy, paths={"policy": "request.policy"}
                )
            )
        return self._policies.adopt(digest, policy, count=False)[0]

    @staticmethod
    def _refuse_on_errors(report) -> None:
        """Strict admission: surface the first error-severity diagnostic as
        a SpecError carrying its code and full field path."""
        for diag in report.errors:
            raise SpecError(diag.path, f"[{diag.code}] {diag.message}")

    def _dataset_for(self, request: dict, policy: Policy):
        """Resolve the request's data source.

        Returns ``(source, dataset_key)`` where ``source`` is a
        :class:`Database` for pinned/inline datasets or a
        :class:`~repro.stream.StreamDataset` for registered streams (key
        ``("stream", name)`` — stable across ticks, so one session follows
        the stream instead of being re-keyed every advance).
        """
        ds = spec_get(request, "dataset", dict, "request")
        name = spec_get(ds, "name", str, "request.dataset", required=False)
        if name is not None:
            with self._datasets_lock:
                db = self._datasets.get(name)
                stream = self._streams.get(name)
                registered = (
                    sorted(self._datasets) + sorted(self._streams)
                    if db is None and stream is None
                    else ()
                )
            if stream is not None:
                if stream.domain != policy.domain:
                    raise SpecError(
                        "request.dataset.name",
                        f"stream {name!r} is over a different domain than the policy",
                    )
                return stream, ("stream", name)
            if db is None:
                known = ", ".join(registered) or "none registered"
                raise SpecError("request.dataset.name", f"unknown dataset {name!r} ({known})")
            if db.domain != policy.domain:
                raise SpecError(
                    "request.dataset.name",
                    f"dataset {name!r} is over a different domain than the policy",
                )
            return db, ("name", name)
        indices = spec_get(ds, "indices", list, "request.dataset", required=False)
        if indices is None:
            raise SpecError("request.dataset", "needs either 'name' or 'indices'")
        arr = _int_array(indices, "request.dataset.indices")
        try:
            db = Database(policy.domain, arr)
        except ValueError as exc:
            raise SpecError("request.dataset.indices", str(exc)) from None
        return db, ("inline", hashlib.sha256(arr.tobytes()).hexdigest()[:16])

    @staticmethod
    def _session_key(session_id: str, engine, dataset_key, options, stream_budget=None) -> tuple:
        # the key mirrors the engine pool's (fingerprint, epsilon, options)
        # plus the dataset: a request differing in any of them must not be
        # served from another engine's cached releases.  A stream budget is
        # part of a streaming session's identity too — the continual
        # mechanisms it parameterizes (horizon, window, degradation) live
        # on the session, so a different amortization must not reuse them.
        key = (
            session_id,
            engine.fingerprint,
            float(engine.epsilon),
            _options_key(options),
            dataset_key,
        )
        if stream_budget is not None:
            key += (stream_budget.cache_token(),)
        return key

    @staticmethod
    def _ledger_key(session_key: tuple) -> str:
        """The shared-store key a session charges under.

        Derived from the full session key (id, policy fingerprint, epsilon,
        options, dataset), so it is identical in every process that serves
        the same tenant — the invariant that makes a shared ledger one
        budget truth — and distinct sessions can never alias one ledger.
        The key tuple contains only strings, floats and nested tuples, so
        its ``repr`` is deterministic across processes and runs.
        """
        return hashlib.sha256(repr(session_key).encode()).hexdigest()[:24]

    def _session_for(
        self, request: dict, engine, source, dataset_key, options, stream_budget=None
    ) -> tuple:
        """Resolve (or create, exactly once) the request's session.

        ``source`` is the :meth:`_dataset_for` result: a pinned
        :class:`Database`, or a stream — in which case the session is built
        over the stream's sealed snapshot and attached to the stream (with
        ``stream_budget``'s continual-release state when one was supplied),
        so it follows every subsequent tick.

        Returns ``(session, session_id, budget_note)``; ``budget_note`` is
        None unless the request carried a budget that an already-open
        session ignored, in which case it names the active budget so the
        client learns its limit was *not* changed.
        """
        session_id = spec_get(request, "session", str, "request", required=False)
        budget = spec_get(request, "budget", (int, float), "request", required=False)
        stream = None
        db = source
        if dataset_key is not None and dataset_key[0] == "stream":
            stream = source
            db = stream.snapshot()

        def build_raw() -> Session:
            session = Session(
                engine,
                db,
                budget=budget,
                client_id=session_id,
                ledger=self.ledger_store if session_id is not None else None,
                ledger_key=(
                    self._ledger_key(key)
                    if session_id is not None and self.ledger_store is not None
                    else None
                ),
            )
            if stream is not None:
                session.attach_stream(stream, stream_budget)
            return session

        if session_id is None:
            # ephemeral: ledger and releases live for this request only
            return build_raw(), None, None
        key = self._session_key(session_id, engine, dataset_key, options, stream_budget)
        # build_raw runs under the map's lock (construction is cheap
        # — no data is touched) so racing openers of a brand-new key can
        # never build two ledgers and drop one mid-spend
        session, created = self._sessions.get_or_create(key, build_raw)
        budget_note = None
        if not created and budget is not None and budget != session.budget:
            # the ledger persists; a different budget on a later request is
            # ignored rather than silently resetting the session's limit —
            # and the response says so instead of pretending it applied
            budget_note = {
                "status": "ignored",
                "requested": float(budget),
                "active": session.budget,
            }
        return session, session_id, budget_note

    # -- ops -------------------------------------------------------------------------
    def _execute(self, request: dict, op: str) -> dict:
        """``op: "answer"`` and ``op: "plan"`` — compile, then execute.

        Both ops run one path: :meth:`Session.plan_execute_with_meta`.
        ``"plan"`` reads an optional ``"mode"`` — ``"auto"`` (default; the
        planner scores every candidate mechanism and may share releases
        across groups) or ``"fixed"`` (the registry's per-family dispatch)
        — and an optional ``"plan_budget"``, and reports the executed
        plan's per-step report.  ``"answer"`` is the fixed-mode plan with
        no plan budget: its release keys are the family names, so its
        ``release_cache`` and ``strategies`` are keyed by family, and a
        group that declares no freshness bound is served from a held
        release of any age on streams.
        """
        planned = op == "plan"
        engine, engine_cache, options = self._engine_for(request)
        plan_budget = self._parse_plan_budget(request) if planned else None
        db, dataset_key = self._dataset_for(request, engine.policy)
        session, session_id, budget_note = self._session_for(
            request, engine, db, dataset_key, options, self._stream_budget(plan_budget)
        )
        self._annotate_request_span(engine, session_id, engine_cache)
        rng = ensure_rng(spec_get(request, "seed", int, "request", required=False))
        workload = self._parse_workload(request, engine.policy.domain)
        if not planned:
            for group in workload.groups:
                if group.max_staleness is None:
                    group.max_staleness = ANY_AGE
        # one lock acquisition for compile + run: the budget consulted at
        # planning time is the budget the execution spends against, even
        # under concurrent requests on this session
        plan, plan_cache, answers, call_meta = session.plan_execute_with_meta(
            workload,
            optimize=planned and self._plan_mode(request) == "auto",
            budget=plan_budget,
            rng=rng,
            fit=self._fit_for(dataset_key),
        )
        meta = {
            "n_queries": len(workload),
            "policy_fingerprint": engine.fingerprint,
            "epsilon": engine.epsilon,
            "session": session_id,
            "engine_cache": engine_cache,
            "plan_cache": plan_cache,
            "sensitivity_cache": engine.cache_info(),
            **call_meta,
        }
        if budget_note is not None:
            meta["budget"] = budget_note
        response = {"ok": True, "op": op, "answers": _jsonable_answers(answers), "meta": meta}
        if planned:
            response["plan"] = self._plan_section(plan)
        else:
            meta["strategies"] = self._strategies(engine, call_meta["release_cache"])
        return response

    @staticmethod
    def _plan_section(plan) -> dict:
        """The per-plan response block shared by ``"plan"`` responses."""
        section = {
            "fingerprint": plan.fingerprint(),
            "mode": plan.mode,
            "total_epsilon": plan.total_epsilon,
            "steps": plan.summary(),
        }
        if plan.budget is not None:
            section["budget"] = plan.budget.to_spec()
            section["degraded"] = plan.degraded()
        return section

    def _explain(self, request: dict) -> dict:
        """``op: "explain"`` — compile and report a plan; no data, no spend.

        When the request names a session *and* a dataset, that session's
        cached releases inform the plan (read-only: a session that does not
        exist yet is NOT created — the client's budget on its real first
        request must not be pre-empted by an unbudgeted preview session),
        so the report previews exactly what ``op: "plan"`` on the same
        request would choose and charge.
        """
        engine, engine_cache, options = self._engine_for(request)
        workload = self._parse_workload(request, engine.policy.domain)
        optimize = self._plan_mode(request) == "auto"
        budget = self._parse_plan_budget(request)
        stream_budget = self._stream_budget(budget)
        session = source = dataset_key = stream = None
        session_id = spec_get(request, "session", str, "request", required=False)
        if "dataset" in request:
            source, dataset_key = self._dataset_for(request, engine.policy)
        if session_id is not None and dataset_key is not None:
            # peek: a read-only preview must neither create the session nor
            # refresh its LRU slot
            session = self._sessions.peek(
                self._session_key(session_id, engine, dataset_key, options, stream_budget)
            )
        if session is None and stream_budget is not None:
            # no streaming session to preview against: report the tick's
            # amortized share (what one tick of op "plan" would budget),
            # planned at the stream's current tick as op "plan" would be
            budget = stream_budget.tick_budget()
            if dataset_key is not None and dataset_key[0] == "stream":
                stream = StreamContext(
                    stream_budget.horizon, max(source.tick, 0), stream_budget.window
                )
        self._annotate_request_span(engine, session_id, engine_cache)
        fit = self._fit_for(dataset_key)
        if session is not None:
            # through the session so its lock covers reading the releases a
            # concurrent request on the same session may be mutating (and so
            # a budgeted preview consults the same remaining ledger budget
            # op "plan" would)
            plan, plan_cache = session.plan_with_meta(
                workload, optimize=optimize, budget=budget, fit=fit
            )
        else:
            plan, plan_cache = engine.plan_with_meta(
                workload, optimize=optimize, budget=budget, fit=fit, stream=stream
            )
        meta = {
            "n_queries": len(workload),
            "policy_fingerprint": engine.fingerprint,
            "epsilon": engine.epsilon,
            "total_epsilon": plan.total_epsilon,
            "engine_cache": engine_cache,
            "plan_cache": plan_cache,
            "sensitivity_cache": engine.cache_info(),
        }
        return {
            "ok": True,
            "op": "explain",
            "plan": plan.to_spec(),
            "report": plan.explain(),
            "meta": meta,
        }

    @staticmethod
    def _plan_mode(request: dict) -> str:
        mode = spec_get(request, "mode", str, "request", required=False, default="auto")
        if mode not in ("auto", "fixed"):
            raise SpecError("request.mode", f"expected 'auto' or 'fixed', got {mode!r}")
        return mode

    def _parse_plan_budget(self, request: dict) -> PlanBudget | None:
        """The optional ``"plan_budget"`` request field, parsed.

        Shape: ``{"total": 1.0}`` or ``{"uniform": 0.25}``, plus optional
        ``"floors": {group: eps}`` and ``"degradation": "strict" |
        "drop_optional" | "reuse_stale"``.  ``{"kind": "stream_budget",
        "total": ..., "horizon": ...}`` parses to a
        :class:`~repro.stream.StreamBudget` for continual-release sessions.
        Under ``strict_check``, budgets with error-severity diagnostics
        (infeasible floors, horizon overflow) are refused here.
        """
        spec = spec_get(request, "plan_budget", dict, "request", required=False)
        if spec is None:
            return None
        budget = PlanBudget.from_spec(spec, "request.plan_budget")
        if self.strict_check:
            self._refuse_on_errors(
                self._checker.check_objects(
                    budget=budget, paths={"budget": "request.plan_budget"}
                )
            )
        return budget

    @staticmethod
    def _stream_budget(plan_budget):
        """The parsed plan budget, iff it is a stream (amortizing) one."""
        from ..stream.budget import StreamBudget

        return plan_budget if isinstance(plan_budget, StreamBudget) else None

    # -- stream mutation ops ----------------------------------------------------------
    def _stream_named(self, request: dict):
        name = spec_get(request, "stream", str, "request")
        with self._datasets_lock:
            stream = self._streams.get(name)
            known = sorted(self._streams) if stream is None else ()
        if stream is None:
            registered = ", ".join(known) or "none registered"
            raise SpecError("request.stream", f"unknown stream {name!r} ({registered})")
        return name, stream

    def _append(self, request: dict) -> dict:
        """``op: "append"`` — buffer arrivals into a registered stream.

        Appended tuples stay invisible to queries until a ``"tick"``
        seals them; nothing here touches any budget.
        """
        name, stream = self._stream_named(request)
        indices = spec_get(request, "indices", list, "request")
        arr = _int_array(indices, "request.indices")
        try:
            appended = stream.append(arr)
        except ValueError as exc:
            raise SpecError("request.indices", str(exc)) from None
        obs.metrics().counter("stream_appends_total", stream=name).inc(appended)
        return {
            "ok": True,
            "op": "append",
            "stream": name,
            "appended": appended,
            "pending": stream.pending,
            "tick": stream.tick,
        }

    def _tick(self, request: dict) -> dict:
        """``op: "tick"`` — seal the pending arrivals as the next tick.

        Time moves for every session attached to the stream: their next
        request re-syncs to the new snapshot and every held release ages
        by one tick.
        """
        name, stream = self._stream_named(request)
        with obs.tracer().span("service.tick", stream=name) as span:
            tick = stream.advance()
            span.set(tick=tick, n=stream.n)
        obs.metrics().counter("stream_ticks_total", stream=name).inc()
        obs.metrics().gauge("stream_tick", stream=name).set(tick)
        return {
            "ok": True,
            "op": "tick",
            "stream": name,
            "tick": tick,
            "n": stream.n,
            "fingerprint": stream.fingerprint(),
        }

    def _check(self, request: dict) -> dict:
        """``op: "check"`` — static analysis over the request's specs.

        Validates the ``policy`` / ``queries`` (or ``workload``) /
        ``plan_budget`` / ``epsilon`` / ``budget`` sections through
        :class:`repro.check.SpecChecker` without building an engine,
        opening a session or spending budget.  Always returns ``ok: true``
        (the *check* succeeded); ``report.ok`` says whether the specs
        would survive serving.  Parse failures of any section come back as
        ``SPEC001`` diagnostics rather than request errors, so one call
        reports every problem at once.
        """
        streaming = None
        ds = request.get("dataset")
        if isinstance(ds, dict) and isinstance(ds.get("name"), str):
            with self._datasets_lock:
                if ds["name"] in self._streams:
                    streaming = True
                elif ds["name"] in self._datasets:
                    streaming = False
        elif isinstance(ds, dict) and ds.get("indices") is not None:
            streaming = False
        with obs.tracer().span("service.check"):
            report = self._checker.check_request(request, streaming=streaming)
        return {"ok": True, "op": "check", "report": report.to_dict()}

    def _describe(self, request: dict) -> dict:
        engine, engine_cache, _ = self._engine_for(request)
        strategies = self._strategies(engine, engine.registry.families())
        meta = {
            "policy_fingerprint": engine.fingerprint,
            "epsilon": engine.epsilon,
            "strategies": strategies,
            "engine_cache": engine_cache,
            "engine_pool": self.pool.stats(),
            "plan_cache": self.pool.plan_cache.stats(),
            "sensitivity_cache": engine.cache_info(),
            # the shipped fit; datasets planned under another are listed
            # in dataset_calibrations
            "cost_model": fit_report(DEFAULT_FIT),
            "dataset_calibrations": {
                name: fit for name, fit in self._dataset_fits.items() if fit
            },
            "streams": self._stream_section(),
            # full observability snapshot: registry instruments + this
            # service's cache/ledger series (JSON-ready; also renderable
            # via repro.obs.render_prometheus)
            "metrics": self.metrics_snapshot(),
        }
        return {"ok": True, "op": "describe", "meta": meta}

    def _stream_section(self) -> dict:
        """Registered streams' current state (``"describe"``)."""
        with self._datasets_lock:
            streams = dict(self._streams)
        return {
            name: {
                "tick": s.tick,
                "n": s.n,
                "pending": s.pending,
                "fingerprint": s.fingerprint(),
            }
            for name, s in sorted(streams.items())
        }

    # -- observability ---------------------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """One JSON-ready metrics report for this service.

        The active registry's instruments (request counters/latencies,
        ledger charge series, plan/release counters) plus series derived
        from this service's own state: hit/miss/eviction counters for the
        session/policy/engine/plan maps (their LRU internals stay
        untouched — the registry view is read out here, at snapshot time)
        and per-ledger-key spent-epsilon budget gauges read through the
        :class:`~repro.api.ledger.LedgerStore` seam.  The shape is what
        :func:`repro.obs.merge_snapshots` merges across workers and
        :func:`repro.obs.render_prometheus` renders.
        """
        snap = obs.metrics().snapshot()
        counters = snap["counters"]
        gauges = snap["gauges"]
        maps = {
            "sessions": self._sessions.stats(),
            "policies": self._policies.stats(),
            "engines": self.pool.stats(),
            "plans": self.pool.plan_cache.stats(),
        }
        for map_name, stats in sorted(maps.items()):
            for stat_key, series in (
                ("hits", "lru_hits_total"),
                ("misses", "lru_misses_total"),
                ("evictions", "lru_evictions_total"),
                ("oversize", "lru_oversize_total"),
            ):
                if stat_key in stats:
                    counters.append(
                        {
                            "name": series,
                            "labels": {"map": map_name},
                            "value": float(stats[stat_key]),
                        }
                    )
            gauges.append(
                {
                    "name": "lru_size",
                    "labels": {"map": map_name},
                    "value": float(stats.get("size", 0)),
                }
            )
        if self.ledger_store is not None:
            for key in self.ledger_store.keys():
                gauges.append(
                    {
                        "name": "ledger_spent_epsilon",
                        "labels": {"key": key},
                        "value": float(self.ledger_store.total(key)),
                    }
                )
        counters.sort(key=lambda s: (s["name"], sorted(s["labels"].items())))
        gauges.sort(key=lambda s: (s["name"], sorted(s["labels"].items())))
        return snap

    @staticmethod
    def _strategies(engine, families) -> dict:
        out = {}
        for family in sorted(families):
            if family == "linear":
                # linear batches carry their own weights; released per batch
                out[family] = {"family": "linear", "strategy": "batch-linear"}
                continue
            try:
                out[family] = engine.describe(family)
            except (ValueError, TypeError, LookupError) as exc:
                out[family] = {"family": family, "error": str(exc)}
        return out

    # -- query parsing ---------------------------------------------------------------
    def _parse_workload(self, request: dict, domain) -> Workload:
        """The request's ``"queries"``: a flat spec list (pure-range lists
        take the vectorized path), a ``range_batch``, or a full
        ``{"kind": "workload"}`` spec."""
        specs = spec_get(request, "queries", (list, dict), "request")
        if isinstance(specs, dict):
            kind = spec_get(specs, "kind", str, "request.queries")
            if kind == "workload":
                return Workload.from_spec(specs, domain, "request.queries")
            if kind != "range_batch":
                raise SpecError(
                    "request.queries.kind",
                    "expected 'workload', 'range_batch' or a list of query "
                    f"specs, got {kind!r}",
                )
            los = _int_array(
                spec_get(specs, "los", list, "request.queries"), "request.queries.los"
            )
            his = _int_array(
                spec_get(specs, "his", list, "request.queries"), "request.queries.his"
            )
            if los.size != his.size:
                raise SpecError("request.queries", "los and his must have equal length")
            validate_range_arrays(los, his, domain, "request.queries")
            return Workload.ranges(domain, los, his)
        if not specs:
            raise SpecError("request.queries", "at least one query is required")
        fast = self._range_arrays(specs, domain)
        if fast is not None:
            return Workload.ranges(domain, *fast)
        queries = [
            Query.from_spec(q, domain, f"request.queries[{i}]") for i, q in enumerate(specs)
        ]
        return Workload.from_queries(domain, queries)

    def _range_arrays(self, specs: list, domain):
        """Vectorized extraction for homogeneous range-spec lists, or None.

        ``None`` defers to the per-spec parser, which produces the precise
        field error for whichever entry is malformed."""
        try:
            if not all(q["kind"] == "range" for q in specs):
                return None
            los = np.asarray([q["lo"] for q in specs])
            his = np.asarray([q["hi"] for q in specs])
        except (KeyError, TypeError, AttributeError, OverflowError, ValueError):
            return None
        if los.dtype.kind != "i" or his.dtype.kind != "i" or los.ndim != 1 or his.ndim != 1:
            # a non-int (or non-scalar) lo/hi snuck in; the per-spec parser names it
            return None
        los, his = los.astype(np.int64), his.astype(np.int64)
        validate_range_arrays(los, his, domain, "request.queries")
        return los, his

    def __repr__(self) -> str:
        with self._datasets_lock:
            datasets = sorted(self._datasets)
        n_sessions = len(self._sessions)
        return (
            f"BlowfishService(datasets={datasets}, "
            f"sessions={n_sessions}, pool={self.pool!r})"
        )


def _error(field: str | None, message: str, kind: str = "invalid_request") -> dict:
    return {"ok": False, "error": {"field": field, "message": message, "kind": kind}}


def _jsonable_answers(answers: np.ndarray) -> list:
    """``tolist`` with NaN (dropped groups) mapped to JSON-valid null."""
    if np.isnan(answers).any():
        return [None if math.isnan(a) else a for a in answers.tolist()]
    return answers.tolist()
