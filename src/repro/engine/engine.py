"""The :class:`PolicyEngine`: cached, vectorized batch query answering.

One engine fronts all query answering for a fixed ``(policy, epsilon)``:

* **sensitivity cache** — ``S(f, P)`` values are memoized under stable
  policy/query fingerprints and shared process-wide, so repeated requests
  against equivalent policies never re-derive a sensitivity;
* **mechanism registry** — the released synopsis per query family follows
  the policy graph (ordered mechanism for line graphs, the OH hybrid for
  distance thresholds, the DP baselines for the complete graph), with the
  dispatch table swappable per engine;
* **vectorized batch answering** — :meth:`PolicyEngine.answer` takes whole
  arrays of range/count/linear queries and answers each family from one
  released synopsis in a single vectorized pass (one prefix-array gather
  for 10k range queries, one matrix-vector product for count batches)
  instead of a per-query Python loop.  Batches ride the plan pipeline
  (:mod:`repro.plan`): :meth:`PolicyEngine.plan` compiles a cost-driven
  (or fixed-dispatch) :class:`~repro.plan.Plan` and
  :meth:`PolicyEngine.execute` runs it, sharing releases across groups.

Budget accounting is explicit: every released synopsis costs ``epsilon``
(sequential composition across families, Theorem 4.1), while any number of
queries answered from an existing synopsis are free post-processing.  An
optional :class:`~repro.core.composition.PrivacyAccountant` receives every
spend.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from threading import Lock

import numpy as np

from .. import obs
from ..analysis.bounds import DEFAULT_FIT, StreamContext
from ..core.composition import PrivacyAccountant
from ..core.database import Database
from ..core.policy import Policy
from ..core.queries import HistogramQuery, Query
from ..core.rng import ensure_rng
from ..core.sensitivity import sensitivity as analytic_sensitivity
from ..mechanisms.base import Mechanism, laplace_noise
from .cache import SensitivityCache, shared_cache
from .fingerprint import options_key, policy_fingerprint, query_cache_key
from .registry import MechanismRegistry, default_registry

__all__ = ["PolicyEngine", "ReleasedHistogram", "ReleasedLinear", "BatchLinearMechanism"]


class ReleasedHistogram:
    """A privately released complete histogram with free post-processing.

    Count queries are inner products with the noisy cells, so an unlimited
    number of them ride on the one release.
    """

    __slots__ = ("cells",)

    def __init__(self, cells: np.ndarray):
        self.cells = np.asarray(cells, dtype=np.float64)

    def histogram(self) -> np.ndarray:
        return self.cells

    def counts(self, masks: np.ndarray) -> np.ndarray:
        """Estimated answers for a ``(q, |T|)`` stack of support masks."""
        masks = np.atleast_2d(np.asarray(masks))
        if masks.shape[1] != self.cells.size:
            raise ValueError("mask width must equal the domain size")
        return masks.astype(np.float64) @ self.cells

    def total(self) -> float:
        return float(self.cells.sum())

    def __repr__(self) -> str:
        return f"ReleasedHistogram(|T|={self.cells.size})"


class ReleasedLinear:
    """Accumulated vector-Laplace linear releases with free row-level reuse.

    Each *row* of a released weight stack is one linear query; its noisy
    answer is stored under a digest of the row's float64 bytes.  Re-answering
    a row already present is post-processing of the earlier release and
    costs nothing; only genuinely new rows trigger a fresh release (and a
    fresh ``epsilon`` spend) in :meth:`PolicyEngine.answer_linear`.

    Composition rule (Theorem 4.1, sequential): the total budget is
    ``epsilon`` times the number of *releases*, not the number of queries —
    every batch of new rows costs ``epsilon`` once, and identical rows are
    free forever after.  A release is bound to the database it was computed
    on; reusing it against different data silently returns stale answers,
    so sessions (:class:`repro.api.Session`) pin the database.
    """

    __slots__ = ("_answers",)

    def __init__(self):
        self._answers: dict[bytes, float] = {}

    @staticmethod
    def _rows(weights: np.ndarray) -> list[bytes]:
        w = np.ascontiguousarray(np.atleast_2d(weights), dtype=np.float64)
        return [row.tobytes() for row in w]

    def missing_rows(self, weights: np.ndarray) -> np.ndarray:
        """Boolean mask over rows of ``weights`` not yet released."""
        return np.array([k not in self._answers for k in self._rows(weights)], dtype=bool)

    def rows_digest(self) -> str:
        """Stable digest of the *set* of released rows (order-insensitive).

        Plans are row-aware for linear groups — which rows a session already
        holds changes the predicted charge — so the cross-tenant plan cache
        keys on this digest rather than on the release key alone.
        """
        h = hashlib.sha256()
        for k in sorted(self._answers):
            h.update(k)
        return h.hexdigest()[:16]

    def add(self, weights: np.ndarray, answers: np.ndarray) -> None:
        """Record noisy answers for the rows of ``weights``."""
        answers = np.atleast_1d(np.asarray(answers, dtype=np.float64))
        keys = self._rows(weights)
        if len(keys) != answers.size:
            raise ValueError("one answer per weight row required")
        for k, a in zip(keys, answers):
            self._answers[k] = float(a)

    def answers_for(self, weights: np.ndarray) -> np.ndarray:
        """Stored answers for each row of ``weights`` (all must be present)."""
        try:
            return np.array([self._answers[k] for k in self._rows(weights)])
        except KeyError:
            raise ValueError(
                "some requested linear queries were never released; answer "
                "them via PolicyEngine.answer_linear(..., release=this)"
            ) from None

    def __len__(self) -> int:
        return len(self._answers)

    def __repr__(self) -> str:
        return f"ReleasedLinear({len(self._answers)} rows)"


class BatchLinearMechanism(Mechanism):
    """Vector Laplace release of ``q`` stacked linear queries ``W x``.

    One tuple change across an edge moves coordinate ``t`` by at most
    ``max_edge_l1(G)`` and perturbs output ``i`` by ``|W[i, t]|`` times
    that, so the stacked query's L1 sensitivity is
    ``max_t (sum_i |W[i, t]|) * max_edge_l1(G)`` — the batch analogue of
    the Section 5 linear-query example.  Releasing the whole batch as one
    vector query costs ``epsilon`` once, instead of ``q * epsilon`` for
    sequential per-query releases.
    """

    def __init__(self, policy: Policy, epsilon: float, weights: np.ndarray):
        super().__init__(policy, epsilon)
        attr = policy.domain.require_ordered()
        if not attr.is_numeric:
            raise TypeError("linear queries need a numeric domain")
        if not policy.unconstrained:
            raise ValueError("BatchLinearMechanism supports unconstrained policies")
        self.weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
        col_l1 = np.abs(self.weights).sum(axis=0)
        max_col = float(col_l1.max()) if col_l1.size else 0.0
        self.sensitivity = max_col * policy.graph.max_edge_l1()

    @property
    def scale(self) -> float:
        return self.sensitivity / self.epsilon

    def _check_db(self, db: Database) -> None:
        super()._check_db(db)
        if db.n != self.weights.shape[1]:
            raise ValueError(
                f"weight matrix has {self.weights.shape[1]} columns but the "
                f"database has {db.n} tuples"
            )

    def release(self, db: Database, rng=None) -> np.ndarray:
        self._check_db(db)
        rng = self._rng(rng)
        values = db.points()[:, 0]
        answers = self.weights @ values
        return answers + laplace_noise(rng, self.scale, answers.shape)


class PolicyEngine:
    """Cached, vectorized query answering under one ``(policy, epsilon)``.

    Parameters
    ----------
    policy:
        The Blowfish policy every release is calibrated to.
    epsilon:
        Budget *per released synopsis* (one per query family used).
    registry:
        Mechanism dispatch table; defaults to the paper's
        (:func:`repro.engine.registry.default_registry`).
    cache:
        Sensitivity store; defaults to the process-wide shared cache.
    options:
        Per-family mechanism keyword arguments, e.g.
        ``{"range": {"fanout": 16, "consistent": False}}``.
    accountant:
        Optional :class:`PrivacyAccountant` receiving every spend.
    plan_cache:
        Optional compiled-plan store (:class:`repro.api.PlanCache` shape:
        ``lookup(key)`` / ``store(key, plan)``); :meth:`plan` consults it
        before scoring candidates.  An :class:`~repro.api.EnginePool` wires
        its shared cache into every engine it builds.

    Engines are shared across threads (that is the point of pooling them):
    mechanism memoization and the spend counter are guarded by an internal
    lock, and mechanism instances themselves are stateless per call.
    """

    def __init__(
        self,
        policy: Policy,
        epsilon: float,
        *,
        registry: MechanismRegistry | None = None,
        cache: SensitivityCache | None = None,
        options: dict[str, dict] | None = None,
        accountant: PrivacyAccountant | None = None,
        plan_cache=None,
    ):
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.policy = policy
        self.epsilon = float(epsilon)
        self.registry = registry if registry is not None else default_registry()
        self.cache = cache if cache is not None else shared_cache()
        self.options = {k: dict(v) for k, v in (options or {}).items()}
        self.accountant = accountant
        self.plan_cache = plan_cache
        self.fingerprint = policy_fingerprint(policy)
        self._mechanisms: dict[tuple[str, str], Mechanism] = {}
        self._lock = Lock()
        self._spent = 0.0

    # -- sensitivities ------------------------------------------------------------
    def sensitivity(self, query: Query) -> float:
        """Cached ``S(f, P)`` for any supported query family.

        Identical to calling the analytic calculators of
        :mod:`repro.core.sensitivity` directly (or the constrained
        dispatcher for constrained histogram policies); the cache only
        memoizes, never approximates.
        """
        key = (self.fingerprint,) + query_cache_key(query)
        return self.cache.get_or_compute(key, lambda: self._compute_sensitivity(query))

    def _compute_sensitivity(self, query: Query) -> float:
        if self.policy.unconstrained:
            return analytic_sensitivity(query, self.policy)
        if isinstance(query, HistogramQuery) and query.partition is None:
            from ..constraints.applications import constrained_histogram_sensitivity

            return constrained_histogram_sensitivity(self.policy)
        raise ValueError(
            "constrained policies only support complete-histogram "
            "sensitivities; see repro.constraints.applications"
        )

    def cache_info(self) -> dict[str, int]:
        return self.cache.info()

    # -- mechanisms & releases ------------------------------------------------------
    def strategy(self, family: str) -> str:
        """Which registry rule serves ``family`` under this policy."""
        return self.registry.rule_name(family, self.policy)

    def mechanism(
        self, family: str, strategy: str | None = None, *, epsilon: float | None = None
    ) -> Mechanism:
        """The (memoized) mechanism instance serving ``family``.

        ``strategy`` pins a registry rule by name (a planner-chosen
        candidate); the default is the first matching rule, exactly as
        :meth:`strategy` reports.  ``epsilon`` builds the mechanism at a
        non-default budget — how budget-first plans charge each release its
        *allocated* epsilon — and defaults to the engine's own.  Only
        default-epsilon instances are memoized; allocated epsilons vary per
        plan, so their mechanisms are built per call.
        """
        name = strategy if strategy is not None else self.strategy(family)
        eps = self.epsilon if epsilon is None else float(epsilon)
        if eps <= 0:
            raise ValueError(f"epsilon must be positive, got {eps}")
        memoize = eps == self.epsilon
        key = (family, name)
        if memoize:
            with self._lock:
                mech = self._mechanisms.get(key)
            if mech is not None:
                return mech
        # build outside the lock (tree structures can be expensive), then
        # prefer a racing builder's incumbent so all callers share one
        opts = dict(self.options.get(family, {}))
        if family == "histogram" and "sensitivity" not in opts:
            opts["sensitivity"] = self.sensitivity(HistogramQuery(self.policy.domain))
        mech = self.registry.resolve(family, self.policy, eps, strategy=name, **opts)
        if not memoize:
            # budget-allocated epsilons are effectively continuous (they
            # track the caller's remaining budget), so memoizing them would
            # grow a pooled engine's map without bound; the build cost is
            # paid per fresh release, which the release itself dominates
            return mech
        with self._lock:
            return self._mechanisms.setdefault(key, mech)

    def describe(self, family: str) -> dict:
        """Introspection metadata for one family's serving path (no spend).

        Returns the strategy name plus whatever calibration constants the
        mechanism instance exposes (``sensitivity``, ``scale``); the serving
        façade (:class:`repro.api.BlowfishService`) attaches this to every
        response so clients can see *how* their answers were produced.
        """
        mech = self.mechanism(family)
        out = {"family": family, "strategy": self.strategy(family)}
        for attr in ("sensitivity", "scale"):
            value = getattr(mech, attr, None)
            if isinstance(value, (int, float)):
                out[attr] = float(value)
        return out

    def release(
        self,
        db: Database,
        family: str = "range",
        rng=None,
        *,
        accountant=None,
        strategy: str | None = None,
        label: str | None = None,
        epsilon: float | None = None,
    ):
        """Release one noisy synopsis for ``family``, spending ``epsilon``.

        Returns the family's answerer: a range answerer with vectorized
        ``.ranges()/.histogram()`` for ``"range"``, a
        :class:`ReleasedHistogram` for ``"histogram"``.  ``accountant``
        overrides the engine's own for this spend — how pooled engines
        charge the requesting session's ledger instead of a shared one.
        ``strategy`` pins a non-default registry rule (planner candidates);
        ``label`` overrides the ledger label (defaults to the family);
        ``epsilon`` charges and calibrates this release at a non-default
        budget (budget-first plans allocate per release).
        """
        mech = self.mechanism(family, strategy, epsilon=epsilon)
        charged = self.epsilon if epsilon is None else float(epsilon)
        tracer = obs.tracer()
        # resolve the strategy name for the span only when a trace is
        # actually being recorded — it is a registry lookup
        strategy_attr = strategy
        if tracer.enabled and strategy_attr is None:
            strategy_attr = self.strategy(family)
        with tracer.span(
            "mechanism.release",
            family=family,
            strategy=strategy_attr,
            epsilon_charged=charged,
        ):
            # spend before releasing: if the accountant refuses (budget
            # exhausted), no noisy output must ever have been computed
            self._spend(label if label is not None else family, accountant, epsilon=epsilon)
            out = mech.release(db, rng=ensure_rng(rng))
        if family == "histogram":
            return ReleasedHistogram(np.asarray(out, dtype=np.float64))
        return out

    def _spend(
        self,
        label: str,
        accountant: PrivacyAccountant | None = None,
        *,
        epsilon: float | None = None,
    ) -> None:
        # the accountant may refuse (budget exhausted); only count spends
        # that were actually admitted
        amount = self.epsilon if epsilon is None else float(epsilon)
        acct = accountant if accountant is not None else self.accountant
        if acct is not None:
            acct.spend(amount, label=label)
        with self._lock:
            # += on a shared float is read-modify-write; concurrent sessions
            # releasing on one pooled engine must not lose increments
            self._spent += amount

    @property
    def spent_epsilon(self) -> float:
        """Total budget consumed by this engine's releases (Theorem 4.1)."""
        return self._spent

    # -- planning & batch answering ----------------------------------------------------
    def workload(self, queries: Sequence[Query]):
        """Group a flat batch of typed scalar queries into a Workload."""
        from ..plan import Workload  # runtime import: repro.plan builds on this module

        return Workload.from_queries(self.policy.domain, queries)

    def plan(
        self,
        workload,
        *,
        optimize: bool = True,
        existing=(),
        budget=None,
        remaining: float | None = None,
        staleness=None,
        fit: str = DEFAULT_FIT,
        stream: StreamContext | None = None,
    ):
        """Compile a :class:`repro.plan.Plan` for ``workload``.

        ``optimize=True`` scores every registry candidate per group with
        the analytic cost model (:mod:`repro.analysis.bounds`) and picks
        the predicted-cheapest, including cross-group release reuse;
        ``optimize=False`` compiles the fixed per-family dispatch (exactly
        what :meth:`answer` runs).  ``existing`` is what the caller already
        holds — a set of release keys, or the key -> release mapping itself
        for row-aware linear reuse — so reuse is planned rather than
        accidental.  A plain sequence of queries is accepted and grouped
        first.

        ``budget`` (a :class:`repro.plan.PlanBudget`) switches to
        budget-first planning: fresh releases are charged an adaptive
        error-minimizing split of ``budget.total`` (or a flat
        ``budget.uniform`` each), and ``remaining`` — the caller's unspent
        session budget — triggers the budget's degradation mode when the
        plan would not fit.  Without a budget every fresh release charges
        the engine's full epsilon, exactly as before.

        ``staleness`` maps the caller's release keys to their age in ticks
        (continual-release sessions); groups reuse a held key for free only
        within their ``max_staleness`` bound, and ages are part of the
        plan-cache identity.

        ``fit`` names the cost-model calibration fit the candidates are
        scored under, and ``stream`` (a
        :class:`~repro.analysis.bounds.StreamContext`) the stream tick being
        planned — only then do the continual-release candidates compete.

        With a :attr:`plan_cache` attached (pooled engines), a cost-driven
        (``optimize=True``) plan is memoized under everything it depends
        on — policy fingerprint, epsilon, options, the fit, the workload's
        digest, the caller's existing-release state (with staleness ages),
        the stream tick's token and the budget directive — so a repeated
        workload skips candidate scoring entirely.
        """
        return self.plan_with_meta(
            workload,
            optimize=optimize,
            existing=existing,
            budget=budget,
            remaining=remaining,
            staleness=staleness,
            fit=fit,
            stream=stream,
        )[0]

    def plan_with_meta(
        self,
        workload,
        *,
        optimize: bool = True,
        existing=(),
        budget=None,
        remaining: float | None = None,
        staleness=None,
        fit: str = DEFAULT_FIT,
        stream: StreamContext | None = None,
    ):
        """:meth:`plan`, plus ``"hit"``/``"miss"``/``"uncached"`` for the
        plan-cache outcome of this call (what the service reports).
        Fixed-mode compiles are always ``"uncached"``."""
        from ..plan import Planner, Workload
        from ..plan.planner import existing_token

        if not isinstance(workload, Workload):
            workload = Workload.from_queries(self.policy.domain, workload)
        planner = Planner(self, fit=fit, stream=stream)
        cache = self.plan_cache
        # a fixed-mode compile scores one candidate per group, so caching
        # it saves nothing, while storing it would fingerprint every query
        if cache is None or not optimize:
            plan = planner.plan(
                workload,
                optimize=optimize,
                existing=existing,
                budget=budget,
                remaining=remaining,
                staleness=staleness,
            )
            obs.metrics().counter("plan_requests_total", outcome="uncached").inc()
            return plan, "uncached"
        # degradation decisions depend on how much the caller has left, so a
        # budgeted compile keys on the remaining budget — but quantized to
        # the equivalence classes the plan actually depends on ("fits", or
        # the degradation bucket), and compiled against the class
        # representative so key and plan agree.  Keying on the raw float
        # would make every spending session miss its own plans forever.
        remaining_token = None
        if budget is not None:
            remaining_token, remaining = budget.quantize_remaining(remaining)
        key = (
            self.fingerprint,
            self.epsilon,
            options_key(self.options),
            self.registry.fingerprint(),
            # scores (and budget allocations) depend on the calibration
            # fit; switching fits must key stale plans out
            fit,
            workload.cache_token(),
            bool(optimize),
            # release ages fold into the existing token, so stale-reuse and
            # fresh compiles of one workload can never collide
            existing_token(existing, staleness),
            # the stream candidates' scores read the stream tick (None for
            # one-shot compiles)
            None if stream is None else stream.token(),
            # unbudgeted plans share one entry regardless of ledger state,
            # exactly as before
            None if budget is None else (budget.cache_token(), remaining_token),
        )
        plan = cache.lookup(key)
        if plan is not None:
            obs.metrics().counter("plan_requests_total", outcome="hit").inc()
            # cached plans are stored payload-free; rebind the caller's live
            # workload (token-checked) so downstream execution is unchanged
            return plan.bind(workload), "hit"
        # compiled outside any lock: plans are deterministic in the key, so
        # racing compilers produce interchangeable values (first stored wins)
        plan = planner.plan(
            workload,
            optimize=optimize,
            existing=existing,
            budget=budget,
            remaining=remaining,
            staleness=staleness,
        )
        obs.metrics().counter("plan_requests_total", outcome="miss").inc()
        # the cache keeps only the payload-free form (structure + tokens) —
        # the compiling caller executes its own full plan either way
        cache.store(key, plan)
        return plan, "miss"

    def execute(
        self,
        plan,
        db: Database | None = None,
        *,
        rng=None,
        releases=None,
        accountant=None,
        workload=None,
    ):
        """Run a compiled plan; see :class:`repro.plan.Executor`."""
        from ..plan import Executor

        return Executor(self).run(
            plan,
            db,
            rng=rng,
            releases=releases,
            accountant=accountant,
            workload=workload,
        )

    def answer(
        self,
        queries: Sequence[Query],
        db: Database | None = None,
        *,
        rng=None,
        releases: dict | None = None,
        accountant: PrivacyAccountant | None = None,
    ) -> np.ndarray:
        """Answer a batch of scalar queries, one float per query (input order).

        A thin shim over the plan pipeline: the batch is grouped into a
        single-workload fixed plan (the registry's per-family dispatch) and
        executed in one vectorized pass per family.  Pass
        ``releases={"range": ..., "histogram": ..., "linear": ...}`` to
        answer from existing synopses (free post-processing); families
        without a provided release are released here from ``db`` at
        ``epsilon`` each — and the new synopsis is *added to the caller's
        mapping*, so passing the same dict on the next call reuses it for
        free.  Supported: :class:`RangeQuery`, :class:`CountQuery`,
        :class:`LinearQuery`.  (Vector-valued histogram / cumulative
        queries are served by :meth:`release` directly.)

        Composition (Theorem 4.1): the call costs ``epsilon`` per family it
        actually releases — zero when every family is served from
        ``releases``.  Linear batches reuse at *row* granularity via
        :class:`ReleasedLinear`: only weight rows never released before
        trigger a spend.  ``accountant`` overrides the engine's ledger for
        the spends of this call (per-session accounting on pooled engines).
        For cost-driven mechanism choice instead of the fixed dispatch,
        compile with :meth:`plan` and run :meth:`execute`.
        """
        plan = self.plan(self.workload(queries), optimize=False)
        result = self.execute(plan, db, rng=rng, releases=releases, accountant=accountant)
        return result.answers

    def new_linear_release(self) -> "ReleasedLinear":
        """A fresh row-reuse store for :meth:`answer_linear` (executor hook)."""
        return ReleasedLinear()

    def answer_linear(
        self,
        weights,
        db: Database | None = None,
        *,
        rng=None,
        release=None,
        accountant=None,
        epsilon: float | None = None,
    ) -> np.ndarray:
        """Answer a stack of linear queries, reusing prior rows when possible.

        Without ``release``, this is one vector-Laplace release of the whole
        stack at cost ``epsilon``.  With a :class:`ReleasedLinear`, rows
        already released are answered by lookup (free post-processing); only
        the missing rows are released — at ``epsilon`` for the *sub-batch*,
        never per query — and recorded into ``release`` for next time.
        Sequential composition (Theorem 4.1) therefore charges
        ``epsilon * number_of_releases``, with repeated queries free.  The
        ``epsilon`` keyword overrides the per-release charge (budget-first
        plans allocate per sub-batch); default is the engine's own.
        """
        weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
        eps = self.epsilon if epsilon is None else float(epsilon)
        if eps <= 0:
            raise ValueError(f"epsilon must be positive, got {eps}")
        if release is None:
            with obs.tracer().span(
                "mechanism.release",
                family="linear",
                strategy="batch-linear",
                epsilon_charged=eps,
            ):
                mech = BatchLinearMechanism(self.policy, eps, weights)
                database = self._require_db(db, "linear")
                mech._check_db(database)  # refuse a misshapen query before the charge
                self._spend("linear", accountant, epsilon=eps)
                return mech.release(database, rng=ensure_rng(rng))
        missing = release.missing_rows(weights)
        if missing.any():
            fresh = weights[missing]
            with obs.tracer().span(
                "mechanism.release",
                family="linear",
                strategy="batch-linear",
                epsilon_charged=eps,
                fresh_rows=int(missing.sum()),
            ):
                mech = BatchLinearMechanism(self.policy, eps, fresh)
                database = self._require_db(db, "linear")
                mech._check_db(database)
                self._spend("linear", accountant, epsilon=eps)
                release.add(fresh, mech.release(database, rng=ensure_rng(rng)))
        return release.answers_for(weights)

    def _require_db(self, db: Database | None, family: str) -> Database:
        if db is None:
            raise ValueError(f"a database is required to release the {family!r} synopsis")
        return db

    def __repr__(self) -> str:
        return (
            f"PolicyEngine(epsilon={self.epsilon}, policy={self.policy!r}, "
            f"spent={self._spent:.4g})"
        )
