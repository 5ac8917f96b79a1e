"""The plan executor: one vectorized pass per group, shared releases.

Runs a :class:`~repro.plan.Plan` against a database through the engine the
plan was compiled for.  Releases are produced lazily, keyed by the plan's
release keys into the caller's mapping — the same dict a
:class:`repro.api.Session` keeps across requests — so a key that is already
present answers its groups as free post-processing, and two steps sharing a
key pay for one release.  Budget accounting is exactly the engine's: every
fresh synopsis charges its epsilon to the (optional) accountant *before*
any noise is drawn — the engine's full epsilon for legacy plans, the
step's allocated epsilon for budget-first plans (the mechanism is built,
and its noise calibrated, at that same allocation).  Steps a budgeted plan
marks ``dropped`` are answered NaN and never touch data or budget.

Charge-before-draw is also what makes multi-process serving sound: the
accountant may be backed by a shared :class:`repro.api.ledger.LedgerStore`
(e.g. SQLite), whose ``charge`` is an atomic compare-and-spend across
every worker process.  Because the charge lands (or raises
``BudgetExceededError``) before any noise exists, a run refused by the
shared ledger has released nothing — no partial synopsis, no spend, in
any process.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..core.rng import ensure_rng
from .plan import Plan, canonical_options

__all__ = ["Executor", "PlanResult"]


class PlanResult:
    """Answers plus the execution ledger of one plan run."""

    __slots__ = ("plan", "by_group", "epsilon_spent", "release_cache", "workload")

    def __init__(
        self,
        plan: Plan,
        by_group: dict,
        epsilon_spent: float,
        release_cache: dict,
        workload=None,
    ):
        self.plan = plan
        self.by_group = by_group
        self.epsilon_spent = float(epsilon_spent)
        #: release key -> "hit" (reused) or "miss" (released fresh this run)
        self.release_cache = release_cache
        #: the workload the run actually served — the caller's live one for
        #: payload-free cached plans, else the plan's own
        self.workload = workload if workload is not None else plan.workload

    @property
    def answers(self) -> np.ndarray:
        """Flat answers in the workload's order."""
        return self.workload.assemble(self.by_group)

    def __repr__(self) -> str:
        return (
            f"PlanResult(groups={sorted(self.by_group)}, "
            f"epsilon_spent={self.epsilon_spent:g})"
        )


class Executor:
    """Executes plans against one :class:`~repro.engine.PolicyEngine`."""

    def __init__(self, engine):
        self.engine = engine

    def run(
        self,
        plan: Plan,
        db=None,
        *,
        rng=None,
        releases: dict | None = None,
        accountant=None,
        workload=None,
    ) -> PlanResult:
        """Answer every group of ``plan``'s workload in plan order.

        ``releases`` is updated in place with any synopsis released here
        (pass a session's mapping to make later runs free); ``db`` is only
        required when a release is actually missing.  Steps run in plan
        order and draw from one ``rng`` stream, so a fixed seed makes the
        whole run bitwise-deterministic.

        ``workload`` supplies the live query payload when ``plan`` came out
        of a cache payload-free (:meth:`Plan.payload_free`); its
        ``cache_token()`` must match the token the plan was compiled over.
        Passing it for a full plan is allowed under the same token check —
        the arrays are then read from the caller's copy.
        """
        engine = self.engine
        if workload is not None:
            if workload.cache_token() != plan.workload_token():
                raise ValueError(
                    "workload does not match the plan's workload token; "
                    "a cached plan may only serve the workload it was compiled for"
                )
        elif plan.is_payload_free:
            raise ValueError(
                "plan is payload-free (cached form); pass the live workload "
                "via Executor.run(..., workload=...)"
            )
        wl = workload if workload is not None else plan.workload
        if plan.policy_fingerprint != engine.fingerprint:
            raise ValueError(
                "plan was compiled for a different policy "
                f"({plan.policy_fingerprint} != {engine.fingerprint})"
            )
        if plan.epsilon != engine.epsilon:
            raise ValueError(
                f"plan was compiled at epsilon {plan.epsilon:g}, "
                f"engine runs at {engine.epsilon:g}"
            )
        if plan.options != canonical_options(engine.options):
            raise ValueError(
                "plan was compiled under different mechanism options "
                f"({plan.options or {}} != {canonical_options(engine.options) or {}}); "
                "options change the released structures the plan was scored on"
            )
        if db is not None:
            # a linear query needs one weight per tuple; refuse a misshapen
            # one before any step of the run has charged the accountant
            for step in plan.steps:
                if step.family == "linear" and step.degradation != "dropped":
                    width = wl.group(step.group).weights.shape[1]
                    if width != db.n:
                        raise ValueError(
                            f"weight matrix has {width} columns but the "
                            f"database has {db.n} tuples"
                        )
        releases = releases if releases is not None else {}
        rng = ensure_rng(rng)
        by_group: dict[str, np.ndarray] = {}
        cache: dict[str, str] = {}
        hist_cells: dict[str, object] = {}  # release key -> ReleasedHistogram view
        # budget-first plans allocate a per-release epsilon; a release is
        # charged what its charging step carries, regardless of which step
        # reaches the key first (plan-shared releases are created by
        # whichever step runs first).  Legacy plans carry engine.epsilon on
        # every fresh step, so the map reproduces the old flat charge.
        release_epsilon: dict[str, float] = {}
        for step in plan.steps:
            if step.family != "linear" and step.epsilon > 0:
                release_epsilon[step.release] = max(
                    release_epsilon.get(step.release, 0.0), step.epsilon
                )
        # charged locally, not as a delta of engine.spent_epsilon: pooled
        # engines are shared across sessions, whose concurrent releases
        # would otherwise leak into each other's totals
        spent = 0.0
        tracer = obs.tracer()
        reg = obs.metrics()
        with tracer.span("executor.run", steps=len(plan.steps), mode=plan.mode) as run_span:
            for step in plan.steps:
                group = wl.group(step.group)
                with tracer.span(
                    "executor.step",
                    group=group.name,
                    family=step.family,
                    strategy=step.strategy,
                    release=step.release,
                ) as step_span:
                    if step.degradation == "dropped":
                        # degraded under a constrained budget: no release, no
                        # spend, NaN answers so the caller can tell served
                        # from shed
                        by_group[group.name] = np.full(len(group), np.nan)
                        cache[step.release] = "dropped"
                        step_span.set(outcome="dropped", epsilon_charged=0.0)
                        continue
                    if step.family == "linear":
                        rel = releases.get(step.release)
                        if rel is None:
                            rel = engine.new_linear_release()
                            releases[step.release] = rel
                        eps = step.epsilon if step.epsilon > 0 else engine.epsilon
                        rows_before = len(rel)  # grows iff a fresh sub-batch released
                        by_group[group.name] = engine.answer_linear(
                            group.weights,
                            db,
                            rng=rng,
                            release=rel,
                            accountant=accountant,
                            epsilon=eps,
                        )
                        fresh_rows = len(rel) > rows_before
                        # linear reuse is per-row: a batch releasing any new
                        # row is a "miss" (it spent), matching
                        # Session._metered's reading
                        if fresh_rows:
                            spent += eps
                            cache[step.release] = "miss"
                            step_span.set(outcome="miss", epsilon_charged=eps)
                            reg.counter("releases_total", family="linear").inc()
                        else:
                            cache.setdefault(step.release, "hit")
                            step_span.set(outcome="hit", epsilon_charged=0.0)
                        continue
                    if step.release not in cache:
                        cache[step.release] = "hit" if step.release in releases else "miss"
                    rel = releases.get(step.release)
                    if rel is None:
                        eps = release_epsilon.get(step.release, engine.epsilon)
                        rel = engine.release(
                            self._require_db(db, step),
                            step.release_family,
                            rng=rng,
                            accountant=accountant,
                            strategy=step.strategy,
                            label=step.release,
                            epsilon=eps,
                        )
                        releases[step.release] = rel
                        spent += eps
                        step_span.set(outcome="miss", epsilon_charged=eps)
                        reg.counter("releases_total", family=step.release_family).inc()
                    else:
                        step_span.set(outcome=cache[step.release], epsilon_charged=0.0)
                    if step.family == "range":
                        by_group[group.name] = rel.ranges(group.los, group.his)
                    elif step.release_family == "histogram":
                        by_group[group.name] = rel.counts(group.masks)
                    else:
                        # counts shared from a range release: post-process its
                        # cell estimates (prefix first-differences) through the
                        # standard histogram answerer (one matmul, one
                        # implementation)
                        shared = hist_cells.get(step.release)
                        if shared is None:
                            from ..engine.engine import ReleasedHistogram

                            shared = ReleasedHistogram(
                                np.asarray(rel.histogram(), dtype=np.float64)
                            )
                            hist_cells[step.release] = shared
                        by_group[group.name] = shared.counts(group.masks)
            run_span.set(epsilon_spent=spent)
        return PlanResult(plan, by_group, spent, cache, workload=wl)

    @staticmethod
    def _require_db(db, step):
        if db is None:
            raise ValueError(
                f"a database is required to release the {step.release_family!r} synopsis"
            )
        return db
