"""The cost-driven planner: score candidate mechanisms, compile a plan.

For every group in a :class:`~repro.plan.Workload` the planner enumerates
the registry rules able to serve it under the engine's policy (plus the
*reuse* candidates: answering count queries from a range release that the
plan already pays for), predicts each candidate's per-query RMSE with the
analytic cost model of :mod:`repro.analysis.bounds` — fed by the engine's
cached sensitivities and the *configured* mechanism options — and picks the
cheapest, breaking ties toward lower epsilon charge and then toward the
registry's default dispatch.

``optimize=False`` compiles the registry's fixed per-family dispatch into
the same :class:`~repro.plan.Plan` shape (one candidate per group), which
is how the pre-planner ``PolicyEngine.answer`` behaviour — bitwise
identical answers under a fixed seed — rides on the new pipeline.

Scoring is advisory, never load-bearing: a candidate whose model raises is
skipped in ``auto`` mode and kept unscored in ``fixed`` mode, so planning
cannot fail for a workload the engine could previously answer (errors, if
any, surface at execution exactly as before).

**Budget-first planning** (:class:`~repro.plan.PlanBudget`): instead of
charging the engine's full epsilon per fresh release, the planner can split
a caller-supplied *total* across the plan's fresh releases to minimize
total predicted workload error.  Every cost model is of the form
``c / eps^2``, so the optimum under ``sum eps_r = E`` allocates
``eps_r = E * w_r^{1/3} / sum_j w_j^{1/3}`` with ``w_r`` the release's
error coefficient (query-count weighted) — the Eqn (15) cube-root rule
lifted from inside one mechanism to across releases.  When the caller's
remaining session budget cannot cover the requested total, the budget's
degradation mode decides: raise before any spend (``strict``), drop groups
the workload marks optional (``drop_optional``), or serve groups from the
session's already-paid releases (``reuse_stale``).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .. import obs
from ..analysis.bounds import (
    CONTINUAL_STRATEGIES,
    COST_MODEL_FITS,
    DEFAULT_FIT,
    StreamContext,
    predicted_count_query_mse,
    predicted_range_query_mse,
)
from ..core.composition import BudgetExceededError
from ..core.queries import CumulativeHistogramQuery, HistogramQuery
from .budget import PlanBudget
from .plan import Plan, PlanStep
from .workload import Workload

__all__ = ["Planner", "existing_token"]


def existing_token(existing, staleness=None) -> tuple:
    """Hashable identity of an ``existing`` argument for plan-cache keys.

    Mirrors exactly what :meth:`Planner.plan` reads from ``existing``: which
    release keys are held, whether they arrived as a bare key set or as the
    key -> release mapping (the two are planned differently for linear
    groups), and — for a held :class:`~repro.engine.ReleasedLinear` — the
    digest of the rows it covers, since row-level reuse changes the
    predicted charge.  ``staleness`` (release key -> age in ticks) is part
    of the identity too: a plan that reuses an aged release and a plan that
    refreshes it must never share a cache entry.  Two calls with equal
    tokens compile equal plans.
    """
    ages = _nonzero_ages(staleness)
    if not existing:
        # an empty mapping and an empty key set plan identically (nothing
        # to reuse either way), so they share one cache entry
        return ("empty",)
    if isinstance(existing, dict):
        items = []
        for key in sorted(existing):
            rel = existing[key]
            digest = getattr(rel, "rows_digest", None)
            items.append((str(key), digest() if callable(digest) else None))
        base = ("held", tuple(items))
    else:
        base = ("keys", tuple(sorted(str(k) for k in existing)))
    if ages:
        return base + ("ages", tuple(sorted(ages.items())))
    return base


def _nonzero_ages(staleness) -> dict[str, int]:
    """Normalize a release-age mapping: drop age-0 entries (fresh releases
    plan identically whether or not an age was supplied for them)."""
    if not staleness:
        return {}
    return {str(k): int(v) for k, v in staleness.items() if int(v) > 0}

#: Spending fresh budget must buy at least this factor of predicted RMSE
#: improvement over a free alternative (a cached or plan-shared release).
#: The cost model's own noise floor is well above 10%, so sub-10% predicted
#: gains never justify a new epsilon charge.
FRESH_RELEASE_PENALTY = 1.1


class Planner:
    """Compiles :class:`Plan` s for one :class:`~repro.engine.PolicyEngine`.

    The cost model is an explicit input: ``fit`` names the calibration fit
    (:data:`~repro.analysis.bounds.COST_MODEL_FITS`) every candidate is
    scored under, and ``stream`` is the tick being planned on a
    continual-release session — the continual candidates
    (:data:`~repro.analysis.bounds.CONTINUAL_STRATEGIES`) compete only
    when it is given.
    """

    def __init__(
        self, engine, *, fit: str = DEFAULT_FIT, stream: StreamContext | None = None
    ):
        if fit not in COST_MODEL_FITS:
            # scoring swallows model errors, so an unknown fit must fail here
            raise KeyError(f"unknown calibration family {fit!r}")
        self.engine = engine
        self.fit = fit
        self.stream = stream

    # -- entry point ---------------------------------------------------------------
    def plan(
        self,
        workload: Workload,
        *,
        optimize: bool = True,
        existing=(),
        budget: PlanBudget | None = None,
        remaining: float | None = None,
        staleness=None,
    ) -> Plan:
        """Compile a plan for ``workload``.

        ``existing`` is what the caller already holds (a session's cache):
        either a set of release keys or, better, the key -> release mapping
        itself — the mapping lets the planner see *row-level* linear reuse
        instead of assuming a cached linear release makes the batch free.
        Steps served from existing releases are charged 0 and reuse
        candidates may target them.

        ``staleness`` maps each existing release key to its age in stream
        ticks (missing keys are age 0).  An aged key may only serve a group
        whose ``max_staleness`` covers it; groups served from an aged
        release carry ``degradation="stale"`` so callers can see which
        answers are freshness-bounded reuse.

        ``budget`` switches planning to budget-first: fresh releases are
        charged an adaptive split of ``budget.total`` (error-minimizing,
        see the module docstring) or a flat ``budget.uniform`` each, and
        ``remaining`` — the caller's unspent session budget, when it has
        one — triggers the budget's degradation mode whenever the plan
        would cost more than is left.  Without a budget the engine's full
        epsilon is charged per fresh release, exactly as before.
        """
        engine = self.engine
        if workload.domain != engine.policy.domain:
            raise ValueError("workload is over a different domain than the policy")
        ages = _nonzero_ages(staleness)
        with obs.tracer().span(
            "planner.compile",
            mode="auto" if optimize else "fixed",
            groups=len(workload.groups),
            cost_model=self.fit,
        ):
            steps = self._compile(workload, optimize, existing, ages)
            if budget is not None:
                steps = self._apply_budget(
                    workload, steps, optimize, existing, budget, remaining, ages
                )
        return Plan(
            engine.fingerprint,
            engine.epsilon,
            workload,
            steps,
            mode="auto" if optimize else "fixed",
            options=engine.options,
            budget=budget,
            cost_model=self.fit,
        )

    def _compile(
        self, workload: Workload, optimize: bool, existing, ages: dict | None = None
    ) -> list[PlanStep]:
        """Choose a release and strategy per group (the pre-budget planner)."""
        held = existing if isinstance(existing, dict) else None
        existing_keys = set(existing)
        ages = ages or {}
        #: release key -> strategy, for keys available to reuse
        available: dict[str, str] = {k: self._strategy_of_key(k) for k in existing_keys}
        tracer = obs.tracer()
        # range groups are planned first regardless of listing order, so a
        # count group never misses a reuse candidate just because it was
        # listed before the range group whose release it could ride (the
        # executor creates a shared release at whichever step runs first)
        by_name: dict[str, PlanStep] = {}
        for group in workload.groups:
            if group.family == "range":
                with tracer.span(
                    "planner.group", group=group.name, family="range"
                ) as span:
                    step = self._plan_range(group, optimize, available, ages)
                    span.set(strategy=step.strategy, release=step.release)
                by_name[group.name] = step
                if step.degradation is None:
                    # a freshly planned (or fresh-reused) release is age 0
                    # for every later group; an aged serving stays aged
                    ages = {k: v for k, v in ages.items() if k != step.release}
                available.setdefault(step.release, step.strategy)
        planned_rows: set[bytes] = set()
        for group in workload.groups:
            if group.family in ("count", "linear"):
                with tracer.span(
                    "planner.group", group=group.name, family=group.family
                ) as span:
                    if group.family == "count":
                        step = self._plan_count(group, optimize, available, ages)
                    else:
                        step = self._plan_linear(
                            group, optimize, available, held, existing_keys, planned_rows, ages
                        )
                    span.set(strategy=step.strategy, release=step.release)
            else:
                continue
            by_name[group.name] = step
            available.setdefault(step.release, step.strategy)
        return [by_name[group.name] for group in workload.groups]

    # -- per-family planning -------------------------------------------------------
    @staticmethod
    def _fresh_enough(key: str, group, ages: dict, *, degraded: bool = False) -> bool:
        """Whether the held release behind ``key`` may serve ``group``:
        its age must be within the group's freshness bound.

        An undeclared bound means 0 (only current-tick releases serve for
        free), except under ``reuse_stale`` degradation where it preserves
        the legacy all-or-nothing semantics: any held release beats a
        dropped answer.  A *declared* bound is a hard cap even then.
        """
        if not ages:
            return True
        if group.max_staleness is None:
            if degraded:
                return True
            bound = 0
        else:
            bound = group.max_staleness
        return ages.get(key, 0) <= bound

    def _plan_range(self, group, optimize: bool, available: dict, ages: dict) -> PlanStep:
        engine = self.engine
        default = engine.strategy("range")  # may raise LookupError, as before
        if optimize:
            names = engine.registry.candidates("range", engine.policy)
            if self.stream is None:
                # one-shot compile: the continual candidates have no model
                names = tuple(n for n in names if n not in CONTINUAL_STRATEGIES)
        else:
            names = (default,)
        scored: list[tuple[float | None, float, str, float | None]] = []
        for name in names:
            rmse, sens = self._score_range(name)
            key = "range" if name == default else f"range:{name}"
            reusable = key in available and self._fresh_enough(key, group, ages)
            eps = 0.0 if reusable else engine.epsilon
            scored.append((rmse, eps, name, sens))
        rmse, eps, chosen, sens = _choose(scored, default)
        key = "range" if chosen == default else f"range:{chosen}"
        return PlanStep(
            group=group.name,
            family="range",
            release=key,
            release_family="range",
            strategy=chosen,
            epsilon=eps,
            n_queries=len(group),
            sensitivity=sens,
            predicted_rmse=rmse,
            scores=tuple((n, r) for r, _, n, _ in scored if r is not None),
            # served for free from a release that is genuinely aged: the
            # caller accepted that staleness via the group's bound
            degradation="stale" if eps == 0.0 and ages.get(key, 0) > 0 else None,
        )

    def _plan_count(self, group, optimize: bool, available: dict, ages: dict) -> PlanStep:
        engine = self.engine
        default = engine.strategy("histogram")
        if not optimize:
            # the answer() hot path: no data-dependent statistics (the mask
            # stats are O(q * |T|)), just the dispatch the registry fixes
            key = "histogram"
            reusable = key in available and self._fresh_enough(key, group, ages)
            return PlanStep(
                group=group.name,
                family="count",
                release=key,
                release_family="histogram",
                strategy=default,
                epsilon=0.0 if reusable else engine.epsilon,
                n_queries=len(group),
                sensitivity=self._histogram_sensitivity(),
                degradation="stale" if reusable and ages.get(key, 0) > 0 else None,
            )
        names = engine.registry.candidates("histogram", engine.policy)
        scored: list[tuple[float | None, float, str, float | None]] = []
        release_of = {}
        for name in names:
            rmse, sens = self._score_count(name, group)
            key = "histogram" if name == default else f"histogram:{name}"
            release_of[name] = (key, "histogram", name)
            reusable = key in available and self._fresh_enough(key, group, ages)
            eps = 0.0 if reusable else engine.epsilon
            scored.append((rmse, eps, name, sens))
        # reuse candidates: answer the counts from a range release the
        # plan (or session) already pays for — prefix noise telescopes,
        # so each maximal run of the mask costs one range query's error.
        # That argument needs a prefix-structured release: every range
        # answerer provides one except the raw (consistent=False)
        # hierarchical tree, whose leaves carry independent noise.
        consistent = self.engine.options.get("range", {}).get("consistent", True)
        for key, strategy in available.items():
            if key != "range" and not key.startswith("range:"):
                continue
            if strategy == "hierarchical" and not consistent:
                continue
            if not self._fresh_enough(key, group, ages):
                continue
            rmse, sens = self._score_range(strategy)
            if rmse is None:
                continue
            rmse = rmse * math.sqrt(max(group.avg_runs(), 0.0))
            label = f"reuse:{key}"
            release_of[label] = (key, "range", strategy)
            scored.append((rmse, 0.0, label, sens))
        rmse, eps, chosen, sens = _choose(scored, default)
        key, release_family, strategy = release_of.get(chosen, ("histogram", "histogram", chosen))
        return PlanStep(
            group=group.name,
            family="count",
            release=key,
            release_family=release_family,
            strategy=strategy,
            epsilon=eps,
            n_queries=len(group),
            sensitivity=sens,
            predicted_rmse=rmse,
            scores=tuple((n, r) for r, _, n, _ in scored if r is not None),
            degradation="stale" if eps == 0.0 and ages.get(key, 0) > 0 else None,
        )

    def _plan_linear(
        self,
        group,
        optimize: bool,
        available: dict,
        held: dict | None,
        existing_keys: set,
        planned_rows: set,
        ages: dict | None = None,
    ) -> PlanStep:
        engine = self.engine
        ages = ages or {}
        if ages and not self._fresh_enough("linear", group, ages):
            # the held linear release is too old for this group: plan as if
            # the session held nothing (rows must be re-released fresh)
            held = {k: v for k, v in held.items() if k != "linear"} if held else held
            existing_keys = existing_keys - {"linear"}
        if not optimize:
            # hot path: no O(q * n) weight statistics or row digests; the
            # executor charges actuals either way.  Without row awareness,
            # every linear group is conservatively predicted to release a
            # fresh sub-batch (only a session-held release zeroes it) —
            # key-level dedup would under-report disjoint-row groups.
            return PlanStep(
                group=group.name,
                family="linear",
                release="linear",
                release_family="linear",
                strategy="batch-linear",
                epsilon=0.0 if "linear" in existing_keys else engine.epsilon,
                n_queries=len(group),
            )
        rmse = sens = None
        try:
            # the mechanism's own sensitivity analysis, so prediction can
            # never drift from what a release actually calibrates to
            # (runtime import: repro.engine imports repro.plan at load time)
            from ..engine.engine import BatchLinearMechanism

            sens = BatchLinearMechanism(
                engine.policy, engine.epsilon, group.weights
            ).sensitivity
            rmse = math.sqrt(2.0) * sens / engine.epsilon
        except Exception:
            pass
        # linear reuse is per-row (ReleasedLinear), not per-key: the batch
        # is only free when every row is already covered by the session's
        # release or by an earlier linear group of this plan.  Row digests
        # come from the store's own keying so the prediction can never
        # diverge from what the executor will charge.  (Runtime import:
        # repro.engine imports repro.plan at module load, not vice versa.)
        from ..engine.engine import ReleasedLinear

        rows = ReleasedLinear._rows(group.weights)
        covered = set(planned_rows)
        if held is not None:
            release = held.get("linear")
            if release is not None:
                try:
                    missing = np.asarray(release.missing_rows(group.weights), dtype=bool)
                    covered.update(r for r, m in zip(rows, missing) if not m)
                except Exception:
                    pass  # unknown release shape: predict a fresh charge
        elif "linear" in existing_keys:
            # keys-only caller: rows are invisible, keep the optimistic
            # pre-row-aware reading (the executor still charges actuals)
            covered = set(rows)
        fresh = any(r not in covered for r in rows)
        planned_rows.update(rows)
        return PlanStep(
            group=group.name,
            family="linear",
            release="linear",
            release_family="linear",
            strategy="batch-linear",
            epsilon=engine.epsilon if fresh else 0.0,
            n_queries=len(group),
            sensitivity=sens,
            predicted_rmse=rmse,
            scores=(("batch-linear", rmse),) if rmse is not None else (),
        )

    # -- candidate scoring ---------------------------------------------------------
    def _score_range(self, strategy: str) -> tuple[float | None, float | None]:
        """(predicted per-query RMSE, model sensitivity) or (None, None)."""
        engine = self.engine
        policy = engine.policy
        opts = engine.options.get("range", {})
        try:
            if strategy == "hierarchical":
                sens = engine.sensitivity(HistogramQuery(policy.domain))
            else:
                sens = engine.sensitivity(CumulativeHistogramQuery(policy.domain))
            theta = None
            if strategy == "ordered-hierarchical":
                theta = int(policy.graph.max_edge_index_gap())
            mse = predicted_range_query_mse(
                strategy,
                policy.domain.size,
                engine.epsilon,
                sensitivity=sens,
                theta=theta,
                fanout=opts.get("fanout", 16),
                budget_split=opts.get("budget_split", "optimal"),
                consistent=opts.get("consistent", True),
                fit=self.fit,
                stream=self.stream,
            )
            return math.sqrt(mse), float(sens)
        except Exception:
            return None, None

    def _histogram_sensitivity(self) -> float | None:
        """Cached ``S(h, P)`` for step metadata, or None when unavailable."""
        try:
            return float(self.engine.sensitivity(HistogramQuery(self.engine.policy.domain)))
        except Exception:
            return None

    def _score_count(self, strategy: str, group) -> tuple[float | None, float | None]:
        engine = self.engine
        try:
            sens = engine.sensitivity(HistogramQuery(engine.policy.domain))
            mse = predicted_count_query_mse(
                strategy,
                engine.epsilon,
                sensitivity=sens,
                avg_support=group.avg_support(),
                fit=self.fit,
            )
            return math.sqrt(mse), float(sens)
        except Exception:
            return None, None

    # -- budget-first planning -------------------------------------------------------
    def _apply_budget(
        self,
        workload: Workload,
        steps: list[PlanStep],
        optimize: bool,
        existing,
        budget: PlanBudget,
        remaining: float | None,
        ages: dict | None = None,
    ) -> list[PlanStep]:
        """Charge the compiled steps under ``budget``, degrading if needed.

        Returns a rewritten step list: each fresh release carries its
        allocated epsilon (adaptive under ``total``, flat under
        ``uniform``), dropped groups carry a ``degradation="dropped"``
        marker the executor answers with NaN, and stale-reuse repins carry
        ``degradation="stale"``.
        """
        existing_keys = set(existing)
        ages = ages or {}
        dropped: list[str] = []
        units = self._charge_units(steps)
        needed = self._needed(budget, units)
        # same slack as PrivacyAccountant.spend: a plan judged affordable
        # here must never be refused by the ledger at execution time
        over = remaining is not None and needed > remaining + 1e-12
        if over and budget.degradation == "strict":
            # before any spend: the caller sees the refusal at planning time
            raise BudgetExceededError(needed, needed, remaining)
        if over and budget.degradation == "drop_optional":
            dropped = [g.name for g in workload.groups if g.optional]
            if dropped:
                kept = [g for g in workload.groups if not g.optional]
                # recompile so reuse decisions are consistent with the
                # reduced workload (a count group must not ride a range
                # release that a dropped group would have paid for)
                steps = self._compile(
                    Workload(workload.domain, kept), optimize, existing, ages
                )
                units = self._charge_units(steps)
        if over and budget.degradation == "reuse_stale":
            steps = self._reuse_stale(workload, steps, units, existing_keys, ages)
            units = self._charge_units(steps)
        if budget.uniform is not None:
            needed = self._needed(budget, units)
            if remaining is not None and needed > remaining + 1e-12:
                # a uniform charge cannot shrink; degradation freed what it
                # could and the rest still does not fit
                raise BudgetExceededError(needed, needed, remaining)
            allocated = [budget.uniform] * len(units)
        else:
            effective = budget.total
            if remaining is not None and budget.degradation != "strict":
                effective = min(effective, remaining)
            allocated = self._allocate(
                workload, steps, units, budget, effective, existing
            )
        steps = self._charged_steps(steps, units, allocated)
        for name in dropped:
            group = workload.group(name)
            steps.append(
                PlanStep(
                    group=name,
                    family=group.family,
                    release=f"dropped:{name}",
                    release_family="none",
                    strategy="dropped",
                    epsilon=0.0,
                    n_queries=len(group),
                    degradation="dropped",
                )
            )
        return steps

    @staticmethod
    def _needed(budget: PlanBudget, units: list[dict]) -> float:
        """Total epsilon the compiled plan would charge under ``budget``.

        A plan with no fresh releases (everything served from the caller's
        cache) needs nothing — it never triggers degradation, whatever the
        requested total.
        """
        if not units:
            return 0.0
        if budget.uniform is not None:
            return budget.uniform * len(units)
        return budget.total

    @staticmethod
    def _charge_units(steps: list[PlanStep]) -> list[dict]:
        """The plan's independent epsilon charges (allocation units).

        Non-linear steps sharing one release key form one unit — one step
        carries the charge, but every rider's queries feed the unit's error
        weight.  Each *fresh* linear step is its own unit (row-level
        composition: every fresh sub-batch is a separate charge).  Steps
        served entirely from existing releases produce no unit.
        """
        units: list[dict] = []
        by_key: dict[str, list[int]] = {}
        for i, step in enumerate(steps):
            if step.family == "linear":
                if step.epsilon > 0:
                    units.append({"steps": [i], "charge": i})
                continue
            by_key.setdefault(step.release, []).append(i)
        for idxs in by_key.values():
            charged = [i for i in idxs if steps[i].epsilon > 0]
            if charged:
                units.append({"steps": idxs, "charge": charged[0]})
        return units

    def _allocate(
        self,
        workload: Workload,
        steps: list[PlanStep],
        units: list[dict],
        budget: PlanBudget,
        total: float,
        existing=(),
    ) -> list[float]:
        """Error-minimizing split of ``total`` across the charge units.

        Each unit's predicted error is ``w / eps^2`` (every mechanism model
        is), so minimizing ``sum_r w_r / eps_r^2`` subject to
        ``sum eps_r = total`` gives ``eps_r proportional to w_r^{1/3}`` —
        the Eqn (15) rule across releases.  Per-group floors are honoured
        by iterative clamping: a unit whose share falls below its floor is
        pinned there and the rest re-split.
        """
        if not units:
            return []
        linear_counts = self._linear_query_attribution(workload, steps, existing)
        weights = self._unit_weights(workload, steps, units, linear_counts)
        floors = [
            max(
                (budget.floors.get(steps[i].group, 0.0) for i in unit["steps"]),
                default=0.0,
            )
            for unit in units
        ]
        if sum(floors) > total + 1e-12:
            raise BudgetExceededError(sum(floors), sum(floors), total)
        n = len(units)
        eps = [0.0] * n
        active = list(range(n))
        left = total
        while active:
            denom = sum(weights[i] ** (1.0 / 3.0) for i in active)
            if left <= 1e-12 or denom <= 0:
                # floors consumed the whole budget with unfloored units left
                raise BudgetExceededError(total, total, total - left)
            share = {i: left * weights[i] ** (1.0 / 3.0) / denom for i in active}
            clamped = [i for i in active if share[i] < floors[i] - 1e-15]
            if not clamped:
                for i in active:
                    eps[i] = share[i]
                break
            for i in clamped:
                eps[i] = floors[i]
                left -= floors[i]
                active.remove(i)
        return eps

    def _linear_query_attribution(
        self, workload: Workload, steps: list[PlanStep], existing
    ) -> dict[int, int] | None:
        """Queries each fresh linear unit's release actually determines.

        Linear groups may partially share rows; the executor releases each
        row once, at the epsilon of the *first* fresh step that covers it.
        A shared row's error therefore depends on that owning step's
        allocation alone — so for the budget split it must be counted once,
        in the owning unit, not once per group that reads it.  Returns
        ``{step index: query count}`` attributing every fresh row (with
        multiplicity across groups — two queries on one row are two errors)
        to its owner; rows the session's release already holds are free and
        attributed to no unit.  ``None`` (fall back to per-step query
        counts) when there are no fresh linear steps or a release shape is
        not row-inspectable.
        """
        linear = [
            (i, s)
            for i, s in enumerate(steps)
            if s.family == "linear" and s.degradation is None
        ]
        if not any(s.epsilon > 0 for _, s in linear):
            return None
        held = existing if isinstance(existing, dict) else None
        covered_by_key = held is None and "linear" in set(existing)
        try:
            from ..engine.engine import ReleasedLinear

            release = held.get("linear") if held is not None else None
            per_step: list[tuple[int, list, np.ndarray]] = []
            owner: dict[bytes, int] = {}
            for i, step in linear:
                group = workload.group(step.group)
                rows = ReleasedLinear._rows(group.weights)
                if release is not None:
                    fresh = np.asarray(release.missing_rows(group.weights), dtype=bool)
                elif covered_by_key:
                    fresh = np.zeros(len(rows), dtype=bool)
                else:
                    fresh = np.ones(len(rows), dtype=bool)
                per_step.append((i, rows, fresh))
                if step.epsilon > 0:
                    for row, is_fresh in zip(rows, fresh):
                        if is_fresh:
                            owner.setdefault(row, i)
            counts: dict[int, int] = {}
            for _i, rows, fresh in per_step:
                for row, is_fresh in zip(rows, fresh):
                    if not is_fresh:
                        continue
                    j = owner.get(row)
                    if j is not None:
                        counts[j] = counts.get(j, 0) + 1
            return counts
        except Exception:
            return None  # unknown release/weight shape: per-step counts

    def _unit_weights(
        self,
        workload: Workload,
        steps: list[PlanStep],
        units: list[dict],
        linear_counts: dict[int, int] | None = None,
    ) -> list[float]:
        """Per-unit error coefficients ``w`` with MSE = ``w / eps^2``.

        A unit's weight sums, over every step it serves, the step's query
        count times its predicted per-query MSE scaled back to ``eps = 1``
        (the models are exactly ``c / eps^2``, so ``c = mse * eps^2``).
        Fresh linear steps use the attributed count from
        :meth:`_linear_query_attribution` instead of their raw query count,
        so rows shared across groups weigh exactly once — in the unit whose
        allocation determines their error.  Unscoreable units inherit the
        median scored weight — they get a middle-of-the-road share rather
        than starving or hoarding.
        """
        eps0 = self.engine.epsilon
        raw: list[float | None] = []
        for unit in units:
            coeff, scored = 0.0, False
            for i in unit["steps"]:
                step = steps[i]
                rmse = step.predicted_rmse
                if rmse is None:
                    rmse = self._rescore(workload, step)
                if rmse is None:
                    continue
                n_queries = step.n_queries
                if linear_counts is not None and step.family == "linear":
                    n_queries = linear_counts.get(i, step.n_queries)
                coeff += n_queries * (rmse * eps0) ** 2
                scored = True
            raw.append(coeff if scored and coeff > 0 else None)
        scored_vals = sorted(w for w in raw if w is not None)
        fallback = scored_vals[len(scored_vals) // 2] if scored_vals else 1.0
        return [fallback if w is None else w for w in raw]

    def _rescore(self, workload: Workload, step: PlanStep) -> float | None:
        """Predicted per-query RMSE for a step compiled without one.

        Fixed-mode compilation skips data-dependent statistics on the
        answer hot path; the budgeted path is not that path, so the model
        is evaluated here on demand.
        """
        if step.family == "range":
            return self._score_range(step.strategy)[0]
        if step.family == "count":
            group = workload.group(step.group)
            if step.release_family == "range":
                rmse, _ = self._score_range(step.strategy)
                if rmse is None:
                    return None
                return rmse * math.sqrt(max(group.avg_runs(), 0.0))
            return self._score_count(step.strategy, group)[0]
        if step.family == "linear":
            try:
                from ..engine.engine import BatchLinearMechanism

                group = workload.group(step.group)
                sens = BatchLinearMechanism(
                    self.engine.policy, self.engine.epsilon, group.weights
                ).sensitivity
                return math.sqrt(2.0) * sens / self.engine.epsilon
            except Exception:
                return None
        return None

    def _charged_steps(
        self, steps: list[PlanStep], units: list[dict], allocated: list[float]
    ) -> list[PlanStep]:
        """Rewrite each unit's steps with its allocated epsilon.

        The charging step carries the allocation; every step served by the
        unit (riders included) has its predicted RMSE rescaled from the
        reference epsilon to the allocated one — the models are ``c/eps^2``,
        so RMSE scales linearly in ``1/eps``.
        """
        eps0 = self.engine.epsilon
        out = list(steps)
        for unit, eps in zip(units, allocated):
            scale = eps0 / eps
            for i in unit["steps"]:
                step = out[i]
                out[i] = replace(
                    step,
                    epsilon=eps if i == unit["charge"] else step.epsilon,
                    predicted_rmse=(
                        None
                        if step.predicted_rmse is None
                        else step.predicted_rmse * scale
                    ),
                )
        return out

    def _reuse_stale(
        self,
        workload: Workload,
        steps: list[PlanStep],
        units: list[dict],
        existing_keys: set,
        ages: dict | None = None,
    ) -> list[PlanStep]:
        """Repin fresh releases onto the session's already-paid keys.

        Degradation mode ``reuse_stale``: a unit whose groups *can* be
        answered from a release the session already holds is served from it
        for free — accepting the stale release's (possibly worse) error —
        so the remaining budget concentrates on units with no alternative.
        Linear units never repin: a stale linear release can only answer
        rows it already holds, and those are free anyway.  Aged releases
        (streaming sessions) only qualify for a unit when every group the
        unit serves accepts the age via its freshness bound.
        """
        ages = ages or {}
        range_keys = [k for k in existing_keys if k == "range" or k.startswith("range:")]
        hist_keys = [
            k for k in existing_keys if k == "histogram" or k.startswith("histogram:")
        ]
        consistent = self.engine.options.get("range", {}).get("consistent", True)
        # prefix-structured stale range releases (count reuse needs the
        # telescoping-noise argument, exactly as in _plan_count)
        prefix_keys = [
            k
            for k in range_keys
            if self._strategy_of_key(k) != "hierarchical" or consistent
        ]

        def best_key(candidates: list[tuple[str, float | None]]) -> str | None:
            """Lowest-scored key; unscoreable ones only win when nothing
            scores (any stale reuse still beats failing the budget)."""
            if not candidates:
                return None
            return min(
                candidates, key=lambda c: math.inf if c[1] is None else c[1]
            )[0]

        out = list(steps)
        for unit in units:
            charge = steps[unit["charge"]]
            if charge.family == "linear":
                continue
            serves_counts = any(steps[i].family == "count" for i in unit["steps"])
            unit_groups = [workload.group(steps[i].group) for i in unit["steps"]]

            def unit_accepts(key: str) -> bool:
                return all(
                    self._fresh_enough(key, g, ages, degraded=True)
                    for g in unit_groups
                )

            if charge.release_family == "range":
                usable = [
                    k
                    for k in (prefix_keys if serves_counts else range_keys)
                    if unit_accepts(k)
                ]
                key = best_key(
                    [(k, self._score_range(self._strategy_of_key(k))[0]) for k in usable]
                )
            else:
                # a histogram unit: stale histograms score on the count
                # model, stale prefix releases on the run-telescoping reuse
                # model — one scoreboard, best key wins regardless of family
                group = workload.group(charge.group)
                runs = math.sqrt(max(group.avg_runs(), 0.0))
                candidates = [
                    (k, self._score_count(self._strategy_of_key(k), group)[0])
                    for k in hist_keys
                    if unit_accepts(k)
                ]
                for k in prefix_keys:
                    if not unit_accepts(k):
                        continue
                    rmse, _ = self._score_range(self._strategy_of_key(k))
                    candidates.append((k, None if rmse is None else rmse * runs))
                key = best_key(candidates)
            if key is None:
                continue  # nothing stale can serve this unit: stays fresh
            strategy = self._strategy_of_key(key)
            family = "range" if key == "range" or key.startswith("range:") else "histogram"
            for i in unit["steps"]:
                step = out[i]
                # honest per-step prediction for the stale serving path: the
                # abandoned fresh candidate's RMSE must not linger
                if family == "range":
                    rmse, _ = self._score_range(strategy)
                    if step.family == "count" and rmse is not None:
                        runs = workload.group(step.group).avg_runs()
                        rmse = rmse * math.sqrt(max(runs, 0.0))
                else:
                    rmse, _ = self._score_count(strategy, workload.group(step.group))
                out[i] = replace(
                    step,
                    release=key,
                    release_family=family,
                    strategy=strategy,
                    epsilon=0.0,
                    degradation="stale",
                    # None when the stale path is unscoreable — never the
                    # abandoned fresh candidate's number
                    predicted_rmse=rmse,
                )
        return out

    def _strategy_of_key(self, key: str) -> str:
        """The strategy that produced a session release key.

        Keys encode it: ``"<family>"`` means the family's default rule,
        ``"<family>:<strategy>"`` a pinned one.
        """
        if ":" in key:
            return key.split(":", 1)[1]
        family = {"range": "range", "histogram": "histogram"}.get(key)
        if family is None:
            return key  # e.g. "linear" -> batch-linear, never re-resolved
        try:
            return self.engine.strategy(family)
        except LookupError:
            return key


def _choose(scored, default: str):
    """Stable pick: lowest *effective* RMSE, then lowest epsilon charge,
    then listing order (default candidate is listed first).

    Candidates that would spend fresh budget carry
    :data:`FRESH_RELEASE_PENALTY` against free ones, so a cached or shared
    release only loses to a paid alternative that is predicted materially
    better.  Unscoreable candidates only win when nothing has a score —
    then the default survives unscored (errors, if any, surface at
    execution exactly as the fixed dispatch would raise them).
    """
    viable = [(r, e, n, s) for r, e, n, s in scored if r is not None]
    if viable:
        return min(
            viable,
            key=lambda t: (t[0] * (FRESH_RELEASE_PENALTY if t[1] > 0 else 1.0), t[1]),
        )
    for r, e, n, s in scored:
        if n == default:
            return r, e, n, s
    return scored[0] if scored else (None, 0.0, default, None)
