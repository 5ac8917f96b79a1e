"""Compiled plans: which release serves which query group, and why.

A :class:`Plan` is the planner's output and the executor's input — an
ordered list of :class:`PlanStep` s over a :class:`Workload`, pinned to one
``(policy fingerprint, epsilon)``.  Plans are *data*: they serialize to a
plain dict (:meth:`Plan.to_spec` / :meth:`Plan.from_spec`) with a stable
:meth:`fingerprint`, and :meth:`explain` renders the choice report (chosen
mechanism, predicted RMSE, sensitivity, epsilon charge and the rejected
candidates' scores) without touching any data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..core.domain import Domain
from ..core.specbase import (
    SPEC_VERSION,
    SpecError,
    check_kind,
    check_version,
    spec_digest,
    spec_get,
)
from .workload import Workload

__all__ = ["Plan", "PlanStep", "canonical_options"]


def canonical_options(options: dict | None) -> dict:
    """Sorted-key copy of a per-family options dict (stable spec form).

    Empty per-family dicts are dropped: ``{"range": {}}`` configures the
    same mechanisms as ``{}``, so the two must compare equal.
    """
    if not options:
        return {}
    return {
        family: {k: options[family][k] for k in sorted(options[family])}
        for family in sorted(options)
        if options[family]
    }


@dataclass(frozen=True)
class PlanStep:
    """One group's serving decision.

    ``release`` is the key the produced (or reused) synopsis lives under in
    the caller's release mapping; two steps with the same key share one
    release and one epsilon charge.  ``epsilon`` is the *predicted marginal*
    charge of this step (0 when the release is produced by an earlier step
    or already cached by the session); the executor charges actuals.
    """

    group: str
    family: str            # query family: range | count | linear
    release: str           # release key in the caller's mapping
    release_family: str    # mechanism family producing it: range | histogram | linear
    strategy: str          # registry rule name, "batch-linear", or "shared"
    epsilon: float
    n_queries: int
    sensitivity: float | None = None
    predicted_rmse: float | None = None
    #: candidate name -> predicted per-query RMSE (the full scoreboard)
    scores: tuple[tuple[str, float], ...] = field(default_factory=tuple)
    #: budget-degradation decision: None (served normally), "dropped" (the
    #: group is answered NaN, nothing spent) or "stale" (repinned onto a
    #: release the session already paid for)
    degradation: str | None = None

    def to_spec(self) -> dict:
        spec = {
            "group": self.group,
            "family": self.family,
            "release": self.release,
            "release_family": self.release_family,
            "strategy": self.strategy,
            "epsilon": float(self.epsilon),
            "n_queries": int(self.n_queries),
        }
        if self.sensitivity is not None:
            spec["sensitivity"] = float(self.sensitivity)
        if self.predicted_rmse is not None:
            spec["predicted_rmse"] = float(self.predicted_rmse)
        if self.scores:
            spec["scores"] = [[name, float(s)] for name, s in self.scores]
        if self.degradation is not None:
            spec["degradation"] = self.degradation
        return spec

    @classmethod
    def from_spec(cls, spec: dict, path: str = "step") -> "PlanStep":
        scores = spec_get(spec, "scores", list, path, required=False, default=[])
        try:
            parsed_scores = tuple((str(n), float(s)) for n, s in scores)
        except (TypeError, ValueError):
            raise SpecError(f"{path}.scores", "expected [name, score] pairs") from None
        return cls(
            group=spec_get(spec, "group", str, path),
            family=spec_get(spec, "family", str, path),
            release=spec_get(spec, "release", str, path),
            release_family=spec_get(spec, "release_family", str, path),
            strategy=spec_get(spec, "strategy", str, path),
            epsilon=float(spec_get(spec, "epsilon", (int, float), path)),
            n_queries=spec_get(spec, "n_queries", int, path),
            sensitivity=_opt_float(spec, "sensitivity", path),
            predicted_rmse=_opt_float(spec, "predicted_rmse", path),
            scores=parsed_scores,
            degradation=spec_get(spec, "degradation", str, path, required=False),
        )


def _opt_float(spec: dict, fieldname: str, path: str) -> float | None:
    value = spec_get(spec, fieldname, (int, float), path, required=False)
    return None if value is None else float(value)


class Plan:
    """An executable, explainable serving plan for one workload.

    Built by :class:`repro.plan.Planner`; run by :class:`repro.plan.Executor`
    against any engine whose ``(policy fingerprint, epsilon)`` matches.

    Plans are immutable after construction — ``steps`` is a tuple of frozen
    dataclasses and execution state (releases, charges) lives entirely with
    the caller — so one compiled plan is safe to hand to any number of
    concurrent executors.  The cross-tenant plan cache
    (:class:`repro.api.PlanCache`) relies on this: many tenants run the
    same cached ``Plan`` object against their own sessions simultaneously.
    """

    def __init__(
        self,
        policy_fingerprint: str,
        epsilon: float,
        workload: Workload,
        steps,
        *,
        mode: str = "auto",
        options: dict | None = None,
        budget=None,
        cost_model: str | None = None,
    ):
        self.policy_fingerprint = str(policy_fingerprint)
        self.epsilon = float(epsilon)
        self.workload = workload
        self.steps = tuple(steps)
        self.mode = str(mode)
        #: the PlanBudget the steps were charged under, or None for the
        #: legacy epsilon-fixed charging (engine epsilon per fresh release)
        self.budget = budget
        #: calibration-fit family the scores were computed under (in-memory
        #: provenance, stamped by the planner; not part of the spec, so a
        #: round-tripped plan loses it and explain() reports the shipped
        #: default fit)
        self.cost_model = cost_model
        #: canonical per-family mechanism options the plan was scored under;
        #: the executor refuses engines configured differently (options
        #: change the released structures the plan was scored on)
        self.options = canonical_options(options)
        self._workload_token: str | None = None
        self._fingerprint: str | None = None
        known = {g.name for g in workload.groups}
        covered: set[str] = set()
        for step in self.steps:
            if step.group not in known:
                raise ValueError(f"plan step references unknown group {step.group!r}")
            if step.group in covered:
                raise ValueError(f"plan has two steps for group {step.group!r}")
            covered.add(step.group)
        if covered != known:
            # an under-covering plan would spend budget on the steps present
            # and then fail to assemble answers — refuse before any release
            missing = ", ".join(sorted(known - covered))
            raise ValueError(f"plan is missing steps for group(s): {missing}")

    # -- structure -----------------------------------------------------------------
    @property
    def total_epsilon(self) -> float:
        """Predicted total charge: the sum of per-step marginal epsilons.

        The planner already zeroes a step whose (non-linear) release key an
        earlier step pays for; linear steps each carry their own predicted
        sub-batch charge (row-level composition), so no key-deduplication
        belongs here.
        """
        return sum(step.epsilon for step in self.steps)

    def degraded(self) -> dict[str, list[str]]:
        """Degradation decisions by kind: ``{"dropped": [...], "stale": [...]}``.

        Empty kinds are omitted (an empty dict means nothing degraded).
        Both the session metadata and the service's plan section report
        this — one source, so they can never disagree.
        """
        out: dict[str, list[str]] = {}
        for step in self.steps:
            if step.degradation is not None:
                out.setdefault(step.degradation, []).append(step.group)
        return out

    def workload_token(self) -> str:
        """The workload's structural cache token (memoized).

        The payload handoff key: a payload-free cached plan is only run
        against a live workload whose token matches this one.
        """
        if self._workload_token is None:
            self._workload_token = self.workload.cache_token()
        return self._workload_token

    @property
    def is_payload_free(self) -> bool:
        """True when the workload is a structure-only skeleton (cached form)."""
        from .workload import WorkloadSkeleton

        return isinstance(self.workload, WorkloadSkeleton)

    def payload_free(self) -> "Plan":
        """A cache-ready copy that drops the retained query payloads.

        The copy swaps the workload for a
        :class:`~repro.plan.workload.WorkloadSkeleton` — structure and
        cache token only — so its :meth:`nbytes` shrinks to the per-step
        constant and far more plans fit under the
        :class:`repro.api.PlanCache` byte cap.  The plan fingerprint is
        memoized before the payload goes away, so service responses for
        cached plans stay identical to freshly compiled ones.  Executing
        the copy requires the caller's live workload
        (``Executor.run(..., workload=...)``).
        """
        from .workload import WorkloadSkeleton

        if self.is_payload_free:
            return self
        fingerprint = self.fingerprint()
        token = self.workload_token()
        light = Plan(
            self.policy_fingerprint,
            self.epsilon,
            WorkloadSkeleton(self.workload),
            self.steps,
            mode=self.mode,
            options=self.options,
            budget=self.budget,
            cost_model=self.cost_model,
        )
        light._fingerprint = fingerprint
        light._workload_token = token
        return light

    def bind(self, workload: Workload) -> "Plan":
        """The inverse handoff of :meth:`payload_free`: a full plan over the
        caller's live workload.

        Plan-cache hits return payload-free plans; binding the requesting
        workload (whose token necessarily matches — it is part of the cache
        key) restores a plan indistinguishable from a fresh compile, so no
        downstream caller has to know the cache dropped the payloads.
        Full plans bind too (token-checked), which lets callers bind
        unconditionally on any cache outcome.
        """
        token = self.workload_token()
        if workload.cache_token() != token:
            raise ValueError("workload does not match the plan's cache token")
        if not self.is_payload_free and workload is self.workload:
            return self
        bound = Plan(
            self.policy_fingerprint,
            self.epsilon,
            workload,
            self.steps,
            mode=self.mode,
            options=self.options,
            budget=self.budget,
            cost_model=self.cost_model,
        )
        bound._fingerprint = self._fingerprint
        bound._workload_token = token
        return bound

    def step_for(self, group: str) -> PlanStep:
        for step in self.steps:
            if step.group == group:
                return step
        raise KeyError(f"no plan step for group {group!r}")

    def __len__(self) -> int:
        return len(self.steps)

    def nbytes(self) -> int:
        """Approximate retained bytes (workload arrays dominate).

        Used by :class:`repro.api.PlanCache` to evict by accumulated bytes;
        the per-step constant covers the frozen dataclass and its scoreboard
        tuple, which are noise next to a packed count-mask stack.
        """
        return self.workload.nbytes() + 256 * len(self.steps)

    # -- report --------------------------------------------------------------------
    def marginal_errors(self) -> dict[str, float]:
        """Per fresh release: predicted total-error reduction per unit epsilon.

        At allocation ``eps_r`` a release's served error is
        ``E_r = sum n_q * rmse^2`` (the step RMSEs are already at the
        allocated epsilon), and the models are ``c / eps^2``, so
        ``|dE/deps| = 2 E_r / eps_r``.  The adaptive allocator equalizes
        these up to floors — the report makes that visible, and a large
        imbalance under ``uniform`` charging shows what adaptivity buys.
        """
        served: dict[str, float] = {}
        charge: dict[str, float] = {}
        for step in self.steps:
            if step.epsilon > 0:
                charge[step.release] = charge.get(step.release, 0.0) + step.epsilon
            if step.predicted_rmse is not None:
                served[step.release] = (
                    served.get(step.release, 0.0)
                    + step.n_queries * step.predicted_rmse**2
                )
        return {
            key: 2.0 * served[key] / eps
            for key, eps in charge.items()
            if eps > 0 and key in served
        }

    def explain(self) -> str:
        """Human-readable choice report (no data touched, nothing spent)."""
        lines = [
            f"plan {self.fingerprint()} — policy {self.policy_fingerprint}, "
            f"epsilon {self.epsilon:g} per release, mode {self.mode}"
        ]
        if self.budget is not None:
            lines.append(f"  budget: {self.budget!r}")
        marginals = self.marginal_errors() if self.budget is not None else {}
        for i, step in enumerate(self.steps, 1):
            if step.degradation == "dropped":
                kind = "dropped"
            elif step.degradation == "stale":
                kind = "stale reuse"
            else:
                kind = "fresh" if step.epsilon > 0 else "shared"
            lines.append(
                f"  step {i}: group {step.group!r} — {step.n_queries} "
                f"{step.family} queries"
            )
            lines.append(
                f"    release {step.release!r} via {step.strategy} "
                f"[{kind}, epsilon {step.epsilon:g}]"
            )
            detail = []
            if step.sensitivity is not None:
                detail.append(f"sensitivity {step.sensitivity:g}")
            if step.predicted_rmse is not None:
                detail.append(f"predicted RMSE {step.predicted_rmse:.4g}")
            if step.epsilon > 0 and step.release in marginals:
                detail.append(
                    f"marginal error per epsilon {marginals[step.release]:.4g}"
                )
            if detail:
                lines.append("    " + ", ".join(detail))
            if step.scores:
                # a count group served from a range release won as its
                # "reuse:<key>" candidate, not under the strategy name
                chosen = (
                    f"reuse:{step.release}"
                    if step.family == "count" and step.release_family == "range"
                    else step.strategy
                )
                board = " | ".join(
                    f"{name} {score:.4g}" + ("*" if name == chosen else "")
                    for name, score in step.scores
                )
                lines.append(f"    candidates: {board}")
        lines.append(
            f"  total epsilon: {self.total_epsilon:g} across "
            f"{sum(1 for s in self.steps if s.epsilon > 0)} fresh release(s)"
        )
        from ..analysis.bounds import COST_MODEL_FITS, DEFAULT_FIT

        # the fit the scores were computed under (a plan rebuilt from its
        # spec does not carry it: the shipped default is reported)
        family = self.cost_model if self.cost_model in COST_MODEL_FITS else DEFAULT_FIT
        lines.append(
            f"  cost model: {family} ({COST_MODEL_FITS[family]['provenance']})"
        )
        return "\n".join(lines)

    def summary(self) -> list[dict]:
        """Per-step dicts for service responses (subset of the spec)."""
        return [step.to_spec() for step in self.steps]

    # -- specs ---------------------------------------------------------------------
    def to_spec(self) -> dict:
        spec = {
            "kind": "plan",
            "version": SPEC_VERSION,
            "policy_fingerprint": self.policy_fingerprint,
            "epsilon": self.epsilon,
            "mode": self.mode,
            "workload": self.workload.to_spec(),
            "steps": [s.to_spec() for s in self.steps],
        }
        if self.options:
            spec["options"] = self.options
        if self.budget is not None:
            spec["budget"] = self.budget.to_spec()
        return spec

    @classmethod
    def from_spec(cls, spec: dict, domain: Domain, path: str = "plan") -> "Plan":
        check_kind(spec, "plan", path)
        check_version(spec, path, required=False)
        workload = Workload.from_spec(
            spec_get(spec, "workload", dict, path), domain, f"{path}.workload"
        )
        steps = [
            PlanStep.from_spec(s, f"{path}.steps[{i}]")
            for i, s in enumerate(spec_get(spec, "steps", list, path))
        ]
        epsilon = float(spec_get(spec, "epsilon", (int, float), path))
        if not math.isfinite(epsilon) or epsilon <= 0:
            raise SpecError(f"{path}.epsilon", "must be a positive finite number")
        budget_spec = spec_get(spec, "budget", dict, path, required=False)
        budget = None
        if budget_spec is not None:
            from .budget import PlanBudget

            budget = PlanBudget.from_spec(budget_spec, f"{path}.budget")
        try:
            return cls(
                spec_get(spec, "policy_fingerprint", str, path),
                epsilon,
                workload,
                steps,
                mode=spec_get(spec, "mode", str, path, required=False, default="auto"),
                options=spec_get(spec, "options", dict, path, required=False),
                budget=budget,
            )
        except ValueError as exc:
            raise SpecError(f"{path}.steps", str(exc)) from None

    def fingerprint(self) -> str:
        """Stable digest of the canonical plan spec (round-trip invariant).

        Memoized — in particular *before* :meth:`payload_free` drops the
        workload arrays the spec digest is computed over.
        """
        if self._fingerprint is None:
            self._fingerprint = spec_digest(self.to_spec())
        return self._fingerprint

    def __repr__(self) -> str:
        inner = ", ".join(f"{s.group}->{s.strategy}" for s in self.steps)
        return f"Plan({inner or 'empty'}, mode={self.mode!r})"
