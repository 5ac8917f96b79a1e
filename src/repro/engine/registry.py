"""Mechanism registry: query family × policy graph type → mechanism.

The paper's Section 7 message is that the *strategy* should follow the
policy: line graphs earn the ordered mechanism's O(1/eps^2) range error,
distance-threshold graphs the ordered-hierarchical hybrid, and the complete
graph falls back to the differential-privacy baseline (the Hay hierarchical
tree for ranges, plain Laplace for histograms).  The registry encodes that
dispatch table and keeps it extensible: callers can prepend rules for new
graph families or swap a family's default strategy without touching the
engine.

A rule matches when its query family equals the requested one, its graph
types (if any) cover the policy graph, and its predicate (if any) accepts
the policy.  Rules are checked most-specific-first in registration order;
``register(..., front=True)`` lets callers override the defaults.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from dataclasses import dataclass
from threading import Lock

from ..core.policy import Policy
from ..core.graphs import (
    DistanceThresholdGraph,
    EdgelessGraph,
    LineGraph,
)
from ..mechanisms.base import Mechanism
from ..mechanisms.constrained_histogram import ConstrainedHistogramMechanism
from ..mechanisms.hierarchical import HierarchicalMechanism
from ..mechanisms.laplace import LaplaceMechanism
from ..mechanisms.ordered import OrderedMechanism
from ..mechanisms.ordered_hierarchical import OrderedHierarchicalMechanism
from ..core.queries import HistogramQuery

__all__ = ["MechanismRegistry", "default_registry", "FAMILIES"]

#: Released-synopsis families the registry dispatches.  "range" serves range
#: and cumulative-histogram queries; "histogram" serves complete histograms
#: and (by post-processing) arbitrary count queries.  Linear-query batches
#: carry their weight matrix, so they are released per batch by
#: :meth:`repro.engine.PolicyEngine.answer_linear` rather than through a
#: registry rule.
FAMILIES = ("range", "histogram")


def _callable_token(fn: Callable) -> str:
    """Identity string for a rule's factory/predicate in the fingerprint.

    Qualname alone conflates lambdas created at one source location but
    closing over different values (``make_registry(fanout)`` for 4 vs 16),
    so closure cell contents and bound defaults are folded in; anything
    whose repr is unstable falls back to object identity — conservative
    (no sharing) rather than wrong (cross-registry plan reuse).
    """
    parts = [getattr(fn, "__module__", "?"), getattr(fn, "__qualname__", repr(fn))]
    code = getattr(fn, "__code__", None)
    if code is not None:
        # qualname conflates same-source-location lambdas with different
        # bodies; the bytecode and consts distinguish them
        parts.append(hashlib.sha256(code.co_code + repr(code.co_consts).encode()).hexdigest()[:12])
    cells = getattr(fn, "__closure__", None)
    if cells:
        try:
            parts.append(repr(tuple(c.cell_contents for c in cells)))
        except Exception:
            parts.append(f"cells@{id(fn)}")
    defaults = getattr(fn, "__defaults__", None)
    if defaults:
        parts.append(repr(defaults))
    return ":".join(parts)


@dataclass(frozen=True)
class _Rule:
    family: str
    graph_types: tuple[type, ...] | None
    when: Callable[[Policy], bool] | None
    factory: Callable[..., Mechanism]
    name: str

    def matches(self, family: str, policy: Policy) -> bool:
        if family != self.family:
            return False
        if self.graph_types is not None and not isinstance(
            policy.graph, self.graph_types
        ):
            return False
        return self.when is None or self.when(policy)


class MechanismRegistry:
    """An ordered rule table mapping (family, policy) to a mechanism factory.

    Factories receive ``(policy, epsilon, **options)`` and must tolerate
    options meant for sibling strategies (every built-in factory swallows
    unknown keywords), so one options dict can configure a whole family
    regardless of which graph type each policy ends up with.
    """

    def __init__(self):
        self._rules: list[_Rule] = []
        self._fingerprint: str | None = None
        # guards _rules mutation and the fingerprint memo together: a
        # register() racing a fingerprint() must never let a stale digest
        # overwrite the invalidation (plan-cache staleness would follow)
        self._lock = Lock()

    def register(
        self,
        family: str,
        graph_types: type | tuple[type, ...] | None,
        factory: Callable[..., Mechanism],
        *,
        when: Callable[[Policy], bool] | None = None,
        name: str | None = None,
        front: bool = False,
    ) -> None:
        """Add a dispatch rule; ``front=True`` gives it priority."""
        if isinstance(graph_types, type):
            graph_types = (graph_types,)
        rule = _Rule(
            family=family,
            graph_types=graph_types,
            when=when,
            factory=factory,
            name=name or getattr(factory, "__name__", repr(factory)),
        )
        with self._lock:
            # copy-on-write so concurrent readers iterate a stable snapshot
            rules = list(self._rules)
            rules.insert(0, rule) if front else rules.append(rule)
            self._rules = rules
            self._fingerprint = None  # rule table changed; re-derive on demand

    def fingerprint(self) -> str:
        """Stable digest of the rule table (order, names, types, factories).

        Part of the cross-tenant plan-cache key: a compiled plan's strategy
        choices are only valid under the rule table that scored them, so
        pools built over different registries never serve each other's
        plans, and ``register()``-ing a rule into a live registry keys the
        old entries out automatically.  Memoized between ``register()``
        calls — the plan-cache probe pays for it on every request.
        """
        with self._lock:
            if self._fingerprint is None:
                h = hashlib.sha256()
                for r in self._rules:
                    types = ",".join(t.__name__ for t in r.graph_types) if r.graph_types else "*"
                    parts = (r.family, r.name, types, _callable_token(r.factory),
                             "" if r.when is None else _callable_token(r.when))
                    h.update("|".join(parts).encode("utf-8"))
                    h.update(b"\x00")
                self._fingerprint = h.hexdigest()[:16]
            return self._fingerprint

    def resolve(
        self,
        family: str,
        policy: Policy,
        epsilon: float,
        *,
        strategy: str | None = None,
        **options,
    ) -> Mechanism:
        """Instantiate the first matching rule's mechanism.

        ``strategy`` pins a rule by name instead of taking the first match —
        how the planner (:mod:`repro.plan`) runs a candidate that is *not*
        the family's default under this policy graph.
        """
        rule = self._find(family, policy, strategy)
        return rule.factory(policy, epsilon, **options)

    def rule_name(self, family: str, policy: Policy) -> str:
        """Which strategy would serve (family, policy) — for introspection."""
        return self._find(family, policy).name

    def candidates(self, family: str, policy: Policy) -> tuple[str, ...]:
        """Every strategy name able to serve ``(family, policy)``.

        Ordered default-first (registration order, deduplicated by name), so
        a cost-driven chooser that breaks ties on position preserves the
        fixed dispatch's behaviour when scores are equal.
        """
        names: list[str] = []
        for rule in self._rules:
            if rule.matches(family, policy) and rule.name not in names:
                names.append(rule.name)
        return tuple(names)

    def _find(self, family: str, policy: Policy, strategy: str | None = None) -> _Rule:
        for rule in self._rules:
            if rule.matches(family, policy) and (strategy is None or rule.name == strategy):
                return rule
        wanted = f" with strategy {strategy!r}" if strategy else ""
        raise LookupError(
            f"no mechanism registered for family {family!r} and "
            f"{type(policy.graph).__name__}{wanted}"
        )

    def families(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(r.family for r in self._rules))

    def __repr__(self) -> str:
        return f"MechanismRegistry({len(self._rules)} rules)"


# -- built-in factories ---------------------------------------------------------


def ordered(policy, epsilon, *, consistent=True, **_):
    return OrderedMechanism(policy, epsilon, consistent=consistent)


def ordered_hierarchical(
    policy, epsilon, *, fanout=16, budget_split="optimal", consistent=True, **_
):
    return OrderedHierarchicalMechanism(
        policy, epsilon, fanout=fanout, budget_split=budget_split, consistent=consistent
    )


def hierarchical(policy, epsilon, *, fanout=16, consistent=True, budget="uniform", **_):
    return HierarchicalMechanism(
        policy, epsilon, fanout=fanout, consistent=consistent, budget=budget
    )


def laplace_histogram(policy, epsilon, *, sensitivity=None, **_):
    query = HistogramQuery(policy.domain)
    return LaplaceMechanism(policy, epsilon, query, sensitivity=sensitivity)


def constrained_histogram(policy, epsilon, *, sensitivity=None, **_):
    return ConstrainedHistogramMechanism(policy, epsilon, sensitivity=sensitivity)


def stream_interval(policy, epsilon, *, consistent=True, **_):
    """One dyadic node of the hierarchical interval counter.

    The counter itself (which intervals to release when, amortized
    charging) lives in :mod:`repro.stream.mechanisms`; each node is an
    ordered release of that interval's arrivals, which is also the right
    one-shot fallback when the engine is asked to release this strategy
    directly against a snapshot.
    """
    return OrderedMechanism(policy, epsilon, consistent=consistent)


def stream_window(policy, epsilon, *, consistent=True, **_):
    """One sliding-window re-release (ordered over the window's arrivals)."""
    return OrderedMechanism(policy, epsilon, consistent=consistent)


def default_registry() -> MechanismRegistry:
    """The paper's dispatch table (fresh instance, safe to extend)."""
    reg = MechanismRegistry()
    # range family: strategy follows the secret graph.  LineGraph must come
    # before its base class DistanceThresholdGraph.
    reg.register("range", (LineGraph, EdgelessGraph), ordered, name="ordered")
    reg.register(
        "range", DistanceThresholdGraph, ordered_hierarchical, name="ordered-hierarchical"
    )
    reg.register("range", None, hierarchical, name="hierarchical")
    # histogram family: Laplace under I_n, graph-aware calibration under Q
    reg.register(
        "histogram",
        None,
        laplace_histogram,
        when=lambda p: p.unconstrained,
        name="laplace-histogram",
    )
    reg.register("histogram", None, constrained_histogram, name="constrained-histogram")
    # planner-only candidate: registered last so it never wins the
    # first-match dispatch above, but candidates() exposes it to the
    # cost-driven planner — the ordered mechanism (sensitivity theta) beats
    # the OH hybrid under G^{d,theta} once theta is small enough that
    # 4 theta^2 undercuts the Eqn (14) tree error.
    reg.register("range", DistanceThresholdGraph, ordered, name="ordered")
    # continual-release candidates: trailing, so never the fixed dispatch;
    # the planner offers them only when it is given a stream tick to plan
    reg.register("range", None, stream_interval, name="hierarchical-interval")
    reg.register("range", None, stream_window, name="sliding-window")
    return reg
