"""Composition of Blowfish-private computations (paper Section 4.1).

* **Sequential composition** (Theorem 4.1): epsilons add across mechanisms
  run on the same data under the same policy.
* **Parallel composition with cardinality constraint** (Theorem 4.2): for
  unconstrained policies, mechanisms run on disjoint sets of individuals
  cost ``max_i eps_i``.
* **Parallel composition with general constraints** (Theorem 4.3): also
  needs the constraints to decompose into disjoint subsets, each *affecting*
  only its own group — where a constraint ``q`` affects a group iff some
  secret pair critical to ``q`` (``crit(q)``) pertains to an id in the
  group.

For count-query constraints, ``crit(q)`` has a crisp characterization used
throughout Section 8: a secret pair ``(x, y)`` is critical to ``q_phi`` iff
changing a tuple from ``x`` to ``y`` changes the count, i.e. the pair lifts
or lowers ``q_phi`` (Definition 8.1).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from threading import Lock

import numpy as np

from .. import obs
from .graphs import (
    CODE_PAIR_BUDGET,
    EDGE_SCAN_LIMIT,
    DiscriminativeGraph,
    EdgeScanRefused,
    FullDomainGraph,
    PartitionGraph,
)
from .policy import Policy
from .queries import CountQuery

__all__ = [
    "critical_edges",
    "constraint_is_critical",
    "sequential_epsilon",
    "parallel_epsilon",
    "supports_parallel_composition",
    "BudgetExceededError",
    "BUDGET_SLACK",
    "LedgerEntry",
    "LedgerStore",
    "InMemoryLedgerStore",
    "PrivacyAccountant",
]

#: Absolute tolerance on budget comparisons: a spend is refused only when it
#: exceeds the budget by more than this.  Shared by every ledger store so
#: "exactly at the cap" admits identically in memory and in SQLite.
BUDGET_SLACK = 1e-12


class BudgetExceededError(RuntimeError):
    """A spend was refused because it would exceed the session's budget.

    Subclasses :class:`RuntimeError` for compatibility with callers that
    matched the old generic error, but carries the refused spend so serving
    layers can report budget exhaustion structurally (``error.kind``)
    instead of pattern-matching message strings — and so genuine internal
    ``RuntimeError`` s are never mistaken for a client running dry.
    """

    def __init__(self, epsilon: float, total: float, budget: float):
        self.epsilon = float(epsilon)
        self.total = float(total)
        self.budget = float(budget)
        super().__init__(
            f"budget exhausted: spending {epsilon} would bring the total to "
            f"{total:.6g} > {budget}"
        )


def _check_pair_budget(n_pairs: float, graph: DiscriminativeGraph | None = None) -> None:
    if n_pairs > EDGE_SCAN_LIMIT:
        raise EdgeScanRefused(
            f"critical-edge extraction would materialize ~{n_pairs:.3g} pairs "
            f"(limit {EDGE_SCAN_LIMIT}); use constraint_is_critical() for a "
            "yes/no answer on dense graphs",
            code=CODE_PAIR_BUDGET,
            family=None if graph is None else type(graph).__name__,
            domain_size=None if graph is None else graph.domain.size,
            bound=float(n_pairs),
            limit=EDGE_SCAN_LIMIT,
            fingerprint=None if graph is None else graph.fingerprint(),
        )


def critical_edges(query: CountQuery, graph: DiscriminativeGraph) -> frozenset:
    """``crit(q)`` restricted to graph edges: the discriminative value pairs
    whose change alters ``q``'s answer.

    Materializes the actual pair set, so it refuses (with a
    :class:`ValueError`, not a hang) graphs whose crossing-pair count
    exceeds the edge-scan limit; :func:`constraint_is_critical` answers the
    emptiness question alone and scales much further.
    """
    mask = np.asarray(query.mask, dtype=bool)
    if not mask.any() or mask.all():
        return frozenset()
    if isinstance(graph, FullDomainGraph):
        ins = np.flatnonzero(mask)
        outs = np.flatnonzero(~mask)
        _check_pair_budget(float(ins.size) * outs.size, graph)
        return frozenset(
            (int(min(i, j)), int(max(i, j))) for i in ins for j in outs
        )
    if isinstance(graph, PartitionGraph):
        out: set[tuple[int, int]] = set()
        total = 0.0
        for b in range(graph.partition.n_blocks):
            members = graph.partition.block_members(b)
            ins = members[mask[members]]
            outs = members[~mask[members]]
            total += float(ins.size) * outs.size
            _check_pair_budget(total, graph)
            out.update(
                (int(min(i, j)), int(max(i, j))) for i in ins for j in outs
            )
        return frozenset(out)
    _check_pair_budget(graph.edges_upper_bound(), graph)
    return frozenset((i, j) for i, j in graph.edges() if mask[i] != mask[j])


def constraint_is_critical(query: CountQuery, graph: DiscriminativeGraph) -> bool:
    """Whether ``crit(q)`` is non-empty, analytically where possible.

    ``crit(q) = 0`` is the paper's Section 4.1 example: count constraints
    aligned with the graph's connected components cost nothing in parallel
    composition.  Graphs too dense for an exact answer are treated as
    critical — the conservative direction, since a critical constraint only
    ever *blocks* parallel composition.
    """
    try:
        return graph.crosses_mask(query.mask)
    except EdgeScanRefused:
        return True


def sequential_epsilon(epsilons: Sequence[float]) -> float:
    """Total budget of a sequence of Blowfish mechanisms (Theorem 4.1)."""
    if any(e < 0 for e in epsilons):
        raise ValueError("epsilons must be non-negative")
    return float(sum(epsilons))


def supports_parallel_composition(
    policy: Policy,
    id_groups: Sequence[Sequence[int]],
    constraint_groups: Sequence[Sequence[CountQuery]] | None = None,
) -> bool:
    """Check the hypotheses of Theorems 4.2/4.3 for mechanisms run on
    ``D ∩ S_1, ..., D ∩ S_p``.

    * id groups must be pairwise disjoint;
    * unconstrained policies then compose in parallel unconditionally
      (Theorem 4.2);
    * constrained policies additionally need the constraints to split into
      per-group subsets such that every constraint with a non-empty
      ``crit(q)`` is assigned to the *single* group it affects.  Because
      this library follows the paper in using uniform secrets (the same
      discriminative pairs for every individual), a constraint with
      non-empty ``crit(q)`` affects every non-empty group, so the check
      passes only when each such constraint's group is the sole non-empty
      one — in practice, when every constraint has ``crit(q) = 0``
      (the Section 4.1 closing example).
    """
    seen: set[int] = set()
    for group in id_groups:
        for i in group:
            if i in seen:
                return False
            seen.add(i)
    if policy.unconstrained:
        return True
    queries = [c.query for c in policy.constraints]
    if constraint_groups is None:
        # no assignment offered: valid iff no constraint is critical
        return not any(constraint_is_critical(q, policy.graph) for q in queries)
    assigned: list[CountQuery] = [q for grp in constraint_groups for q in grp]
    if len(assigned) != len(queries) or {id(q) for q in assigned} != {id(q) for q in queries}:
        return False
    nonempty = [bool(len(g)) for g in id_groups]
    for gi, grp in enumerate(constraint_groups):
        for q in grp:
            if not constraint_is_critical(q, policy.graph):
                continue
            # q affects every non-empty group (uniform secrets); it may only
            # affect its own
            others = [ne for gj, ne in enumerate(nonempty) if gj != gi]
            if any(others):
                return False
    return True


def parallel_epsilon(
    policy: Policy,
    epsilons: Sequence[float],
    id_groups: Sequence[Sequence[int]],
    constraint_groups: Sequence[Sequence[CountQuery]] | None = None,
) -> float:
    """Budget of mechanisms on disjoint id groups: ``max_i eps_i``.

    Raises when the Theorem 4.2/4.3 hypotheses don't hold (the paper's
    male/female marginal example shows parallel composition genuinely fails
    there).
    """
    if len(epsilons) != len(id_groups):
        raise ValueError("one epsilon per id group required")
    if not supports_parallel_composition(policy, id_groups, constraint_groups):
        raise ValueError(
            "parallel composition hypotheses not met for this policy/grouping"
        )
    return float(max(epsilons, default=0.0))


@dataclass(frozen=True)
class LedgerEntry:
    """One recorded spend in a budget ledger.

    The unit every :class:`LedgerStore` implementation stores and returns:
    a label (the release key, for session bookkeeping), the epsilon
    charged, and the optional id scope used by parallel-composition
    accounting.
    """

    label: str
    epsilon: float
    ids: frozenset[int] | None = None


class LedgerStore:
    """What a budget ledger must do: atomic compare-and-spend per key.

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
    """In-process ledger: every accountant's default store.

    An accountant built without a ``store`` gets a private instance; a
    service passes one shared instance to every session, keyed by session
    identity.  The compare-and-spend is atomic under the store's lock, so
    it never relies on the caller serializing spends.
    """

    def __init__(self):
        self._lock = Lock()
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
        with self._lock:
            entries = self._entries.setdefault(key, [])
            new_total = sum(e.epsilon for e in entries) + epsilon
            if budget is not None and new_total > budget + BUDGET_SLACK:
                reg.counter("ledger_charge_denials_total", backend="memory").inc()
                raise BudgetExceededError(epsilon, new_total, budget)
            entries.append(LedgerEntry(label, epsilon, ids))
            return new_total

    def total(self, key: str) -> float:
        with self._lock:
            return float(sum(e.epsilon for e in self._entries.get(key, ())))

    def entries(self, key: str) -> list[LedgerEntry]:
        with self._lock:
            return list(self._entries.get(key, ()))

    def keys(self) -> list[str]:
        with self._lock:
            return [k for k, entries in self._entries.items() if entries]

    def clear(self, key: str | None = None) -> None:
        with self._lock:
            if key is None:
                self._entries.clear()
            else:
                self._entries.pop(key, None)

    def __repr__(self) -> str:
        return f"InMemoryLedgerStore(keys={len(self.keys())})"


class PrivacyAccountant:
    """Tracks the cumulative Blowfish budget of a release session.

    Mechanisms call :meth:`spend` (optionally scoping the spend to a set of
    individual ids); :meth:`total` applies sequential composition across
    scopes and parallel composition within groups of disjoint-scope spends
    when the policy allows it.

    Spent state lives behind a *ledger store* rather than in the accountant
    itself.  By default that store is a private
    :class:`InMemoryLedgerStore`; passing ``store``/``key`` instead binds
    the accountant to a shared ledger — in-memory across threads, or
    SQLite across worker processes (:mod:`repro.api.ledger`) — so every
    accountant bound to the same key charges against one budget truth,
    with the compare-and-spend as atomic as the store makes it.
    """

    def __init__(
        self,
        policy: Policy,
        budget: float | None = None,
        *,
        store=None,
        key: str = "session",
    ):
        if budget is not None and budget <= 0:
            raise ValueError("budget must be positive")
        self.policy = policy
        self.budget = budget
        self.store = store if store is not None else InMemoryLedgerStore()
        self.key = str(key)

    def spend(self, epsilon: float, label: str = "", ids: Sequence[int] | None = None) -> None:
        """Record a mechanism run costing ``epsilon`` (on ``ids`` if given)."""
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        self.store.charge(
            self.key,
            float(epsilon),
            label=label,
            budget=self.budget,
            ids=frozenset(ids) if ids is not None else None,
        )

    def sequential_total(self) -> float:
        """Worst-case total: plain sequential composition (Theorem 4.1)."""
        return sequential_epsilon([e.epsilon for e in self.store.entries(self.key)])

    def parallel_aware_total(self) -> float:
        """Total with parallel composition applied to disjoint-scope spends.

        Spends with ``ids = None`` touch everyone and always add.  Scoped
        spends whose id sets are pairwise disjoint cost their max, provided
        the policy supports parallel composition (unconstrained, or all
        constraints non-critical).
        """
        entries = self.store.entries(self.key)
        global_spend = sum(e.epsilon for e in entries if e.ids is None)
        scoped = [e for e in entries if e.ids is not None]
        if not scoped:
            return global_spend
        groups = [list(e.ids) for e in scoped]
        if supports_parallel_composition(self.policy, groups):
            return global_spend + max(e.epsilon for e in scoped)
        return global_spend + sum(e.epsilon for e in scoped)

    def remaining(self) -> float:
        if self.budget is None:
            raise ValueError("no budget was set")
        return self.budget - self.sequential_total()

    @property
    def spends(self) -> list[tuple[str, float]]:
        return [(e.label, e.epsilon) for e in self.store.entries(self.key)]

    def __repr__(self) -> str:
        entries = self.store.entries(self.key)
        return (
            f"PrivacyAccountant(spent={sum(e.epsilon for e in entries):.4g}, "
            f"budget={self.budget}, entries={len(entries)})"
        )
