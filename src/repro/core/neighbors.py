"""Neighboring databases under a policy (paper Definition 4.1).

Two code paths:

* **Unconstrained policies** (``I_Q = I_n``): neighbors are exactly the
  pairs differing in one tuple across a graph edge.  This is analytic and
  scales to any domain.
* **Constrained policies**: Definition 4.1's minimality conditions require
  quantifying over ``I_Q``, so this module provides an *exact brute-force*
  implementation over an explicitly enumerated universe.  It is deliberately
  exponential — its job is to validate the paper's theorems (8.2, 8.4-8.6)
  on small domains, not to run at scale (the scalable path is the policy
  graph of :mod:`repro.constraints.policy_graph`).

Notation used below mirrors the paper:

* ``T(D1, D2)`` — the set of discriminative pairs on which the two
  databases differ: ``{(i, {x, y}) : D1[i]=x, D2[i]=y, (x,y) in E}``;
* ``Delta(D1, D2)`` — the symmetric difference of the databases viewed as
  sets of (id, value) pairs.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator

import numpy as np

from .database import Database
from .domain import Domain
from .policy import Policy

__all__ = [
    "discriminative_pairs",
    "tuple_delta",
    "change_set",
    "unconstrained_neighbors",
    "are_neighbors_unconstrained",
    "enumerate_databases",
    "are_neighbors",
    "neighbor_pairs",
]

# Hard cap on |domain|^n for exhaustive enumeration.
MAX_UNIVERSE = 2_000_000


def discriminative_pairs(policy: Policy, d1: Database, d2: Database) -> frozenset:
    """``T(D1, D2)``: discriminative pairs on which the databases differ.

    Each element is ``(i, x, y)`` with ``x < y`` (the pair is unordered in
    the paper; we canonicalize by index order).
    """
    if d1.n != d2.n:
        raise ValueError("databases must have the same cardinality")
    graph = policy.graph
    out = []
    diff = np.flatnonzero(d1.indices != d2.indices)
    for i in diff:
        x, y = int(d1.indices[i]), int(d2.indices[i])
        if graph.has_edge(x, y):
            out.append((int(i), min(x, y), max(x, y)))
    return frozenset(out)


def tuple_delta(d1: Database, d2: Database) -> frozenset:
    """``Delta(D1, D2) = D1 \\ D2  u  D2 \\ D1`` as a set of (id, value) pairs."""
    diff = np.flatnonzero(d1.indices != d2.indices)
    out = set()
    for i in diff:
        out.add((int(i), int(d1.indices[i])))
        out.add((int(i), int(d2.indices[i])))
    return frozenset(out)


def change_set(d1: Database, d2: Database) -> frozenset:
    """The moves turning ``D1`` into ``D2``: ``{(i, D2[i]) : D1[i] != D2[i]}``."""
    diff = np.flatnonzero(d1.indices != d2.indices)
    return frozenset((int(i), int(d2.indices[i])) for i in diff)


# ---------------------------------------------------------------------------
# Unconstrained path
# ---------------------------------------------------------------------------

def are_neighbors_unconstrained(policy: Policy, d1: Database, d2: Database) -> bool:
    """Neighbor test for ``P = (T, G, I_n)``.

    With no constraints, Definition 4.1 reduces to: the databases differ in
    exactly one tuple, and the two values form an edge of ``G``.
    """
    diff = np.flatnonzero(d1.indices != d2.indices)
    if diff.size != 1:
        return False
    i = int(diff[0])
    return policy.graph.has_edge(int(d1.indices[i]), int(d2.indices[i]))


def unconstrained_neighbors(policy: Policy, db: Database) -> Iterator[Database]:
    """All neighbors of ``db`` under an unconstrained policy.

    Yields one database per (individual, edge) combination.  Cost is
    ``n * max_degree``; use only where the graph's neighborhoods are
    enumerable.
    """
    if not policy.unconstrained:
        raise ValueError("use neighbor_pairs() for constrained policies")
    for i in range(db.n):
        x = db[i]
        for y in policy.graph.neighbors_of(x):
            yield db.replace(i, int(y))


# ---------------------------------------------------------------------------
# Constrained path (exact, exponential — validation only)
# ---------------------------------------------------------------------------

def enumerate_databases(
    domain: Domain,
    n: int,
    policy: Policy | None = None,
) -> Iterator[Database]:
    """Every database in ``I_n`` (or ``I_Q`` when a policy with constraints
    is given), in lexicographic order of index vectors.

    Raises if ``|T|^n`` exceeds :data:`MAX_UNIVERSE`.
    """
    total = domain.size**n
    if total > MAX_UNIVERSE:
        raise ValueError(
            f"universe of {total} databases is too large to enumerate "
            f"(limit {MAX_UNIVERSE})"
        )
    for combo in itertools.product(range(domain.size), repeat=n):
        db = Database.from_indices(domain, combo)
        if policy is None or policy.admits(db):
            yield db


def are_neighbors(
    policy: Policy,
    d1: Database,
    d2: Database,
    universe: Iterable[Database] | None = None,
) -> bool:
    """Exact Definition 4.1 neighbor test.

    Conditions:

    1. both databases satisfy ``Q``;
    2. ``T(D1, D2)`` is non-empty;
    3. the transition is *not decomposable*: no ``D3 |- Q`` applies a
       non-empty proper subset of ``D1 -> D2``'s moves
       (``change_set(D1, D3)`` strictly inside ``change_set(D1, D2)``).

    On interpreting condition 3.  The paper phrases 3(a) as ``T(D1, D3)``
    being a proper subset of ``T(D1, D2)`` and 3(b) as equal ``T`` with a
    smaller symmetric difference ``Delta``.  Its proofs (Theorem 8.2
    Direction I, and the tightness constructions of Theorems 8.4-8.6)
    always exhibit the blocking ``D3`` by applying a *sub-multiset of the
    same moves* — a sub-cycle or sub-path of the changes taking ``D1`` to
    ``D2``.  Reading 3(a) as "any database whose discriminative-pair set is
    a subset" would let a ``D3`` that moves a tuple to a *different* value
    disqualify the paper's own worked neighbor pairs (e.g. the Theorem 8.5
    equality example), so this implementation uses the sub-move reading,
    which (i) reproduces every worked example and theorem in Section 8 and
    (ii) exactly subsumes 3(b): with ``T`` equal, ``Delta``-minimality and
    change-set-minimality coincide.

    ``universe`` is the materialized ``I_Q`` used to search for ``D3``; when
    omitted it is enumerated from scratch (small domains only).  For
    unconstrained policies the analytic rule is used instead.
    """
    if policy.unconstrained:
        return are_neighbors_unconstrained(policy, d1, d2)
    if not (policy.admits(d1) and policy.admits(d2)):
        return False
    if not discriminative_pairs(policy, d1, d2):
        return False
    c12 = change_set(d1, d2)
    if universe is None:
        universe = enumerate_databases(d1.domain, d1.n, policy)
    for d3 in universe:
        c13 = change_set(d1, d3)
        if c13 and c13 < c12:
            return False
    return True


def neighbor_pairs(
    policy: Policy,
    n: int,
    universe: list[Database] | None = None,
) -> list[tuple[Database, Database]]:
    """All ordered neighbor pairs ``(D1, D2) in N(P)`` over databases of
    cardinality ``n``.  Exact and exponential; validation only."""
    if universe is None:
        universe = list(enumerate_databases(policy.domain, n, policy))
    out = []
    if policy.unconstrained:
        for d1 in universe:
            for d2 in unconstrained_neighbors(policy, d1):
                out.append((d1, d2))
        return out
    # are_neighbors for every ordered pair, with its per-pair work hoisted:
    # admits once per database and the change sets once per d1 (the d3
    # search is still cubic — the price of exactness)
    admitted = [policy.admits(d) for d in universe]
    for d1, ok1 in zip(universe, admitted):
        if not ok1:
            continue
        row = [change_set(d1, d3) for d3 in universe]
        moves = [c13 for c13 in row if c13]
        for d2, ok2, c12 in zip(universe, admitted, row):
            if not ok2 or not c12 or not discriminative_pairs(policy, d1, d2):
                continue
            if not any(c13 < c12 for c13 in moves):
                out.append((d1, d2))
    return out
