"""The policy graph ``G_P`` and the Theorem 8.2 sensitivity bound.

Definition 8.3: for a policy ``P = (T, G, I_Q)`` with sparse count-query
knowledge ``Q``, build a directed graph on ``Q ∪ {v+, v-}``:

* ``(q, q')``  iff some secret pair lifts ``q'`` and lowers ``q``;
* ``(v+, q)``  iff some secret pair lifts ``q`` and lowers nothing;
* ``(q, v-)``  iff some secret pair lowers ``q`` and lifts nothing;
* ``(v+, v-)`` always.

Theorem 8.2: ``S(h, P) <= 2 max{alpha(G_P), xi(G_P)}`` where ``alpha`` is
the length of the longest simple (directed) cycle and ``xi`` the length of
the longest simple ``v+ -> v-`` path; the bound is tight in all of the
paper's applications (Sections 8.2.1-8.2.3) and the worked Example 8.3.

Computing ``alpha``/``xi`` exactly is itself hard in general (the paper
notes this), so we provide exact search with explicit work caps plus the
closed-form fast path for complete sub-digraphs (which covers marginal
constraints); larger instances should use the analytic theorems in
:mod:`repro.constraints.applications`.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from ..core.graphs import (
    CODE_SEARCH_CAP,
    DiscriminativeGraph,
    EdgeScanRefused,
    FullDomainGraph,
)
from ..core.queries import CountQuery
from .count import MAX_EDGE_SCAN, is_sparse, support_matrix

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["V_PLUS", "V_MINUS", "PolicyGraph"]

V_PLUS = "v+"
V_MINUS = "v-"

# Exact alpha/xi search explores at most this many DFS states before raising.
MAX_SEARCH_STEPS = 2_000_000


class PolicyGraph:
    """``G_P = (V_P, E_P)`` for a sparse count-query constraint set.

    Parameters
    ----------
    graph:
        The discriminative secret graph ``G``.
    queries:
        The count queries of ``Q`` (answers are irrelevant to sensitivity).
    check_sparsity:
        Verify Definition 8.2 up front (default); the construction is only
        meaningful for sparse ``Q``.
    """

    def __init__(
        self,
        graph: DiscriminativeGraph,
        queries: Sequence[CountQuery],
        check_sparsity: bool = True,
    ):
        if not queries:
            raise ValueError("a policy graph needs at least one count query")
        if check_sparsity and not is_sparse(queries, graph):
            raise ValueError(
                "Q is not sparse w.r.t. G (Definition 8.2); the policy graph "
                "bound does not apply"
            )
        self.graph = graph
        self.queries = list(queries)
        self._g = self._build()

    # -- construction ---------------------------------------------------------------
    def _build(self) -> nx.DiGraph:
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(len(self.queries)))
        g.add_node(V_PLUS)
        g.add_node(V_MINUS)
        g.add_edge(V_PLUS, V_MINUS)
        if isinstance(self.graph, FullDomainGraph):
            self._add_edges_full_domain(g)
        else:
            self._add_edges_by_scan(g)
        return g

    def _add_edges_full_domain(self, g: nx.DiGraph) -> None:
        """Support-set algebra: with the complete secret graph, a directed
        change from any cell of ``supp(a) \\ supp(b)`` to any cell of
        ``supp(b) \\ supp(a)`` exists whenever both are non-empty."""
        masks = support_matrix(self.queries)
        outside = ~masks.any(axis=0)
        has_outside = bool(outside.any())
        for a in range(len(self.queries)):
            for b in range(len(self.queries)):
                if a == b:
                    continue
                lowers_a = masks[a] & ~masks[b]
                lifts_b = masks[b] & ~masks[a]
                if lowers_a.any() and lifts_b.any():
                    g.add_edge(a, b)
        if has_outside:
            for q in range(len(self.queries)):
                if masks[q].any():
                    g.add_edge(V_PLUS, q)
                    g.add_edge(q, V_MINUS)

    def _add_edges_by_scan(self, g: nx.DiGraph) -> None:
        """Generic path: iterate every directed secret-pair change."""
        masks = support_matrix(self.queries)
        scanned = 0
        for i, j in self.graph.edges():
            scanned += 1
            if scanned > MAX_EDGE_SCAN:
                raise ValueError("too many secret-graph edges to scan")
            for x, y in ((i, j), (j, i)):
                lifted = np.flatnonzero(~masks[:, x] & masks[:, y])
                lowered = np.flatnonzero(masks[:, x] & ~masks[:, y])
                if lifted.size and lowered.size:
                    g.add_edge(int(lowered[0]), int(lifted[0]))
                elif lifted.size:
                    g.add_edge(V_PLUS, int(lifted[0]))
                elif lowered.size:
                    g.add_edge(int(lowered[0]), V_MINUS)

    # -- structure -------------------------------------------------------------------
    def to_networkx(self) -> nx.DiGraph:
        return self._g.copy()

    @property
    def n_queries(self) -> int:
        return len(self.queries)

    def has_edge(self, u, v) -> bool:
        return self._g.has_edge(u, v)

    def _query_subgraph_is_complete(self) -> bool:
        q = self.n_queries
        expected = q * (q - 1)
        actual = sum(
            1
            for u, v in self._g.edges()
            if isinstance(u, int) and isinstance(v, int)
        )
        return actual == expected

    # -- alpha and xi -----------------------------------------------------------------
    def alpha(self) -> int:
        """``alpha(G_P)``: edges in the longest simple directed cycle
        (0 if acyclic).  ``v+``/``v-`` cannot lie on cycles (pure
        source/sink), so the search runs on the query vertices."""
        sub = self._g.subgraph(range(self.n_queries))
        if self._query_subgraph_is_complete():
            # a complete digraph's longest simple cycle visits every vertex
            return self.n_queries if self.n_queries >= 2 else 0
        return _longest_cycle(sub)

    def xi(self) -> int:
        """``xi(G_P)``: edges in the longest simple ``v+ -> v-`` path.

        At least 1 whenever the graph is built (the ``(v+, v-)`` edge)."""
        return _longest_path(self._g, V_PLUS, V_MINUS)

    def sensitivity_bound(self) -> float:
        """Theorem 8.2: ``S(h, P) <= 2 max{alpha, xi}``; tight in the
        paper's applications."""
        return 2.0 * max(self.alpha(), self.xi())

    def corollary_bound(self) -> float:
        """Corollary 8.3 as printed: ``2 max{|Q|, 1}``.

        .. warning:: The printed corollary does not follow from Theorem 8.2
           when some domain value lies outside every query's support: a
           simple ``v+ -> q_1 -> ... -> q_k -> v-`` path has up to
           ``|Q| + 1`` edges, so ``xi`` can reach ``|Q| + 1``.  The exact
           brute-force sensitivity confirms the violation on a concrete
           instance (one query with a 2-cell support on a 4-cell domain has
           ``S(h, P) = 4 > 2``); see
           ``tests/constraints/test_policy_graph.py::TestCorollary83Erratum``.
           Use :meth:`safe_corollary_bound` for a query-count-only bound
           that is always valid.
        """
        return 2.0 * max(self.n_queries, 1)

    def safe_corollary_bound(self) -> float:
        """The corrected query-count-only bound ``2 (|Q| + 1)``.

        Always dominates Theorem 8.2's ``2 max{alpha, xi}`` because a
        simple cycle has at most ``|Q|`` edges and a simple ``v+ -> v-``
        path at most ``|Q| + 1``.
        """
        return 2.0 * (self.n_queries + 1)

    def __repr__(self) -> str:
        return (
            f"PolicyGraph(|Q|={self.n_queries}, edges={self._g.number_of_edges()})"
        )


def _longest_cycle(g: nx.DiGraph) -> int:
    """Exact longest simple cycle by bounded DFS from each vertex."""
    best = 0
    nodes = list(g.nodes())
    steps = 0
    # fix an order; only search cycles whose smallest vertex is the start,
    # which prunes each cycle to a single canonical enumeration
    order = {v: i for i, v in enumerate(nodes)}

    def dfs(start, current, depth, visited):
        nonlocal best, steps
        steps += 1
        if steps > MAX_SEARCH_STEPS:
            # EdgeScanRefused (a ValueError): a client-sized policy must
            # surface as a refusal at serving boundaries, not a crash
            raise EdgeScanRefused(
                "policy graph too large for exact cycle search; use the "
                "analytic results in repro.constraints.applications",
                code=CODE_SEARCH_CAP,
                bound=float(steps),
                limit=float(MAX_SEARCH_STEPS),
            )
        for nxt in g.successors(current):
            if nxt == start:
                best = max(best, depth)
            elif nxt not in visited and order[nxt] > order[start]:
                visited.add(nxt)
                dfs(start, nxt, depth + 1, visited)
                visited.remove(nxt)

    for start in nodes:
        dfs(start, start, 1, {start})
    return best


def _longest_path(g: nx.DiGraph, source, target) -> int:
    """Exact longest simple path (in edges) from source to target."""
    if source not in g or target not in g:
        return 0
    best = 0
    steps = 0

    def dfs(current, depth, visited):
        nonlocal best, steps
        steps += 1
        if steps > MAX_SEARCH_STEPS:
            raise EdgeScanRefused(
                "policy graph too large for exact path search; use the "
                "analytic results in repro.constraints.applications",
                code=CODE_SEARCH_CAP,
                bound=float(steps),
                limit=float(MAX_SEARCH_STEPS),
            )
        for nxt in g.successors(current):
            if nxt == target:
                best = max(best, depth + 1)
            elif nxt not in visited and nxt != source:
                visited.add(nxt)
                dfs(nxt, depth + 1, visited)
                visited.remove(nxt)

    dfs(source, 0, {source})
    return best
