"""Discriminative secret graphs (paper Section 3.1).

A policy's sensitive information is a graph ``G = (V, E)`` with ``V = T``:
an edge ``(x, y)`` means the adversary must not distinguish whether any
individual's tuple is ``x`` or ``y``.  The paper's concrete families, all
implemented here:

* :class:`FullDomainGraph`   -- complete graph ``K`` (=> differential privacy);
* :class:`AttributeGraph`    -- ``G^attr``: edge iff exactly one attribute differs;
* :class:`PartitionGraph`    -- ``G^P``: union of cliques, one per block;
* :class:`DistanceThresholdGraph` -- ``G^{d,theta}``: edge iff ``d(x,y) <= theta``;
* :class:`LineGraph`         -- ``G^{d,1}`` on an ordered domain (Section 7.1);
* :class:`ExplicitGraph`     -- arbitrary networkx-backed graph (tests, Section 8).

Graphs over large domains are *implicit*: edges are never materialized, and
each class answers the handful of structural questions the sensitivity
calculators need (``max_edge_l1``, ``max_edge_index_gap``, hop distances)
analytically.
"""

from __future__ import annotations

import functools
import hashlib
import math
from abc import ABC, abstractmethod
from collections.abc import Iterator
from typing import TYPE_CHECKING

import numpy as np

from .domain import Domain
from .queries import Partition, _int_array
from .specbase import SPEC_VERSION, SpecError, check_version, spec_get

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "DiscriminativeGraph",
    "FullDomainGraph",
    "AttributeGraph",
    "PartitionGraph",
    "DistanceThresholdGraph",
    "LineGraph",
    "EdgelessGraph",
    "ExplicitGraph",
    "EDGE_SCAN_LIMIT",
    "EdgeScanRefused",
    "CODE_EDGE_SCAN",
    "CODE_PAIR_BUDGET",
    "CODE_SEARCH_CAP",
]

_INF = float("inf")

# Edge scans beyond this many (potential) edges are refused: callers that can
# live with a conservative answer catch EdgeScanRefused, everything else gets
# an actionable error instead of an O(|T|^2) hang.
EDGE_SCAN_LIMIT = 5_000_000


class EdgeScanRefused(ValueError):
    """An exact edge enumeration was refused because the graph is too dense.

    Distinct from plain :class:`ValueError` so that callers substituting a
    conservative answer (sensitivity calculators, composition checks) do not
    accidentally swallow genuine validation errors such as a mask shape
    mismatch.

    Instances carry structured context so that runtime refusals and the
    static analyzer (:mod:`repro.check`) speak one vocabulary: ``code`` is
    the shared diagnostic code (:data:`CODE_EDGE_SCAN` for mask-crossing
    scans, :data:`CODE_PAIR_BUDGET` for critical-pair extraction,
    :data:`CODE_SEARCH_CAP` for policy-graph searches), ``family`` and
    ``domain_size`` name the offending graph, ``bound`` is the analytic
    quantity that tripped and ``limit`` the cap it exceeded.
    ``fingerprint`` identifies the graph/policy when the raise site had one.
    """

    def __init__(
        self,
        message: str,
        *,
        code: str = "POL201",
        family: str | None = None,
        domain_size: int | None = None,
        bound: float | None = None,
        limit: float | None = None,
        fingerprint: str | None = None,
    ):
        super().__init__(message)
        self.code = code
        self.family = family
        self.domain_size = domain_size
        self.bound = bound
        self.limit = limit
        self.fingerprint = fingerprint

    def details(self) -> dict:
        """The non-None structured fields, for error payloads and reports."""
        out: dict = {"code": self.code}
        for key in ("family", "domain_size", "bound", "limit", "fingerprint"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


#: Diagnostic codes shared between runtime :class:`EdgeScanRefused` raises
#: and the :mod:`repro.check` rules that predict them statically.  Defined
#: here (not in ``repro.check``) because the core may not import upward.
CODE_EDGE_SCAN = "POL201"
CODE_PAIR_BUDGET = "POL202"
CODE_SEARCH_CAP = "POL203"


def _memoized(method):
    """Cache a no-argument structural property on the graph instance.

    Quantities like ``max_edge_index_gap`` cost an O(|T|) scan on implicit
    graphs; mechanisms and the :mod:`repro.engine` cache layer re-read them
    on every construction, so they are computed once per graph object.
    """
    name = method.__name__

    @functools.wraps(method)
    def wrapper(self):
        memo = self._memo
        if name not in memo:
            memo[name] = method(self)
        return memo[name]

    return wrapper


class DiscriminativeGraph(ABC):
    """Common interface for discriminative secret graphs."""

    def __init__(self, domain: Domain):
        self.domain = domain
        self._memo: dict[str, object] = {}

    # -- identity -----------------------------------------------------------------
    @_memoized
    def fingerprint(self) -> str:
        """Stable digest of (graph class, domain, structural parameters).

        Two graphs with equal fingerprints induce identical neighbor
        relations, so any policy-specific sensitivity computed against one
        is valid for the other — the key property the
        :class:`repro.engine.SensitivityCache` relies on.
        """
        h = hashlib.sha256()
        h.update(type(self).__name__.encode("ascii"))
        h.update(b"\x00")
        h.update(self.domain.fingerprint().encode("ascii"))
        for part in self._fingerprint_parts():
            h.update(b"\x00")
            h.update(part)
        return h.hexdigest()[:16]

    def _fingerprint_parts(self) -> tuple[bytes, ...]:
        """Class-specific bytes mixed into :meth:`fingerprint`."""
        return ()

    # -- specs --------------------------------------------------------------------
    #: ``kind`` tag used in specs (``"graph/<family>"``); set per subclass.
    spec_kind: str = ""

    def to_spec(self) -> dict:
        """Versioned, self-contained plain-dict description of this graph."""
        if not type(self).spec_kind:
            raise SpecError("graph", f"{type(self).__name__} has no spec representation")
        spec = {
            "kind": type(self).spec_kind,
            "version": SPEC_VERSION,
            "domain": self.domain.to_spec(),
        }
        spec.update(self._spec_params())
        return spec

    def _spec_params(self) -> dict:
        """Class-specific fields mixed into :meth:`to_spec`."""
        return {}

    @classmethod
    def from_spec(cls, spec: dict, path: str = "graph") -> "DiscriminativeGraph":
        """Rebuild any graph family from :meth:`to_spec` output (validating)."""
        kind = spec_get(spec, "kind", str, path)
        check_version(spec, path)
        sub = _SPEC_KINDS.get(kind)
        if sub is None:
            known = ", ".join(sorted(_SPEC_KINDS))
            raise SpecError(f"{path}.kind", f"unknown graph kind {kind!r} (known: {known})")
        domain = Domain.from_spec(spec_get(spec, "domain", dict, path), f"{path}.domain")
        try:
            return sub._from_spec_params(spec, domain, path)
        except (ValueError, TypeError) as exc:
            if isinstance(exc, SpecError):
                raise
            raise SpecError(path, str(exc)) from None

    @classmethod
    def _from_spec_params(cls, spec: dict, domain: Domain, path: str) -> "DiscriminativeGraph":
        return cls(domain)

    # -- structure ---------------------------------------------------------------
    @abstractmethod
    def has_edge(self, i: int, j: int) -> bool:
        """Whether ``(x_i, x_j)`` is a discriminative pair."""

    @abstractmethod
    def neighbors_of(self, i: int) -> Iterator[int]:
        """All ``j`` with an edge to ``i`` (may be expensive on huge domains)."""

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges ``(i, j)`` with ``i < j``.  Small domains only."""
        self.domain._check_enumerable("edge enumeration")
        for i in range(self.domain.size):
            for j in self.neighbors_of(i):
                if i < j:
                    yield (i, j)

    def has_any_edge(self) -> bool:
        """Whether the graph has at least one edge."""
        for i in range(min(self.domain.size, 4096)):
            for _ in self.neighbors_of(i):
                return True
        return False

    def edges_upper_bound(self) -> float:
        """Cheap upper bound on the number of edges.

        Used to refuse edge enumerations that cannot finish (sparsity scans,
        critical-edge extraction) before any work is done.  The base bound is
        the complete graph's; implicit families override with exact counts.
        """
        n = self.domain.size
        return n * (n - 1) / 2.0

    def crosses_mask(self, mask: np.ndarray) -> bool:
        """Whether some edge ``(i, j)`` has ``mask[i] != mask[j]``.

        This single predicate underlies count-query sensitivity (Section 5),
        ``crit(q)`` non-emptiness (Definition 8.1) and the Theorem 4.3
        "affects" relation.  Implicit graph families answer it analytically;
        the fallback scans ``edges()`` and raises :class:`EdgeScanRefused`
        when the scan could not finish, letting callers substitute a
        conservative answer instead of hanging on dense graphs.
        """
        mask = self._as_mask(mask)
        if not mask.any() or mask.all():
            return False
        # guard directly (not through the overridable scan_refusal hook):
        # subclasses that override scan_refusal -> None do so because their
        # own crosses_mask is analytic, but anything reaching THIS fallback
        # is doing a real edge scan and must honour the limits
        refusal = self._generic_scan_refusal()
        if refusal is not None:
            raise refusal
        return any(mask[i] != mask[j] for i, j in self.edges())

    def scan_refusal(self) -> EdgeScanRefused | None:
        """The refusal an exact edge scan here would raise, or ``None``.

        Mirrors the guards in the generic :meth:`crosses_mask` fallback
        without touching a single edge, so the static analyzer
        (:mod:`repro.check`) can predict :class:`EdgeScanRefused` from the
        graph family and domain size alone.  Families with closed-form
        crossing rules override this to return ``None`` exactly when their
        analytic path applies.
        """
        return self._generic_scan_refusal()

    def _generic_scan_refusal(self) -> EdgeScanRefused | None:
        bound = self.edges_upper_bound()
        if bound > EDGE_SCAN_LIMIT:
            return EdgeScanRefused(
                f"{type(self).__name__} over {self.domain.size} values has no "
                "analytic mask-crossing rule and too many potential edges "
                f"(> {EDGE_SCAN_LIMIT}) for an exact scan",
                code=CODE_EDGE_SCAN,
                family=type(self).__name__,
                domain_size=self.domain.size,
                bound=bound,
                limit=EDGE_SCAN_LIMIT,
                fingerprint=self.fingerprint(),
            )
        if self.domain.size > self.domain.MAX_ENUMERABLE:
            return EdgeScanRefused(
                f"domain of size {self.domain.size} is too large for a "
                "mask-crossing edge scan",
                code=CODE_EDGE_SCAN,
                family=type(self).__name__,
                domain_size=self.domain.size,
                bound=float(self.domain.size),
                limit=float(self.domain.MAX_ENUMERABLE),
                fingerprint=self.fingerprint(),
            )
        return None

    def _as_mask(self, mask: np.ndarray) -> np.ndarray:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.domain.size,):
            raise ValueError("mask shape must equal the domain size")
        return mask

    # -- metric structure ----------------------------------------------------------
    def graph_distance(self, i: int, j: int) -> float:
        """Hop distance ``d_G(x_i, x_j)``; ``inf`` if disconnected.

        Controls the indistinguishability degradation in Eqn (9):
        ``Pr[M(D1) in S] <= exp(eps * d_G(x, y)) Pr[M(D2) in S]``.

        The default implementation runs BFS over :meth:`neighbors_of`, so
        subclasses with closed forms override it.
        """
        if i == j:
            return 0.0
        self.domain._check_enumerable("BFS graph distance")
        return _bfs_distance(self, i, j)

    @abstractmethod
    def max_edge_l1(self) -> float:
        """Largest L1 distance ``d(x, y)`` across any edge.

        ``q_sum``'s policy-specific sensitivity is twice this (Lemma 6.1).
        """

    def max_edge_index_gap(self) -> int:
        """Largest ``|i - j|`` across any edge of an ordered domain.

        This is the policy-specific sensitivity of the cumulative histogram
        ``S_T`` (Section 7): changing one tuple across an edge perturbs
        exactly that many prefix counts by one.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not define an ordered-domain index gap"
        )

    # -- export ---------------------------------------------------------------------
    def to_networkx(self) -> nx.Graph:
        """Materialize as a networkx graph (small domains only)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.domain.size))
        g.add_edges_from(self.edges())
        return g

    def __repr__(self) -> str:
        return f"{type(self).__name__}(domain={self.domain!r})"


def _bfs_distance(graph: DiscriminativeGraph, src: int, dst: int) -> float:
    frontier = {src}
    seen = {src}
    hops = 0
    while frontier:
        hops += 1
        nxt = set()
        for u in frontier:
            for v in graph.neighbors_of(u):
                if v == dst:
                    return float(hops)
                if v not in seen:
                    seen.add(v)
                    nxt.add(v)
        frontier = nxt
    return _INF


class FullDomainGraph(DiscriminativeGraph):
    """``G^full``: the complete graph.  Blowfish with this graph and no
    constraints is exactly epsilon-differential privacy (Section 4.2)."""

    spec_kind = "graph/full"

    def has_edge(self, i: int, j: int) -> bool:
        return i != j

    def neighbors_of(self, i: int) -> Iterator[int]:
        self.domain._check_enumerable("complete-graph neighbor iteration")
        return (j for j in range(self.domain.size) if j != i)

    def graph_distance(self, i: int, j: int) -> float:
        return 0.0 if i == j else 1.0

    def has_any_edge(self) -> bool:
        return self.domain.size >= 2

    def edges_upper_bound(self) -> float:
        n = self.domain.size
        return n * (n - 1) / 2.0

    def crosses_mask(self, mask: np.ndarray) -> bool:
        # complete graph: any non-constant mask is crossed by some edge
        mask = self._as_mask(mask)
        return bool(mask.any() and not mask.all())

    def scan_refusal(self) -> EdgeScanRefused | None:
        return None  # crosses_mask is closed-form at any size

    def max_edge_l1(self) -> float:
        return self.domain.diameter()

    def max_edge_index_gap(self) -> int:
        self.domain.require_ordered()
        return self.domain.size - 1

    @property
    def is_complete(self) -> bool:
        return True


class AttributeGraph(DiscriminativeGraph):
    """``G^attr``: edge iff the two values differ in exactly one attribute."""

    spec_kind = "graph/attribute"

    def has_edge(self, i: int, j: int) -> bool:
        return i != j and self.domain.hamming_distance(i, j) == 1

    def neighbors_of(self, i: int) -> Iterator[int]:
        ranks = self.domain.ranks_of(i)
        for pos, (attr, radix) in enumerate(
            zip(self.domain.attributes, self.domain._radices)
        ):
            base = i - ranks[pos] * radix
            for r in range(len(attr)):
                if r != ranks[pos]:
                    yield base + r * radix

    def graph_distance(self, i: int, j: int) -> float:
        # one hop per differing attribute
        return float(self.domain.hamming_distance(i, j))

    def has_any_edge(self) -> bool:
        return any(len(a) >= 2 for a in self.domain.attributes)

    def edges_upper_bound(self) -> float:
        # each value has sum_A (|A| - 1) neighbors
        degree = sum(len(a) - 1 for a in self.domain.attributes)
        return self.domain.size * degree / 2.0

    def crosses_mask(self, mask: np.ndarray) -> bool:
        # G^attr is connected (change one attribute at a time), so every
        # non-constant mask has an edge across its boundary
        mask = self._as_mask(mask)
        return bool(mask.any() and not mask.all())

    def scan_refusal(self) -> EdgeScanRefused | None:
        return None  # crosses_mask is closed-form at any size

    def max_edge_l1(self) -> float:
        # an edge changes one attribute arbitrarily: max_A |A| (Lemma 6.1)
        return max(a.span for a in self.domain.attributes)

    def max_edge_index_gap(self) -> int:
        self.domain.require_ordered()
        # 1-D: every pair differs in "one attribute", so G^attr == G^full
        return self.domain.size - 1


class PartitionGraph(DiscriminativeGraph):
    """``G^P``: a clique per partition block; blocks are mutually
    distinguishable (``d_G = inf`` across blocks)."""

    spec_kind = "graph/partition"

    def __init__(self, partition: Partition):
        super().__init__(partition.domain)
        self.partition = partition

    def _fingerprint_parts(self) -> tuple[bytes, ...]:
        return (self.partition.labels.tobytes(),)

    def _spec_params(self) -> dict:
        return {"labels": self.partition.labels.tolist()}

    @classmethod
    def _from_spec_params(cls, spec: dict, domain: Domain, path: str) -> "PartitionGraph":
        labels = _int_array(spec_get(spec, "labels", list, path), f"{path}.labels")
        try:
            return cls(Partition(domain, labels))
        except ValueError as exc:
            raise SpecError(f"{path}.labels", str(exc)) from None

    def has_edge(self, i: int, j: int) -> bool:
        return i != j and self.partition.same_block(i, j)

    def neighbors_of(self, i: int) -> Iterator[int]:
        for j in self.partition.block_members(self.partition.block_of(i)):
            if int(j) != i:
                yield int(j)

    def graph_distance(self, i: int, j: int) -> float:
        if i == j:
            return 0.0
        return 1.0 if self.partition.same_block(i, j) else _INF

    def has_any_edge(self) -> bool:
        return bool(self.partition.block_sizes().max(initial=0) > 1)

    def edges_upper_bound(self) -> float:
        sizes = self.partition.block_sizes().astype(np.float64)
        return float((sizes * (sizes - 1)).sum() / 2.0)

    def crosses_mask(self, mask: np.ndarray) -> bool:
        # a block is crossed iff it holds both a True and a False cell
        mask = self._as_mask(mask)
        labels = self.partition.labels
        nb = self.partition.n_blocks
        n_true = np.bincount(labels[mask], minlength=nb)
        n_all = np.bincount(labels, minlength=nb)
        return bool(np.any((n_true > 0) & (n_true < n_all)))

    def scan_refusal(self) -> EdgeScanRefused | None:
        return None  # per-block bincount works at any size

    @_memoized
    def max_edge_l1(self) -> float:
        return self.partition.max_block_l1_diameter()

    @_memoized
    def max_edge_index_gap(self) -> int:
        self.domain.require_ordered()
        labels = self.partition.labels
        nb = self.partition.n_blocks
        idx = np.arange(self.domain.size, dtype=np.int64)
        lo = np.full(nb, self.domain.size, dtype=np.int64)
        hi = np.full(nb, -1, dtype=np.int64)
        np.minimum.at(lo, labels, idx)
        np.maximum.at(hi, labels, idx)
        return int(np.max(hi - lo, initial=0))

    def __repr__(self) -> str:
        return f"PartitionGraph({self.partition!r})"


class DistanceThresholdGraph(DiscriminativeGraph):
    """``G^{d,theta}``: edge iff ``0 < d(x, y) <= theta`` under the domain's
    L1 metric (Section 3.1, "Distance Threshold").

    Hop distances have a closed form on uniformly spaced numeric domains
    (every hop advances at most ``floor(theta/h) * h`` per the lattice
    argument); other domains fall back to BFS when small enough.
    """

    spec_kind = "graph/distance_threshold"

    def __init__(self, domain: Domain, theta: float):
        if theta <= 0:
            raise ValueError("theta must be positive")
        super().__init__(domain)
        self.theta = float(theta)
        self._spacings = _uniform_spacings(domain)

    def _fingerprint_parts(self) -> tuple[bytes, ...]:
        return (repr(self.theta).encode("ascii"),)

    def _spec_params(self) -> dict:
        return {"theta": self.theta}

    @classmethod
    def _from_spec_params(cls, spec: dict, domain: Domain, path: str) -> "DistanceThresholdGraph":
        theta = spec_get(spec, "theta", (int, float), path)
        try:
            return cls(domain, theta)
        except (ValueError, TypeError) as exc:
            raise SpecError(f"{path}.theta", str(exc)) from None

    def has_edge(self, i: int, j: int) -> bool:
        if i == j:
            return False
        return self.domain.l1_distance(i, j) <= self.theta

    def neighbors_of(self, i: int) -> Iterator[int]:
        if self.domain.is_ordered:
            yield from self._ordered_neighbors(i)
            return
        self.domain._check_enumerable("distance-threshold neighbor scan")
        for j in range(self.domain.size):
            if j != i and self.domain.l1_distance(i, j) <= self.theta:
                yield j

    def _ordered_neighbors(self, i: int) -> Iterator[int]:
        attr = self.domain.attributes[0]
        vi = attr[i]
        j = i - 1
        while j >= 0 and attr.distance(attr[j], vi) <= self.theta:
            yield j
            j -= 1
        j = i + 1
        while j < self.domain.size and attr.distance(attr[j], vi) <= self.theta:
            yield j
            j += 1

    def graph_distance(self, i: int, j: int) -> float:
        if i == j:
            return 0.0
        if self.domain.is_ordered:
            return self._ordered_hops(i, j)
        if self._spacings is not None and len(set(self._spacings)) == 1:
            # uniformly spaced grid with a single spacing h on every axis:
            # each hop covers at most floor(theta/h)*h of L1 distance, and a
            # monotone lattice path achieves it
            h = self._spacings[0]
            step = math.floor(self.theta / h + 1e-12) * h
            if step <= 0:
                return _INF
            return float(math.ceil(self.domain.l1_distance(i, j) / step - 1e-12))
        return super().graph_distance(i, j)

    def has_any_edge(self) -> bool:
        if self.domain.size < 2:
            return False
        if self.domain.is_ordered:
            attr = self.domain.attributes[0]
            if attr.is_numeric:
                return any(
                    attr.distance(attr[i + 1], attr[i]) <= self.theta
                    for i in range(len(attr) - 1)
                )
        if self._spacings is not None:
            # a uniformly spaced grid has an edge iff the smallest axis step
            # fits under theta
            return min(self._spacings) <= self.theta
        return super().has_any_edge()

    def _ordered_hops(self, i: int, j: int) -> float:
        """Greedy hop count on a 1-D numeric domain (exact for interval graphs)."""
        attr = self.domain.attributes[0]
        if not attr.is_numeric:
            raise TypeError("distance-threshold graphs need numeric attributes")
        lo, hi = (i, j) if i < j else (j, i)
        hops = 0
        cur = lo
        while cur < hi:
            # farthest index reachable in one hop
            nxt = cur
            k = cur + 1
            while k <= hi and attr.distance(attr[k], attr[cur]) <= self.theta:
                nxt = k
                k += 1
            if nxt == cur:
                return _INF
            cur = nxt
            hops += 1
        return float(hops)

    def edges_upper_bound(self) -> float:
        n = self.domain.size
        if self.domain.is_ordered and self.domain.attributes[0].is_numeric:
            # every neighborhood is an index interval of width <= max gap
            return float(n) * self.max_edge_index_gap()
        return n * (n - 1) / 2.0

    def crosses_mask(self, mask: np.ndarray) -> bool:
        mask = self._as_mask(mask)
        if not mask.any() or mask.all():
            return False
        if self.domain.is_ordered:
            attr = self.domain.attributes[0]
            if not attr.is_numeric:
                # categorical 1-D: the L1 metric is discrete, so theta >= 1
                # makes the graph complete and theta < 1 edgeless
                return self.theta >= 1.0
            # monotone values: the closest pair straddling a mask transition
            # is the adjacent pair at that transition
            vals = np.asarray(attr.values, dtype=np.float64)
            transitions = mask[1:] != mask[:-1]
            return bool(np.any(transitions & (np.diff(vals) <= self.theta)))
        return super().crosses_mask(mask)

    def scan_refusal(self) -> EdgeScanRefused | None:
        # analytic only on 1-D ordered domains (transition scan above);
        # multi-attribute domains fall back to the generic edge scan
        if self.domain.is_ordered:
            return None
        return super().scan_refusal()

    def max_edge_l1(self) -> float:
        # every edge satisfies d <= theta by definition; theta itself is the
        # calibration constant the paper uses (Lemma 6.1: sensitivity 2*theta)
        return min(self.theta, self.domain.diameter())

    @_memoized
    def max_edge_index_gap(self) -> int:
        attr = self.domain.require_ordered()
        if not attr.is_numeric:
            raise TypeError("distance-threshold graphs need numeric attributes")
        # two-pointer scan: largest |i-j| with value distance <= theta
        gap = 0
        left = 0
        for right in range(self.domain.size):
            while attr.distance(attr[right], attr[left]) > self.theta:
                left += 1
            gap = max(gap, right - left)
        return gap

    def __repr__(self) -> str:
        return f"DistanceThresholdGraph(theta={self.theta}, domain={self.domain!r})"


class LineGraph(DistanceThresholdGraph):
    """``G^{d,1}`` on an ordered domain: consecutive values are the secrets.

    Implemented as a distance threshold equal to the largest consecutive
    value gap, so that on non-unit-spaced domains the graph still links each
    value to its immediate neighbors (and nothing else on unit-spaced ones).
    """

    spec_kind = "graph/line"

    def __init__(self, domain: Domain):
        attr = domain.require_ordered()
        if not attr.is_numeric:
            # categorical ordered domain: use pure index adjacency
            theta = 1.0
        else:
            gaps = [
                attr.distance(attr[i + 1], attr[i]) for i in range(len(attr) - 1)
            ]
            theta = max(gaps) if gaps else 1.0
        super().__init__(domain, theta)

    def _spec_params(self) -> dict:
        return {}  # theta is derived from the domain, not a free parameter

    @classmethod
    def _from_spec_params(cls, spec: dict, domain: Domain, path: str) -> "LineGraph":
        return cls(domain)

    def has_edge(self, i: int, j: int) -> bool:
        return abs(i - j) == 1

    def neighbors_of(self, i: int) -> Iterator[int]:
        if i > 0:
            yield i - 1
        if i + 1 < self.domain.size:
            yield i + 1

    def graph_distance(self, i: int, j: int) -> float:
        return float(abs(i - j))

    def edges_upper_bound(self) -> float:
        return float(max(self.domain.size - 1, 0))

    def crosses_mask(self, mask: np.ndarray) -> bool:
        # index adjacency connects the whole chain: any non-constant mask
        # has a transition, and the pair at the transition is an edge
        mask = self._as_mask(mask)
        return bool(mask.any() and not mask.all())

    def scan_refusal(self) -> EdgeScanRefused | None:
        return None  # crosses_mask is closed-form at any size

    def max_edge_l1(self) -> float:
        attr = self.domain.attributes[0]
        if not attr.is_numeric or len(attr) < 2:
            return 1.0
        return max(attr.distance(attr[i + 1], attr[i]) for i in range(len(attr) - 1))

    def max_edge_index_gap(self) -> int:
        return 1 if self.domain.size > 1 else 0

    def __repr__(self) -> str:
        return f"LineGraph(domain={self.domain!r})"


class EdgelessGraph(DiscriminativeGraph):
    """The empty secret graph: nothing is sensitive.

    Models the paper's privacy-agnostic individual (Section 3.1): "an
    individual who is privacy agnostic and does not mind disclosing his/her
    value exactly by having no discriminative pair involving that
    individual."  Every sensitivity under this graph is zero.
    """

    spec_kind = "graph/edgeless"

    def has_edge(self, i: int, j: int) -> bool:
        return False

    def neighbors_of(self, i: int) -> Iterator[int]:
        return iter(())

    def graph_distance(self, i: int, j: int) -> float:
        return 0.0 if i == j else _INF

    def has_any_edge(self) -> bool:
        return False

    def edges_upper_bound(self) -> float:
        return 0.0

    def crosses_mask(self, mask: np.ndarray) -> bool:
        self._as_mask(mask)
        return False

    def scan_refusal(self) -> EdgeScanRefused | None:
        return None  # no edges, nothing to scan

    def max_edge_l1(self) -> float:
        return 0.0

    def max_edge_index_gap(self) -> int:
        return 0


class ExplicitGraph(DiscriminativeGraph):
    """An arbitrary discriminative graph given edge-by-edge.

    The workhorse for unit tests, brute-force validation and the Section 8
    constructions, where exact control over the edge set matters more than
    scale.
    """

    spec_kind = "graph/explicit"

    def __init__(self, domain: Domain, edges: Iterator[tuple[int, int]] | nx.Graph):
        import networkx as nx

        super().__init__(domain)
        g = nx.Graph()
        g.add_nodes_from(range(domain.size))
        if isinstance(edges, nx.Graph):
            g.add_edges_from(edges.edges())
        else:
            g.add_edges_from(edges)
        for u, v in g.edges():
            if not (0 <= u < domain.size and 0 <= v < domain.size):
                raise ValueError(f"edge ({u}, {v}) outside domain")
        g.remove_edges_from(nx.selfloop_edges(g))
        self._g = g

    def _fingerprint_parts(self) -> tuple[bytes, ...]:
        edges = sorted((min(u, v), max(u, v)) for u, v in self._g.edges())
        return (np.asarray(edges, dtype=np.int64).tobytes(),)

    def _spec_params(self) -> dict:
        edges = sorted((min(u, v), max(u, v)) for u, v in self._g.edges())
        return {"edges": [[int(u), int(v)] for u, v in edges]}

    @classmethod
    def _from_spec_params(cls, spec: dict, domain: Domain, path: str) -> "ExplicitGraph":
        edges = spec_get(spec, "edges", list, path)
        pairs = []
        for i, e in enumerate(edges):
            if (
                not isinstance(e, (list, tuple))
                or len(e) != 2
                or not all(isinstance(v, int) and not isinstance(v, bool) for v in e)
            ):
                raise SpecError(f"{path}.edges[{i}]", "expected an [i, j] pair of ints")
            pairs.append((e[0], e[1]))
        try:
            return cls(domain, pairs)
        except ValueError as exc:
            raise SpecError(f"{path}.edges", str(exc)) from None

    def has_edge(self, i: int, j: int) -> bool:
        return self._g.has_edge(i, j)

    def neighbors_of(self, i: int) -> Iterator[int]:
        return iter(self._g.neighbors(i))

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, v in self._g.edges():
            yield (min(u, v), max(u, v))

    def edges_upper_bound(self) -> float:
        return float(self._g.number_of_edges())

    def crosses_mask(self, mask: np.ndarray) -> bool:
        mask = self._as_mask(mask)
        return any(mask[u] != mask[v] for u, v in self._g.edges())

    def scan_refusal(self) -> EdgeScanRefused | None:
        return None  # the edge list is materialized; scanning it is linear

    def graph_distance(self, i: int, j: int) -> float:
        if i == j:
            return 0.0
        import networkx as nx

        try:
            return float(nx.shortest_path_length(self._g, i, j))
        except nx.NetworkXNoPath:
            return _INF

    @_memoized
    def max_edge_l1(self) -> float:
        best = 0.0
        for u, v in self._g.edges():
            best = max(best, self.domain.l1_distance(u, v))
        return best

    @_memoized
    def max_edge_index_gap(self) -> int:
        self.domain.require_ordered()
        return max((abs(u - v) for u, v in self._g.edges()), default=0)

    def to_networkx(self) -> nx.Graph:
        return self._g.copy()

    def __repr__(self) -> str:
        return (
            f"ExplicitGraph({self._g.number_of_nodes()} nodes, "
            f"{self._g.number_of_edges()} edges)"
        )


#: Spec ``kind`` tag -> graph class, for :meth:`DiscriminativeGraph.from_spec`.
#: LineGraph precedes its base DistanceThresholdGraph only in documentation —
#: dispatch is by exact tag, so ordering is irrelevant here.
_SPEC_KINDS: dict[str, type] = {
    g.spec_kind: g
    for g in (
        FullDomainGraph,
        AttributeGraph,
        PartitionGraph,
        DistanceThresholdGraph,
        LineGraph,
        EdgelessGraph,
        ExplicitGraph,
    )
}


def _uniform_spacings(domain: Domain) -> tuple[float, ...] | None:
    """Per-attribute uniform value spacing, or ``None`` if any attribute is
    non-numeric or non-uniformly spaced."""
    spacings = []
    for attr in domain.attributes:
        if not attr.is_numeric:
            return None
        if len(attr) == 1:
            spacings.append(0.0)
            continue
        vals = np.asarray(attr.values, dtype=np.float64)
        diffs = np.diff(vals)
        if diffs.size == 0 or not np.allclose(diffs, diffs[0]):
            return None
        spacings.append(float(abs(diffs[0])))
    positive = [s for s in spacings if s > 0]
    if not positive:
        return None
    return tuple(positive)
