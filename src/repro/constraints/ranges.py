"""Range-count constraints on grid domains (Section 8.2.3).

Geographic databases over ``T = [m]^k`` publish answers to rectangle count
queries ``q_R``; together with distance-threshold secrets ``S^{d,theta}``
this is the paper's third application.  Theorem 8.6: for *disjoint*
rectangles, ``S(h, P) <= 2 (maxcomp(Q) + 1)`` where ``maxcomp`` is the size
of the largest connected component of the rectangle graph ``G_R(Q)``
(rectangles joined when within L-p distance ``theta``), with equality when
no rectangle is a point query.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from ..core.domain import Domain
from ..core.queries import CountQuery

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "Rectangle",
    "rectangle_query",
    "rectangles_disjoint",
    "rectangle_distance",
    "rectangle_graph",
    "max_component_size",
]


class Rectangle:
    """An axis-aligned box ``[l_1, u_1] x ... x [l_k, u_k]`` in rank space."""

    __slots__ = ("lows", "highs")

    def __init__(self, lows: Sequence[int], highs: Sequence[int]):
        lows = tuple(int(v) for v in lows)
        highs = tuple(int(v) for v in highs)
        if len(lows) != len(highs):
            raise ValueError("lows and highs must have the same length")
        for lo, hi in zip(lows, highs):
            if lo > hi:
                raise ValueError(f"empty rectangle: {lo} > {hi}")
        self.lows = lows
        self.highs = highs

    @property
    def ndim(self) -> int:
        return len(self.lows)

    @property
    def is_point(self) -> bool:
        """A *point query* (Theorem 8.6's equality excludes these)."""
        return all(lo == hi for lo, hi in zip(self.lows, self.highs))

    def intersects(self, other: "Rectangle") -> bool:
        return all(
            lo <= other_hi and other_lo <= hi
            for lo, hi, other_lo, other_hi in zip(
                self.lows, self.highs, other.lows, other.highs
            )
        )

    def __repr__(self) -> str:
        parts = ", ".join(f"[{lo},{hi}]" for lo, hi in zip(self.lows, self.highs))
        return f"Rectangle({parts})"


def rectangle_query(domain: Domain, rect: Rectangle, name: str | None = None) -> CountQuery:
    """The range count query ``q_R`` as a :class:`CountQuery` over ``domain``.

    Coordinates are attribute *ranks* (positions), matching the paper's
    ``T = [m]^k`` encoding.
    """
    if rect.ndim != domain.n_attributes:
        raise ValueError("rectangle dimensionality must match the domain")
    for (lo, hi), attr in zip(zip(rect.lows, rect.highs), domain.attributes):
        if not 0 <= lo <= hi < len(attr):
            raise ValueError(f"rectangle exceeds attribute {attr.name!r}")
    ranks = domain.ranks_table()
    mask = np.ones(domain.size, dtype=bool)
    for axis in range(rect.ndim):
        mask &= (ranks[:, axis] >= rect.lows[axis]) & (ranks[:, axis] <= rect.highs[axis])
    return CountQuery.from_mask(domain, mask, name=name or f"range{rect!r}")


def rectangles_disjoint(rects: Sequence[Rectangle]) -> bool:
    """Pairwise disjointness (the hypothesis of Theorem 8.6)."""
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            if rects[i].intersects(rects[j]):
                return False
    return True


def rectangle_distance(a: Rectangle, b: Rectangle, p: float = 1.0) -> float:
    """``d(X, Y) = min_{x in X, y in Y} ||x - y||_p`` for two boxes.

    Per-axis gaps compose: the distance is the p-norm of the vector of
    per-axis gaps (0 when the projections overlap).
    """
    gaps = []
    for lo_a, hi_a, lo_b, hi_b in zip(a.lows, a.highs, b.lows, b.highs):
        if hi_a < lo_b:
            gaps.append(lo_b - hi_a)
        elif hi_b < lo_a:
            gaps.append(lo_a - hi_b)
        else:
            gaps.append(0)
    gaps_arr = np.asarray(gaps, dtype=np.float64)
    if np.isinf(p):
        return float(gaps_arr.max(initial=0.0))
    return float((gaps_arr**p).sum() ** (1.0 / p))


def rectangle_graph(rects: Sequence[Rectangle], theta: float, p: float = 1.0) -> nx.Graph:
    """``G_R(Q)``: one vertex per rectangle, edges within distance theta."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(len(rects)))
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            if rectangle_distance(rects[i], rects[j], p=p) <= theta:
                g.add_edge(i, j)
    return g


def max_component_size(g: nx.Graph) -> int:
    """``maxcomp(Q)``: vertices in the largest connected component."""
    import networkx as nx

    if g.number_of_nodes() == 0:
        return 0
    return max(len(c) for c in nx.connected_components(g))
