"""Quadtree mechanism for 2-D (geographic) range counts.

The paper's spatial story (Sections 6.1, 8.2.3) runs on grid domains like
the 400x300 twitter grid; its range-query machinery (Section 7) is 1-D.
This module supplies the standard 2-D baseline the paper cites among the
hierarchical methods — Cormode et al.'s differentially private spatial
decompositions [5] — as a quadtree with uniform per-level budgets and the
same weighted-GLS constrained inference used by the 1-D trees.

Implementation: cells are laid out in Morton (Z-) order, which makes every
quadtree node a *contiguous* block of ``4^l`` leaves — so the complete
4-ary tree engine of :mod:`repro.mechanisms.hierarchical` (``noisy_forest``
and ``consistent_forest`` on a forest of one tree) applies unchanged.
After inference the released cell estimates are turned into a summed-area
table, answering any axis-aligned rectangle count in O(1).

Under a partitioned-secrets policy whose blocks refine the tree's nodes the
per-level sensitivity drops to zero (the paper's partition|120000 effect);
any graph with an edge gives the usual per-level sensitivity 2.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.database import Database
from ..core.policy import Policy
from ..core.sensitivity import histogram_sensitivity
from .base import Mechanism
from .hierarchical import consistent_forest, noisy_forest

__all__ = ["QuadtreeMechanism", "ReleasedGrid", "morton_order", "morton_indices"]


def morton_indices(rows: np.ndarray, cols: np.ndarray, bits: int) -> np.ndarray:
    """Morton (Z-order) codes of (row, col) pairs with ``bits`` bits/axis."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    out = np.zeros(rows.shape, dtype=np.int64)
    for b in range(bits):
        out |= ((rows >> b) & 1) << (2 * b + 1)
        out |= ((cols >> b) & 1) << (2 * b)
    return out


def morton_order(side: int) -> np.ndarray:
    """``(side*side,)`` array mapping Morton code -> (row-major cell index)
    for a ``side x side`` grid (``side`` a power of two)."""
    bits = side.bit_length() - 1
    if 2**bits != side:
        raise ValueError("side must be a power of two")
    rows, cols = np.divmod(np.arange(side * side, dtype=np.int64), side)
    codes = morton_indices(rows, cols, bits)
    order = np.empty(side * side, dtype=np.int64)
    order[codes] = np.arange(side * side, dtype=np.int64)
    return order


class ReleasedGrid:
    """Released per-cell estimates with O(1) rectangle counting."""

    __slots__ = ("cells", "_sat")

    def __init__(self, cells: np.ndarray):
        cells = np.asarray(cells, dtype=np.float64)
        if cells.ndim != 2:
            raise ValueError("cells must be a 2-D array")
        self.cells = cells
        # summed-area table with a zero border
        sat = np.zeros((cells.shape[0] + 1, cells.shape[1] + 1))
        sat[1:, 1:] = cells.cumsum(axis=0).cumsum(axis=1)
        self._sat = sat

    @property
    def shape(self) -> tuple[int, int]:
        return self.cells.shape

    def rectangle(self, row_lo: int, row_hi: int, col_lo: int, col_hi: int) -> float:
        """Estimated count in ``[row_lo, row_hi] x [col_lo, col_hi]``."""
        nr, nc = self.cells.shape
        if not (0 <= row_lo <= row_hi < nr and 0 <= col_lo <= col_hi < nc):
            raise ValueError("rectangle out of bounds")
        s = self._sat
        return float(
            s[row_hi + 1, col_hi + 1]
            - s[row_lo, col_hi + 1]
            - s[row_hi + 1, col_lo]
            + s[row_lo, col_lo]
        )

    def rectangles(self, rect_array: np.ndarray) -> np.ndarray:
        """Vectorized rectangle counts; rows are (row_lo, row_hi, col_lo, col_hi)."""
        r = np.asarray(rect_array, dtype=np.int64)
        s = self._sat
        return (
            s[r[:, 1] + 1, r[:, 3] + 1]
            - s[r[:, 0], r[:, 3] + 1]
            - s[r[:, 1] + 1, r[:, 2]]
            + s[r[:, 0], r[:, 2]]
        )


class QuadtreeMechanism(Mechanism):
    """Uniform-budget quadtree release over a 2-attribute grid domain.

    Parameters
    ----------
    policy:
        Unconstrained policy over a 2-attribute domain.  Per-level noise is
        calibrated to the policy's histogram sensitivity.
    epsilon:
        Budget, split uniformly over the ``h = log2(side)`` levels below
        the root (the root is the public cardinality).
    consistent:
        Weighted-GLS constrained inference over the quadtree (default).
    """

    def __init__(self, policy: Policy, epsilon: float, consistent: bool = True):
        super().__init__(policy, epsilon)
        if policy.domain.n_attributes != 2:
            raise ValueError("QuadtreeMechanism needs a 2-attribute grid domain")
        if not policy.unconstrained:
            raise ValueError("QuadtreeMechanism supports unconstrained policies")
        self.consistent = bool(consistent)
        n_rows, n_cols = policy.domain.shape
        side = max(n_rows, n_cols)
        self.height = max(1, math.ceil(math.log2(side)))
        self.side = 2**self.height
        self.level_sensitivity = histogram_sensitivity(policy)
        self._order = morton_order(self.side)

    @property
    def scale(self) -> float:
        """Per-node Laplace scale ``2h/eps``."""
        return self.level_sensitivity * self.height / self.epsilon

    def _grid_counts(self, db: Database) -> np.ndarray:
        n_rows, n_cols = self.policy.domain.shape
        rows = db.indices // n_cols
        cols = db.indices % n_cols
        grid = np.zeros((self.side, self.side), dtype=np.float64)
        np.add.at(grid, (rows, cols), 1.0)
        return grid

    def release(self, db: Database, rng=None) -> ReleasedGrid:
        self._check_db(db)
        rng = self._rng(rng)
        grid = self._grid_counts(db)
        # leaves in Morton order -> every quadtree node is contiguous
        leaves = grid.reshape(-1)[self._order]
        h = self.height
        values, variances = noisy_forest(leaves[None], 4, h, [self.scale] * h, rng)
        if self.consistent:
            est = consistent_forest(values, variances, 4)[0]
        else:
            est = values[h][0]
        # back to row-major cells, cropped to the real grid
        cells = np.empty(self.side * self.side)
        cells[self._order] = est
        n_rows, n_cols = self.policy.domain.shape
        return ReleasedGrid(cells.reshape(self.side, self.side)[:n_rows, :n_cols])

    def expected_rectangle_error(self) -> float:
        """Rough bound: O(h) canonical nodes per axis slab — the 2-D analog
        of the O(log^3) family."""
        nodes = 4 * (4 - 1) * self.height
        return nodes * 2.0 * self.scale**2
