"""The hierarchical mechanism (Hay et al. [9]) — the paper's baseline for
cumulative histograms and range queries (Section 7.2).

A complete fan-out-``f`` tree is laid over the (padded) ordered domain; the
node counts of each level form a partition histogram with sensitivity 2, the
budget is split uniformly over the ``h = ceil(log_f |T|)`` levels below the
root, and every node is released with ``Lap(2h/eps)`` noise.  The root holds
the public cardinality ``n`` exactly: in the paper's indistinguishability
model (fixed ``n``, Section 2) the total count has zero sensitivity.

Accuracy is then boosted by *constrained inference*: the minimum-variance
estimate consistent with the tree's sum constraints.  We implement the
weighted two-pass algorithm (inverse-variance averaging up, discrepancy
distribution down), which reduces to Hay et al.'s closed form for uniform
variances and additionally handles exact roots, unmeasured levels and the
heterogeneous scales of the ordered hierarchical tree.

Every tree mechanism builds and reconciles its trees through the two batched
kernels here, working on a *forest* of ``k`` equally shaped trees held as
one ``(k, f**l)`` array per level: :func:`noisy_forest` sums the levels and
adds all the noise in one draw, and :func:`consistent_forest` runs the GLS
up/down pass over all ``k`` trees at once.  Hay's mechanism and the
quadtree are forests of one tree; the ordered hierarchical mechanism is one
tree per theta-segment.  :class:`NoisyTree` is the single-tree view used
for raw canonical-range answering.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.database import Database
from ..core.policy import Policy
from ..core.sensitivity import histogram_sensitivity
from .base import Mechanism, laplace_noise

__all__ = [
    "noisy_forest",
    "consistent_forest",
    "NoisyTree",
    "HierarchicalMechanism",
    "ReleasedRangeAnswerer",
]


def noisy_forest(
    leaves: np.ndarray,
    fanout: int,
    height: int,
    scales,
    rng: np.random.Generator,
) -> tuple[list[np.ndarray], list[float]]:
    """Noisy node counts of ``k`` complete ``fanout``-ary trees at once.

    ``leaves`` is the ``(k, fanout**height)`` array of true leaf counts, one
    row per tree, and ``scales[l - 1]`` the Laplace scale of level ``l`` for
    ``l = 1..height``.  Returns ``(values, variances)``: ``values[l]`` is the
    ``(k, fanout**l)`` array of level ``l`` and ``variances[l]`` its per-node
    noise variance.  The roots (level 0) stay exact, with variance ``0.0``.

    All noise is one draw of shape ``(k, sum_l fanout**l)``, whose C order is
    tree-major and level-minor: the order in which a loop over the trees,
    then over their levels top-down, would draw it.  So a tree's noise does
    not depend on how many trees share the draw.
    """
    f, h = int(fanout), int(height)
    leaves = np.asarray(leaves, dtype=np.float64)
    k = leaves.shape[0]
    widths = [f**l for l in range(h + 1)]
    if leaves.shape != (k, widths[h]):
        raise ValueError(f"leaves must have shape (k, {widths[h]})")
    scales = [float(s) for s in scales]
    if len(scales) != h:
        raise ValueError("need one scale per level below the root")
    offsets = np.cumsum([0] + widths).tolist()
    flat = np.empty((k, offsets[-1]), dtype=np.float64)
    values = [flat[:, offsets[l] : offsets[l + 1]] for l in range(h + 1)]
    values[h][:] = leaves
    for l in range(h - 1, -1, -1):
        values[l][:] = values[l + 1].reshape(k, -1, f).sum(axis=2)
    if h:
        # a scalar scale takes numpy's faster sampling loop; the draws are the same
        scale = scales[0] if len(set(scales)) == 1 else np.repeat(scales, widths[1:])
        flat[:, 1:] += laplace_noise(rng, scale, (k, offsets[-1] - 1))
    variances = [0.0] + [2.0 * s**2 if s > 0 else 0.0 for s in scales]
    return values, variances


def consistent_forest(
    values: list[np.ndarray], variances: list[float], fanout: int
) -> np.ndarray:
    """Minimum-variance leaf estimates consistent with every tree's sums.

    ``values[l]`` is the ``(k, fanout**l)`` level array of ``k`` trees that
    share the per-level variances ``variances[l]`` (``0.0`` for an exact
    level, ``inf`` for an unmeasured one); returns the ``(k, fanout**h)``
    leaf estimates.

    Pass 1 (up): combine each node's own measurement with the sum of its
    children's combined estimates by inverse-variance weighting.
    Pass 2 (down): spread each node's residual over its children in
    proportion to their estimate variances (the GLS projection onto the sum
    constraint).  With equal variances this is exactly Hay et al.'s
    ``z_bar``/``h_bar`` recursion.  A node's estimate variance depends only
    on its level, so the variances are computed once for all ``k`` trees.
    """
    f, h = fanout, len(values) - 1
    if not math.isfinite(variances[h]):
        raise ValueError("leaf level must be measured")
    k = values[h].shape[0]
    est = [None] * (h + 1)
    var = [None] * (h + 1)
    child_sums = [None] * h
    child_vars = [None] * h
    est[h] = values[h]
    var[h] = np.full(f**h, variances[h])
    for l in range(h - 1, -1, -1):
        child_sum = child_sums[l] = est[l + 1].reshape(k, -1, f).sum(axis=2)
        child_var = child_vars[l] = var[l + 1].reshape(-1, f).sum(axis=1)
        own_var = variances[l]
        if own_var == 0.0:
            est[l] = values[l]
            var[l] = np.zeros(f**l)
        elif math.isinf(own_var):
            est[l] = child_sum
            var[l] = child_var
        else:
            inv = 1.0 / own_var + 1.0 / child_var
            var[l] = 1.0 / inv
            est[l] = var[l] * (values[l] / own_var + child_sum / child_var)
    # top-down: reconcile children with each node's final value
    final = est[0].copy()
    for l in range(h):
        child_var = var[l + 1].reshape(-1, f)
        group_var = child_vars[l][:, None]
        residual = final - child_sums[l]
        with np.errstate(invalid="ignore", divide="ignore"):
            share = np.where(
                group_var > 0, child_var / np.maximum(group_var, 1e-300), 1.0 / f
            )
        final = (est[l + 1].reshape(k, -1, f) + share * residual[:, :, None]).reshape(k, -1)
    return final


class NoisyTree:
    """A complete ``fanout``-ary tree of noisy counts over ``fanout**height``
    leaves.

    ``values[l]`` holds the ``fanout**l`` node counts of level ``l``
    (level 0 = root, level ``height`` = leaves); ``variances[l]`` is the
    per-node noise variance of that level — ``0.0`` for exact levels,
    ``inf`` for unmeasured ones.
    """

    def __init__(self, fanout: int, height: int, values: list[np.ndarray], variances: list[float]):
        if fanout < 2:
            raise ValueError("fanout must be at least 2")
        if height < 0:
            raise ValueError("height must be non-negative")
        if len(values) != height + 1 or len(variances) != height + 1:
            raise ValueError("need one value array and one variance per level")
        for l, arr in enumerate(values):
            if arr.shape != (fanout**l,):
                raise ValueError(f"level {l} must have {fanout**l} nodes")
        self.fanout = fanout
        self.height = height
        self.values = [np.asarray(v, dtype=np.float64) for v in values]
        self.variances = [float(v) for v in variances]

    @property
    def n_leaves(self) -> int:
        return self.fanout**self.height

    def consistent_leaves(self) -> np.ndarray:
        """Minimum-variance leaf estimates consistent with all tree sums
        (:func:`consistent_forest` on a forest of one)."""
        return consistent_forest([v[None] for v in self.values], self.variances, self.fanout)[0]

    # -- raw (no-inference) range answering ------------------------------------------
    def range_sum(self, lo: int, hi: int) -> float:
        """Sum of leaves ``[lo, hi]`` by canonical decomposition.

        Uses the highest measured node that fits entirely inside the range;
        unmeasured nodes recurse into their children.
        """
        if not 0 <= lo <= hi < self.n_leaves:
            raise ValueError("range out of bounds")
        return self._range_sum(0, 0, lo, hi)

    def _range_sum(self, level: int, node: int, lo: int, hi: int) -> float:
        span = self.fanout ** (self.height - level)
        node_lo = node * span
        node_hi = node_lo + span - 1
        if hi < node_lo or lo > node_hi:
            return 0.0
        if lo <= node_lo and node_hi <= hi and math.isfinite(self.variances[level]):
            return float(self.values[level][node])
        if level == self.height:
            # leaf partially covered is impossible (span == 1)
            return float(self.values[level][node])
        return sum(
            self._range_sum(level + 1, node * self.fanout + c, lo, hi)
            for c in range(self.fanout)
        )


class ReleasedRangeAnswerer:
    """Uniform front-end over consistent (prefix-sum) and raw (canonical
    decomposition) released trees."""

    __slots__ = ("_prefix", "_tree", "size")

    def __init__(self, size: int, prefix: np.ndarray | None = None, tree: NoisyTree | None = None):
        if (prefix is None) == (tree is None):
            raise ValueError("exactly one of prefix/tree must be given")
        self.size = int(size)
        self._prefix = prefix
        self._tree = tree

    def range(self, lo: int, hi: int) -> float:
        if not 0 <= lo <= hi < self.size:
            raise ValueError(f"range [{lo}, {hi}] out of bounds for size {self.size}")
        if self._prefix is not None:
            left = self._prefix[lo - 1] if lo > 0 else 0.0
            return float(self._prefix[hi] - left)
        return self._tree.range_sum(lo, hi)

    def ranges(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        los = np.asarray(los, dtype=np.int64)
        his = np.asarray(his, dtype=np.int64)
        if self._prefix is not None:
            left = np.where(los > 0, self._prefix[np.maximum(los - 1, 0)], 0.0)
            return self._prefix[his] - left
        return np.array([self.range(int(a), int(b)) for a, b in zip(los, his)])

    def prefix(self, j: int) -> float:
        """Estimated cumulative count up to index ``j`` (``-1`` gives 0)."""
        return 0.0 if j < 0 else self.range(0, j)

    def histogram(self) -> np.ndarray:
        """Per-cell estimates (leaves)."""
        if self._prefix is not None:
            return np.diff(self._prefix, prepend=0.0)
        return np.array([self._tree.range_sum(i, i) for i in range(self.size)])


class HierarchicalMechanism(Mechanism):
    """Hay-style hierarchical range-query mechanism (the DP baseline).

    Parameters
    ----------
    policy:
        Unconstrained policy over an ordered domain.  The per-level noise is
        calibrated to the policy's histogram sensitivity (2 for every graph
        with an edge — Section 5 notes histograms don't benefit from weaker
        secrets — and 0 for edgeless graphs).
    epsilon:
        Total budget, split uniformly over the levels below the root
        (the paper's "uniform budgeting").
    fanout:
        Tree fan-out ``f`` (16 in the paper's experiments).
    consistent:
        Apply constrained inference (default) — Hay et al.'s boosting.
    budget:
        ``"uniform"`` (the paper's choice) splits epsilon evenly over the
        ``h`` levels below the root; ``"geometric"`` is the Cormode et al.
        alternative the paper mentions — level ``i`` gets budget
        proportional to ``f^{(i-h)/3}``, weighting leaves most (the classic
        variance-minimizing allocation for single-level queries).
    """

    def __init__(
        self,
        policy: Policy,
        epsilon: float,
        fanout: int = 16,
        consistent: bool = True,
        budget: str = "uniform",
    ):
        super().__init__(policy, epsilon)
        policy.domain.require_ordered()
        if not policy.unconstrained:
            raise ValueError("HierarchicalMechanism supports unconstrained policies")
        if fanout < 2:
            raise ValueError("fanout must be at least 2")
        if budget not in ("uniform", "geometric"):
            raise ValueError("budget must be 'uniform' or 'geometric'")
        self.fanout = int(fanout)
        self.consistent = bool(consistent)
        self.budget = budget
        size = policy.domain.size
        self.height = max(1, math.ceil(math.log(size, fanout))) if size > 1 else 1
        self.level_sensitivity = histogram_sensitivity(policy)

    def level_epsilons(self) -> np.ndarray:
        """Per-level budgets for levels ``1..h`` (summing to epsilon)."""
        h = self.height
        if self.budget == "uniform":
            return np.full(h, self.epsilon / h)
        weights = np.array([self.fanout ** ((i - h) / 3.0) for i in range(1, h + 1)])
        return self.epsilon * weights / weights.sum()

    def level_scales(self) -> np.ndarray:
        """Per-level Laplace scales, ``sensitivity / eps_level``."""
        if self.level_sensitivity == 0:
            return np.zeros(self.height)
        return self.level_sensitivity / self.level_epsilons()

    @property
    def scale(self) -> float:
        """Per-node Laplace scale ``2h/eps`` under uniform budgeting."""
        return self.level_sensitivity * self.height / self.epsilon

    def _noisy_tree(self, leaf_counts: np.ndarray, rng: np.random.Generator) -> NoisyTree:
        f, h = self.fanout, self.height
        leaves = np.zeros((1, f**h), dtype=np.float64)
        leaves[0, : leaf_counts.size] = leaf_counts
        # the forest's roots stay exact: the root is the public cardinality
        values, variances = noisy_forest(leaves, f, h, self.level_scales(), rng)
        return NoisyTree(f, h, [v[0] for v in values], variances)

    def release(self, db: Database, rng=None) -> ReleasedRangeAnswerer:
        self._check_db(db)
        rng = self._rng(rng)
        tree = self._noisy_tree(db.histogram(), rng)
        size = self.policy.domain.size
        if self.consistent:
            leaves = tree.consistent_leaves()[:size]
            return ReleasedRangeAnswerer(size, prefix=np.cumsum(leaves))
        return ReleasedRangeAnswerer(size, tree=tree)

    def expected_range_query_error(self) -> float:
        """Rough pre-inference bound: ``2 (f-1) h * 2 scale^2`` per query —
        the ``O(log^3 |T| / eps^2)`` of Section 7."""
        nodes = 2 * (self.fanout - 1) * self.height
        return nodes * 2.0 * self.scale**2
