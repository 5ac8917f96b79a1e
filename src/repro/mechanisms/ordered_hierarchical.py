"""The Ordered Hierarchical (OH) mechanism (paper Section 7.2).

The hybrid strategy for cumulative histograms / range queries under a
``G^{d,theta}`` policy.  The ordered domain is cut into ``k = ceil(|T|/theta)``
segments of ``theta`` values:

* **S nodes** — the cumulative counts at segment boundaries,
  ``s_i = q[x_1, x_{i*theta}]``.  A secret-pair change moves a tuple by at
  most ``theta`` indices, so it crosses at most one boundary: the S chain
  has sensitivity 1 and each ``s_i`` is released with ``Lap(1/eps_S)``.
* **H nodes** — one fan-out-``f`` hierarchical tree per segment (height
  ``h = ceil(log_f theta)``), answering the within-segment residual prefix
  ``q[x_{l*theta+1}, x_j]``.  A change touches at most ``2h`` H nodes (one
  root-to-leaf path for each of the two values; segment roots are *not*
  measured — boundary prefixes come from the S chain), so each H node is
  released with ``Lap(2h/eps_H)``.

The ``k`` H trees are built as one forest
(:func:`~repro.mechanisms.hierarchical.noisy_forest`, one noise draw for
all segments, in the order a per-segment loop would draw it) and
reconciled by one batched GLS pass
(:func:`~repro.mechanisms.hierarchical.consistent_forest`); the segment
totals from the S chain are then spread over all segments in one step.

Any cumulative count is then ``S node + H prefix`` and any range query is a
difference of two cumulative counts, giving the Eqn (13)/(14) error

    E = c1/eps_S^2 + c2/eps_H^2,
    c1 = 4(|T|-theta)/(|T|+1),
    c2 = 8(f-1) log_f(theta)^3 |T| / (|T|+1),

minimized at ``eps_S* = eps * c1^{1/3} / (c1^{1/3} + c2^{1/3})`` (Eqn 15).

Budgeting note.  The paper folds ``s_1`` into the first subtree and noises
all of ``H_1`` with ``Lap(2h/(eps_S+eps_H))``.  For ``h = 1`` that accounting
exceeds ``eps`` on a change straddling the first boundary (the ``s_1``
re-measurement and two tree paths add to ``eps + eps_H/2``), so this
implementation prices ``s_1`` like every other S node — one S-node change
plus ``<= 2h`` H-node changes cost exactly ``eps_S + eps_H = eps`` for every
``h``, which is the composition argument the paper intends.  The degenerate
ends behave as the paper states: ``theta = 1`` is the ordered mechanism and
``theta = |T|`` is the hierarchical mechanism.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.database import Database
from ..core.policy import Policy
from .base import Mechanism, laplace_noise
from .hierarchical import (
    NoisyTree,
    ReleasedRangeAnswerer,
    consistent_forest,
    noisy_forest,
)
from .isotonic import isotonic_regression

__all__ = [
    "OrderedHierarchicalMechanism",
    "oh_error_constants",
    "oh_expected_range_error",
    "optimal_budget_split",
]


def oh_error_constants(size: int, theta: int, fanout: int) -> tuple[float, float]:
    """The ``(c1, c2)`` of Eqn (14) for domain size ``|T|``, threshold
    ``theta`` and fan-out ``f``."""
    if not 1 <= theta <= size:
        raise ValueError("theta must be in [1, |T|]")
    c1 = 4.0 * (size - theta) / (size + 1)
    if theta <= 1:
        c2 = 0.0
    else:
        c2 = 8.0 * (fanout - 1) * math.log(theta, fanout) ** 3 * size / (size + 1)
    return c1, c2


def oh_expected_range_error(
    size: int, theta: int, fanout: int, eps_s: float, eps_h: float
) -> float:
    """Eqn (14): expected squared error of one range query."""
    c1, c2 = oh_error_constants(size, theta, fanout)
    err = 0.0
    if c1 > 0:
        if eps_s <= 0:
            return math.inf
        err += c1 / eps_s**2
    if c2 > 0:
        if eps_h <= 0:
            return math.inf
        err += c2 / eps_h**2
    return err


def optimal_budget_split(
    size: int, theta: int, fanout: int, epsilon: float
) -> tuple[float, float]:
    """Eqn (15): the ``(eps_S, eps_H)`` minimizing Eqn (14).

    ``eps_S* = eps * c1^{1/3} / (c1^{1/3} + c2^{1/3})``; the degenerate ends
    put the whole budget on one side (``theta=1`` -> all S,
    ``theta=|T|`` -> all H).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    c1, c2 = oh_error_constants(size, theta, fanout)
    a, b = c1 ** (1.0 / 3.0), c2 ** (1.0 / 3.0)
    if a + b == 0:
        # single-value domain: nothing to release
        return epsilon, 0.0
    eps_s = epsilon * a / (a + b)
    return eps_s, epsilon - eps_s


class OrderedHierarchicalMechanism(Mechanism):
    """S-chain + per-segment H-trees (Figure 2(a)); see module docstring.

    Parameters
    ----------
    policy:
        Unconstrained ``G^{d,theta}`` (or line) policy over an ordered
        domain; ``theta`` is taken from the graph as the maximum index gap
        across an edge.
    epsilon:
        Total budget ``eps = eps_S + eps_H``.
    fanout:
        H-tree fan-out (16 in the paper's experiments).
    budget_split:
        ``"optimal"`` (Eqn 15, default), ``"uniform"`` (eps/2 each), or an
        explicit ``eps_S`` float.
    consistent:
        Post-process with constrained inference: isotonic regression over
        the S chain, weighted GLS within each H tree, and boundary
        reconciliation.  ``False`` releases the paper's raw estimates
        (used when validating Eqn 13-15).
    """

    def __init__(
        self,
        policy: Policy,
        epsilon: float,
        fanout: int = 16,
        budget_split: str | float = "optimal",
        consistent: bool = True,
    ):
        super().__init__(policy, epsilon)
        policy.domain.require_ordered()
        if not policy.unconstrained:
            raise ValueError("OrderedHierarchicalMechanism supports unconstrained policies")
        if fanout < 2:
            raise ValueError("fanout must be at least 2")
        self.fanout = int(fanout)
        self.consistent = bool(consistent)

        size = policy.domain.size
        theta = int(policy.graph.max_edge_index_gap())
        if theta < 1:
            raise ValueError("the policy graph has no edges; nothing to protect")
        theta = min(theta, size)
        self.theta = theta
        self.size = size
        self.n_segments = math.ceil(size / theta)
        self.height = math.ceil(math.log(theta, fanout)) if theta > 1 else 0

        if isinstance(budget_split, str):
            if budget_split == "optimal":
                eps_s, eps_h = optimal_budget_split(size, theta, fanout, epsilon)
            elif budget_split == "uniform":
                eps_s, eps_h = epsilon / 2.0, epsilon / 2.0
            else:
                raise ValueError("budget_split must be 'optimal', 'uniform' or a float")
        else:
            eps_s = float(budget_split)
            if not 0 <= eps_s <= epsilon:
                raise ValueError("explicit eps_S must lie in [0, epsilon]")
            eps_h = epsilon - eps_s
        # degenerate ends: no H nodes when theta == 1; no useful S nodes when
        # there is a single segment (s_1 = n is public)
        if self.height == 0:
            eps_s, eps_h = epsilon, 0.0
        if self.n_segments == 1:
            eps_s, eps_h = 0.0, epsilon
        if self.n_segments > 1 and eps_s <= 0:
            raise ValueError("eps_S must be positive: the S chain needs budget")
        if self.height > 0 and eps_h <= 0:
            raise ValueError("eps_H must be positive: the H trees need budget")
        self.eps_s = eps_s
        self.eps_h = eps_h

    # -- noise scales -------------------------------------------------------------
    @property
    def s_scale(self) -> float:
        """Laplace scale of each S node (sensitivity 1 / eps_S)."""
        if self.n_segments == 1:
            return 0.0  # single boundary = public cardinality
        return 1.0 / self.eps_s

    @property
    def h_scale(self) -> float:
        """Laplace scale of each H node (2h / eps_H)."""
        if self.height == 0:
            return 0.0
        return 2.0 * self.height / self.eps_h

    def expected_range_query_error(self) -> float:
        """Eqn (14) with this mechanism's split."""
        return oh_expected_range_error(
            self.size, self.theta, self.fanout, self.eps_s, self.eps_h
        )

    def describe(self) -> dict:
        """Structural summary (Figure 2(a)): segments, boundaries, heights."""
        boundaries = [
            min((i + 1) * self.theta, self.size) - 1 for i in range(self.n_segments)
        ]
        return {
            "size": self.size,
            "theta": self.theta,
            "fanout": self.fanout,
            "n_s_nodes": self.n_segments,
            "s_node_boundaries": boundaries,
            "n_h_trees": self.n_segments if self.height > 0 else 0,
            "h_tree_height": self.height,
            "eps_s": self.eps_s,
            "eps_h": self.eps_h,
        }

    # -- release -------------------------------------------------------------------
    def release(self, db: Database, rng=None) -> ReleasedRangeAnswerer:
        self._check_db(db)
        rng = self._rng(rng)
        hist = db.histogram()
        cumulative = np.cumsum(hist)
        theta, k, f, h = self.theta, self.n_segments, self.fanout, self.height

        boundaries = np.minimum(np.arange(1, k + 1) * theta, self.size) - 1
        s_true = cumulative[boundaries].astype(np.float64)
        s_noisy = s_true + laplace_noise(rng, self.s_scale, k)

        forest = None
        if h > 0:
            # one zero-padded row of leaves per segment
            padded = np.zeros(k * theta, dtype=np.float64)
            padded[: self.size] = hist
            leaves = np.zeros((k, f**h), dtype=np.float64)
            leaves[:, :theta] = padded.reshape(k, theta)
            values, variances = noisy_forest(leaves, f, h, [self.h_scale] * h, rng)
            variances[0] = math.inf  # segment roots are not measured
            forest = (values, variances)

        if not self.consistent:
            return _RawOHAnswerer(self, s_noisy, forest)
        return self._consistent_answerer(db.n, s_noisy, forest)

    def _consistent_answerer(
        self, n: int, s_noisy: np.ndarray, forest: tuple | None
    ) -> ReleasedRangeAnswerer:
        theta, k, size = self.theta, self.n_segments, self.size
        # 1. monotone S chain clamped into [0, n]; segment totals from it
        s_hat = np.clip(isotonic_regression(s_noisy), 0.0, float(n))
        totals = np.diff(s_hat, prepend=0.0)
        # 2. per-segment GLS leaves, reconciled with the chain's segment
        #    totals (the last segment may be shorter than theta)
        if forest is None:
            seg = np.zeros((k, 1))
        else:
            seg = consistent_forest(*forest, self.fanout)[:, :theta]
        last = size - (k - 1) * theta
        sums = seg.sum(axis=1)
        sums[-1] = seg[-1, :last].sum()
        lengths = np.full(k, theta)
        lengths[-1] = last
        leaves = seg + ((totals - sums) / lengths)[:, None]
        return ReleasedRangeAnswerer(size, prefix=np.cumsum(leaves.reshape(-1)[:size]))


class _RawOHAnswerer(ReleasedRangeAnswerer):
    """Paper-faithful answering: cumulative count = S node + raw H prefix.

    Scalar :meth:`prefix`/:meth:`range` walk the canonical tree
    decomposition exactly as the paper describes.  Batch entry points
    (:meth:`ranges`, :meth:`histogram`) materialize every prefix once with
    a handful of vectorized passes — reproducing the scalar float-addition
    order bit for bit — instead of re-walking a root-to-leaf path per index
    (O(|T| h f) Python work per histogram before).
    """

    __slots__ = ("_mech", "_s", "_forest", "_pext")

    def __init__(
        self,
        mech: OrderedHierarchicalMechanism,
        s_noisy: np.ndarray,
        forest: tuple | None,
    ):
        # bypass parent init: we answer through the OH structure directly
        self.size = mech.size
        self._prefix = None
        self._tree = None
        self._mech = mech
        self._s = s_noisy
        self._forest = forest
        self._pext = None

    def prefix(self, j: int) -> float:
        if j < 0:
            return 0.0
        if j >= self.size:
            raise IndexError(f"prefix index {j} out of range")
        theta = self._mech.theta
        seg = j // theta
        boundary = min((seg + 1) * theta, self.size) - 1
        if j == boundary:
            return float(self._s[seg])
        base = 0.0 if seg == 0 else float(self._s[seg - 1])
        values, variances = self._forest
        tree = NoisyTree(
            self._mech.fanout, self._mech.height, [v[seg] for v in values], variances
        )
        return base + tree.range_sum(0, j - seg * theta)

    def range(self, lo: int, hi: int) -> float:
        if not 0 <= lo <= hi < self.size:
            raise ValueError(f"range [{lo}, {hi}] out of bounds")
        return self.prefix(hi) - self.prefix(lo - 1)

    def _materialized_prefixes(self) -> np.ndarray:
        """``P[j + 1] == prefix(j)`` for ``j in [-1, size)``, computed once.

        The scalar recursion decomposes ``[0, j]`` into, per level, the
        fully covered left siblings of the root-to-leaf path (added left to
        right from 0) plus the deeper remainder added last.  The same
        float operations are replayed here with one cumulative-sum pass and
        one gather per level, so every entry is bitwise identical to the
        corresponding :meth:`prefix` call.
        """
        if self._pext is not None:
            return self._pext
        mech = self._mech
        size, theta, k = self.size, mech.theta, mech.n_segments
        f, h = mech.fanout, mech.height
        s = np.asarray(self._s, dtype=np.float64)
        if h == 0:
            # theta == 1: every index is a segment boundary
            flat = s[:size].copy()
        else:
            j = np.arange(theta)
            span = [f ** (h - l) for l in range(h + 1)]
            # stop level: highest measured node fully covered by [0, j]
            stop = np.zeros(theta, dtype=np.int64)
            for l in range(1, h + 1):
                m = (stop == 0) & ((j + 1) % span[l] == 0)
                stop[m] = l
            values = self._forest[0]
            # cumulative sums within each sibling group reproduce the scalar
            # left-to-right fold of fully covered children
            acc = np.zeros((k, theta), dtype=np.float64)
            for l in range(1, h + 1):
                m = stop == l
                if m.any():
                    acc[:, m] = values[l][:, j[m] // span[l]]
            for l in range(h - 1, -1, -1):
                m = stop > l
                if not m.any():
                    continue
                child = l + 1
                n_sib = (j // span[child]) % f  # left siblings of the path node
                cums = np.cumsum(
                    values[child].reshape(k, -1, f), axis=2
                ).reshape(k, -1)
                first = (j // span[l]) * f  # first child of the path's parent
                # cums[first + n_sib - 1] == fold of siblings 0..n_sib-1; the
                # wrapped index at n_sib == 0 is discarded by the where()
                fold = np.where(n_sib > 0, cums[:, first + n_sib - 1], 0.0)
                acc[:, m] = fold[:, m] + acc[:, m]
            base = np.concatenate(([0.0], s[: k - 1]))
            flat = (base[:, None] + acc).reshape(-1)[:size]
            boundaries = np.minimum(np.arange(1, k + 1) * theta, size) - 1
            flat[boundaries] = s[:k]
        self._pext = np.concatenate(([0.0], flat))
        return self._pext

    def ranges(self, los, his) -> np.ndarray:
        los = np.asarray(los, dtype=np.int64)
        his = np.asarray(his, dtype=np.int64)
        if los.size and (
            (los < 0).any() or (los > his).any() or (his >= self.size).any()
        ):
            raise ValueError("range batch out of bounds")
        pext = self._materialized_prefixes()
        return pext[his + 1] - pext[los]

    def histogram(self) -> np.ndarray:
        return np.diff(self._materialized_prefixes())
