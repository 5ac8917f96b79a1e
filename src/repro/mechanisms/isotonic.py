"""Isotonic regression via Pool-Adjacent-Violators (PAVA).

The ordered mechanism's constrained-inference step (Section 7.1, following
Hay et al. [9]) is the L2 projection of the noisy cumulative histogram onto
the cone of non-decreasing sequences — computed exactly by PAVA in linear
time.  We implement the weighted variant (needed when different prefix
counts carry different noise scales, as in the ordered hierarchical tree)
plus box clamping for the ``s_1 > 0`` / ``s_i <= n`` side constraints.
"""

from __future__ import annotations

import numpy as np

__all__ = ["isotonic_regression", "project_cumulative"]


def isotonic_regression(
    y: np.ndarray,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Weighted L2 isotonic regression: the non-decreasing ``x`` minimizing
    ``sum_i w_i (x_i - y_i)^2``.

    Classic PAVA with a block stack; O(n).
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError("y must be 1-D")
    n = y.size
    if n == 0:
        return y.copy()
    if weights is None:
        w = [1.0] * n
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != y.shape:
            raise ValueError("weights must match y in shape")
        if (w <= 0).any():
            raise ValueError("weights must be positive")
        w = w.tolist()

    # The block stack lives in plain lists of Python floats, which round
    # exactly like float64 but skip numpy's per-scalar indexing overhead.
    means: list[float] = []
    wsums: list[float] = []
    counts: list[int] = []
    for mean, weight in zip(y.tolist(), w):
        count = 1
        # merge into the block below while the monotonicity is violated
        while means and means[-1] > mean:
            below = wsums.pop()
            tw = below + weight
            mean = (means.pop() * below + mean * weight) / tw
            weight = tw
            count += counts.pop()
        means.append(mean)
        wsums.append(weight)
        counts.append(count)
    return np.repeat(np.array(means), counts)


def project_cumulative(
    noisy: np.ndarray,
    total: float | None = None,
    nonnegative: bool = True,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Consistent cumulative histogram from noisy prefix counts.

    Applies isotonic regression (ordering constraint, the paper's
    constrained-inference step) and then clamps into ``[0, total]``.
    Clamping a monotone sequence preserves monotonicity, and both steps are
    post-processing — no privacy cost.

    Parameters
    ----------
    noisy:
        Noisy prefix sums ``s~_1, ..., s~_|T|``.
    total:
        The public cardinality ``n`` (prefix counts can never exceed it);
        ``None`` skips the upper clamp.
    nonnegative:
        Enforce ``s_i >= 0`` (the paper's ``s_1 > 0`` remark: with the
        ordering constraint this makes every released count non-negative).
    weights:
        Optional per-entry inverse-variance weights for the isotonic step.
    """
    fitted = isotonic_regression(np.asarray(noisy, dtype=np.float64), weights=weights)
    lo = 0.0 if nonnegative else -np.inf
    hi = float(total) if total is not None else np.inf
    return np.clip(fitted, lo, hi)
