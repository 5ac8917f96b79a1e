"""Analytic error formulas quoted in the paper (Sections 2, 7) and the
per-mechanism cost model behind the workload planner (:mod:`repro.plan`).

These are the lines the experiments are checked against:

* Laplace histogram: ``8 |T| / eps^2`` total squared error (Section 2);
* Ordered mechanism range query: ``<= 4 S^2/eps^2`` with ``S`` the
  cumulative-histogram sensitivity — Theorem 7.1's ``4/eps^2`` on the line
  graph, independent of ``|T|``;
* Hierarchical mechanism range query: ``O(log^3 |T|/eps^2)``;
* Ordered hierarchical: Eqns (13)-(15), re-exported from the mechanism;
* The Li-Miklau SVD lower bound [16]: no differentially private strategy
  answers every range query with ``O(1/eps^2)`` error — we expose an
  *indicative* ``Theta(log^2 |T|)/eps^2`` scaling curve for plots, clearly
  labeled as a reference shape rather than the exact constant.

The planner-facing entry points are :func:`predicted_range_query_mse` and
:func:`predicted_count_query_mse`: given a registry strategy name and the
policy-derived parameters (domain size, cached sensitivity, theta, the
*configured* fan-out — never an assumed one), they return the expected
per-query squared error, scaled by :data:`CALIBRATION` constants measured
against the benchmark suite (``benchmarks/calibrate_cost_model.py``).
"""

from __future__ import annotations

import contextvars
import math
from contextlib import contextmanager

from ..mechanisms.ordered_hierarchical import (
    oh_error_constants,
    oh_expected_range_error,
    optimal_budget_split,
)

__all__ = [
    "laplace_histogram_total_error",
    "laplace_cell_variance",
    "ordered_range_error_bound",
    "hierarchical_range_error_estimate",
    "svd_lower_bound_indicative",
    "oh_error_constants",
    "oh_expected_range_error",
    "optimal_budget_split",
    "predicted_range_query_mse",
    "predicted_count_query_mse",
    "CALIBRATION",
    "COST_MODEL_FITS",
    "MODEL_TOLERANCE",
    "calibration_factor",
    "active_calibration",
    "active_calibration_family",
    "register_calibration",
    "calibration",
    "StreamContext",
    "stream_context",
    "active_stream_context",
    "stream_plan_token",
]


def laplace_cell_variance(epsilon: float, sensitivity: float = 2.0) -> float:
    """Variance of one ``Lap(sensitivity/eps)`` histogram cell: ``2 S^2/eps^2``."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return 2.0 * (sensitivity / epsilon) ** 2


def laplace_histogram_total_error(size: int, epsilon: float) -> float:
    """Section 2: ``|T| * E[Lap(2/eps)^2] = 8 |T|/eps^2``."""
    return size * laplace_cell_variance(epsilon)


def ordered_range_error_bound(epsilon: float, sensitivity: float = 1.0) -> float:
    """Theorem 7.1: a range query touches two noisy prefix counts, so its
    expected squared error is at most ``2 * 2 (S/eps)^2 = 4 S^2/eps^2``."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return 4.0 * sensitivity**2 / epsilon**2


def hierarchical_range_error_estimate(size: int, epsilon: float, fanout: int) -> float:
    """The ``theta = |T|`` end of Eqn (14): the hierarchical mechanism's
    expected per-range-query squared error under uniform budgeting.

    ``fanout`` is the fan-out the configured mechanism actually uses — it
    has no default on purpose.  The error surface is genuinely non-monotone
    in ``f`` (``benchmarks/results/ablation_fanout.csv`` measures a ~2x
    swing between ``f=2`` and the optimum), so silently assuming the
    paper's ``f=16`` would mis-rank mechanisms configured with any other
    fan-out.
    """
    if fanout < 2:
        raise ValueError("fanout must be at least 2")
    _, c2 = oh_error_constants(size, size, fanout)
    return c2 / epsilon**2


def svd_lower_bound_indicative(size: int, epsilon: float) -> float:
    """An indicative ``log^2|T| / eps^2`` curve for the Li-Miklau SVD lower
    bound on differentially private range queries [16].  Shape only — the
    exact constant depends on the workload; used to illustrate that the
    ordered mechanism's ``O(1/eps^2)`` sits below every DP strategy."""
    if size < 2:
        return 0.0
    return (math.log2(size) ** 2) / epsilon**2


# -- planner cost model -----------------------------------------------------------

#: Measured ratio (empirical MSE) / (analytic formula) per (strategy,
#: consistent) pair, from ``benchmarks/calibrate_cost_model.py`` (median
#: over a |T|=1024 grid of thetas and epsilons, 24 trials each).  The raw
#: (``consistent=False``) mechanisms track their formulas closely.  For the
#: prefix-structured mechanisms the constrained-inference gain *grows with
#: theta* (isotonic/GLS post-processing exploits the sparsity the Section 7
#: bounds give away), so their ``True`` entries are the base of a measured
#: power-law fit ``ratio ~= base * theta^-exponent`` (see
#: :data:`INFERENCE_THETA_EXPONENT`) rather than a flat constant.
CALIBRATION: dict[tuple[str, bool], float] = {
    ("ordered", False): 1.0,
    ("ordered", True): 1.0,
    ("hierarchical", False): 1.06,
    ("hierarchical", True): 0.39,
    ("ordered-hierarchical", False): 1.18,
    ("ordered-hierarchical", True): 1.0,
    ("laplace-histogram", False): 1.0,
    ("laplace-histogram", True): 1.0,
    ("constrained-histogram", False): 1.0,
    ("constrained-histogram", True): 1.0,
}

#: Measured exponents ``b`` of the with-inference improvement
#: ``theta^-b`` (power-law fit of the calibration ratios over theta in
#: [1, 256]; the ordered mechanism's theta proxy is its cumulative
#: sensitivity, which equals the index-gap threshold on G^{d,theta}).
INFERENCE_THETA_EXPONENT: dict[str, float] = {
    "ordered": 0.45,
    "ordered-hierarchical": 0.2,
}

#: Per-dataset-family calibration fits, each a ``{"constants",
#: "theta_exponents", "provenance"}`` record emitted by
#: ``benchmarks/calibrate_cost_model.py --family <name>``.  The shipped
#: default is the synthetic spiky-mixture grid the constants above were
#: measured on; re-fits for other dataset families are registered here (or
#: via :func:`register_calibration`) and activated per scope with
#: :func:`calibration` — the planner's scores then use the active family's
#: constants everywhere.
COST_MODEL_FITS: dict[str, dict] = {
    "synthetic-grid": {
        "constants": CALIBRATION,
        "theta_exponents": INFERENCE_THETA_EXPONENT,
        "provenance": (
            "benchmarks/calibrate_cost_model.py --family synthetic-grid: "
            "|T|=1024 spiky mixture, thetas 1..256, eps {0.25, 1}, 24 trials"
        ),
    },
    "uniform": {
        # measured on the same grid with uniformly distributed tuples
        # (benchmarks/calibrate_cost_model.py --family uniform); the raw
        # mechanisms track their formulas as closely as on the spiky
        # mixture, but constrained inference gains materially more — a flat
        # histogram gives isotonic/GLS post-processing more exploitable
        # structure.  Histogram strategies are unfit by the script (the
        # Laplace formula is distribution-free) and stay at 1.
        "constants": {
            ("ordered", False): 0.99,
            ("ordered", True): 0.55,
            ("hierarchical", False): 1.06,
            ("hierarchical", True): 0.38,
            ("ordered-hierarchical", False): 1.23,
            ("ordered-hierarchical", True): 0.57,
            ("laplace-histogram", False): 1.0,
            ("laplace-histogram", True): 1.0,
            ("constrained-histogram", False): 1.0,
            ("constrained-histogram", True): 1.0,
        },
        "theta_exponents": {"ordered": 0.55, "ordered-hierarchical": 0.22},
        "provenance": (
            "benchmarks/calibrate_cost_model.py --family uniform: "
            "|T|=1024 uniform tuples, thetas 1..256, eps (0.25, 1.0), 8 trials"
        ),
    },
    "adult": {
        # the Adult capital-loss attribute (domain 4357, ~95% zeros): the
        # extreme sparsity makes constrained inference dramatically more
        # effective — the ordered mechanism's isotonic pass collapses the
        # near-constant cumulative histogram, hence the tiny with-inference
        # constant and steep theta decay.
        "constants": {
            ("ordered", False): 1.01,
            ("ordered", True): 0.04,
            ("hierarchical", False): 1.29,
            ("hierarchical", True): 0.48,
            ("ordered-hierarchical", False): 1.17,
            ("ordered-hierarchical", True): 0.40,
            ("laplace-histogram", False): 1.0,
            ("laplace-histogram", True): 1.0,
            ("constrained-histogram", False): 1.0,
            ("constrained-histogram", True): 1.0,
        },
        "theta_exponents": {"ordered": 0.59, "ordered-hierarchical": 0.14},
        "provenance": (
            "benchmarks/calibrate_cost_model.py --family adult: "
            "|T|=4357, thetas 1..256, eps (0.25, 1.0), 4 trials"
        ),
    },
    "twitter": {
        # the tweet latitude projection (400 ordered km values, 5 km
        # cells): mass concentrates in a few metro bands, so inference
        # helps the tree mechanisms moderately and the ordered mechanism's
        # theta decay is shallow (thetas are km, multiples of the cell).
        "constants": {
            ("ordered", False): 1.01,
            ("ordered", True): 0.92,
            ("hierarchical", False): 1.29,
            ("hierarchical", True): 0.54,
            ("ordered-hierarchical", False): 1.28,
            ("ordered-hierarchical", True): 0.66,
            ("laplace-histogram", False): 1.0,
            ("laplace-histogram", True): 1.0,
            ("constrained-histogram", False): 1.0,
            ("constrained-histogram", True): 1.0,
        },
        "theta_exponents": {"ordered": 0.09, "ordered-hierarchical": 0.23},
        "provenance": (
            "benchmarks/calibrate_cost_model.py --family twitter: "
            "|T|=400, thetas 5..320 km, eps (0.25, 1.0), 6 trials"
        ),
    },
    "skin": {
        # the skin-segmentation R channel (domain 256, smooth multimodal
        # mixture): small domain, dense histogram — trees overshoot their
        # formulas less than on the big grids, and inference gains are
        # mid-range.
        "constants": {
            ("ordered", False): 1.04,
            ("ordered", True): 0.96,
            ("hierarchical", False): 0.63,
            ("hierarchical", True): 0.24,
            ("ordered-hierarchical", False): 1.18,
            ("ordered-hierarchical", True): 0.62,
            ("laplace-histogram", False): 1.0,
            ("laplace-histogram", True): 1.0,
            ("constrained-histogram", False): 1.0,
            ("constrained-histogram", True): 1.0,
        },
        "theta_exponents": {"ordered-hierarchical": 0.28},
        "provenance": (
            "benchmarks/calibrate_cost_model.py --family skin: "
            "|T|=256 (R projection), thetas 1..64, eps (0.25, 1.0), 6 trials"
        ),
    },
}

#: The active fit.  A contextvar so a multi-tenant service can plan each
#: request under the fit calibrated for *that request's dataset family*
#: (``repro.api.BlowfishService`` resolves it per registered dataset)
#: without perturbing concurrent requests; outside any :func:`calibration`
#: scope the shipped synthetic-grid fit is active.
_calibration_fit: contextvars.ContextVar = contextvars.ContextVar(
    "repro_calibration_fit", default="synthetic-grid"
)


def _current_fit() -> str:
    return _calibration_fit.get()


@contextmanager
def calibration(family: str):
    """Scoped fit override: plan/score under ``family`` for the duration
    of the ``with`` block (this context only — concurrent requests keep
    their own fit).  The serving tier uses this to auto-select the fit
    calibrated for each registered dataset family."""
    if family not in COST_MODEL_FITS:
        known = ", ".join(sorted(COST_MODEL_FITS))
        raise KeyError(f"unknown calibration family {family!r} (known: {known})")
    token = _calibration_fit.set(family)
    try:
        yield
    finally:
        _calibration_fit.reset(token)


def active_calibration_family() -> str:
    """Name of the active fit (plan-cache keys, plan provenance stamps):
    the innermost :func:`calibration` scope's, else the shipped default."""
    return _current_fit()


def active_calibration() -> dict:
    """The active cost-model fit, JSON-ready (surfaced by ``"describe"``
    and ``Plan.explain()``): family name, provenance, constants keyed
    ``"<strategy>"`` with ``raw``/``inference`` entries, theta exponents."""
    fit = COST_MODEL_FITS[_current_fit()]
    constants: dict[str, dict] = {}
    for (strategy, consistent), value in sorted(fit["constants"].items()):
        constants.setdefault(strategy, {})["inference" if consistent else "raw"] = value
    return {
        "family": _current_fit(),
        "provenance": fit["provenance"],
        "constants": constants,
        "theta_exponents": dict(fit.get("theta_exponents", {})),
    }


def register_calibration(
    family: str,
    constants: dict[tuple[str, bool], float],
    *,
    theta_exponents: dict[str, float] | None = None,
    provenance: str = "user-supplied",
) -> None:
    """Register a per-dataset-family re-fit (does not activate it)."""
    COST_MODEL_FITS[family] = {
        "constants": dict(constants),
        "theta_exponents": dict(theta_exponents or {}),
        "provenance": provenance,
    }

# -- streaming plan context --------------------------------------------------------


class StreamContext:
    """The stream parameters a continual-release cost model needs.

    ``horizon`` is the budget's amortization horizon in ticks, ``tick`` the
    current (0-based) tick being planned, ``window`` the sliding-window
    width (``None`` for cumulative streams).  Derived quantities follow the
    binary counter: :meth:`levels` dyadic levels over the horizon, and
    :meth:`parts` maintained nodes at this tick (``popcount(tick + 1)``) —
    a query sums that many node synopses, so its variance scales with it.
    """

    __slots__ = ("horizon", "tick", "window")

    def __init__(self, horizon: int, tick: int, window: int | None = None):
        self.horizon = int(horizon)
        self.tick = int(tick)
        self.window = None if window is None else int(window)
        if self.horizon < 1:
            raise ValueError("horizon must be at least one tick")

    def levels(self) -> int:
        return math.floor(math.log2(self.horizon)) + 1

    def parts(self) -> int:
        return max(1, bin(self.tick + 1).count("1"))

    def token(self) -> tuple:
        """Plan-cache identity: everything the stream scores depend on.

        Scores read the tick only through :meth:`parts`, so ticks with
        equal popcount share compiled plans.
        """
        return ("stream", self.horizon, self.window, self.parts())

    def __repr__(self) -> str:
        return (
            f"StreamContext(horizon={self.horizon}, tick={self.tick}, "
            f"window={self.window})"
        )


#: Scoped stream context.  A contextvar for the same reason as the
#: calibration override: one process plans streaming and one-shot requests
#: concurrently, and the continual-release candidates must be visible (and
#: scoreable) only to the former.
_stream_ctx: contextvars.ContextVar = contextvars.ContextVar(
    "repro_stream_context", default=None
)


@contextmanager
def stream_context(horizon: int, tick: int, window: int | None = None):
    """Scoped stream parameters for planning one tick's requests.

    While active, the registry's continual-release candidates
    (``hierarchical-interval``, ``sliding-window``) match and their cost
    models score; outside it they neither match nor score, so one-shot
    planning is untouched.
    """
    token = _stream_ctx.set(StreamContext(horizon, tick, window))
    try:
        yield
    finally:
        _stream_ctx.reset(token)


def active_stream_context() -> StreamContext | None:
    """The scoped :func:`stream_context`, or ``None`` outside one."""
    return _stream_ctx.get()


def stream_plan_token() -> tuple | None:
    """Plan-cache key component of the active stream context (None outside)."""
    ctx = _stream_ctx.get()
    return None if ctx is None else ctx.token()


#: How far a measured MSE may exceed the model's prediction-implied choice
#: before the planner is considered *wrong* (the contract the
#: planner-optimality tests enforce): the planner's pick must never be
#: worse than the fixed per-family strategy by more than this factor.
MODEL_TOLERANCE = 1.35


def calibration_factor(
    strategy: str, consistent: bool = True, *, theta: float | None = None
) -> float:
    """Measured correction applied on top of the analytic formulas.

    ``theta`` feeds the with-inference power law for the prefix-structured
    mechanisms; omit it (or pass ``None``) for the flat constant alone.
    Constants come from the *active* fit (a scoped :func:`calibration`
    override); the default is the shipped synthetic-grid measurement.
    """
    fit = COST_MODEL_FITS[_current_fit()]
    factor = fit["constants"].get((strategy, bool(consistent)), 1.0)
    if consistent and theta is not None and theta > 1:
        factor *= theta ** -fit.get("theta_exponents", {}).get(strategy, 0.0)
    return factor


def predicted_range_query_mse(
    strategy: str,
    size: int,
    epsilon: float,
    *,
    sensitivity: float = 1.0,
    theta: int | None = None,
    fanout: int = 16,
    budget_split: str | float = "optimal",
    consistent: bool = True,
) -> float:
    """Expected squared error of one random range query under ``strategy``.

    Parameters mirror what the engine actually configures: ``sensitivity``
    is the *cached* cumulative-histogram sensitivity ``S(S_T, P)`` (used by
    the ordered mechanism), ``theta`` the policy graph's maximum index gap
    (used by the OH hybrid), ``fanout``/``budget_split``/``consistent`` the
    per-family mechanism options.  Unknown strategies raise ``KeyError`` so
    the planner can skip rules it has no model for.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if strategy in ("hierarchical-interval", "sliding-window"):
        return _predicted_stream_range_mse(strategy, epsilon, sensitivity, consistent)
    if strategy == "ordered":
        raw = ordered_range_error_bound(epsilon, sensitivity)
        # the ordered mechanism's theta proxy is its sensitivity: S = theta
        # on G^{d,theta}, 1 on the line graph, 0 on edgeless graphs
        theta = max(sensitivity, 1.0)
    elif strategy == "hierarchical":
        raw = hierarchical_range_error_estimate(size, epsilon, fanout)
        theta = None
    elif strategy == "ordered-hierarchical":
        if theta is None:
            raise ValueError("the ordered-hierarchical model needs theta")
        theta = max(1, min(int(theta), size))
        raw = oh_expected_range_error(
            size, theta, fanout, *_oh_split(size, theta, fanout, epsilon, budget_split)
        )
    else:
        raise KeyError(f"no cost model for range strategy {strategy!r}")
    return raw * calibration_factor(strategy, consistent, theta=theta)


def _predicted_stream_range_mse(
    strategy: str, epsilon: float, sensitivity: float, consistent: bool
) -> float:
    """Expected per-range-query squared error of the continual candidates,
    *relative to the tick's fair epsilon share* ``epsilon``.

    The planner scores every candidate at one reference epsilon, so the
    stream models express their amortization advantage in the same
    currency.  At equal total budget over ``horizon`` ticks, a per-tick
    re-release (the ``sliding-window`` shape, and the naive baseline) runs
    each tick at the reference share — ordered-mechanism error ``c/eps^2``.
    The binary counter instead releases one dyadic node per tick at
    ``levels/horizon`` ticks' worth of budget (same-level nodes cover
    disjoint arrivals, so a level composes in parallel and only levels
    compose sequentially), and a query at tick ``t`` sums
    ``popcount(t+1)`` maintained nodes:

        parts * c / (eps * horizon / levels)^2
      = parts * (levels/horizon)^2 * c / eps^2.

    For any horizon >= 2 that factor is well under 1 — the amortized-MSE
    win the stream benchmark measures.  Raises ``KeyError`` outside a
    :func:`stream_context` so one-shot planning skips the candidates.
    """
    ctx = _stream_ctx.get()
    if ctx is None:
        raise KeyError(
            f"range strategy {strategy!r} is only scoreable inside a stream_context"
        )
    base = ordered_range_error_bound(epsilon, sensitivity) * calibration_factor(
        "ordered", consistent, theta=max(sensitivity, 1.0)
    )
    if strategy == "sliding-window":
        return base
    return ctx.parts() * (ctx.levels() / ctx.horizon) ** 2 * base


def _oh_split(
    size: int, theta: int, fanout: int, epsilon: float, budget_split: str | float
) -> tuple[float, float]:
    """The ``(eps_S, eps_H)`` the OH mechanism would actually run with,
    including its degenerate-end overrides (all-S at ``theta=1``, all-H for
    a single segment)."""
    if isinstance(budget_split, str):
        if budget_split == "optimal":
            eps_s, eps_h = optimal_budget_split(size, theta, fanout, epsilon)
        elif budget_split == "uniform":
            eps_s, eps_h = epsilon / 2.0, epsilon / 2.0
        else:
            raise ValueError("budget_split must be 'optimal', 'uniform' or a float")
    else:
        eps_s = float(budget_split)
        eps_h = epsilon - eps_s
    height = math.ceil(math.log(theta, fanout)) if theta > 1 else 0
    if height == 0:
        eps_s, eps_h = epsilon, 0.0
    if math.ceil(size / theta) == 1:
        eps_s, eps_h = 0.0, epsilon
    return eps_s, eps_h


def predicted_count_query_mse(
    strategy: str,
    epsilon: float,
    *,
    sensitivity: float = 2.0,
    avg_support: float = 1.0,
    consistent: bool = True,
) -> float:
    """Expected squared error of one count query answered from a fresh
    histogram release: independent ``Lap(S/eps)`` cells, so the noise
    variance sums over the query's support."""
    if strategy not in ("laplace-histogram", "constrained-histogram"):
        raise KeyError(f"no cost model for histogram strategy {strategy!r}")
    if sensitivity <= 0:
        return 0.0
    return (
        avg_support
        * laplace_cell_variance(epsilon, sensitivity)
        * calibration_factor(strategy, consistent)
    )
