"""Continual-release mechanisms: the binary interval counter and
sliding-window re-releases.

**Hierarchical (binary) interval counter.**  At tick ``t`` the counter
maintains one released synopsis per dyadic interval in the binary
decomposition of ``[0, t]`` — ``popcount(t+1)`` nodes, never more than
``log2(t+1)+1``.  Advancing to a new tick releases exactly *one* fresh
node (the dyadic interval ending at ``t`` whose length is the lowest set
bit of ``t+1``) and retires the now-merged lower nodes, so over ``T``
ticks there are ``T`` node releases and any tuple's arrivals are covered
by at most one node *per level*.  Same-level nodes span disjoint arrival
intervals, so a level composes in parallel (Theorems 4.2/4.3 over the
arrival partition) and the level count bounds the sequential cost — the
accounting :class:`~repro.stream.budget.StreamBudget` amortizes for.
Each node is released by the engine's registry (the
``hierarchical-interval`` rule: an ordered release of the node's
interval), noise-calibrated with the *policy graph's* sensitivity exactly
like any one-shot release.

Every fresh node charges the session accountant once — label
``stream:<family>:L<level>:<lo>-<hi>``, id scope the node's tick interval
— before any noise is drawn, so a shared
:class:`~repro.api.ledger.LedgerStore` shows exactly one spend per node
and :func:`~repro.stream.budget.amortized_ledger_total` can reconstruct
the honest per-level cost from the labels alone.

**Sliding-window re-releases.**  :class:`SlidingWindowReleaser` re-releases
the last ``window`` ticks' arrivals (or the full snapshot when
``window=None`` — the naive baseline the benchmark compares against) at
the budget's per-tick share.  Consecutive re-releases see overlapping
data, so they compose sequentially; the releaser keeps its history so
staleness-bounded serving can answer from a recent-enough release without
recharging.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..core.composition import BudgetExceededError
from ..core.rng import ensure_rng
from .budget import StreamBudget, node_label

__all__ = [
    "CombinedIntervalRelease",
    "HierarchicalIntervalCounter",
    "SlidingWindowReleaser",
]


class _Node:
    """One maintained dyadic node: its tick interval and released synopsis."""

    __slots__ = ("level", "lo", "hi", "release", "epsilon")

    def __init__(self, level: int, lo: int, hi: int, release, epsilon: float):
        self.level = level
        self.lo = lo
        self.hi = hi
        self.release = release
        self.epsilon = epsilon


class CombinedIntervalRelease:
    """The counter's serving view: the sum of its maintained node synopses.

    Quacks like any released range answerer (``ranges`` / ``histogram`` /
    ``counts``), so the plan executor can serve it as an ordinary held
    release; answers are sums over ``popcount(t+1)`` independent node
    releases, which is free post-processing of synopses already paid for.
    """

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = list(parts)

    def ranges(self, los, his) -> np.ndarray:
        los = np.asarray(los, np.int64)
        his = np.asarray(his, np.int64)
        out = np.zeros(los.shape, dtype=np.float64)
        for node in self.parts:
            out = out + np.asarray(node.release.ranges(los, his), dtype=np.float64)
        return out

    def histogram(self) -> np.ndarray:
        cells = None
        for node in self.parts:
            h = np.asarray(node.release.histogram(), dtype=np.float64)
            cells = h if cells is None else cells + h
        if cells is None:
            raise ValueError("no interval nodes have been released yet")
        return cells

    def counts(self, masks) -> np.ndarray:
        masks = np.atleast_2d(np.asarray(masks))
        return masks.astype(np.float64) @ self.histogram()

    def describe(self) -> list[dict]:
        """The maintained decomposition, JSON-ready (demo / introspection)."""
        return [
            {"level": n.level, "ticks": [n.lo, n.hi], "epsilon": n.epsilon}
            for n in sorted(self.parts, key=lambda n: n.lo)
        ]

    def __repr__(self) -> str:
        spans = ", ".join(f"[{n.lo},{n.hi}]" for n in sorted(self.parts, key=lambda n: n.lo))
        return f"CombinedIntervalRelease({spans or 'empty'})"


class HierarchicalIntervalCounter:
    """Binary-interval continual release over a :class:`StreamDataset`.

    ``advance`` consumes every tick the stream has sealed beyond what the
    counter released, one fresh node per tick, each charged
    ``budget.per_node()`` to the accountant *before* its noise is drawn.
    Ticks past the budget's horizon need budget the amortization never
    reserved: ``strict`` raises :class:`BudgetExceededError` with nothing
    spent, the degrade modes mark the counter :attr:`exhausted` and keep
    serving the decomposition already paid for.
    """

    def __init__(
        self,
        engine,
        budget: StreamBudget,
        *,
        family: str = "range",
        strategy: str = "hierarchical-interval",
    ):
        self.engine = engine
        self.budget = budget
        self.family = family
        self.strategy = strategy
        self.nodes: dict[tuple[int, int], _Node] = {}
        #: arrival steps (sealed ticks) already folded into the decomposition
        self.released_through = 0
        #: total fresh node releases over the counter's lifetime
        self.node_releases = 0
        self.exhausted = False

    def advance(self, stream, *, rng=None, accountant=None) -> int:
        """Fold every newly sealed tick into the decomposition.

        Returns the number of fresh node releases (one per consumed tick;
        zero when the counter is already caught up or exhausted).
        """
        rng = ensure_rng(rng)
        fresh = 0
        while self.released_through <= stream.tick:
            t = self.released_through
            if t >= self.budget.horizon:
                if self.budget.degradation == "strict":
                    raise BudgetExceededError(
                        self.budget.per_node(),
                        self.budget.total + self.budget.per_node(),
                        self.budget.total,
                    )
                self.exhausted = True
                return fresh
            self._release_step(stream, t, rng, accountant)
            self.released_through = t + 1
            fresh += 1
        return fresh

    def _release_step(self, stream, t: int, rng, accountant) -> None:
        n = t + 1
        length = n & -n  # lowest set bit: the new node's tick count
        level = length.bit_length() - 1
        lo = n - length
        label = node_label(self.family, level, lo, t)
        eps = self.budget.per_node()
        with obs.tracer().span(
            "stream.node_release",
            family=self.family,
            level=level,
            lo_tick=lo,
            hi_tick=t,
            epsilon_charged=eps,
        ):
            mech = self.engine.mechanism(self.family, self.strategy, epsilon=eps)
            db = stream.interval(lo, t)
            if accountant is not None:
                # charge before any noise exists — one scoped ledger entry
                # per node; the scope is the node's *tick* interval, a
                # disjointness-preserving coarsening of its tuple ids
                accountant.spend(eps, label=label, ids=range(lo, t + 1))
            release = mech.release(db, rng=rng)
        # the new node subsumes every maintained node inside its interval
        for key in [k for k in self.nodes if k[1] >= lo]:
            del self.nodes[key]
        self.nodes[(level, lo)] = _Node(level, lo, t, release, eps)
        self.node_releases += 1
        obs.metrics().counter("stream_node_releases_total", family=self.family).inc()

    def answerer(self) -> CombinedIntervalRelease:
        """The current decomposition as one served release."""
        return CombinedIntervalRelease(self.nodes.values())

    def __repr__(self) -> str:
        return (
            f"HierarchicalIntervalCounter(through={self.released_through}, "
            f"nodes={len(self.nodes)}, releases={self.node_releases})"
        )


class SlidingWindowReleaser:
    """Per-tick re-releases of the trailing window (or full snapshot).

    ``refresh`` releases the arrivals of the last ``budget.window`` ticks
    (everything so far when the window is ``None``) at the budget's
    per-tick share — the sequential-composition splitting that makes
    ``horizon`` re-releases sum to exactly the total.  The releaser keeps
    each tick's release in :attr:`history`, which is what
    staleness-bounded serving draws on: a query group tolerating ``k``
    ticks of staleness is answered from the newest release of age at most
    ``k`` with *no* fresh charge.
    """

    def __init__(
        self,
        engine,
        budget: StreamBudget,
        *,
        family: str = "range",
        strategy: str = "sliding-window",
    ):
        self.engine = engine
        self.budget = budget
        self.family = family
        self.strategy = strategy
        #: tick -> release, every re-release ever made (staleness serving)
        self.history: dict[int, object] = {}
        self.refreshes = 0
        self.exhausted = False

    @property
    def current(self):
        """The newest release, or ``None`` before the first refresh."""
        return self.history[max(self.history)] if self.history else None

    @property
    def current_tick(self) -> int | None:
        return max(self.history) if self.history else None

    def refresh(self, stream, *, rng=None, accountant=None):
        """Re-release the window as of the stream's current tick.

        Idempotent per tick (a second call at the same tick returns the
        held release without spending).  Refreshes beyond the horizon
        follow the budget's degradation: ``strict`` raises before any
        spend, the degrade modes return the newest stale release.
        """
        if stream.tick < 0:
            raise ValueError("nothing sealed yet: advance the stream first")
        t = stream.tick
        held = self.history.get(t)
        if held is not None:
            return held
        if self.refreshes >= self.budget.horizon:
            if self.budget.degradation == "strict":
                raise BudgetExceededError(
                    self.budget.per_tick(),
                    self.budget.total + self.budget.per_tick(),
                    self.budget.total,
                )
            self.exhausted = True
            return self.current
        eps = self.budget.per_tick()
        window = self.budget.window
        lo = 0 if window is None else max(0, t - window + 1)
        label = f"stream:{self.family}:window:{lo}-{t}@{t}"
        with obs.tracer().span(
            "stream.window_release",
            family=self.family,
            lo_tick=lo,
            hi_tick=t,
            epsilon_charged=eps,
        ):
            mech = self.engine.mechanism(self.family, self.strategy, epsilon=eps)
            db = stream.interval(lo, t)
            if accountant is not None:
                # overlapping windows see shared arrivals: no id scope, the
                # spends compose sequentially exactly as charged
                accountant.spend(eps, label=label)
            release = mech.release(db, rng=ensure_rng(rng))
        self.history[t] = release
        self.refreshes += 1
        obs.metrics().counter("stream_window_releases_total", family=self.family).inc()
        return release

    def newest_within(self, tick: int, max_age: int):
        """``(release, age)`` of the newest release aged ≤ ``max_age`` at
        ``tick``, or ``(None, None)`` when none qualifies."""
        for t in sorted(self.history, reverse=True):
            age = tick - t
            if 0 <= age <= max_age:
                return self.history[t], age
        return None, None

    def __repr__(self) -> str:
        return (
            f"SlidingWindowReleaser(refreshes={self.refreshes}, "
            f"current_tick={self.current_tick})"
        )
