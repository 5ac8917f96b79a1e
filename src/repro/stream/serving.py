"""Per-session continual-release serving state.

A :class:`StreamState` binds one :class:`~repro.api.Session` to the
continual-release mechanisms for its attached stream: the hierarchical
interval counter and the sliding-window releaser, both drawing on one
:class:`~repro.stream.budget.StreamBudget`.

The executor stays completely unchanged by streaming: the state *injects*
its current synopsis into the session's release map under the managed keys
(``"range:hierarchical-interval"``, ``"range:sliding-window"``) with the
current tick as its birth tick.  The planner then sees the key as held at
age 0 (free reuse — the node spends already happened at counter advance),
and the executor serves it as an ordinary cache hit.  When a compiled plan
*does* charge one of the managed keys fresh (first request of a session,
or a window release older than a group's freshness bound),
:meth:`StreamState.ensure_fresh` performs the amortized release — spending
``per_node``/``per_tick`` epsilon through the session's accountant, never
the plan's one-shot allocation — and the charging step is then served as a
hit.  The first plan that picks the counter also makes the choice sticky:
from then on the counter advances on every tick the session observes,
which is the continual-release contract (one node release per tick,
whether or not a query arrives in it).
"""

from __future__ import annotations

from ..analysis.bounds import StreamContext
from ..core.composition import BudgetExceededError
from .budget import StreamBudget
from .mechanisms import HierarchicalIntervalCounter, SlidingWindowReleaser

__all__ = ["StreamState", "COUNTER_KEY", "WINDOW_KEY", "MANAGED_KEYS"]

#: Session release keys owned by the stream serving layer.
COUNTER_KEY = "range:hierarchical-interval"
WINDOW_KEY = "range:sliding-window"
MANAGED_KEYS = (COUNTER_KEY, WINDOW_KEY)


class StreamState:
    """Continual-release bookkeeping for one (session, stream, budget)."""

    def __init__(self, engine, stream, budget: StreamBudget):
        if not isinstance(budget, StreamBudget):
            raise TypeError("StreamState needs a StreamBudget")
        self.stream = stream
        self.budget = budget
        self.counter = HierarchicalIntervalCounter(engine, budget)
        self.window = SlidingWindowReleaser(engine, budget)
        #: sticky: set the first time a plan charges the counter's key, after
        #: which every observed tick advances the counter (continual release)
        self.use_counter = False

    # -- planning support -----------------------------------------------------------
    def plan_context(self) -> StreamContext:
        """The stream tick the planner scores the continual candidates at."""
        return StreamContext(
            self.budget.horizon, max(self.stream.tick, 0), self.budget.window
        )

    def past_horizon(self) -> bool:
        """Whether the current tick lies beyond the amortization horizon
        (ticks ``0 .. horizon-1`` are the funded ones)."""
        return self.stream.tick >= self.budget.horizon

    def check_horizon(self) -> None:
        """Strict budgets refuse ticks past the horizon *at planning time*,
        before any spend; degrade modes are handled by the planner through
        a zero remaining budget instead."""
        if self.budget.degradation == "strict" and self.past_horizon():
            per_tick = self.budget.per_tick()
            raise BudgetExceededError(
                per_tick, self.budget.total + per_tick, self.budget.total
            )

    @staticmethod
    def managed(key: str) -> bool:
        return key in MANAGED_KEYS

    # -- release management ---------------------------------------------------------
    def ensure_fresh(self, key: str, session, rng) -> bool:
        """Bring the managed release behind ``key`` up to the current tick.

        Spends the amortized epsilon through the session's accountant
        (charge-before-draw, exactly one ledger entry per fresh node or
        window release) and injects the synopsis into the session's release
        map at age 0.  Returns whether the session now holds ``key`` at the
        current tick; ``False`` means the budget is exhausted under a
        degrade mode and the session keeps whatever stale state it had.
        """
        tick = self.stream.tick
        if tick < 0:
            return False
        if key == COUNTER_KEY:
            self.use_counter = True
            self.counter.advance(self.stream, rng=rng, accountant=session.accountant)
            if self.counter.released_through <= tick:
                return False  # exhausted mid-catch-up (degrade mode)
            session.releases[COUNTER_KEY] = self.counter.answerer()
            session.release_ticks[COUNTER_KEY] = tick
            return True
        if key == WINDOW_KEY:
            release = self.window.refresh(
                self.stream, rng=rng, accountant=session.accountant
            )
            if release is None:
                return False
            session.releases[WINDOW_KEY] = release
            session.release_ticks[WINDOW_KEY] = self.window.current_tick
            return self.window.current_tick == tick
        return False

    def advance_if_sticky(self, session, rng, *, tolerance: int = 0) -> None:
        """Keep a previously chosen counter current before planning a tick.

        No-op until the first plan charges the counter; after that the
        counter is continual — it folds every sealed tick in exactly once,
        so repeated calls in one tick spend nothing further.  A workload
        whose every group tolerates ``tolerance`` ticks of staleness skips
        the fold while the held synopsis is within the bound: the tick is
        then served free, and the catch-up (same total cost — the binary
        decomposition charges per sealed tick, whenever folded) happens on
        the first later query that does demand freshness.
        """
        if not self.use_counter:
            return
        born = session.release_ticks.get(COUNTER_KEY)
        age = 0 if born is None else max(0, session._db_tick - born)
        if age > tolerance:
            self.ensure_fresh(COUNTER_KEY, session, rng)

    def describe(self) -> dict:
        """JSON-ready serving-state snapshot (response meta / demo)."""
        out = {
            "tick": self.stream.tick,
            "horizon": self.budget.horizon,
            "per_node_epsilon": self.budget.per_node(),
            "per_tick_epsilon": self.budget.per_tick(),
            "node_releases": self.counter.node_releases,
            "window_refreshes": self.window.refreshes,
            "exhausted": self.counter.exhausted or self.window.exhausted,
        }
        if self.use_counter:
            out["decomposition"] = self.counter.answerer().describe()
        if self.budget.window is not None:
            out["window"] = self.budget.window
        return out

    def __repr__(self) -> str:
        return (
            f"StreamState(tick={self.stream.tick}, horizon={self.budget.horizon}, "
            f"counter={self.use_counter}, nodes={len(self.counter.nodes)})"
        )
