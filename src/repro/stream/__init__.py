"""repro.stream: continual/streaming releases over append-only data.

The one-shot stack answers queries against a database pinned at session
creation.  This package adds the continual-release model of serving: data
arrives in ticks (:class:`StreamDataset`), a :class:`StreamBudget`
amortizes one total epsilon across an expected horizon of ticks, and the
release mechanisms trade freshness against noise under that amortization —
the hierarchical (binary) interval counter pays ``log``-many compositions
for always-fresh cumulative synopses, sliding-window re-releases pay
per-tick for bounded-window ones, and per-group freshness bounds
(``QueryGroup.max_staleness``) let queries opt into serving from a
recent-enough release for free.

Serving rides the existing planner/executor unchanged:
:class:`StreamState` injects the continual synopses into a session's
release map, the planner cost-scores the stream candidates against
one-shot releases at the tick's
:class:`~repro.analysis.bounds.StreamContext`, and the executor answers
from whichever release the plan picked.
"""

from .budget import StreamBudget, amortized_ledger_total, node_label, parse_node_label
from .dataset import StreamDataset, synthetic_feed, twitter_replay
from .mechanisms import (
    CombinedIntervalRelease,
    HierarchicalIntervalCounter,
    SlidingWindowReleaser,
)
from .serving import COUNTER_KEY, MANAGED_KEYS, WINDOW_KEY, StreamState

__all__ = [
    "StreamDataset",
    "twitter_replay",
    "synthetic_feed",
    "StreamBudget",
    "amortized_ledger_total",
    "node_label",
    "parse_node_label",
    "HierarchicalIntervalCounter",
    "SlidingWindowReleaser",
    "CombinedIntervalRelease",
    "StreamState",
    "COUNTER_KEY",
    "WINDOW_KEY",
    "MANAGED_KEYS",
]
