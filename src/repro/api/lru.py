"""One bounded, thread-safe LRU map: the serving tier's only container.

Sessions, parsed policies, pooled engines and compiled plans all live in
an :class:`LRUMap`: one ``OrderedDict`` under one lock, with exact global
LRU order.  Every critical section is a dict probe, an insert or an
eviction; parsing, planning, engine builds and answering all happen
outside the lock.  A map filled to ``maxsize`` distinct keys evicts
nothing, so a service never forgets a session below its bound (and never
charges a tenant twice for a release it would otherwise have held).

The access patterns the serving tier needs: ``get``/``peek``, the
double-checked ``adopt`` (build outside the lock, first insert wins),
``get_or_create`` (the factory runs under the lock — for values that are
cheap to build but must exist exactly once, like session ledgers), and an
optional accumulated-byte bound (the plan cache's second limit).
"""

from __future__ import annotations

from collections import OrderedDict
from threading import Lock

__all__ = ["LRUMap"]


class LRUMap:
    """A bounded, thread-safe LRU map.

    Parameters
    ----------
    maxsize:
        Entry bound; inserting past it evicts the least recently used key.
    max_bytes:
        Optional bound on the accumulated sizes passed to :meth:`adopt`;
        exceeding it evicts least recently used keys until it holds.

    ``get`` counts a hit when found and nothing when absent — whether an
    absence becomes a miss is the caller's double-checked insert's
    decision (:meth:`adopt` counts it), so a get-then-adopt race that
    loses to an incumbent reports exactly one event, not two.
    """

    __slots__ = (
        "maxsize", "max_bytes", "_lock", "_items", "_nbytes", "_bytes",
        "_hits", "_misses", "_evictions",
    )

    def __init__(self, maxsize: int, *, max_bytes: int | None = None):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.maxsize = int(maxsize)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self._lock = Lock()
        self._items: OrderedDict = OrderedDict()
        self._nbytes: dict = {}
        self._bytes = 0
        self._hits = self._misses = self._evictions = 0

    # -- reads -----------------------------------------------------------------------
    def get(self, key):
        """The value for ``key`` (refreshing its LRU slot), or None.

        A hit is counted; an absence is *not* counted as a miss — callers
        following up with :meth:`adopt` count it there (double-checked
        insert), callers that give up count it via :meth:`record_miss`.
        """
        with self._lock:
            value = self._items.get(key)
            if value is not None:
                self._hits += 1
                self._items.move_to_end(key)
            return value

    def peek(self, key):
        """The value for ``key`` without touching LRU order or counters."""
        with self._lock:
            return self._items.get(key)

    def record_miss(self, key) -> None:
        """Count a miss for ``key`` (a lookup the caller will not retry)."""
        with self._lock:
            self._misses += 1

    # -- writes ----------------------------------------------------------------------
    def adopt(self, key, value, *, nbytes: int = 0, count: bool = True):
        """Double-checked insert: ``(winner, "hit"|"miss")`` for this call.

        Racing builders for one key produce interchangeable values (every
        caller keys on all inputs), so the first insert wins and later
        callers adopt the incumbent.  ``count=True`` counts the insert as a
        miss and an adopt as a hit — the :class:`~repro.api.EnginePool`
        accounting; ``count=False`` leaves counters alone for callers that
        already counted at lookup time (the plan cache).
        """
        with self._lock:
            incumbent = self._items.get(key)
            if incumbent is not None:
                self._hits += count
                self._items.move_to_end(key)
                return incumbent, "hit"
            self._misses += count
            self._items[key] = value
            if nbytes:
                self._nbytes[key] = int(nbytes)
                self._bytes += int(nbytes)
            self._evict()
            return value, "miss"

    def get_or_create(self, key, factory):
        """``(value, created)`` — ``factory()`` runs under the map's lock.

        For values that are cheap to construct but must exist exactly once
        per key (a session's budget ledger): racing openers of a brand-new
        key can never build two and drop one mid-spend.
        """
        with self._lock:
            value = self._items.get(key)
            if value is not None:
                self._hits += 1
                self._items.move_to_end(key)
                return value, False
            self._misses += 1
            value = self._items[key] = factory()
            self._evict()
            return value, True

    def _evict(self) -> None:
        # caller holds self._lock; exact LRU over the whole map
        while len(self._items) > self.maxsize or (
            self.max_bytes is not None and self._bytes > self.max_bytes
        ):
            evicted, _ = self._items.popitem(last=False)
            self._bytes -= self._nbytes.pop(evicted, 0)
            self._evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are preserved, as the caches always did)."""
        with self._lock:
            self._items.clear()
            self._nbytes.clear()
            self._bytes = 0

    # -- aggregates ------------------------------------------------------------------
    def values(self) -> list:
        """Snapshot of every live value (no LRU effect)."""
        with self._lock:
            return list(self._items.values())

    def stats(self) -> dict[str, int]:
        with self._lock:
            out = {
                "size": len(self._items),
                "maxsize": self.maxsize,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }
            if self.max_bytes is not None:
                out["bytes"] = self._bytes
                out["max_bytes"] = self.max_bytes
        return out

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._items

    def __repr__(self) -> str:
        return f"LRUMap(size={len(self)}/{self.maxsize})"
