"""The serving tier's LRU map: one lock, exact global LRU order.

Mirrors :mod:`tests.api.test_concurrency`'s barrier-released thread pools,
but aimed at :class:`~repro.api.lru.LRUMap` directly: exact LRU semantics,
the entry and byte bounds (a map filled to exactly ``maxsize`` distinct
keys evicts nothing), one-value-per-key under racing ``adopt`` and
``get_or_create``, and the counter contract (get counts hits only;
adopt/get_or_create count the miss; a racing cohort reports exactly one
miss and N-1 hits).
"""

from __future__ import annotations

import threading

import pytest

from repro.api import LRUMap

N_THREADS = 16


def _hammer(n_threads, worker):
    barrier = threading.Barrier(n_threads)
    results: list = [None] * n_threads
    errors: list = []

    def run(i):
        try:
            barrier.wait()
            results[i] = worker(i)
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    return results


class TestLRUMapOrder:
    """Eviction order, peeks, byte bounds and counters of one map."""

    def test_exact_lru_order_and_stats(self):
        lru = LRUMap(2)
        assert lru.get("a") is None
        lru.record_miss("a")
        lru.adopt("a", "A", count=False)
        lru.adopt("b", "B", count=False)
        assert lru.get("a") == "A"  # refreshes "a"
        lru.adopt("c", "C", count=False)  # evicts "b"
        assert lru.get("b") is None
        assert lru.get("a") == "A"
        stats = lru.stats()
        assert stats["size"] == 2 and stats["evictions"] == 1
        assert stats["hits"] == 2 and stats["misses"] == 1
        assert len(lru) == 2 and "a" in lru and "b" not in lru

    def test_peek_is_invisible(self):
        lru = LRUMap(2)
        lru.adopt("a", "A", count=False)
        lru.adopt("b", "B", count=False)
        assert lru.peek("a") == "A"  # no refresh...
        lru.adopt("c", "C", count=False)
        assert lru.peek("a") is None  # ...so "a" was still the LRU victim
        assert lru.stats()["hits"] == 0

    def test_byte_bound_evicts_lru_first(self):
        lru = LRUMap(100, max_bytes=10)
        lru.adopt("a", "A", nbytes=4, count=False)
        lru.adopt("b", "B", nbytes=4, count=False)
        lru.adopt("c", "C", nbytes=4, count=False)  # 12 bytes > 10: drop "a"
        assert "a" not in lru and "b" in lru and "c" in lru
        stats = lru.stats()
        assert stats["bytes"] == 8 and stats["max_bytes"] == 10
        assert stats["evictions"] == 1

    def test_clear_keeps_counters(self):
        lru = LRUMap(4)
        lru.adopt("a", "A")
        lru.get("a")
        lru.clear()
        assert len(lru) == 0
        assert lru.stats()["hits"] == 1 and lru.stats()["misses"] == 1


class TestLRUMapBounds:
    """The entry bound holds exactly and values() snapshots every entry."""

    def test_aggregate_size_never_exceeds_maxsize(self):
        lru = LRUMap(64)
        for i in range(64):
            lru.adopt(f"k{i}", i, count=False)
        # exactly maxsize distinct keys: nothing is forgotten below the bound
        assert len(lru) == 64 and lru.stats()["evictions"] == 0
        for i in range(64, 1_000):
            lru.adopt(f"k{i}", i, count=False)
        assert len(lru) <= 64
        assert lru.stats()["size"] == len(lru)

    def test_values_snapshot(self):
        lru = LRUMap(64)
        for i in range(10):
            lru.adopt(f"k{i}", i, count=False)
        assert sorted(lru.values()) == list(range(10))


class TestRacingAdopt:
    def test_first_insert_wins_everyone_adopts_it(self):
        lru = LRUMap(256)
        results = _hammer(N_THREADS, lambda i: lru.adopt("key", f"value-{i}"))
        winners = {id(v) for v, _ in results}
        assert len(winners) == 1
        flags = [flag for _, flag in results]
        assert flags.count("miss") == 1 and flags.count("hit") == N_THREADS - 1
        stats = lru.stats()
        assert stats["hits"] + stats["misses"] == N_THREADS

    def test_get_then_adopt_counts_one_event_per_call(self):
        # the EnginePool pattern: get (absence uncounted) then adopt
        lru = LRUMap(256)

        def worker(i):
            value = lru.get("key")
            if value is not None:
                return value, "hit"
            return lru.adopt("key", object())

        results = _hammer(N_THREADS, worker)
        assert len({id(v) for v, _ in results}) == 1
        stats = lru.stats()
        assert stats["hits"] + stats["misses"] == N_THREADS
        assert stats["misses"] == 1

    def test_racing_get_or_create_runs_factory_once(self):
        lru = LRUMap(256)
        built = []

        def factory():
            value = object()
            built.append(value)
            return value

        results = _hammer(N_THREADS, lambda i: lru.get_or_create("session", factory))
        assert len(built) == 1
        assert all(value is built[0] for value, _ in results)
        assert sum(1 for _, created in results if created) == 1

    def test_distinct_keys_race_cleanly(self):
        lru = LRUMap(256)
        _hammer(N_THREADS, lambda i: lru.adopt(f"key-{i}", i))
        assert len(lru) == N_THREADS
        stats = lru.stats()
        assert stats["misses"] == N_THREADS and stats["hits"] == 0


class TestValidation:
    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            LRUMap(0)
        with pytest.raises(ValueError):
            LRUMap(4, max_bytes=0)
