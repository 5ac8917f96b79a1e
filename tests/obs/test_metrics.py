"""The metrics registry: instruments, label series, collectors, threads.

The registry must behave like one Prometheus client: ``(name, labels)``
identifies a series, get-or-create returns the live instrument, recording
is exact under thread contention, and the null registry makes every call
a constant-cost no-op.
"""

from __future__ import annotations

import gc
import threading

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    Histogram,
    MetricsRegistry,
)


class TestInstruments:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total", op="answer")
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)
        assert c.sample() == {
            "name": "requests_total",
            "labels": {"op": "answer"},
            "value": pytest.approx(3.5),
        }

    def test_label_sets_are_independent_series(self):
        reg = MetricsRegistry()
        reg.counter("requests_total", op="answer").inc()
        reg.counter("requests_total", op="plan").inc(5)
        assert reg.counter("requests_total", op="answer").value == 1
        assert reg.counter("requests_total", op="plan").value == 5

    def test_get_or_create_returns_the_live_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x", a="1") is reg.counter("x", a="1")
        assert reg.gauge("y") is reg.gauge("y")
        assert reg.histogram("z") is reg.histogram("z")
        # same name, different kind or labels: different instruments
        assert reg.counter("x") is not reg.counter("x", a="1")
        assert reg.counter("same") is not reg.gauge("same")

    def test_gauge_set_and_add(self):
        reg = MetricsRegistry()
        g = reg.gauge("ledger_spent_epsilon", key="s1")
        g.set(0.5)
        g.add(0.25)
        assert g.value == pytest.approx(0.75)

    def test_histogram_buckets_values(self):
        h = Histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.1, 0.5, 5.0, 100.0):
            h.observe(v)
        assert h.sample()["counts"] == [2, 1, 1, 1]  # <=0.1 x2, then 1 each + overflow
        assert h.count == 5
        assert h.sum == pytest.approx(105.65)

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 0.5))

    def test_histogram_buckets_pinned_at_first_creation(self):
        reg = MetricsRegistry()
        h = reg.histogram("batch_size", buckets=(1, 2, 4))
        again = reg.histogram("batch_size", buckets=(100, 200))
        assert again is h
        assert h.buckets == (1.0, 2.0, 4.0)

    def test_default_buckets_span_the_latency_range(self):
        reg = MetricsRegistry()
        h = reg.histogram("request_seconds")
        assert h.buckets == DEFAULT_LATENCY_BUCKETS


class TestRegistry:
    def test_snapshot_shape_and_order(self):
        reg = MetricsRegistry()
        reg.counter("b_total").inc()
        reg.counter("a_total", op="x").inc(2)
        reg.gauge("size").set(7)
        reg.histogram("lat", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert [s["name"] for s in snap["counters"]] == ["a_total", "b_total"]
        assert snap["gauges"] == [{"name": "size", "labels": {}, "value": 7.0}]
        (hist,) = snap["histograms"]
        assert hist["counts"] == [1, 0] and hist["count"] == 1

    def test_concurrent_increments_are_exact(self):
        reg = MetricsRegistry()
        n_threads, per_thread = 8, 500

        def worker(i):
            for _ in range(per_thread):
                reg.counter("hits_total").inc()
                reg.counter("hits_total", worker=str(i % 2)).inc()
                reg.histogram("lat", buckets=(1.0,)).observe(0.1)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("hits_total").value == n_threads * per_thread
        assert (
            reg.counter("hits_total", worker="0").value
            + reg.counter("hits_total", worker="1").value
            == n_threads * per_thread
        )
        assert reg.histogram("lat").count == n_threads * per_thread

    def test_clear_drops_everything(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.add_collector(lambda: [("g", {}, 1.0)])
        reg.clear()
        assert len(reg) == 0
        assert reg.snapshot() == {"counters": [], "gauges": [], "histograms": []}


class TestCollectors:
    def test_function_collector_emits_gauges(self):
        reg = MetricsRegistry()
        reg.add_collector(lambda: [("ledger_spent_epsilon", {"key": "s"}, 0.5)])
        snap = reg.snapshot()
        assert snap["gauges"] == [
            {"name": "ledger_spent_epsilon", "labels": {"key": "s"}, "value": 0.5}
        ]

    def test_bound_method_collector_dies_with_its_owner(self):
        class Owner:
            def collect(self):
                return [("alive", {}, 1.0)]

        reg = MetricsRegistry()
        owner = Owner()
        reg.add_collector(owner.collect)
        assert reg.snapshot()["gauges"] != []
        del owner
        gc.collect()
        assert reg.snapshot()["gauges"] == []

    def test_broken_collector_never_breaks_the_snapshot(self):
        reg = MetricsRegistry()

        def broken():
            raise RuntimeError("collector exploded")

        reg.add_collector(broken)
        reg.add_collector(lambda: [("ok", {}, 1.0)])
        assert [g["name"] for g in reg.snapshot()["gauges"]] == ["ok"]


class TestNullRegistry:
    def test_everything_is_a_noop(self):
        NULL_REGISTRY.counter("c", a="b").inc(5)
        NULL_REGISTRY.gauge("g").set(1)
        NULL_REGISTRY.gauge("g").add(1)
        NULL_REGISTRY.histogram("h", buckets=(1.0,)).observe(0.5)
        NULL_REGISTRY.add_collector(lambda: [("x", {}, 1.0)])
        assert NULL_REGISTRY.counter("c").value == 0.0
        assert len(NULL_REGISTRY) == 0
        assert NULL_REGISTRY.snapshot() == {
            "counters": [], "gauges": [], "histograms": [],
        }
        NULL_REGISTRY.clear()  # still a no-op

    def test_shared_instrument_singleton(self):
        assert NULL_REGISTRY.counter("a") is NULL_REGISTRY.gauge("b")
