"""The stable ``repro.obs`` surface: configure / metrics / tracer.

Everything instrumented code touches goes through these three accessors;
their contract is that an unconfigured process sees only the null
singletons, ``configure`` flips process-wide state, and a per-request
tracer pushed around one request wins over both.
"""

from __future__ import annotations

from repro import obs
from repro.obs import NULL_REGISTRY, NULL_TRACER, MetricsRegistry, Tracer


class TestConfigure:
    def test_defaults_are_the_null_singletons(self):
        obs.configure(metrics=False, tracing=False)
        assert obs.metrics() is NULL_REGISTRY
        assert obs.tracer() is NULL_TRACER

    def test_metrics_toggle(self):
        reg, _ = obs.configure(metrics=True)
        assert isinstance(reg, MetricsRegistry)
        assert obs.metrics() is reg
        # already on: reconfiguring keeps the incumbent (counters survive)
        reg.counter("kept").inc()
        again, _ = obs.configure(metrics=True)
        assert again is reg
        obs.configure(metrics=False)
        assert obs.metrics() is NULL_REGISTRY

    def test_explicit_registry_is_installed(self):
        mine = MetricsRegistry()
        reg, _ = obs.configure(registry=mine)
        assert reg is mine and obs.metrics() is mine
        obs.configure(metrics=False)

    def test_tracing_toggle(self):
        _, tracer = obs.configure(tracing=True)
        assert isinstance(tracer, Tracer)
        assert obs.tracer() is tracer
        obs.configure(tracing=False)
        assert obs.tracer() is NULL_TRACER

    def test_none_leaves_state_alone(self):
        reg, _ = obs.configure(metrics=True)
        obs.configure()
        assert obs.metrics() is reg
        obs.configure(metrics=False)


class TestTracerOverride:
    def test_pushed_tracer_wins_over_global(self):
        _, global_tracer = obs.configure(tracing=True)
        per_request = Tracer()
        token = obs.push_tracer(per_request)
        try:
            assert obs.tracer() is per_request
            assert obs.current_tracer_override() is per_request
        finally:
            obs.pop_tracer(token)
        assert obs.tracer() is global_tracer
        assert obs.current_tracer_override() is None
        obs.configure(tracing=False)

    def test_override_works_without_global_tracing(self):
        per_request = Tracer()
        token = obs.push_tracer(per_request)
        try:
            with obs.tracer().span("request"):
                pass
        finally:
            obs.pop_tracer(token)
        (root,) = per_request.take()
        assert root.name == "request"
        assert obs.tracer() is NULL_TRACER
