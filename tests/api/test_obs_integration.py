"""Observability through the serving tier, end to end.

The acceptance claims of the ``repro.obs`` subsystem:

* a single ``"trace": true`` request returns one ``meta.trace`` tree with
  spans covering service → session → planner → executor → mechanism and
  the epsilon charged per release as a span attribute;
* with metrics on, the request path populates the documented counter and
  histogram series, and ``describe`` exposes the snapshot;
* per-dataset calibrated fits are auto-selected at registration and passed
  to planning per request (recorded on the plan span), so one dataset's fit
  never leaks into another's plans;
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database, Domain, Policy, obs
from repro.api import BlowfishService, SQLiteLedgerStore

EPSILON = 0.5


@pytest.fixture
def service():
    domain = Domain.integers("v", 40)
    rng = np.random.default_rng(7)
    db = Database.from_indices(domain, rng.integers(0, domain.size, 300))
    service = BlowfishService()
    service.register_dataset("data", db)
    service.register_dataset("uniform-ages", db)
    return service, domain


def _plan_request(domain, *, dataset="data", trace=False, session="t1"):
    request = {
        "op": "plan",
        "policy": Policy.line(domain).to_spec(),
        "epsilon": EPSILON,
        "dataset": {"name": dataset},
        "queries": {"kind": "range_batch", "los": [5, 0], "his": [20, 39]},
        "session": session,
        "seed": 3,
    }
    if trace:
        request["trace"] = True
    return request


def _find(node, name):
    if node.get("name") == name:
        return node
    for child in node.get("children", ()):
        found = _find(child, name)
        if found is not None:
            return found
    return None


class TestRequestTracing:
    def test_trace_opt_in_yields_the_full_span_chain(self, service):
        service, domain = service
        response = service.handle(_plan_request(domain, trace=True))
        assert response["ok"], response
        trace = response["meta"]["trace"]

        root = trace
        assert root["name"] == "service.handle"
        attrs = root["attributes"]
        assert attrs["op"] == "plan" and attrs["outcome"] == "ok"
        assert attrs["epsilon"] == EPSILON
        assert attrs["session"] and attrs["policy_fingerprint"]

        for name in (
            "session.plan_execute",
            "session.plan",
            "planner.compile",
            "session.execute",
            "executor.run",
            "executor.step",
            "mechanism.release",
        ):
            assert _find(trace, name) is not None, f"span {name} missing: {trace}"

        compile_span = _find(trace, "planner.compile")
        assert compile_span["attributes"]["cost_model"] == "synthetic-grid"

        release = _find(trace, "mechanism.release")
        assert release["attributes"]["epsilon_charged"] == EPSILON
        assert release["attributes"]["family"]

        charged = [
            s["attributes"]["epsilon_charged"]
            for s in self._walk(trace)
            if s["name"] == "executor.step"
        ]
        assert charged and sum(charged) == response["meta"]["epsilon_spent"]

    @staticmethod
    def _walk(node):
        yield node
        for child in node.get("children", ()):
            yield from TestRequestTracing._walk(child)

    def test_without_opt_in_no_trace_is_attached(self, service):
        service, domain = service
        response = service.handle(_plan_request(domain))
        assert response["ok"]
        assert "trace" not in response["meta"]

    def test_failed_requests_trace_their_outcome(self, service):
        service, _domain = service
        response = service.handle({"op": "nonsense", "trace": True})
        assert not response["ok"]
        trace = response["meta"]["trace"]
        assert trace["attributes"]["outcome"] == "invalid_request"


class TestServiceMetrics:
    def test_request_counters_and_latency_histogram(self, service):
        obs.configure(registry=obs.MetricsRegistry())
        service, domain = service
        assert service.handle(_plan_request(domain))["ok"]
        assert not service.handle({"op": "nonsense"})["ok"]

        reg = obs.metrics()
        assert reg.counter("requests_total", op="plan", outcome="ok").value == 1
        assert (
            reg.counter("requests_total", op="nonsense", outcome="invalid_request").value
            == 1
        )
        assert reg.histogram("request_seconds", op="plan").count == 1
        assert reg.counter("epsilon_spent_total").value == pytest.approx(EPSILON)
        assert reg.counter("plan_requests_total", outcome="miss").value == 1

    def test_snapshot_includes_lru_series_and_describe_carries_it(self, service):
        obs.configure(registry=obs.MetricsRegistry())
        service, domain = service
        service.handle(_plan_request(domain))
        snap = service.metrics_snapshot()
        names = {c["name"] for c in snap["counters"]}
        assert {"requests_total", "lru_hits_total", "lru_misses_total"} <= names
        assert any(
            g["name"] == "lru_size" and g["labels"]["map"] == "sessions"
            for g in snap["gauges"]
        )
        described = service.handle(
            {
                "op": "describe",
                "policy": Policy.line(domain).to_spec(),
                "epsilon": EPSILON,
            }
        )
        assert described["meta"]["metrics"]["counters"]
        assert described["meta"]["dataset_calibrations"] == {
            "uniform-ages": "uniform"
        }

    def test_ledger_budget_gauges_ride_the_snapshot(self, tmp_path):
        obs.configure(registry=obs.MetricsRegistry())
        domain = Domain.integers("v", 40)
        db = Database.from_indices(domain, np.arange(100) % 40)
        service = BlowfishService(
            ledger_store=SQLiteLedgerStore(str(tmp_path / "ledger.sqlite"))
        )
        service.register_dataset("data", db)
        request = _plan_request(domain)
        request["budget"] = 5.0
        assert service.handle(request)["ok"]
        gauges = [
            g
            for g in service.metrics_snapshot()["gauges"]
            if g["name"] == "ledger_spent_epsilon"
        ]
        assert len(gauges) == 1
        assert gauges[0]["value"] == pytest.approx(EPSILON)

    def test_disabled_metrics_record_nothing(self, service):
        service, domain = service
        assert service.handle(_plan_request(domain))["ok"]
        snap = service.metrics_snapshot()
        # only the service-local LRU/ledger series, nothing from the null registry
        assert all(c["name"].startswith("lru_") for c in snap["counters"])


class TestPerDatasetCalibration:
    def test_auto_select_from_the_dataset_name(self, service):
        service, domain = service
        db = Database.from_indices(domain, np.zeros(10, dtype=int))
        for name in ("adult-census", "twitter-replay", "skin-pixels", "payroll"):
            service.register_dataset(name, db)
        assert service.dataset_calibration("adult-census") == "adult"
        assert service.dataset_calibration("twitter-replay") == "twitter"
        assert service.dataset_calibration("skin-pixels") == "skin"
        assert service.dataset_calibration("payroll") is None
        assert service.dataset_calibration("uniform-ages") == "uniform"
        assert service.dataset_calibration("data") is None

    def test_explicit_unknown_family_is_rejected(self, service):
        service, domain = service
        db = Database.from_indices(domain, np.zeros(10, dtype=int))
        with pytest.raises(ValueError, match="unknown calibration family"):
            service.register_dataset("x", db, calibration="nope")

    def test_calibrated_fit_scopes_the_plan_and_is_recorded(self, service):
        service, domain = service
        response = service.handle(
            _plan_request(domain, dataset="uniform-ages", trace=True, session="t2")
        )
        assert response["ok"], response
        compile_span = _find(response["meta"]["trace"], "planner.compile")
        assert compile_span["attributes"]["cost_model"] == "uniform"
        # per request: the next request on another dataset keeps the default
        response = service.handle(_plan_request(domain, trace=True, session="t5"))
        compile_span = _find(response["meta"]["trace"], "planner.compile")
        assert compile_span["attributes"]["cost_model"] == "synthetic-grid"

    def test_plans_are_not_shared_across_fits(self, service):
        service, domain = service
        first = service.handle(_plan_request(domain, session="t3"))
        second = service.handle(
            _plan_request(domain, dataset="uniform-ages", session="t4")
        )
        assert first["meta"]["plan_cache"] == "miss"
        # same workload, different calibrated fit: must not hit t3's plan
        assert second["meta"]["plan_cache"] == "miss"
