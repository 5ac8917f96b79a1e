"""Service-level planning: the ``"plan"``/``"explain"`` ops and the pool
statistics exposed by ``"describe"``."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import Database, Domain, Policy
from repro.api import BlowfishService, EnginePool, spec_digest


@pytest.fixture
def domain():
    return Domain.integers("v", 128)


@pytest.fixture
def service(domain):
    rng = np.random.default_rng(5)
    svc = BlowfishService()
    svc.register_dataset("data", Database.from_indices(domain, rng.integers(0, 128, 3_000)))
    return svc


def _base(domain, theta=2.0, epsilon=0.5):
    return {
        "policy": Policy.distance_threshold(domain, theta).to_spec(),
        "epsilon": epsilon,
    }


MIXED_QUERIES = [
    {"kind": "range", "lo": 5, "hi": 60},
    {"kind": "range", "lo": 0, "hi": 127},
    {"kind": "count", "support": list(range(30, 50))},
]


class TestPlanOp:
    def test_plan_answers_and_reports_steps(self, domain, service):
        req = {
            **_base(domain),
            "op": "plan",
            "dataset": {"name": "data"},
            "queries": MIXED_QUERIES,
            "session": "c", "seed": 0,
        }
        resp = service.handle(req)
        assert resp["ok"], resp
        assert len(resp["answers"]) == 3
        steps = resp["plan"]["steps"]
        assert [s["family"] for s in steps] == ["range", "count"]
        for step in steps:
            assert {"strategy", "predicted_rmse", "epsilon", "release"} <= set(step)
        # theta=2: cost-driven pick is the ordered mechanism, counts shared
        assert steps[0]["strategy"] == "ordered"
        assert steps[1]["release"] == steps[0]["release"]
        assert resp["meta"]["epsilon_spent"] == pytest.approx(0.5)
        # repeat: served from the session's cached release for free
        again = service.handle(req)
        assert again["meta"]["epsilon_spent"] == 0.0
        assert again["answers"] == resp["answers"]

    def test_workload_spec_shape_is_accepted(self, domain, service):
        workload = {
            "kind": "workload",
            "groups": [
                {"name": "r", "family": "range", "los": [0, 4], "his": [10, 90]},
                {"name": "c", "family": "count", "supports": [list(range(8, 16))]},
            ],
        }
        resp = service.handle(
            {**_base(domain), "op": "plan", "dataset": {"name": "data"},
             "queries": workload, "seed": 0}
        )
        assert resp["ok"], resp
        assert len(resp["answers"]) == 3

    def test_bad_mode_is_named(self, domain, service):
        resp = service.handle(
            {**_base(domain), "op": "plan", "dataset": {"name": "data"},
             "queries": MIXED_QUERIES, "mode": "yolo"}
        )
        assert not resp["ok"]
        assert resp["error"]["field"] == "request.mode"


#: ``op: "answer"`` request sequences, each sent in order to a fresh service.
#: The second request of a named session must be served from the held
#: release; an ephemeral repeat must release again.
GOLDEN_CASES = {
    "range_batch": [
        {"queries": {"kind": "range_batch", "los": [0, 5, 17, 40, 64, 100],
                     "his": [127, 9, 80, 40, 90, 120]},
         "session": "g", "seed": 7},
        {"queries": {"kind": "range_batch", "los": [3, 0], "his": [50, 0]},
         "session": "g", "seed": 8},
    ],
    "range_list": [
        {"queries": [{"kind": "range", "lo": 5, "hi": 60},
                     {"kind": "range", "lo": 0, "hi": 127}],
         "session": "g", "seed": 3},
        {"queries": [{"kind": "range", "lo": 20, "hi": 21}], "session": "g", "seed": 4},
    ],
    "mixed": [
        {"queries": MIXED_QUERIES + [
            {"kind": "linear", "weights": [float(i % 3) for i in range(3_000)]}],
         "session": "g", "seed": 7},
        {"queries": MIXED_QUERIES, "session": "g", "seed": 9},
    ],
    "inline": [
        {"dataset": {"indices": [int(i) for i in np.arange(200) * 37 % 128]},
         "queries": MIXED_QUERIES, "session": "g", "seed": 1},
        {"dataset": {"indices": [int(i) for i in np.arange(200) * 37 % 128]},
         "queries": MIXED_QUERIES, "session": "g", "seed": 2},
    ],
    "ephemeral": [
        {"queries": MIXED_QUERIES, "seed": 5},
        {"queries": MIXED_QUERIES, "seed": 5},
    ],
    "budget_refusal": [
        # the range release fits the budget, the histogram is refused
        {"queries": MIXED_QUERIES, "session": "b", "budget": 0.75, "seed": 6},
        {"queries": [{"kind": "range", "lo": 0, "hi": 99}], "session": "b", "seed": 6},
    ],
}

#: per response: (sha256 of the float64 answers, epsilon_spent,
#: session_total, release_cache, strategies), or the error kind of a
#: refused request.  Captured from the dedicated ``"answer"`` handler that
#: preceded the shared plan path; they pin that the op's answers, spends
#: and family-keyed metadata did not move.
_OH = {"range": {"family": "range", "strategy": "ordered-hierarchical"}}
_HIST = {
    "histogram": {
        "family": "histogram",
        "scale": 4.0,
        "sensitivity": 2.0,
        "strategy": "laplace-histogram",
    }
}
_LINEAR = {"linear": {"family": "linear", "strategy": "batch-linear"}}
_MIXED_MISS = {"histogram": "miss", "range": "miss"}
_MIXED_HIT = {"histogram": "hit", "range": "hit"}

GOLDEN = {
    "budget_refusal": [
        "budget_exhausted",
        ("4d1ec07eab80a6b107a1ffc821abe1fbfec30c9e5b57381bca268ac8cada46d7",
         0.0, 0.5, {"range": "hit"}, _OH),
    ],
    "ephemeral": [
        ("80c3c28c186b39ed5ea0026c6b8c74b7f5eb1ade7f00433a6e3688df0cfa0cde",
         1.0, 1.0, _MIXED_MISS, {**_HIST, **_OH}),
        ("80c3c28c186b39ed5ea0026c6b8c74b7f5eb1ade7f00433a6e3688df0cfa0cde",
         1.0, 1.0, _MIXED_MISS, {**_HIST, **_OH}),
    ],
    "inline": [
        ("61de2866c4ebcbc3c532dee91a7ba8679bee53a0fce8d2f85ce71dbde7f3f3ba",
         1.0, 1.0, _MIXED_MISS, {**_HIST, **_OH}),
        ("61de2866c4ebcbc3c532dee91a7ba8679bee53a0fce8d2f85ce71dbde7f3f3ba",
         0.0, 1.0, _MIXED_HIT, {**_HIST, **_OH}),
    ],
    "mixed": [
        ("5c4506ff5fd01f0efe20e988faa337bb029f827ad6fa3248a695b6136e01dd2e",
         1.5, 1.5, {**_MIXED_MISS, "linear": "miss"}, {**_HIST, **_LINEAR, **_OH}),
        ("292a188b56383613798bb165c7281a2d7c0804346f4cddbbce61912abf0b9879",
         0.0, 1.5, _MIXED_HIT, {**_HIST, **_OH}),
    ],
    "range_batch": [
        ("db1285eea11c1d02aa2484bebb183bc69362d5272b7f9ff5f9363bb1cf2722af",
         0.5, 0.5, {"range": "miss"}, _OH),
        ("0063b3e4bd7c98eca5d3353ff65f5869da6f2e6ae52ee5f424750be56c22f0c8",
         0.0, 0.5, {"range": "hit"}, _OH),
    ],
    "range_list": [
        ("e1174f66cb7d5966fc45d0807f5d6d09a6327f88927962b7f44c9d862d5049f0",
         0.5, 0.5, {"range": "miss"}, _OH),
        ("a05fd1602e70c1531b70813b74d43cd5d77664a6c7b453af5eadb2e151678872",
         0.0, 0.5, {"range": "hit"}, _OH),
    ],
}


def _observed(response):
    if not response["ok"]:
        return response["error"]["kind"]
    assert response["op"] == "answer" and "plan" not in response
    meta = response["meta"]
    digest = hashlib.sha256(np.asarray(response["answers"], np.float64).tobytes())
    return (
        digest.hexdigest(),
        meta["epsilon_spent"],
        meta["session_total"],
        meta["release_cache"],
        meta["strategies"],
    )


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_answer_op_matches_golden(case, domain, service):
    observed = [
        _observed(service.handle({**_base(domain), "dataset": {"name": "data"}, **req}))
        for req in GOLDEN_CASES[case]
    ]
    assert observed == GOLDEN[case]


class TestExplainOp:
    def test_explain_spends_nothing_and_needs_no_dataset(self, domain):
        service = BlowfishService()  # nothing registered
        resp = service.handle(
            {**_base(domain), "op": "explain", "queries": MIXED_QUERIES}
        )
        assert resp["ok"], resp
        report = resp["report"]
        for needle in ("predicted RMSE", "epsilon", "candidates:", "ordered"):
            assert needle in report
        spec = resp["plan"]
        assert spec["kind"] == "plan"
        # the spec round-trips through the library loader
        from repro.plan import Plan

        plan = Plan.from_spec(spec, domain)
        assert plan.fingerprint() == Plan.from_spec(plan.to_spec(), domain).fingerprint()

    def test_explain_never_materializes_a_session(self, domain, service):
        # a preview must not create an unbudgeted session that would later
        # swallow the budget of the client's real first request
        common = {
            **_base(domain),
            "dataset": {"name": "data"},
            "queries": MIXED_QUERIES,
            "session": "fresh-client",
        }
        assert service.handle({**common, "op": "explain"})["ok"]
        resp = service.handle({**common, "op": "plan", "budget": 0.5, "seed": 0})
        assert resp["ok"]
        # the budget from the first *answering* request is enforced
        refused = service.handle(
            {**common, "op": "plan", "budget": 0.5, "seed": 0,
             "queries": [{"kind": "linear", "weights": [1.0] * 3000}]}
        )
        assert not refused["ok"] and "budget" in refused["error"]["message"]

    def test_explain_previews_the_warmed_session(self, domain, service):
        # after a plan request warms the session, an explain on the same
        # request must report the reuse (zero charge), not fresh spends
        common = {
            **_base(domain),
            "dataset": {"name": "data"},
            "queries": MIXED_QUERIES,
            "session": "warm",
            "seed": 0,
        }
        service.handle({**common, "op": "plan"})
        preview = service.handle({**common, "op": "explain"})
        assert preview["ok"]
        assert preview["meta"]["total_epsilon"] == 0.0
        # without the session context the same workload predicts a charge
        cold = service.handle({**_base(domain), "op": "explain", "queries": MIXED_QUERIES})
        assert cold["meta"]["total_epsilon"] > 0.0

    def test_explain_reports_epsilon_split_per_group(self, domain):
        resp = BlowfishService().handle(
            {**_base(domain), "op": "explain", "queries": MIXED_QUERIES}
        )
        eps = [s["epsilon"] for s in resp["plan"]["steps"]]
        assert eps == [0.5, 0.0]  # counts ride the shared range release
        assert resp["meta"]["total_epsilon"] == pytest.approx(0.5)


class TestPlanCacheServing:
    def test_repeated_tenant_workloads_share_one_compiled_plan(self, domain, service):
        req = {
            **_base(domain),
            "op": "plan",
            "dataset": {"name": "data"},
            "queries": MIXED_QUERIES,
            "seed": 3,
        }
        # two ephemeral tenants, same workload: the second skips candidate
        # scoring and still answers bitwise-identically (same seed)
        first = service.handle(dict(req))
        second = service.handle(dict(req))
        assert first["ok"] and second["ok"]
        assert first["meta"]["plan_cache"] == "miss"
        assert second["meta"]["plan_cache"] == "hit"
        assert second["answers"] == first["answers"]
        assert second["plan"] == first["plan"]
        stats = service.pool.plan_cache.stats()
        assert stats["size"] == 1 and stats["hits"] == 1

    def test_explain_preview_warms_the_plan_cache_for_plan(self, domain, service):
        req = {
            **_base(domain),
            "dataset": {"name": "data"},
            "queries": MIXED_QUERIES,
            "session": "warmed", "seed": 0,
        }
        preview = service.handle({**req, "op": "explain"})
        assert preview["ok"] and preview["meta"]["plan_cache"] == "miss"
        executed = service.handle({**req, "op": "plan"})
        assert executed["ok"] and executed["meta"]["plan_cache"] == "hit"
        # explain returns the full plan spec; its digest is the fingerprint
        assert executed["plan"]["fingerprint"] == spec_digest(preview["plan"])

    def test_warmed_session_state_changes_the_cache_key(self, domain, service):
        req = {
            **_base(domain),
            "op": "plan",
            "dataset": {"name": "data"},
            "queries": MIXED_QUERIES,
            "session": "s1", "seed": 0,
        }
        first = service.handle(dict(req))
        assert first["meta"]["plan_cache"] == "miss"
        # the session now holds the release: a plan that charges 0 is a
        # different plan, so it must not be served from the cold entry
        second = service.handle(dict(req))
        assert second["meta"]["plan_cache"] == "miss"
        assert second["meta"]["epsilon_spent"] == 0.0
        # ... but a second *tenant* in the cold state hits the cold entry
        third = service.handle({**req, "session": "s2"})
        assert third["meta"]["plan_cache"] == "hit"

    def test_registering_a_rule_keys_out_stale_plans(self, domain, service):
        from repro.mechanisms.ordered import OrderedMechanism

        engine = service.pool.get(Policy.distance_threshold(domain, 2.0), 0.5)
        workload = engine.workload([])  # empty is enough to exercise the key
        assert engine.plan_with_meta(workload)[1] == "miss"
        assert engine.plan_with_meta(workload)[1] == "hit"
        # a new rule changes what candidate scoring would choose: the old
        # compiled plans must not survive under the mutated registry
        engine.registry.register(
            "range",
            None,
            lambda policy, epsilon, **kw: OrderedMechanism(policy, epsilon),
            name="custom-ordered",
        )
        assert engine.plan_with_meta(workload)[1] == "miss"


class TestDescribeStats:
    def test_describe_exposes_pool_and_sensitivity_cache(self, domain, service):
        resp = service.handle({**_base(domain), "op": "describe"})
        assert resp["ok"]
        pool = resp["meta"]["engine_pool"]
        assert {"size", "maxsize", "hits", "misses", "evictions"} <= set(pool)
        assert {"size", "hits", "misses"} <= set(resp["meta"]["sensitivity_cache"])

    def test_describe_exposes_plan_cache_traffic(self, domain, service):
        req = {
            **_base(domain),
            "op": "plan",
            "dataset": {"name": "data"},
            "queries": MIXED_QUERIES,
            "seed": 3,
        }
        service.handle(dict(req))
        service.handle(dict(req))
        resp = service.handle({**_base(domain), "op": "describe"})
        stats = resp["meta"]["plan_cache"]
        assert {"size", "maxsize", "hits", "misses", "evictions"} <= set(stats)
        assert stats["size"] == 1
        assert stats["hits"] >= 1 and stats["misses"] >= 1


class TestPoolLRU:
    def test_stats_counts_hits_misses_evictions(self, domain):
        pool = EnginePool(maxsize=2)
        p = Policy.line(domain)
        pool.get(p, 0.5)
        pool.get(p, 0.5)
        pool.get(p, 0.7)
        pool.get(p, 0.9)
        stats = pool.stats()
        assert stats == {
            "size": 2, "maxsize": 2, "hits": 1, "misses": 3, "evictions": 1,
        }

    def test_eviction_order_matches_lru(self, domain):
        pool = EnginePool(maxsize=2)
        policies = {t: Policy.distance_threshold(domain, t) for t in (2, 3, 4)}
        pool.get(policies[2], 0.5)
        pool.get(policies[3], 0.5)
        pool.get(policies[2], 0.5)  # touch 2: now 3 is least recently used
        pool.get(policies[4], 0.5)  # evicts 3, not 2
        assert pool.key(policies[2], 0.5) in pool
        assert pool.key(policies[4], 0.5) in pool
        assert pool.key(policies[3], 0.5) not in pool
        assert pool.stats()["evictions"] == 1
