"""The serving façade: EnginePool sharing, Session ledgers, BlowfishService.

The headline acceptance check lives here too: a policy plus a query batch
serialized to JSON and submitted through ``BlowfishService.handle`` must be
bitwise identical (same seed) to direct ``PolicyEngine`` use.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import (
    CountQuery,
    Database,
    Domain,
    LinearQuery,
    Policy,
    PolicyEngine,
    RangeQuery,
    Workload,
)
from repro.api import BlowfishService, EnginePool, Session
from repro.engine import policy_fingerprint


@pytest.fixture
def domain():
    return Domain.integers("v", 200)


@pytest.fixture
def db(domain):
    rng = np.random.default_rng(3)
    return Database.from_indices(domain, rng.integers(0, domain.size, 2_000))


def _mixed_queries(domain, db, n_ranges=150, seed=11):
    rng = np.random.default_rng(seed)
    los = rng.integers(0, domain.size, n_ranges)
    his = rng.integers(0, domain.size, n_ranges)
    los, his = np.minimum(los, his), np.maximum(los, his)
    queries = [RangeQuery(domain, int(a), int(b)) for a, b in zip(los, his)]
    queries.append(CountQuery.from_mask(domain, np.arange(domain.size) % 3 == 0))
    queries.append(LinearQuery(domain, np.full(db.n, 0.5)))
    return queries


def _answer(session, queries, rng):
    """The ``"answer"`` op's session call: a fixed-dispatch plan, run."""
    workload = Workload.from_queries(session.db.domain, queries)
    return session.plan_execute_with_meta(workload, optimize=False, rng=rng)[2:]


class TestEnginePool:
    def test_structurally_equal_policies_share_an_engine(self, domain):
        pool = EnginePool()
        e1 = pool.get(Policy.distance_threshold(domain, 10), 0.5)
        e2 = pool.get(Policy.distance_threshold(Domain.integers("v", 200), 10), 0.5)
        assert e1 is e2
        assert pool.stats()["hits"] == 1 and pool.stats()["misses"] == 1

    def test_epsilon_and_options_split_entries(self, domain):
        pool = EnginePool()
        p = Policy.line(domain)
        assert pool.get(p, 0.5) is not pool.get(p, 0.9)
        assert pool.get(p, 0.5) is not pool.get(
            p, 0.5, options={"range": {"consistent": False}}
        )
        # option-dict key order is canonicalized
        a = pool.get(p, 0.5, options={"range": {"fanout": 4, "consistent": False}})
        b = pool.get(p, 0.5, options={"range": {"consistent": False, "fanout": 4}})
        assert a is b

    def test_lru_eviction_bounds_the_pool(self, domain):
        pool = EnginePool(maxsize=2)
        engines = [pool.get(Policy.distance_threshold(domain, t), 0.5) for t in (2, 3, 4)]
        assert len(pool) == 2
        assert pool.stats()["evictions"] == 1
        # the evicted (oldest) engine is rebuilt on re-request
        again = pool.get(Policy.distance_threshold(domain, 2), 0.5)
        assert again is not engines[0]

    def test_pooled_engines_have_no_accountant(self, domain):
        assert EnginePool().get(Policy.line(domain), 0.5).accountant is None


class TestSession:
    def test_ledger_and_release_reuse(self, domain, db):
        pool = EnginePool()
        engine = pool.get(Policy.line(domain), 0.5)
        session = Session(engine, db, budget=1.0)
        queries = [RangeQuery(domain, 5, 50), RangeQuery(domain, 0, 199)]
        first, _ = _answer(session, queries, rng=0)
        assert session.spent == pytest.approx(0.5)
        # repeats are free post-processing with identical answers
        second, _ = _answer(session, queries, rng=1)
        assert np.array_equal(first, second)
        assert session.spent == pytest.approx(0.5)

    def test_sessions_are_isolated_on_a_shared_engine(self, domain, db):
        engine = EnginePool().get(Policy.line(domain), 0.5)
        s1, s2 = Session(engine, db), Session(engine, db)
        a1, _ = _answer(s1, [RangeQuery(domain, 1, 9)], rng=0)
        a2, _ = _answer(s2, [RangeQuery(domain, 1, 9)], rng=1)
        assert s1.spent == s2.spent == pytest.approx(0.5)
        assert not np.array_equal(a1, a2)  # independent releases

    def test_budget_refused_before_release(self, domain, db):
        session = Session(EnginePool().get(Policy.line(domain), 0.5), db, budget=0.4)
        with pytest.raises(RuntimeError, match="budget exhausted"):
            _answer(session, [RangeQuery(domain, 1, 9)], rng=0)
        assert session.spent == 0.0

    def test_domain_mismatch_rejected(self, domain, db):
        other = Domain.integers("w", 50)
        engine = EnginePool().get(Policy.line(other), 0.5)
        with pytest.raises(ValueError, match="different domain"):
            Session(engine, db)

    def test_answer_with_meta_reports_cache_state(self, domain, db):
        session = Session(EnginePool().get(Policy.line(domain), 0.5), db)
        _, meta = _answer(session, [RangeQuery(domain, 0, 10)], rng=0)
        assert meta["release_cache"] == {"range": "miss"}
        assert meta["epsilon_spent"] == pytest.approx(0.5)
        _, meta = _answer(session, [RangeQuery(domain, 3, 12)], rng=0)
        assert meta["release_cache"] == {"range": "hit"}
        assert meta["epsilon_spent"] == 0.0


class TestBlowfishService:
    def _request(self, policy, queries, *, seed=9, **extra):
        request = {
            "policy": policy.to_spec(),
            "epsilon": 0.5,
            "dataset": {"name": "data"},
            "queries": [q.to_spec() for q in queries],
            "seed": seed,
        }
        request.update(extra)
        # everything the service sees must survive a real JSON round trip
        return json.loads(json.dumps(request))

    def test_handle_is_bitwise_identical_to_direct_engine_use(self, domain, db):
        policy = Policy.distance_threshold(domain, 12)
        queries = _mixed_queries(domain, db)
        service = BlowfishService()
        service.register_dataset("data", db)
        response = service.handle(self._request(policy, queries, seed=9))
        assert response["ok"], response
        direct = PolicyEngine(policy, 0.5).answer(
            queries, db, rng=np.random.default_rng(9)
        )
        assert np.array_equal(np.array(response["answers"]), direct)
        meta = response["meta"]
        assert meta["n_queries"] == len(queries)
        assert meta["epsilon_spent"] == pytest.approx(1.5)  # range+histogram+linear
        assert meta["strategies"]["range"]["strategy"] == "ordered-hierarchical"
        assert meta["policy_fingerprint"] == policy_fingerprint(policy)

    def test_pure_range_fast_path_matches_direct_use(self, domain, db):
        policy = Policy.line(domain)
        queries = [RangeQuery(domain, 0, 10), RangeQuery(domain, 5, 199)]
        service = BlowfishService()
        service.register_dataset("data", db)
        response = service.handle(self._request(policy, queries, seed=4))
        direct = PolicyEngine(policy, 0.5).answer(queries, db, rng=np.random.default_rng(4))
        assert np.array_equal(np.array(response["answers"]), direct)

    def test_range_batch_spec_form(self, domain, db):
        policy = Policy.line(domain)
        service = BlowfishService()
        service.register_dataset("data", db)
        request = self._request(policy, [], seed=4)
        request["queries"] = {"kind": "range_batch", "los": [0, 5], "his": [10, 199]}
        response = service.handle(request)
        direct = PolicyEngine(policy, 0.5).answer(
            [RangeQuery(domain, 0, 10), RangeQuery(domain, 5, 199)],
            db,
            rng=np.random.default_rng(4),
        )
        assert np.array_equal(np.array(response["answers"]), direct)

    def test_sessions_reuse_releases_across_requests(self, domain, db):
        service = BlowfishService()
        service.register_dataset("data", db)
        request = self._request(
            Policy.line(domain), [RangeQuery(domain, 0, 50)], session="c1", budget=1.0
        )
        first = service.handle(request)
        second = service.handle(request)
        assert first["answers"] == second["answers"]
        assert second["meta"]["epsilon_spent"] == 0.0
        assert second["meta"]["release_cache"] == {"range": "hit"}
        assert second["meta"]["engine_cache"] == "hit"
        assert second["meta"]["session_total"] == pytest.approx(0.5)

    def test_session_budget_enforced_across_requests(self, domain, db):
        service = BlowfishService()
        service.register_dataset("data", db)
        base = self._request(
            Policy.line(domain), [RangeQuery(domain, 0, 50)], session="c2", budget=0.7
        )
        assert service.handle(base)["ok"]
        # a count query needs a histogram release: second 0.5 spend > 0.7
        over = dict(base)
        over["queries"] = [
            CountQuery.from_mask(domain, np.arange(domain.size) < 5).to_spec()
        ]
        refused = service.handle(json.loads(json.dumps(over)))
        assert not refused["ok"]
        assert "budget exhausted" in refused["error"]["message"]
        # budget refusal is structurally distinguishable from bad requests
        assert refused["error"]["kind"] == "budget_exhausted"

    def test_error_kinds_distinguish_client_mistakes_from_budget(self, domain, db):
        service = BlowfishService()
        service.register_dataset("data", db)
        bad = service.handle({"op": "mystery"})
        assert bad["error"]["kind"] == "invalid_request"

    def test_internal_runtime_errors_propagate_instead_of_masquerading(self):
        service = BlowfishService()

        def boom(request):
            raise RuntimeError("internal invariant broken")

        service._dispatch = boom
        # a genuine bug must not come back dressed as a client refusal
        with pytest.raises(RuntimeError, match="internal invariant"):
            service.handle({"op": "describe"})

    def test_differing_budget_on_existing_session_is_surfaced(self, domain, db):
        service = BlowfishService()
        service.register_dataset("data", db)
        base = self._request(
            Policy.line(domain), [RangeQuery(domain, 0, 50)], session="c9", budget=2.0
        )
        first = service.handle(base)
        assert first["ok"] and "budget" not in first["meta"]
        # a later, different budget does not reset the ledger's limit — and
        # the response says so instead of silently dropping it
        second = service.handle({**base, "budget": 1.0})
        assert second["ok"]
        assert second["meta"]["budget"] == {
            "status": "ignored", "requested": 1.0, "active": 2.0,
        }
        # re-stating the active budget is not a conflict worth flagging
        third = service.handle({**base, "budget": 2.0})
        assert third["ok"] and "budget" not in third["meta"]

    def test_inline_datasets(self, domain, db):
        service = BlowfishService()
        request = self._request(Policy.line(domain), [RangeQuery(domain, 0, 50)])
        request["dataset"] = {"indices": db.indices.tolist()}
        response = service.handle(request)
        direct = PolicyEngine(Policy.line(domain), 0.5).answer(
            [RangeQuery(domain, 0, 50)], db, rng=np.random.default_rng(9)
        )
        assert np.array_equal(np.array(response["answers"]), direct)

    def test_errors_name_fields_and_never_raise(self, domain, db):
        service = BlowfishService()
        service.register_dataset("data", db)
        ok = self._request(Policy.line(domain), [RangeQuery(domain, 0, 5)])
        cases = [
            ({}, "request.policy"),
            ({**ok, "epsilon": "high"}, "request.epsilon"),
            ({**ok, "dataset": {"name": "nope"}}, "request.dataset.name"),
            ({**ok, "queries": []}, "request.queries"),
            ({**ok, "queries": [{"kind": "range", "lo": 0, "hi": 9999}]}, "request.queries[0]"),
            ({**ok, "queries": [{"kind": "mystery"}]}, "request.queries[0].kind"),
            ({**ok, "op": "delete"}, "request.op"),
            ({**ok, "version": 99}, "request.version"),
        ]
        for request, field in cases:
            response = service.handle(request)
            assert response["ok"] is False, request
            assert response["error"]["field"] == field, response

    def test_hostile_numeric_payloads_return_errors_not_crashes(self, domain, db):
        service = BlowfishService()
        service.register_dataset("data", db)
        ok = self._request(Policy.line(domain), [RangeQuery(domain, 0, 5)])
        hostile = [
            {**ok, "dataset": {"indices": [2**70]}},           # > 64-bit int
            {**ok, "queries": {"kind": "range_batch", "los": [2**70], "his": [5]}},
            {**ok, "queries": {"kind": "range_batch", "los": [[0, 1]], "his": [[2, 3]]}},
            {**ok, "queries": [{"kind": "range", "lo": [0, 1], "hi": [2, 3]}]},
            {**ok, "queries": [{"kind": "count", "support": [[1]]}]},
        ]
        for request in hostile:
            response = service.handle(request)
            assert response["ok"] is False, request
        # flat-answer contract: a valid request still yields scalars
        good = service.handle(ok)
        assert all(isinstance(a, float) for a in good["answers"])

    def test_session_does_not_cross_mechanism_options(self, domain, db):
        service = BlowfishService()
        service.register_dataset("data", db)
        base = self._request(
            Policy.distance_threshold(domain, 10),
            [RangeQuery(domain, 0, 50)],
            session="c3",
        )
        first = service.handle({**base, "options": {"range": {"fanout": 2}}})
        second = service.handle({**base, "options": {"range": {"fanout": 16}}})
        # a different engine configuration must not be served from the old
        # engine's cached release
        assert second["meta"]["release_cache"] == {"range": "miss"}
        assert second["meta"]["session_total"] == pytest.approx(0.5)
        assert first["answers"] != second["answers"]

    def test_vector_valued_queries_rejected_via_error_response(self, domain, db):
        service = BlowfishService()
        service.register_dataset("data", db)
        request = self._request(Policy.line(domain), [RangeQuery(domain, 0, 5)])
        request["queries"] = [{"kind": "histogram"}]
        response = service.handle(request)
        assert response["ok"] is False
        assert "vector-valued" in response["error"]["message"]

    def test_describe_op(self, domain):
        service = BlowfishService()
        response = service.handle(
            {"op": "describe", "policy": Policy.line(domain).to_spec(), "epsilon": 0.5}
        )
        assert response["ok"]
        strategies = response["meta"]["strategies"]
        assert strategies["range"]["strategy"] == "ordered"
        assert strategies["histogram"]["strategy"] == "laplace-histogram"

    def test_responses_are_json_serializable(self, domain, db):
        service = BlowfishService()
        service.register_dataset("data", db)
        response = service.handle(
            self._request(Policy.line(domain), _mixed_queries(domain, db, 10))
        )
        json.dumps(response)  # must not raise

    def test_dataset_domain_mismatch_named(self, domain, db):
        service = BlowfishService()
        service.register_dataset("data", db)
        other = Policy.line(Domain.integers("w", 7))
        response = service.handle(self._request(other, [RangeQuery(Domain.integers("w", 7), 0, 3)]))
        assert response["ok"] is False
        assert response["error"]["field"] == "request.dataset.name"
