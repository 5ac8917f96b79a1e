"""Staleness-aware continual serving through Session and BlowfishService."""

import numpy as np
import pytest

from repro import Domain, Policy, PolicyEngine, Workload
from repro.api import BlowfishService, Session
from repro.api.ledger import InMemoryLedgerStore
from repro.core.composition import BudgetExceededError
from repro.plan import QueryGroup
from repro.plan.workload import ANY_AGE
from repro.stream import (
    COUNTER_KEY,
    StreamBudget,
    StreamDataset,
    amortized_ledger_total,
    synthetic_feed,
)

SIZE = 64
DOMAIN = Domain.integers("value", SIZE)


def _engine(epsilon=1.0):
    return PolicyEngine(Policy.line(DOMAIN), epsilon)


def _feed(ticks=8, per_tick=100, rng=0):
    return synthetic_feed(domain_size=SIZE, ticks=ticks, per_tick=per_tick, rng=rng)


def _workload(max_staleness=None):
    return Workload(
        DOMAIN,
        [QueryGroup.ranges([0, 8], [31, 40], max_staleness=max_staleness)],
    )


def _tick(stream, batch):
    stream.append(batch)
    stream.advance()


# -- session-level ---------------------------------------------------------------


def test_attached_session_follows_ticks():
    stream, batches = _feed()
    session = Session(_engine(), stream.snapshot()).attach_stream(stream)
    _tick(stream, batches[0])
    # the "answer" op's read: fixed dispatch, held releases serve at any age
    read = _workload(max_staleness=ANY_AGE)
    session.plan_execute_with_meta(read, optimize=False, rng=np.random.default_rng(0))
    assert session.db.n == batches[0].size
    assert session.release_ticks["range"] == 0
    _tick(stream, batches[1])
    session.plan_execute_with_meta(read, optimize=False, rng=np.random.default_rng(0))
    assert session.db.n == batches[0].size + batches[1].size


def test_attach_stream_rejects_foreign_domain():
    stream, _ = synthetic_feed(domain_size=SIZE // 2, ticks=2)
    with pytest.raises(ValueError):
        Session(_engine(), StreamDataset(DOMAIN).snapshot()).attach_stream(stream)


def test_stream_plan_amortizes_one_node_per_tick():
    stream, batches = _feed()
    budget = StreamBudget(8.0, horizon=8)
    session = Session(_engine(), stream.snapshot()).attach_stream(stream, budget)
    per_node = budget.per_node()
    for t in range(6):
        _tick(stream, batches[t])
        plan, _, answers, meta = session.plan_execute_with_meta(
            _workload(), budget=budget, rng=np.random.default_rng(t)
        )
        assert meta["epsilon_spent"] == pytest.approx(per_node)
        assert meta["stream"]["node_releases"] == t + 1
        assert answers.shape == (2,)
    # the honest stream cost stays within the total even though six
    # per-node spends exceed it sequentially
    entries = session.accountant.store.entries(session.accountant.key)
    assert len(entries) == 6
    assert amortized_ledger_total(entries) <= budget.total + 1e-9
    assert session.stream_state.use_counter
    assert COUNTER_KEY in session.releases


def test_stream_answers_are_deterministic_in_the_seed():
    def run():
        stream, batches = _feed()
        budget = StreamBudget(8.0, horizon=8)
        session = Session(_engine(), stream.snapshot()).attach_stream(stream, budget)
        out = []
        for t in range(5):
            _tick(stream, batches[t])
            _, _, answers, _ = session.plan_execute_with_meta(
                _workload(), budget=budget, rng=np.random.default_rng(100 + t)
            )
            out.append(answers)
        return np.concatenate(out)

    np.testing.assert_array_equal(run(), run())


def test_max_staleness_serves_held_release_without_recharging():
    stream, batches = _feed()
    budget = StreamBudget(8.0, horizon=8)
    session = Session(_engine(), stream.snapshot()).attach_stream(stream, budget)
    _tick(stream, batches[0])
    _, _, _, meta = session.plan_execute_with_meta(
        _workload(), budget=budget, rng=np.random.default_rng(0)
    )
    first_spend = meta["epsilon_spent"]
    assert first_spend > 0
    # two ticks pass; a group tolerating 3 ticks of staleness is served
    # from the held synopsis with zero fresh charge (and no counter
    # advance: nothing in the plan charges, so the tick costs nothing)
    _tick(stream, batches[1])
    _tick(stream, batches[2])
    lenient = _workload(max_staleness=3)
    plan, _, answers, meta = session.plan_execute_with_meta(
        lenient, budget=budget, rng=np.random.default_rng(1)
    )
    assert meta["epsilon_spent"] == 0.0
    assert all(s.epsilon == 0 for s in plan.steps)
    assert answers.shape == (2,)
    # the same workload with a zero bound re-releases (counter catch-up:
    # ticks 1 and 2 were never folded, so two node spends land)
    _, _, _, meta = session.plan_execute_with_meta(
        _workload(max_staleness=0), budget=budget, rng=np.random.default_rng(2)
    )
    assert meta["epsilon_spent"] == pytest.approx(2 * budget.per_node())


def test_staleness_ages_key_the_plan_cache():
    from repro.plan.planner import existing_token

    fresh = existing_token({"range": object()})
    aged = existing_token({"range": object()}, {"range": 2})
    zero = existing_token({"range": object()}, {"range": 0})
    assert fresh != aged
    assert zero != aged
    # a zero-age stream state and the no-stream state may share plans
    assert existing_token({}, None) == existing_token({}, {})


def test_strict_stream_budget_refuses_past_horizon_at_plan_time():
    stream, batches = _feed(ticks=6)
    budget = StreamBudget(4.0, horizon=2, degradation="strict")
    session = Session(_engine(), stream.snapshot()).attach_stream(stream, budget)
    for t in (0, 1):
        _tick(stream, batches[t])
        session.plan_execute_with_meta(
            _workload(), budget=budget, rng=np.random.default_rng(t)
        )
    spent = session.accountant.sequential_total()
    _tick(stream, batches[2])
    with pytest.raises(BudgetExceededError):
        session.plan_execute_with_meta(
            _workload(), budget=budget, rng=np.random.default_rng(9)
        )
    # refused before any spend: the ledger is exactly as it was
    assert session.accountant.sequential_total() == spent


def test_degrade_mode_serves_stale_past_horizon():
    stream, batches = _feed(ticks=6)
    budget = StreamBudget(4.0, horizon=2, degradation="reuse_stale")
    session = Session(_engine(), stream.snapshot()).attach_stream(stream, budget)
    for t in (0, 1):
        _tick(stream, batches[t])
        session.plan_execute_with_meta(
            _workload(), budget=budget, rng=np.random.default_rng(t)
        )
    spent = session.accountant.sequential_total()
    _tick(stream, batches[2])
    plan, _, answers, meta = session.plan_execute_with_meta(
        _workload(), budget=budget, rng=np.random.default_rng(9)
    )
    # past the horizon nothing fresh is charged; the held (now stale)
    # release answers, marked as degraded
    assert session.accountant.sequential_total() == spent
    assert np.isfinite(answers).all()
    assert "stale" in plan.degraded()


def test_stream_budget_requires_attached_stream_state():
    db = StreamDataset(DOMAIN, [1, 2, 3]).snapshot()
    session = Session(_engine(), db)
    with pytest.raises(ValueError):
        session.plan_with_meta(_workload(), budget=StreamBudget(1.0, horizon=4))


def test_explain_path_spends_nothing_on_streams():
    stream, batches = _feed()
    budget = StreamBudget(8.0, horizon=8)
    session = Session(_engine(), stream.snapshot()).attach_stream(stream, budget)
    _tick(stream, batches[0])
    plan, _ = session.plan_with_meta(_workload(), budget=budget)
    assert session.accountant.sequential_total() == 0.0
    assert session.releases == {}
    assert plan.total_epsilon <= budget.per_tick() + 1e-9


# -- service-level ---------------------------------------------------------------

POLICY_SPEC = Policy.line(DOMAIN).to_spec()
BUDGET_SPEC = {"kind": "stream_budget", "total": 8.0, "horizon": 8}


def _service(ledger_store=None):
    svc = BlowfishService(ledger_store=ledger_store)
    stream, batches = _feed()
    svc.register_stream("feed", stream)
    return svc, stream, batches


def _plan_request(seed=0, **extra):
    req = {
        "op": "plan",
        "policy": POLICY_SPEC,
        "epsilon": 1.0,
        "dataset": {"name": "feed"},
        "queries": [{"kind": "range", "lo": 0, "hi": 31}],
        "session": "tenant",
        "plan_budget": BUDGET_SPEC,
        "seed": seed,
    }
    req.update(extra)
    return req


def test_append_and_tick_ops():
    svc, stream, batches = _service()
    r = svc.handle({"op": "append", "stream": "feed", "indices": batches[0].tolist()})
    assert r["ok"] and r["appended"] == batches[0].size and r["tick"] == -1
    r = svc.handle({"op": "tick", "stream": "feed"})
    assert r["ok"] and r["tick"] == 0 and r["n"] == batches[0].size
    assert r["fingerprint"] == stream.fingerprint()
    # unknown stream and malformed indices are client errors
    assert not svc.handle({"op": "append", "stream": "nope", "indices": [1]})["ok"]
    assert not svc.handle({"op": "append", "stream": "feed", "indices": [SIZE]})["ok"]
    assert not svc.handle({"op": "tick", "stream": "nope"})["ok"]


def test_stream_plan_requests_amortize_and_report():
    svc, stream, batches = _service()
    for t in range(3):
        svc.handle({"op": "append", "stream": "feed", "indices": batches[t].tolist()})
        svc.handle({"op": "tick", "stream": "feed"})
        resp = svc.handle(_plan_request(seed=t))
        assert resp["ok"], resp
        meta = resp["meta"]
        assert meta["stream"]["tick"] == t
        assert meta["stream"]["node_releases"] == t + 1
        assert meta["epsilon_spent"] == pytest.approx(2.0)  # 8 total / 4 levels
    # describe surfaces the stream and the payload-free cache savings
    d = svc.handle({"op": "describe", "policy": POLICY_SPEC, "epsilon": 1.0})
    assert d["meta"]["streams"]["feed"]["tick"] == 2
    assert d["meta"]["plan_cache"]["payload_bytes_saved"] > 0


def test_shared_ledger_records_one_spend_per_node_release():
    store = InMemoryLedgerStore()
    svc, stream, batches = _service(ledger_store=store)
    for t in range(5):
        svc.handle({"op": "append", "stream": "feed", "indices": batches[t].tolist()})
        svc.handle({"op": "tick", "stream": "feed"})
        assert svc.handle(_plan_request(seed=t))["ok"]
    (key,) = store.keys()
    entries = store.entries(key)
    # exactly one ledger entry per fresh per-node release, stream-labelled
    assert len(entries) == 5
    assert all(e.label.startswith("stream:range:L") for e in entries)
    assert amortized_ledger_total(entries) <= 8.0 + 1e-9


def test_stream_budget_identity_splits_sessions():
    svc, stream, batches = _service()
    svc.handle({"op": "append", "stream": "feed", "indices": batches[0].tolist()})
    svc.handle({"op": "tick", "stream": "feed"})
    assert svc.handle(_plan_request(seed=0))["ok"]
    other = dict(BUDGET_SPEC, horizon=4)
    resp = svc.handle(_plan_request(seed=0, plan_budget=other))
    assert resp["ok"]
    # a different amortization opened a fresh session: its ledger starts
    # at its own first spend, not on top of the first session's
    assert resp["meta"]["session_total"] == pytest.approx(
        resp["meta"]["epsilon_spent"]
    )


def test_plain_answer_op_follows_the_stream():
    svc, stream, batches = _service()
    svc.handle({"op": "append", "stream": "feed", "indices": batches[0].tolist()})
    svc.handle({"op": "tick", "stream": "feed"})
    req = {
        "op": "answer",
        "policy": POLICY_SPEC,
        "epsilon": 1.0,
        "dataset": {"name": "feed"},
        "queries": {"kind": "range_batch", "los": [0], "his": [SIZE - 1]},
        "session": "reader",
        "seed": 0,
    }
    first = svc.handle(req)
    assert first["ok"] and first["meta"]["release_cache"]["range"] == "miss"
    svc.handle({"op": "append", "stream": "feed", "indices": batches[1].tolist()})
    svc.handle({"op": "tick", "stream": "feed"})
    again = svc.handle(dict(req, seed=1))
    # legacy all-or-nothing reuse: the held release still serves
    assert again["ok"] and again["meta"]["release_cache"]["range"] == "hit"
    assert again["meta"]["epsilon_spent"] == 0.0


def test_stream_and_dataset_names_share_a_namespace():
    svc, stream, _ = _service()
    db = StreamDataset(DOMAIN, [1]).snapshot()
    with pytest.raises(ValueError):
        svc.register_dataset("feed", db)
    svc.register_dataset("pinned", db)
    with pytest.raises(ValueError):
        svc.register_stream("pinned", stream)
    assert svc.streams() == ("feed",)
    assert svc.datasets() == ("pinned",)
