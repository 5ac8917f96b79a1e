"""Planner choices, plan structure, executor semantics, engine parity."""

from __future__ import annotations

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
from repro.core.composition import PrivacyAccountant
from repro.plan import Executor, Plan, QueryGroup

SIZE = 256


@pytest.fixture
def domain():
    return Domain.integers("v", SIZE)


@pytest.fixture
def db(domain):
    rng = np.random.default_rng(7)
    return Database.from_indices(domain, rng.integers(0, SIZE, 4_000))


def _mixed_workload(domain, db):
    masks = np.zeros((2, SIZE), dtype=bool)
    masks[0, 10:40] = True
    masks[1, 100:130] = True
    return Workload(
        domain,
        [
            QueryGroup.ranges([0, 10, 50], [99, 20, 255]),
            QueryGroup.counts(masks),
            QueryGroup.linear(np.ones((1, db.n)) / db.n),
        ],
    )


class TestPlannerChoices:
    def test_fixed_mode_compiles_the_registry_dispatch(self, domain):
        engine = PolicyEngine(Policy.distance_threshold(domain, 4), 0.5)
        plan = engine.plan(Workload.ranges(domain, [0], [10]), optimize=False)
        assert plan.mode == "fixed"
        step = plan.step_for("range")
        assert step.strategy == engine.strategy("range") == "ordered-hierarchical"
        assert step.release == "range"
        assert [name for name, _ in step.scores] == ["ordered-hierarchical"]

    def test_auto_mode_scores_every_candidate(self, domain):
        engine = PolicyEngine(Policy.distance_threshold(domain, 4), 0.5)
        plan = engine.plan(Workload.ranges(domain, [0], [10]))
        names = {name for name, _ in plan.step_for("range").scores}
        assert names == {"ordered", "ordered-hierarchical", "hierarchical"}

    def test_small_theta_prefers_ordered_over_oh(self, domain):
        engine = PolicyEngine(Policy.distance_threshold(domain, 2), 0.5)
        plan = engine.plan(Workload.ranges(domain, [0], [10]))
        step = plan.step_for("range")
        assert step.strategy == "ordered"
        assert step.release == "range:ordered"

    def test_full_domain_keeps_the_dp_baseline(self, domain):
        engine = PolicyEngine(Policy.differential_privacy(domain), 0.5)
        plan = engine.plan(Workload.ranges(domain, [0], [10]))
        assert plan.step_for("range").strategy == "hierarchical"

    def test_interval_counts_share_the_range_release(self, domain, db):
        engine = PolicyEngine(Policy.line(domain), 0.5)
        plan = engine.plan(_mixed_workload(domain, db))
        range_step, count_step = plan.step_for("range"), plan.step_for("count")
        assert count_step.release == range_step.release
        assert count_step.release_family == "range"
        assert count_step.epsilon == 0.0
        # one fresh range release + one linear release
        assert plan.total_epsilon == pytest.approx(1.0)

    def test_scattered_counts_get_their_own_histogram(self, domain, db):
        masks = np.zeros((1, SIZE), dtype=bool)
        masks[0, ::2] = True  # 128 runs: reusing a noisy OH prefix loses
        wl = Workload(
            domain, [QueryGroup.ranges([0], [99]), QueryGroup.counts(masks)]
        )
        plan = PolicyEngine(Policy.distance_threshold(domain, 16), 0.5).plan(wl)
        step = plan.step_for("count")
        assert step.release_family == "histogram"
        assert step.strategy == "laplace-histogram"

    def test_raw_hierarchical_release_is_never_reused_for_counts(self, domain):
        # a consistent=False hierarchical release answers from raw tree
        # leaves whose noise does NOT telescope; the run-based reuse model
        # would be wrong, so the candidate must not be offered at all
        masks = np.zeros((1, SIZE), dtype=bool)
        masks[0, 10:200] = True  # one fat run: reuse would look like a steal
        wl = Workload(domain, [QueryGroup.ranges([0], [99]), QueryGroup.counts(masks)])
        engine = PolicyEngine(
            Policy.differential_privacy(domain),
            0.5,
            options={"range": {"consistent": False}},
        )
        plan = engine.plan(wl)
        step = plan.step_for("count")
        assert step.release_family == "histogram"
        assert not any(name.startswith("reuse:") for name, _ in step.scores)
        # with inference back on, the prefix argument holds and reuse returns
        consistent = PolicyEngine(Policy.differential_privacy(domain), 0.5).plan(wl)
        assert any(
            name.startswith("reuse:") for name, _ in consistent.step_for("count").scores
        )

    def test_reuse_is_group_order_independent(self, domain, db):
        # a count group listed before the range group must still ride the
        # range release (reuse planning is not first-come-first-served)
        masks = np.zeros((1, SIZE), dtype=bool)
        masks[0, 30:60] = True
        engine = PolicyEngine(Policy.line(domain), 0.5)
        count_first = Workload(
            domain, [QueryGroup.counts(masks), QueryGroup.ranges([0], [99])]
        )
        range_first = Workload(
            domain, [QueryGroup.ranges([0], [99]), QueryGroup.counts(masks)]
        )
        p1, p2 = engine.plan(count_first), engine.plan(range_first)
        assert p1.step_for("count").release == p1.step_for("range").release
        assert p1.total_epsilon == p2.total_epsilon == pytest.approx(0.5)
        # and the executor can run the count step first, creating the
        # shared release itself
        res = Executor(engine).run(p1, db, rng=0)
        assert res.epsilon_spent == pytest.approx(0.5)

    def test_warm_session_linear_prediction_is_row_aware(self, domain, db):
        from repro.api import Session

        engine = PolicyEngine(Policy.line(domain), 0.5)
        session = Session(engine, db)
        w1 = np.ones((1, db.n))
        session.plan_execute_with_meta(Workload(domain, [QueryGroup.linear(w1)]), rng=0)
        # same rows: predicted free; genuinely new rows: predicted charge
        same, _ = session.plan_with_meta(Workload(domain, [QueryGroup.linear(w1)]))
        assert same.step_for("linear").epsilon == 0.0
        other, _ = session.plan_with_meta(
            Workload(domain, [QueryGroup.linear(np.full((1, db.n), 3.0))])
        )
        assert other.step_for("linear").epsilon == pytest.approx(0.5)
        assert other.total_epsilon == pytest.approx(0.5)

    def test_session_cache_makes_reuse_free(self, domain):
        engine = PolicyEngine(Policy.line(domain), 0.5)
        wl = Workload.ranges(domain, [0], [10])
        plan = engine.plan(wl, existing={"range"})
        assert plan.step_for("range").epsilon == 0.0
        assert plan.total_epsilon == 0.0

    def test_explain_names_mechanism_error_and_epsilon(self, domain, db):
        engine = PolicyEngine(Policy.distance_threshold(domain, 2), 0.5)
        report = engine.plan(_mixed_workload(domain, db)).explain()
        for needle in ("ordered", "predicted RMSE", "epsilon 0.5", "candidates:", "total epsilon"):
            assert needle in report, report

    def test_workload_domain_mismatch_is_rejected(self, domain):
        other = Domain.integers("v", 8)
        engine = PolicyEngine(Policy.line(domain), 0.5)
        with pytest.raises(ValueError, match="different domain"):
            engine.plan(Workload.ranges(other, [0], [1]))


class TestExecutor:
    def test_executor_rejects_foreign_plans(self, domain, db):
        e1 = PolicyEngine(Policy.line(domain), 0.5)
        e2 = PolicyEngine(Policy.differential_privacy(domain), 0.5)
        plan = e1.plan(Workload.ranges(domain, [0], [10]))
        with pytest.raises(ValueError, match="different policy"):
            Executor(e2).run(plan, db, rng=0)
        e3 = PolicyEngine(Policy.line(domain), 0.9)
        with pytest.raises(ValueError, match="epsilon"):
            Executor(e3).run(plan, db, rng=0)

    def test_executor_rejects_mismatched_options(self, domain, db):
        # a plan scored under consistent=True must not run on a raw-release
        # engine: the released structures differ from what was scored
        scored = PolicyEngine(Policy.line(domain), 0.5)
        plan = scored.plan(Workload.ranges(domain, [0], [10]))
        raw = PolicyEngine(
            Policy.line(domain), 0.5, options={"range": {"consistent": False}}
        )
        with pytest.raises(ValueError, match="options"):
            Executor(raw).run(plan, db, rng=0)
        # ...and the options survive the spec round trip
        import json

        from repro.plan import Plan

        back = Plan.from_spec(
            json.loads(json.dumps(raw.plan(Workload.ranges(domain, [0], [10])).to_spec())),
            domain,
        )
        assert back.options == {"range": {"consistent": False}}
        Executor(raw).run(back, db, rng=0)  # matching engine: fine

    def test_shared_release_spends_once_and_is_deterministic(self, domain, db):
        engine = PolicyEngine(Policy.line(domain), 0.5)
        wl = _mixed_workload(domain, db)
        plan = engine.plan(wl)
        acct = PrivacyAccountant(engine.policy)
        res = Executor(engine).run(plan, db, rng=np.random.default_rng(3), accountant=acct)
        # range release shared with counts; linear release separate
        assert res.epsilon_spent == pytest.approx(1.0)
        assert acct.sequential_total() == pytest.approx(1.0)
        res2 = Executor(engine).run(plan, db, rng=np.random.default_rng(3))
        assert np.array_equal(res.answers, res2.answers)

    def test_releases_dict_reused_across_runs(self, domain, db):
        engine = PolicyEngine(Policy.line(domain), 0.5)
        plan = engine.plan(Workload.ranges(domain, [5], [50]))
        releases: dict = {}
        r1 = Executor(engine).run(plan, db, rng=0, releases=releases)
        assert set(r1.release_cache.values()) == {"miss"}
        r2 = Executor(engine).run(plan, rng=1, releases=releases)  # no db needed
        assert r2.epsilon_spent == 0.0
        assert np.array_equal(r1.answers, r2.answers)

    def test_missing_db_raises_like_the_engine(self, domain):
        engine = PolicyEngine(Policy.line(domain), 0.5)
        plan = engine.plan(Workload.ranges(domain, [0], [10]))
        with pytest.raises(ValueError, match="database is required"):
            Executor(engine).run(plan, rng=0)

    def test_epsilon_spent_counts_only_this_runs_releases(self, domain, db):
        # pooled engines are shared: another session's spends on the same
        # engine must not leak into this run's reported total
        engine = PolicyEngine(Policy.line(domain), 0.5)
        plan = engine.plan(Workload.ranges(domain, [0], [40]))
        releases: dict = {}
        first = Executor(engine).run(plan, db, rng=0, releases=releases)
        assert first.epsilon_spent == pytest.approx(0.5)
        engine.release(db, "range", rng=1)  # someone else's release
        second = Executor(engine).run(plan, db, rng=2, releases=releases)
        assert second.epsilon_spent == 0.0

    def test_multi_linear_group_plan_predicts_every_sub_batch_charge(self, domain, db):
        # disjoint linear groups share the 'linear' key but each fresh
        # sub-batch costs epsilon; total_epsilon and explain() must say so
        wl = Workload(
            domain,
            [
                QueryGroup.linear(np.ones((1, db.n)), name="a"),
                QueryGroup.linear(np.full((1, db.n), 2.0), name="b"),
            ],
        )
        engine = PolicyEngine(Policy.line(domain), 0.5)
        plan = engine.plan(wl)
        assert plan.total_epsilon == pytest.approx(1.0)
        assert plan.explain().count("fresh, epsilon 0.5") == 2
        res = Executor(engine).run(plan, db, rng=0)
        assert res.epsilon_spent == pytest.approx(plan.total_epsilon)
        # identical rows across groups: only the first sub-batch pays
        dup = engine.plan(
            Workload(
                domain,
                [
                    QueryGroup.linear(np.ones((1, db.n)), name="a"),
                    QueryGroup.linear(np.ones((1, db.n)), name="b"),
                ],
            )
        )
        assert dup.total_epsilon == pytest.approx(0.5)
        # fixed mode has no row statistics: it must predict conservatively
        # (one charge per linear group), never below the executor's actuals
        fixed = engine.plan(wl, optimize=False)
        assert fixed.total_epsilon == pytest.approx(1.0)
        assert Executor(engine).run(fixed, db, rng=1).epsilon_spent <= fixed.total_epsilon

    def test_linear_release_cache_says_miss_when_rows_are_fresh(self, domain, db):
        engine = PolicyEngine(Policy.line(domain), 0.5)
        releases: dict = {}
        plan_a = engine.plan(Workload(domain, [QueryGroup.linear(np.ones((1, db.n)))]))
        r1 = Executor(engine).run(plan_a, db, rng=0, releases=releases)
        assert r1.release_cache == {"linear": "miss"}
        r2 = Executor(engine).run(plan_a, db, rng=1, releases=releases)
        assert r2.release_cache == {"linear": "hit"}
        # cached key, but a new row: spent epsilon, so it is a miss
        plan_b = engine.plan(Workload(domain, [QueryGroup.linear(np.full((1, db.n), 5.0))]))
        r3 = Executor(engine).run(plan_b, db, rng=2, releases=releases)
        assert r3.release_cache == {"linear": "miss"}
        assert r3.epsilon_spent == pytest.approx(0.5)

    def test_linear_partial_row_reuse_still_reports_the_spend(self, domain, db):
        engine = PolicyEngine(Policy.line(domain), 0.5)
        releases: dict = {}
        wl1 = Workload(domain, [QueryGroup.linear(np.ones((1, db.n)))])
        plan1 = engine.plan(wl1)
        assert Executor(engine).run(plan1, db, rng=0, releases=releases).epsilon_spent == 0.5
        # same rows again: free
        assert Executor(engine).run(plan1, db, rng=1, releases=releases).epsilon_spent == 0.0
        # one old row + one new row: the fresh sub-batch costs epsilon
        wl2 = Workload(
            domain, [QueryGroup.linear(np.vstack([np.ones(db.n), np.full(db.n, 2.0)]))]
        )
        plan2 = engine.plan(wl2)
        assert Executor(engine).run(plan2, db, rng=2, releases=releases).epsilon_spent == 0.5

    def test_shared_counts_match_manual_post_processing(self, domain, db):
        engine = PolicyEngine(Policy.line(domain), 0.5)
        wl = _mixed_workload(domain, db)
        plan = engine.plan(wl)
        releases: dict = {}
        res = Executor(engine).run(plan, db, rng=np.random.default_rng(11), releases=releases)
        rel = releases[plan.step_for("count").release]
        masks = wl.group("count").masks
        expected = masks.astype(np.float64) @ np.asarray(rel.histogram())
        assert np.array_equal(res.by_group["count"], expected)


class TestEngineShims:
    """PolicyEngine.answer rides the plan pipeline bitwise-unchanged."""

    def test_answer_matches_hand_built_plan(self, domain, db):
        engine = PolicyEngine(Policy.distance_threshold(domain, 4), 0.5)
        queries = [
            RangeQuery(domain, 3, 17),
            CountQuery.from_mask(domain, np.arange(SIZE) < 13),
            LinearQuery(domain, np.full(db.n, 0.5)),
            RangeQuery(domain, 0, 200),
        ]
        direct = engine.answer(queries, db, rng=np.random.default_rng(5))
        plan = engine.plan(engine.workload(queries), optimize=False)
        res = engine.execute(plan, db, rng=np.random.default_rng(5))
        assert np.array_equal(direct, res.answers)

    def test_fixed_plan_reproduces_released_mechanism_stream(self, domain, db):
        # same guarantee the engine tests assert, via the executor path
        from repro.mechanisms.ordered import OrderedMechanism

        engine = PolicyEngine(Policy.line(domain), 0.5)
        plan = engine.plan(Workload.ranges(domain, [2, 0], [9, 30]), optimize=False)
        got = Executor(engine).run(plan, db, rng=np.random.default_rng(123)).answers
        rel = OrderedMechanism(Policy.line(domain), 0.5).release(
            db, rng=np.random.default_rng(123)
        )
        assert np.array_equal(got, [rel.range(2, 9), rel.range(0, 30)])
