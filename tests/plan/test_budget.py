"""Budget-first planning: allocation, degradation, executor charging."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import (
    Database,
    Domain,
    PlanBudget,
    Policy,
    PolicyEngine,
    Workload,
)
from repro.api import Session
from repro.core.composition import BudgetExceededError, PrivacyAccountant
from repro.plan import Executor, Plan, QueryGroup

SIZE = 256


@pytest.fixture
def domain():
    return Domain.integers("v", SIZE)


@pytest.fixture
def db(domain):
    rng = np.random.default_rng(7)
    return Database.from_indices(domain, rng.integers(0, SIZE, 4_000))


def _mixed_workload(domain, db, *, linear_optional=False):
    masks = np.zeros((2, SIZE), dtype=bool)
    masks[0, 10:40] = True
    masks[1, 100:130] = True
    return Workload(
        domain,
        [
            QueryGroup.ranges([0, 10, 50], [99, 20, 255]),
            QueryGroup.counts(masks),
            QueryGroup.linear(
                np.ones((1, db.n)) / db.n, optional=linear_optional
            ),
        ],
    )


class TestPlanBudget:
    def test_exactly_one_of_total_or_uniform(self):
        with pytest.raises(ValueError, match="exactly one"):
            PlanBudget()
        with pytest.raises(ValueError, match="exactly one"):
            PlanBudget(total=1.0, uniform=0.5)
        with pytest.raises(ValueError, match="positive"):
            PlanBudget(total=-1.0)
        with pytest.raises(ValueError, match="degradation"):
            PlanBudget(total=1.0, degradation="panic")
        with pytest.raises(ValueError, match="floor"):
            PlanBudget(total=1.0, floors={"range": 0.0})
        # a flat per-release charge cannot honour per-group floors
        with pytest.raises(ValueError, match="floors require a total"):
            PlanBudget(uniform=0.1, floors={"range": 0.5})

    def test_spec_round_trip(self):
        budget = PlanBudget(
            total=1.5, floors={"range": 0.2}, degradation="drop_optional"
        )
        back = PlanBudget.from_spec(json.loads(json.dumps(budget.to_spec())))
        assert back == budget
        assert back.cache_token() == budget.cache_token()
        uniform = PlanBudget(uniform=0.25)
        assert PlanBudget.from_spec(uniform.to_spec()) == uniform
        assert uniform != budget


class TestAdaptiveAllocation:
    def test_allocation_sums_to_total_and_is_positive(self, domain, db):
        engine = PolicyEngine(Policy.distance_threshold(domain, 2), 0.5)
        plan = engine.plan(_mixed_workload(domain, db), budget=PlanBudget(total=1.0))
        fresh = [s.epsilon for s in plan.steps if s.epsilon > 0]
        assert all(e > 0 for e in fresh)
        assert plan.total_epsilon == pytest.approx(1.0)

    def test_marginal_errors_equalize_at_the_optimum(self, domain, db):
        # the cube-root rule's first-order condition: every fresh release's
        # |dE/deps| is equal (no floors binding)
        engine = PolicyEngine(Policy.distance_threshold(domain, 2), 0.5)
        plan = engine.plan(_mixed_workload(domain, db), budget=PlanBudget(total=1.0))
        marginals = list(plan.marginal_errors().values())
        assert len(marginals) == 2  # shared range release + linear
        assert marginals[0] == pytest.approx(marginals[1], rel=1e-6)

    def test_adaptive_beats_uniform_in_predicted_error(self, domain, db):
        engine = PolicyEngine(Policy.distance_threshold(domain, 2), 0.5)
        wl = _mixed_workload(domain, db)

        def predicted_total(plan):
            return sum(
                s.n_queries * s.predicted_rmse**2
                for s in plan.steps
                if s.predicted_rmse is not None
            )

        adaptive = engine.plan(wl, budget=PlanBudget(total=1.0))
        n_fresh = sum(1 for s in adaptive.steps if s.epsilon > 0)
        uniform = engine.plan(wl, budget=PlanBudget(uniform=1.0 / n_fresh))
        assert uniform.total_epsilon == pytest.approx(adaptive.total_epsilon)
        assert predicted_total(adaptive) < predicted_total(uniform)

    def test_floors_are_respected(self, domain, db):
        engine = PolicyEngine(Policy.distance_threshold(domain, 2), 0.5)
        wl = _mixed_workload(domain, db)
        # the linear group's weight is tiny, so unfloored it gets a sliver
        sliver = engine.plan(wl, budget=PlanBudget(total=1.0))
        assert sliver.step_for("linear").epsilon < 0.3
        floored = engine.plan(
            wl, budget=PlanBudget(total=1.0, floors={"linear": 0.3})
        )
        assert floored.step_for("linear").epsilon == pytest.approx(0.3)
        assert floored.total_epsilon == pytest.approx(1.0)

    def test_infeasible_floors_raise_before_any_spend(self, domain, db):
        engine = PolicyEngine(Policy.distance_threshold(domain, 2), 0.5)
        with pytest.raises(BudgetExceededError):
            engine.plan(
                _mixed_workload(domain, db),
                budget=PlanBudget(total=0.5, floors={"range": 0.4, "linear": 0.4}),
            )

    def test_uniform_special_case_is_bitwise_identical_to_legacy(self, domain, db):
        engine = PolicyEngine(Policy.distance_threshold(domain, 2), 0.5)
        wl = _mixed_workload(domain, db)
        for optimize in (True, False):
            legacy = engine.plan(wl, optimize=optimize)
            budgeted = engine.plan(
                wl, optimize=optimize, budget=PlanBudget(uniform=engine.epsilon)
            )
            assert [
                (s.release, s.strategy, s.epsilon) for s in legacy.steps
            ] == [(s.release, s.strategy, s.epsilon) for s in budgeted.steps]
            r1 = Executor(engine).run(legacy, db, rng=np.random.default_rng(3))
            r2 = Executor(engine).run(budgeted, db, rng=np.random.default_rng(3))
            assert np.array_equal(r1.answers, r2.answers)
            assert r1.epsilon_spent == r2.epsilon_spent

    def test_executor_charges_the_allocated_epsilons(self, domain, db):
        engine = PolicyEngine(Policy.distance_threshold(domain, 2), 0.5)
        plan = engine.plan(_mixed_workload(domain, db), budget=PlanBudget(total=1.0))
        acct = PrivacyAccountant(engine.policy)
        result = Executor(engine).run(
            plan, db, rng=np.random.default_rng(1), accountant=acct
        )
        assert result.epsilon_spent == pytest.approx(plan.total_epsilon)
        assert acct.sequential_total() == pytest.approx(plan.total_epsilon)
        by_label = dict(acct.spends)
        step = plan.step_for("range")
        assert by_label[step.release] == pytest.approx(step.epsilon)

    def test_allocated_noise_actually_tracks_the_epsilon(self, domain, db):
        # a release allocated most of the budget must be less noisy than
        # the same release under a sliver (the mechanism is truly built at
        # the allocated epsilon, not the engine's)
        engine = PolicyEngine(Policy.line(domain), 0.5)
        wl = Workload.ranges(domain, [0, 20, 64], [200, 90, 255])
        truth = Executor(engine).run(
            engine.plan(wl), db, rng=np.random.default_rng(0)
        )  # warms nothing; just shape reference
        from repro.analysis.error import true_range_answers

        big = engine.plan(wl, budget=PlanBudget(total=4.0))
        small = engine.plan(wl, budget=PlanBudget(total=0.04))
        t = true_range_answers(
            db.cumulative_histogram(),
            np.asarray([0, 20, 64]),
            np.asarray([200, 90, 255]),
        )
        errs = {}
        for name, plan in (("big", big), ("small", small)):
            sq = []
            for trial in range(40):
                res = Executor(engine).run(plan, db, rng=np.random.default_rng(trial))
                sq.append(np.mean((res.answers - t) ** 2))
            errs[name] = float(np.mean(sq))
        assert errs["big"] < errs["small"] / 100
        assert truth.answers.shape == (3,)


class TestDegradation:
    def test_strict_raises_at_planning_time_before_any_spend(self, domain, db):
        engine = PolicyEngine(Policy.distance_threshold(domain, 2), 0.5)
        session = Session(engine, db, budget=0.4)
        with pytest.raises(BudgetExceededError):
            session.plan_with_meta(
                _mixed_workload(domain, db), budget=PlanBudget(total=1.0)
            )
        assert session.accountant.spends == []
        assert session.releases == {}

    def test_drop_optional_sheds_marked_groups_and_fits(self, domain, db):
        engine = PolicyEngine(Policy.distance_threshold(domain, 2), 0.5)
        session = Session(engine, db, budget=0.4)
        wl = _mixed_workload(domain, db, linear_optional=True)
        plan, _, answers, meta = session.plan_execute_with_meta(
            wl,
            budget=PlanBudget(total=1.0, degradation="drop_optional"),
            rng=np.random.default_rng(0),
        )
        step = plan.step_for("linear")
        assert step.degradation == "dropped"
        assert step.epsilon == 0.0
        assert plan.total_epsilon == pytest.approx(0.4)  # clamped to remaining
        assert meta["degraded"] == {"dropped": ["linear"]}
        assert np.isnan(answers[-1])  # the linear query's slot
        assert not np.isnan(answers[:-1]).any()
        assert session.spent == pytest.approx(0.4)

    def test_drop_optional_without_optional_groups_still_raises(self, domain, db):
        engine = PolicyEngine(Policy.distance_threshold(domain, 2), 0.5)
        session = Session(engine, db, budget=0.4)
        # nothing optional, uniform charge cannot shrink: degrade has no move
        with pytest.raises(BudgetExceededError):
            session.plan_with_meta(
                _mixed_workload(domain, db),
                budget=PlanBudget(uniform=0.5, degradation="drop_optional"),
            )

    def test_reuse_stale_serves_from_paid_releases(self, domain, db):
        # theta=2: the auto planner prefers a *fresh* ordered release over
        # the session's stale OH release ("range", the fixed default) — but
        # under a constrained budget, reuse_stale repins onto the stale one
        engine = PolicyEngine(Policy.distance_threshold(domain, 2), 0.5)
        session = Session(engine, db, budget=1.0)
        session.plan_execute_with_meta(
            Workload.ranges(domain, [0], [99]), optimize=False, rng=np.random.default_rng(0)
        )
        assert session.spent == pytest.approx(0.5)
        wl = _mixed_workload(domain, db)
        unconstrained, _ = session.plan_with_meta(wl)
        assert unconstrained.step_for("range").release == "range:ordered"
        plan, _, answers, meta = session.plan_execute_with_meta(
            wl,
            budget=PlanBudget(total=1.0, degradation="reuse_stale"),
            rng=np.random.default_rng(1),
        )
        range_step = plan.step_for("range")
        assert range_step.degradation == "stale"
        assert range_step.release == "range"
        assert range_step.strategy == "ordered-hierarchical"
        assert range_step.epsilon == 0.0
        # the linear group has no stale alternative: it stays fresh, within
        # what is left
        linear_step = plan.step_for("linear")
        assert linear_step.degradation is None
        assert 0 < linear_step.epsilon <= 0.5 + 1e-9
        assert "stale" in meta["degraded"]
        assert not np.isnan(answers).any()
        assert session.spent <= 1.0 + 1e-9

    def test_free_plan_never_degrades_even_in_strict_mode(self, domain, db):
        # every group served from the session's cache: the plan charges 0,
        # so no remaining budget, however small, should trigger degradation
        engine = PolicyEngine(Policy.distance_threshold(domain, 2), 0.5)
        session = Session(engine, db, budget=2.0)
        wl = _mixed_workload(domain, db)
        session.plan_execute_with_meta(
            wl, budget=PlanBudget(total=1.9), rng=np.random.default_rng(0)
        )
        assert session.remaining() == pytest.approx(0.1)
        free, _, answers, meta = session.plan_execute_with_meta(
            wl,
            budget=PlanBudget(total=1.0, degradation="strict"),
            rng=np.random.default_rng(1),
        )
        assert free.total_epsilon == 0.0
        assert all(s.degradation is None for s in free.steps)
        assert meta["epsilon_spent"] == 0.0

    def test_unconstrained_budget_never_degrades(self, domain, db):
        # plenty of remaining budget: degradation mode is irrelevant
        engine = PolicyEngine(Policy.distance_threshold(domain, 2), 0.5)
        session = Session(engine, db, budget=10.0)
        plan, _ = session.plan_with_meta(
            _mixed_workload(domain, db, linear_optional=True),
            budget=PlanBudget(total=1.0, degradation="drop_optional"),
        )
        assert all(s.degradation is None for s in plan.steps)
        assert plan.total_epsilon == pytest.approx(1.0)


class TestRemainingQuantization:
    """``PlanBudget.quantize_remaining``: cacheable identity, safe effective."""

    def test_none_passes_through(self):
        assert PlanBudget(total=1.0).quantize_remaining(None) == (None, None)

    def test_uniform_counts_whole_charges_exactly(self):
        budget = PlanBudget(uniform=0.5)
        assert budget.quantize_remaining(1.6) == (("units", 3), 1.5)
        assert budget.quantize_remaining(0.49) == (("units", 0), 0.0)
        # float dust below a whole multiple still buys the full count
        token, effective = budget.quantize_remaining(1.5 - 1e-12)
        assert token == ("units", 3) and effective == pytest.approx(1.5)

    def test_covering_remainders_are_one_class(self):
        budget = PlanBudget(total=1.0)
        assert budget.quantize_remaining(5.0)[0] == ("fits",)
        assert budget.quantize_remaining(7.0)[0] == ("fits",)
        assert budget.quantize_remaining(1.0)[0] == ("fits",)
        # the effective value is untouched where nothing degrades
        assert budget.quantize_remaining(5.0)[1] == 5.0

    def test_constrained_remainders_bucket_to_the_lower_edge(self):
        budget = PlanBudget(total=1.0)
        token, effective = budget.quantize_remaining(0.4)
        assert token == ("bucket", 25)
        assert effective == pytest.approx(25 / 64)
        # everything in the bucket shares the identity and representative
        assert budget.quantize_remaining(0.399)[0] == token
        assert budget.quantize_remaining(25 / 64)[0] == token

    def test_tiny_remainders_stay_exact(self):
        budget = PlanBudget(total=1.0)
        token, effective = budget.quantize_remaining(0.001)
        assert token == ("exact", 0.001) and effective == 0.001

    def test_effective_never_exceeds_remaining(self):
        budget = PlanBudget(total=1.0)
        rng = np.random.default_rng(0)
        for remaining in rng.uniform(0, 2, 200):
            _token, effective = budget.quantize_remaining(float(remaining))
            assert effective <= remaining + 1e-9


class TestSharedRowAllocation:
    def test_shared_rows_are_charged_to_one_release_in_the_split(self, domain, db):
        # two one-hot linear groups overlapping on two rows: the release
        # compiled first serves the shared rows for both groups, so the
        # error split must weight it by the queries it *answers* (6) and
        # the second by its fresh-only remainder (2) — not 4:4
        a = np.zeros((4, db.n))
        a[np.arange(4), np.arange(4)] = 1.0
        b = np.zeros((4, db.n))
        b[np.arange(4), np.arange(2, 6)] = 1.0
        wl = Workload(
            domain,
            [QueryGroup.linear(a, name="a"), QueryGroup.linear(b, name="b")],
        )
        engine = PolicyEngine(Policy.distance_threshold(domain, 2), 0.5)
        plan = engine.plan(wl, budget=PlanBudget(total=1.0))
        eps_a = plan.step_for("a").epsilon
        eps_b = plan.step_for("b").epsilon
        assert eps_a + eps_b == pytest.approx(1.0)
        # cube-root rule on 6 vs 2 attributed queries (equal per-query cost)
        assert eps_a / eps_b == pytest.approx(3.0 ** (1 / 3), rel=1e-6)

    def test_disjoint_groups_split_evenly(self, domain, db):
        # control: no overlap, equal sizes -> the old and new weighting agree
        a = np.zeros((4, db.n))
        a[np.arange(4), np.arange(4)] = 1.0
        b = np.zeros((4, db.n))
        b[np.arange(4), np.arange(10, 14)] = 1.0
        wl = Workload(
            domain,
            [QueryGroup.linear(a, name="a"), QueryGroup.linear(b, name="b")],
        )
        engine = PolicyEngine(Policy.distance_threshold(domain, 2), 0.5)
        plan = engine.plan(wl, budget=PlanBudget(total=1.0))
        assert plan.step_for("a").epsilon == pytest.approx(
            plan.step_for("b").epsilon
        )


class TestBudgetedPlanSpecs:
    def test_round_trip_preserves_budget_and_degradation(self, domain, db):
        engine = PolicyEngine(Policy.distance_threshold(domain, 2), 0.5)
        wl = _mixed_workload(domain, db, linear_optional=True)
        plan = Planner_plan = engine.plan(
            wl,
            budget=PlanBudget(total=1.0, degradation="drop_optional"),
            remaining=0.4,
        )
        back = Plan.from_spec(json.loads(json.dumps(plan.to_spec())), domain)
        assert back.fingerprint() == plan.fingerprint()
        assert back.budget == plan.budget
        assert [s.degradation for s in back.steps] == [
            s.degradation for s in Planner_plan.steps
        ]
        # a round-tripped degraded plan executes identically
        r1 = Executor(engine).run(plan, db, rng=np.random.default_rng(5))
        r2 = Executor(engine).run(back, db, rng=np.random.default_rng(5))
        assert np.array_equal(r1.answers, r2.answers, equal_nan=True)

    def test_explain_reports_budget_and_marginals(self, domain, db):
        engine = PolicyEngine(Policy.distance_threshold(domain, 2), 0.5)
        report = engine.plan(
            _mixed_workload(domain, db), budget=PlanBudget(total=1.0)
        ).explain()
        for needle in ("budget:", "marginal error per epsilon", "cost model:"):
            assert needle in report, report

    def test_switching_calibration_fits_keys_out_cached_plans(self, domain, db):
        from repro.analysis.bounds import calibration
        from repro.api import EnginePool

        pool = EnginePool()
        engine = pool.get(Policy.distance_threshold(domain, 2), 0.5)
        wl = _mixed_workload(domain, db)
        plan1, outcome1 = engine.plan_with_meta(wl)
        assert outcome1 == "miss"
        assert plan1.cost_model == "synthetic-grid"
        assert engine.plan_with_meta(wl)[1] == "hit"
        with calibration("uniform"):
            plan2, outcome2 = engine.plan_with_meta(wl)
            # a different fit scored this one: never served from the cache
            assert outcome2 == "miss"
            assert plan2.cost_model == "uniform"
            # the stamped plan reports the fit it was scored under, even
            # though the active fit has moved on
            assert "cost model: synthetic-grid" in plan1.explain()
            assert "cost model: uniform" in plan2.explain()

    def test_optional_flag_survives_workload_specs(self, domain, db):
        wl = _mixed_workload(domain, db, linear_optional=True)
        back = Workload.from_spec(json.loads(json.dumps(wl.to_spec())), domain)
        assert [g.optional for g in back.groups] == [False, False, True]
        assert back.fingerprint() == wl.fingerprint()
        # required-only workloads keep their pre-budget spec form
        plain = _mixed_workload(domain, db)
        assert "optional" not in json.dumps(plain.to_spec())
