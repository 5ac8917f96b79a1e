"""Property tests: budget-first allocation invariants (hypothesis-driven).

The allocator's contract, over arbitrary workload shapes, budgets and
floors:

* every fresh release's allocated epsilon is strictly positive;
* the allocations sum to at most the budget's total (exactly, up to
  floating point, when nothing degrades);
* budgeted plans survive ``to_spec`` -> JSON -> ``from_spec`` with their
  fingerprints (and therefore their cross-tenant cache identity) intact;
* ``strict`` degradation raises :class:`BudgetExceededError` at planning
  time, before any spend lands on the session ledger.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    Database,
    Domain,
    PlanBudget,
    Policy,
    PolicyEngine,
    Workload,
)
from repro.api import Session
from repro.core.composition import BudgetExceededError
from repro.plan import Plan, QueryGroup

SIZE = 64
DOMAIN = Domain.integers("v", SIZE)
DB = Database.from_indices(
    DOMAIN, np.random.default_rng(11).integers(0, SIZE, 500)
)

# -- strategies -------------------------------------------------------------------

_ranges = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=SIZE - 1),
        st.integers(min_value=0, max_value=SIZE - 1),
    ),
    min_size=1,
    max_size=6,
)

_supports = st.lists(
    st.lists(
        st.integers(min_value=0, max_value=SIZE - 1), min_size=1, max_size=8, unique=True
    ),
    min_size=1,
    max_size=3,
)


@st.composite
def _workloads(draw):
    groups = []
    pairs = draw(_ranges)
    los = [min(a, b) for a, b in pairs]
    his = [max(a, b) for a, b in pairs]
    groups.append(QueryGroup.ranges(los, his, optional=draw(st.booleans())))
    if draw(st.booleans()):
        masks = np.zeros((0, SIZE), dtype=bool)
        supports = draw(_supports)
        masks = np.zeros((len(supports), SIZE), dtype=bool)
        for i, sup in enumerate(supports):
            masks[i, sup] = True
        groups.append(QueryGroup.counts(masks, optional=draw(st.booleans())))
    if draw(st.booleans()):
        q = draw(st.integers(min_value=1, max_value=2))
        weights = np.arange(1, q * DB.n + 1, dtype=np.float64).reshape(q, DB.n) / DB.n
        groups.append(QueryGroup.linear(weights, optional=draw(st.booleans())))
    return Workload(DOMAIN, groups)


@st.composite
def _budgets(draw):
    total = draw(
        st.floats(min_value=0.1, max_value=4.0, allow_nan=False, allow_infinity=False)
    )
    floors = {}
    if draw(st.booleans()):
        # a floor well under total/3 stays feasible for any unit count here
        floors["range"] = draw(st.floats(min_value=0.01, max_value=total / 4))
    degradation = draw(st.sampled_from(("strict", "drop_optional", "reuse_stale")))
    return PlanBudget(total=total, floors=floors, degradation=degradation)


_engines = st.builds(
    lambda theta, eps: PolicyEngine(
        Policy.distance_threshold(DOMAIN, theta)
        if theta > 0
        else Policy.differential_privacy(DOMAIN),
        eps,
    ),
    st.sampled_from((0, 1, 2, 8)),
    st.sampled_from((0.25, 0.5, 1.0)),
)


# -- properties -------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(workload=_workloads(), budget=_budgets(), engine=_engines)
def test_allocations_are_positive_and_sum_within_total(workload, budget, engine):
    plan = engine.plan(workload, budget=budget)
    fresh = [s.epsilon for s in plan.steps if s.epsilon > 0]
    assert all(e > 0 for e in fresh)
    assert plan.total_epsilon <= budget.total + 1e-9
    # no degradation was triggered (no remaining constraint): the whole
    # budget is put to work whenever anything fresh is released
    if fresh:
        assert plan.total_epsilon == pytest.approx(budget.total)
    # floors bind on the release serving the floored group
    for name, floor in budget.floors.items():
        step = plan.step_for(name)
        charged = max(
            (s.epsilon for s in plan.steps if s.release == step.release),
            default=0.0,
        )
        if step.family != "linear" and charged > 0:
            assert charged >= floor - 1e-9


@settings(max_examples=30, deadline=None)
@given(workload=_workloads(), budget=_budgets(), engine=_engines)
def test_budgeted_plans_round_trip_with_fingerprints_preserved(
    workload, budget, engine
):
    plan = engine.plan(workload, budget=budget)
    back = Plan.from_spec(json.loads(json.dumps(plan.to_spec())), DOMAIN)
    assert back.fingerprint() == plan.fingerprint()
    assert back.budget == plan.budget
    assert [s.epsilon for s in back.steps] == [s.epsilon for s in plan.steps]
    assert back.workload.fingerprint() == plan.workload.fingerprint()


@settings(max_examples=30, deadline=None)
@given(
    workload=_workloads(),
    total=st.floats(min_value=0.5, max_value=4.0, allow_nan=False),
    engine=_engines,
)
def test_strict_mode_raises_before_any_spend(workload, total, engine):
    # session budget strictly below the requested total: strict must refuse
    # at planning time with a pristine ledger
    session = Session(engine, DB, budget=total / 2)
    with pytest.raises(BudgetExceededError):
        session.plan_with_meta(
            workload, budget=PlanBudget(total=total, degradation="strict")
        )
    assert session.accountant.spends == []
    assert session.releases == {}
    assert session.spent == 0.0
