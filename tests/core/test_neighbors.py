"""Tests for neighbor semantics (Definition 4.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Attribute,
    ConstraintSet,
    CountQuery,
    Database,
    Domain,
    ExplicitGraph,
    Policy,
)
from repro.core.neighbors import (
    are_neighbors,
    are_neighbors_unconstrained,
    discriminative_pairs,
    enumerate_databases,
    neighbor_pairs,
    tuple_delta,
    unconstrained_neighbors,
)


class TestPairsAndDelta:
    def test_discriminative_pairs(self, tiny_domain):
        policy = Policy(tiny_domain, ExplicitGraph(tiny_domain, [(0, 1)]))
        d1 = Database.from_indices(tiny_domain, [0, 2])
        d2 = Database.from_indices(tiny_domain, [1, 2])
        assert discriminative_pairs(policy, d1, d2) == {(0, 0, 1)}

    def test_non_edge_changes_excluded(self, tiny_domain):
        policy = Policy(tiny_domain, ExplicitGraph(tiny_domain, [(0, 1)]))
        d1 = Database.from_indices(tiny_domain, [0, 0])
        d2 = Database.from_indices(tiny_domain, [1, 2])  # (0,2) is not an edge
        assert discriminative_pairs(policy, d1, d2) == {(0, 0, 1)}

    def test_tuple_delta(self, tiny_domain):
        d1 = Database.from_indices(tiny_domain, [0, 2])
        d2 = Database.from_indices(tiny_domain, [1, 2])
        assert tuple_delta(d1, d2) == {(0, 0), (0, 1)}

    def test_cardinality_mismatch(self, tiny_domain):
        policy = Policy.differential_privacy(tiny_domain)
        d1 = Database.from_indices(tiny_domain, [0])
        d2 = Database.from_indices(tiny_domain, [0, 1])
        with pytest.raises(ValueError):
            discriminative_pairs(policy, d1, d2)


class TestUnconstrained:
    def test_one_edge_change_is_neighbor(self, tiny_domain):
        policy = Policy.differential_privacy(tiny_domain)
        d1 = Database.from_indices(tiny_domain, [0, 2])
        assert are_neighbors_unconstrained(policy, d1, d1.replace(0, 1))

    def test_two_changes_not_neighbors(self, tiny_domain):
        policy = Policy.differential_privacy(tiny_domain)
        d1 = Database.from_indices(tiny_domain, [0, 2])
        d2 = Database.from_indices(tiny_domain, [1, 1])
        assert not are_neighbors_unconstrained(policy, d1, d2)

    def test_non_edge_change_not_neighbor(self, tiny_domain):
        policy = Policy.line(tiny_domain)
        d1 = Database.from_indices(tiny_domain, [0])
        assert not are_neighbors_unconstrained(policy, d1, d1.replace(0, 2))
        assert are_neighbors_unconstrained(policy, d1, d1.replace(0, 1))

    def test_generator_counts(self, tiny_domain):
        policy = Policy.differential_privacy(tiny_domain)
        db = Database.from_indices(tiny_domain, [0, 1])
        nbrs = list(unconstrained_neighbors(policy, db))
        assert len(nbrs) == 4  # 2 tuples x 2 alternative values
        assert all(are_neighbors_unconstrained(policy, db, n) for n in nbrs)

    def test_generator_rejects_constrained(self, tiny_domain):
        q = CountQuery.from_mask(tiny_domain, np.array([True, False, False]))
        db = Database.from_indices(tiny_domain, [0])
        policy = Policy.full_domain(tiny_domain, ConstraintSet.from_database([q], db))
        with pytest.raises(ValueError):
            list(unconstrained_neighbors(policy, db))

    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_all_pairs_differ_in_exactly_one_tuple(self, size, n):
        domain = Domain.integers("v", size)
        policy = Policy.differential_privacy(domain)
        pairs = neighbor_pairs(policy, n)
        for d1, d2 in pairs:
            assert int(np.sum(d1.indices != d2.indices)) == 1
        # count: |T|^n databases x n positions x (|T|-1) alternatives
        assert len(pairs) == size**n * n * (size - 1)


class TestEnumerateDatabases:
    def test_counts(self, tiny_domain):
        assert len(list(enumerate_databases(tiny_domain, 2))) == 9

    def test_filtering_by_constraints(self, tiny_domain):
        q = CountQuery.from_mask(tiny_domain, np.array([True, False, False]))
        base = Database.from_indices(tiny_domain, [0, 1])
        policy = Policy.full_domain(
            tiny_domain, ConstraintSet.from_database([q], base)
        )
        dbs = list(enumerate_databases(tiny_domain, 2, policy))
        # exactly one tuple must be 0: 2 positions x 2 non-zero values
        assert len(dbs) == 4
        assert all(policy.admits(db) for db in dbs)

    def test_universe_guard(self):
        big = Domain.integers("v", 50)
        with pytest.raises(ValueError, match="too large"):
            list(enumerate_databases(big, 5))


class TestConstrainedNeighbors:
    """Definition 4.1 with constraints, on hand-checkable cases."""

    @pytest.fixture
    def marginal_policy(self):
        # 2x2 domain; the A1 marginal is public; full-domain secrets
        domain = Domain(
            [Attribute("A1", ["a1", "a2"]), Attribute("A2", ["b1", "b2"])]
        )
        q1 = CountQuery(domain, lambda v: v[0] == "a1", "A1=a1")
        q2 = CountQuery(domain, lambda v: v[0] == "a2", "A1=a2")
        base = Database.from_values(
            domain, [("a1", "b1"), ("a1", "b1"), ("a2", "b1")]
        )
        policy = Policy.full_domain(
            domain, ConstraintSet.from_database([q1, q2], base)
        )
        return policy, base

    def test_single_change_within_marginal_cell(self, marginal_policy):
        policy, base = marginal_policy
        # changing b1 -> b2 keeps the A1 marginal: a valid minimal neighbor
        d2 = base.replace(0, base.domain.index_of(("a1", "b2")))
        assert are_neighbors(policy, base, d2)

    def test_single_change_breaking_marginal_not_neighbor(self, marginal_policy):
        policy, base = marginal_policy
        d2 = base.replace(0, base.domain.index_of(("a2", "b1")))
        assert not are_neighbors(policy, base, d2)  # violates I_Q

    def test_compensating_double_change_is_neighbor(self, marginal_policy):
        policy, base = marginal_policy
        # swap one tuple a1->a2 and another a2->a1: marginal preserved, and
        # no single change can realize a strict subset of the pairs
        d2 = base.replace_many(
            {
                0: base.domain.index_of(("a2", "b2")),
                2: base.domain.index_of(("a1", "b2")),
            }
        )
        assert are_neighbors(policy, base, d2)

    def test_triple_change_not_minimal(self, marginal_policy):
        policy, base = marginal_policy
        # same as above plus a gratuitous extra change: dominated via 3(a)
        d2 = base.replace_many(
            {
                0: base.domain.index_of(("a2", "b2")),
                1: base.domain.index_of(("a1", "b2")),
                2: base.domain.index_of(("a1", "b2")),
            }
        )
        assert not are_neighbors(policy, base, d2)

    def test_unconstrained_fallback(self, tiny_domain):
        policy = Policy.differential_privacy(tiny_domain)
        d1 = Database.from_indices(tiny_domain, [0])
        assert are_neighbors(policy, d1, d1.replace(0, 1))

    def test_neighbor_pairs_symmetry(self, marginal_policy):
        policy, base = marginal_policy
        pairs = neighbor_pairs(policy, 3)
        pair_set = {(hash(a), hash(b)) for a, b in pairs}
        assert pair_set, "constrained policy should still have neighbors"
        for a, b in pairs:
            assert (hash(b), hash(a)) in pair_set


class TestNeighborPairsMatchesReference:
    """``neighbor_pairs`` hoists per-pair work out of its cubic search; it
    must list exactly the pairs, in the same order, that the
    :func:`are_neighbors` double loop accepts."""

    @staticmethod
    def _reference(policy, universe):
        return [
            (d1, d2)
            for d1 in universe
            for d2 in universe
            if d1 != d2 and are_neighbors(policy, d1, d2, universe=universe)
        ]

    @staticmethod
    def _policies():
        domain = Domain([Attribute("A1", ["a1", "a2"]), Attribute("A2", ["b1", "b2"])])
        q1 = CountQuery(domain, lambda v: v[0] == "a1", "A1=a1")
        q2 = CountQuery(domain, lambda v: v[0] == "a2", "A1=a2")
        base = Database.from_values(domain, [("a1", "b1"), ("a1", "b1"), ("a2", "b1")])
        marginal = ConstraintSet.from_database([q1, q2], base)
        yield Policy.full_domain(domain, marginal), 3
        # a sparse secret graph: some changes are not discriminative
        sparse = ExplicitGraph(domain, [(0, 1), (1, 3), (2, 3)])
        yield Policy(domain, sparse, marginal), 3
        line = Domain.integers("v", 3)
        low = CountQuery(line, lambda v: v[0] == 0, "v=0")
        base = Database.from_indices(line, [0, 1, 2])
        yield Policy.full_domain(line, ConstraintSet.from_database([low], base)), 3

    def test_equals_the_are_neighbors_double_loop(self):
        for policy, n in self._policies():
            universe = list(enumerate_databases(policy.domain, n, policy))
            got = neighbor_pairs(policy, n)
            want = self._reference(policy, universe)
            assert want, "each case should have neighbors"
            assert [(a.indices.tolist(), b.indices.tolist()) for a, b in got] == [
                (a.indices.tolist(), b.indices.tolist()) for a, b in want
            ]

    def test_a_universe_with_unadmitted_databases(self):
        # databases outside I_Q are never paired, but still searched as D3,
        # exactly as are_neighbors does with the same universe
        policy, n = next(self._policies())
        universe = list(enumerate_databases(policy.domain, n))
        got = neighbor_pairs(policy, n, universe=universe)
        want = self._reference(policy, universe)
        assert [(a.indices.tolist(), b.indices.tolist()) for a, b in got] == [
            (a.indices.tolist(), b.indices.tolist()) for a, b in want
        ]
