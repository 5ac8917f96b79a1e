"""Tests for the hierarchical mechanism and the forest/NoisyTree GLS engine."""

import math

import numpy as np
import pytest

from repro import Database, Domain, Policy
from repro.mechanisms import HierarchicalMechanism, NoisyTree
from repro.mechanisms.hierarchical import consistent_forest, noisy_forest

HUGE_EPS = 1e9


def exact_tree(fanout, height, leaves, variances=None):
    """Build a NoisyTree with exact (no-noise) values and given variances."""
    values = [None] * (height + 1)
    level = np.asarray(leaves, dtype=np.float64)
    values[height] = level.copy()
    for l in range(height - 1, -1, -1):
        level = level.reshape(-1, fanout).sum(axis=1)
        values[l] = level.copy()
    if variances is None:
        variances = [1.0] * (height + 1)
    return NoisyTree(fanout, height, values, variances)


class TestNoisyTree:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoisyTree(1, 1, [np.zeros(1), np.zeros(1)], [1.0, 1.0])
        with pytest.raises(ValueError):
            NoisyTree(2, 1, [np.zeros(1)], [1.0])
        with pytest.raises(ValueError):
            NoisyTree(2, 1, [np.zeros(2), np.zeros(2)], [1.0, 1.0])

    def test_consistent_leaves_exact_inputs(self):
        leaves = np.arange(8, dtype=np.float64)
        tree = exact_tree(2, 3, leaves)
        assert np.allclose(tree.consistent_leaves(), leaves)

    def test_exact_root_forces_total(self):
        leaves = np.array([1.0, 1.0, 1.0, 1.0])
        tree = exact_tree(2, 2, leaves, variances=[0.0, 1.0, 1.0])
        tree.values[2] = tree.values[2] + np.array([1.0, -1.0, 0.5, -0.5])
        out = tree.consistent_leaves()
        assert out.sum() == pytest.approx(4.0)  # root is exact

    def test_unmeasured_level(self):
        leaves = np.array([2.0, 2.0, 2.0, 2.0])
        tree = exact_tree(2, 2, leaves, variances=[math.inf, math.inf, 1.0])
        assert np.allclose(tree.consistent_leaves(), leaves)

    def test_unmeasured_leaf_level_rejected(self):
        tree = exact_tree(2, 1, np.array([1.0, 1.0]), variances=[1.0, math.inf])
        with pytest.raises(ValueError):
            tree.consistent_leaves()

    def test_consistency_property(self, rng):
        # after inference, children sum to parents at every level
        leaves = rng.integers(0, 20, 16).astype(np.float64)
        tree = exact_tree(4, 2, leaves, variances=[0.0, 1.0, 1.0])
        for l in (1, 2):
            tree.values[l] = tree.values[l] + rng.normal(0, 2, tree.values[l].shape)
        out = tree.consistent_leaves()
        mid = out.reshape(-1, 4).sum(axis=1)
        # level-1 consistent values reconstructed by summing leaves must sum
        # to the exact root
        assert mid.sum() == pytest.approx(tree.values[0][0])

    def test_gls_reduces_leaf_error(self, rng):
        """Constrained inference must beat raw leaves on average (Hay et al.)."""
        truth = rng.integers(0, 30, 64).astype(np.float64)
        raw_mse, gls_mse = [], []
        for trial in range(200):
            t = exact_tree(4, 3, truth, variances=[0.0, 1.0, 1.0, 1.0])
            local = np.random.default_rng(trial)
            for l in (1, 2, 3):
                t.values[l] = t.values[l] + local.normal(0, 1.0, t.values[l].shape)
            raw_mse.append(np.mean((t.values[3] - truth) ** 2))
            gls_mse.append(np.mean((t.consistent_leaves() - truth) ** 2))
        assert np.mean(gls_mse) < np.mean(raw_mse) * 0.85

    def test_range_sum_canonical(self):
        leaves = np.arange(16, dtype=np.float64)
        tree = exact_tree(4, 2, leaves)
        for lo, hi in [(0, 15), (3, 9), (4, 7), (5, 5)]:
            assert tree.range_sum(lo, hi) == pytest.approx(leaves[lo : hi + 1].sum())
        with pytest.raises(ValueError):
            tree.range_sum(-1, 3)

    def test_range_sum_skips_unmeasured_root(self):
        leaves = np.ones(4)
        tree = exact_tree(2, 2, leaves, variances=[math.inf, 1.0, 1.0])
        assert tree.range_sum(0, 3) == pytest.approx(4.0)


class TestForest:
    """A batch of k trees is k trees built and reconciled one at a time."""

    FANOUT, HEIGHT, K = 3, 3, 5

    def _leaves(self):
        rng = np.random.default_rng(0)
        return rng.integers(0, 20, size=(self.K, self.FANOUT**self.HEIGHT)).astype(float)

    @pytest.mark.parametrize("scales", [[2.0, 2.0, 2.0], [0.5, 1.5, 4.0], [0.0, 0.0, 0.0]])
    def test_batched_draw_equals_per_tree_draws(self, scales):
        leaves = self._leaves()
        batched, variances = noisy_forest(
            leaves, self.FANOUT, self.HEIGHT, scales, np.random.default_rng(9)
        )
        rng = np.random.default_rng(9)
        for t in range(self.K):
            single, single_var = noisy_forest(leaves[t : t + 1], self.FANOUT, self.HEIGHT, scales, rng)
            assert single_var == variances
            for l in range(self.HEIGHT + 1):
                assert single[l].tobytes() == batched[l][t : t + 1].tobytes()
        # the roots stay exact; every other level carries its own scale
        assert np.array_equal(batched[0][:, 0], leaves.sum(axis=1))
        assert variances == [0.0] + [2.0 * s**2 for s in scales]

    def test_batched_gls_equals_per_tree_gls(self):
        values, variances = noisy_forest(
            self._leaves(), self.FANOUT, self.HEIGHT, [1.0, 2.0, 3.0], np.random.default_rng(4)
        )
        variances[0] = math.inf
        batched = consistent_forest(values, variances, self.FANOUT)
        for t in range(self.K):
            tree = NoisyTree(self.FANOUT, self.HEIGHT, [v[t] for v in values], variances)
            assert tree.consistent_leaves().tobytes() == batched[t].tobytes()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            noisy_forest(np.zeros((2, 8)), 3, 2, [1.0, 1.0], np.random.default_rng(0))
        with pytest.raises(ValueError):
            noisy_forest(np.zeros((2, 9)), 3, 2, [1.0], np.random.default_rng(0))


class TestHierarchicalMechanism:
    @pytest.fixture
    def db(self, rng):
        domain = Domain.integers("v", 100)
        return Database.from_indices(domain, rng.integers(0, 100, 2000))

    def test_noiseless_exact_all_ranges(self, db):
        for consistent in (True, False):
            mech = HierarchicalMechanism(
                Policy.differential_privacy(db.domain), HUGE_EPS, fanout=4,
                consistent=consistent,
            )
            rel = mech.release(db, rng=0)
            for lo, hi in [(0, 99), (10, 20), (37, 37), (0, 63), (64, 99)]:
                assert rel.range(lo, hi) == pytest.approx(db.range_count(lo, hi)), (
                    consistent, lo, hi,
                )

    def test_height_and_scale(self):
        domain = Domain.integers("v", 4357)
        mech = HierarchicalMechanism(Policy.differential_privacy(domain), 1.0, fanout=16)
        assert mech.height == 4  # 16^3 = 4096 < 4357 <= 16^4
        assert mech.scale == pytest.approx(2 * 4 / 1.0)

    def test_consistent_beats_raw(self, db):
        eps = 0.2
        truth = db.range_count(10, 60)
        errors = {True: [], False: []}
        for consistent in (True, False):
            mech = HierarchicalMechanism(
                Policy.differential_privacy(db.domain), eps, fanout=4,
                consistent=consistent,
            )
            for i in range(120):
                rel = mech.release(db, rng=i)
                errors[consistent].append((rel.range(10, 60) - truth) ** 2)
        assert np.mean(errors[True]) < np.mean(errors[False])

    def test_histogram_view(self, db):
        mech = HierarchicalMechanism(Policy.differential_privacy(db.domain), HUGE_EPS)
        rel = mech.release(db, rng=0)
        assert np.allclose(rel.histogram(), db.histogram(), atol=1e-6)

    def test_vectorized_ranges(self, db):
        mech = HierarchicalMechanism(Policy.differential_privacy(db.domain), HUGE_EPS)
        rel = mech.release(db, rng=0)
        los = np.array([0, 5, 50])
        his = np.array([99, 49, 99])
        expected = [db.range_count(a, b) for a, b in zip(los, his)]
        assert np.allclose(rel.ranges(los, his), expected, atol=1e-6)

    def test_validation(self, db):
        with pytest.raises(ValueError):
            HierarchicalMechanism(Policy.differential_privacy(db.domain), 1.0, fanout=1)
        with pytest.raises(TypeError):
            HierarchicalMechanism(Policy.differential_privacy(Domain.grid([2, 2])), 1.0)

    def test_range_answerer_bounds(self, db):
        mech = HierarchicalMechanism(Policy.differential_privacy(db.domain), 1.0)
        rel = mech.release(db, rng=0)
        with pytest.raises(ValueError):
            rel.range(0, 100)

    def test_expected_error_positive(self, db):
        mech = HierarchicalMechanism(Policy.differential_privacy(db.domain), 0.5)
        assert mech.expected_range_query_error() > 0


class TestBudgeting:
    @pytest.fixture
    def db(self, rng):
        domain = Domain.integers("v", 256)
        return Database.from_indices(domain, rng.integers(0, 256, 3000))

    def test_uniform_levels_sum_to_epsilon(self, db):
        mech = HierarchicalMechanism(
            Policy.differential_privacy(db.domain), 0.8, fanout=4
        )
        eps = mech.level_epsilons()
        assert eps.sum() == pytest.approx(0.8)
        assert np.allclose(eps, eps[0])

    def test_geometric_levels_sum_and_weight_leaves(self, db):
        mech = HierarchicalMechanism(
            Policy.differential_privacy(db.domain), 0.8, fanout=4, budget="geometric"
        )
        eps = mech.level_epsilons()
        assert eps.sum() == pytest.approx(0.8)
        # leaves (last level) carry the most budget
        assert np.all(np.diff(eps) > 0)

    def test_geometric_noiseless_exact(self, db):
        mech = HierarchicalMechanism(
            Policy.differential_privacy(db.domain), 1e9, fanout=4, budget="geometric"
        )
        rel = mech.release(db, rng=0)
        assert rel.range(10, 200) == pytest.approx(db.range_count(10, 200))

    def test_invalid_budget_rejected(self, db):
        with pytest.raises(ValueError):
            HierarchicalMechanism(
                Policy.differential_privacy(db.domain), 1.0, budget="exotic"
            )

    def test_budgets_produce_comparable_error(self, db):
        """Both allocations must land in the same error regime (with GLS
        inference their difference is modest)."""
        truth = db.range_count(30, 200)
        errs = {}
        for budget in ("uniform", "geometric"):
            mech = HierarchicalMechanism(
                Policy.differential_privacy(db.domain), 0.3, fanout=4, budget=budget
            )
            sq = [
                (mech.release(db, rng=i).range(30, 200) - truth) ** 2
                for i in range(100)
            ]
            errs[budget] = np.mean(sq)
        ratio = errs["uniform"] / errs["geometric"]
        assert 0.2 < ratio < 5.0
