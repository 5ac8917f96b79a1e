"""Tests for the synthetic dataset substrate."""

import numpy as np
import pytest

from repro.core.database import Database
from repro.datasets import (
    ADULT_N,
    CAPITAL_LOSS_DOMAIN_SIZE,
    CELL_KM,
    GRID_SHAPE,
    SKIN_N,
    TWITTER_N,
    adult_capital_loss_dataset,
    adult_capital_loss_domain,
    database_from_points,
    gaussian_clusters_dataset,
    indices_from_ranks,
    skin_dataset,
    skin_domain,
    twitter_dataset,
    twitter_domain,
    twitter_latitude_dataset,
    twitter_latitude_domain,
    unit_cube_domain,
)
from repro.datasets.base import clipped_gaussian_mixture
from repro.datasets.twitter import _BACKGROUND_WEIGHT, _CITIES_KM
from repro.stream import twitter_replay


class TestHelpers:
    def test_indices_from_ranks_matches_scalar(self, grid_domain):
        ranks = np.array([[0, 0], [3, 2], [1, 1]])
        idx = indices_from_ranks(grid_domain, ranks)
        for row, i in zip(ranks, idx):
            assert grid_domain.index_of_ranks(tuple(row)) == i

    def test_indices_from_ranks_validates(self, grid_domain):
        with pytest.raises(ValueError):
            indices_from_ranks(grid_domain, np.array([[0, 5]]))
        with pytest.raises(ValueError):
            indices_from_ranks(grid_domain, np.array([0, 1]))

    def test_database_from_points_clips(self):
        from repro import Domain

        d = Domain.uniform_grid([4], spacings=[1.0])
        db = database_from_points(
            d, np.array([[-2.0], [1.4], [99.0]]), np.array([1.0]), np.array([0.0])
        )
        assert list(db.indices) == [0, 1, 3]


class TestTwitter:
    def test_domain_geometry(self):
        d = twitter_domain()
        assert d.shape == GRID_SHAPE
        assert d.size == 120_000
        assert d.attributes[0].values[1] == CELL_KM

    def test_default_n_matches_paper(self):
        assert TWITTER_N == 193_563

    def test_generation_deterministic(self):
        a = twitter_dataset(2000, rng=7)
        b = twitter_dataset(2000, rng=7)
        assert a == b
        assert a != twitter_dataset(2000, rng=8)

    def test_clustered_not_uniform(self):
        db = twitter_dataset(20_000, rng=0)
        hist = db.histogram()
        occupied = np.count_nonzero(hist)
        # city clustering: mass concentrates in a small share of cells
        assert occupied < 0.5 * db.domain.size
        assert hist.max() > 20

    def test_latitude_projection(self):
        db2d = twitter_dataset(5000, rng=0)
        db1d = twitter_latitude_dataset(5000, rng=0)
        assert db1d.domain.size == GRID_SHAPE[0]
        assert db1d.n == db2d.n
        # the projection must preserve latitude ranks
        lat_ranks = db2d.indices // GRID_SHAPE[1]
        assert np.array_equal(np.sort(lat_ranks), np.sort(db1d.indices))

    def test_latitude_domain_spacing(self):
        d = twitter_latitude_domain()
        assert d.size == 400
        assert d.value_gap(0, 1) == CELL_KM


def _reference_twitter_indices(n: int, rng: np.random.Generator) -> np.ndarray:
    """The generator as first written: shuffle the 2-D points row by row in
    place, then discretize.  Kept to pin the faster permutation form."""
    lat_max = (GRID_SHAPE[0] - 1) * CELL_KM
    lon_max = (GRID_SHAPE[1] - 1) * CELL_KM
    n_bg = int(round(n * _BACKGROUND_WEIGHT))
    n_city = n - n_bg
    means = np.array([[c[0], c[1]] for c in _CITIES_KM])
    weights = np.array([c[2] for c in _CITIES_KM])
    sigmas = np.array([[c[3], c[3]] for c in _CITIES_KM])
    pts_city = clipped_gaussian_mixture(
        rng, n_city, weights, means, sigmas,
        lows=np.array([0.0, 0.0]), highs=np.array([lat_max, lon_max]),
    )
    pts_bg = np.column_stack(
        [rng.uniform(0.0, lat_max, n_bg), rng.uniform(0.0, lon_max, n_bg)]
    )
    points = np.vstack([pts_city, pts_bg])
    rng.shuffle(points, axis=0)
    return database_from_points(
        twitter_domain(), points, spacings=np.array([CELL_KM, CELL_KM]),
        origins=np.zeros(2),
    ).indices


class TestTwitterMatchesRowShuffle:
    """The generator permutes indices after discretizing instead of shuffling
    the points first; every database and the caller's rng stream must be
    bitwise what the row shuffle gave."""

    CASES = [(seed, n) for seed in (0, 1, 7, 12345) for n in (1, 2, 1000)] + [
        (0, TWITTER_N)
    ]

    @pytest.mark.parametrize("seed,n", CASES)
    def test_twitter_dataset(self, seed, n):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        db = twitter_dataset(n, rng=ours)
        assert np.array_equal(db.indices, _reference_twitter_indices(n, ref))
        assert ours.random() == ref.random()

    @pytest.mark.parametrize("seed,n", CASES)
    def test_twitter_latitude_dataset(self, seed, n):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        db = twitter_latitude_dataset(n, rng=ours)
        expected = _reference_twitter_indices(n, ref) // GRID_SHAPE[1]
        assert db == Database(twitter_latitude_domain(), expected)
        assert ours.random() == ref.random()

    @pytest.mark.parametrize("seed,n", [(0, 1), (7, 1000), (12345, 4000)])
    def test_twitter_replay(self, seed, n):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        _, batches = twitter_replay(ticks=4, n=n, rng=ours)
        lat = _reference_twitter_indices(n, np.random.default_rng(0)) // GRID_SHAPE[1]
        expected = np.array_split(lat[ref.permutation(n)], 4)
        assert len(batches) == len(expected)
        for got, want in zip(batches, expected):
            assert np.array_equal(got, want)
        assert ours.random() == ref.random()


class TestSkin:
    def test_domain(self):
        d = skin_domain()
        assert d.shape == (256, 256, 256)
        assert d.diameter() == 3 * 255.0

    def test_default_n_matches_paper(self):
        assert SKIN_N == 245_057

    def test_values_in_range_and_multimodal(self):
        db = skin_dataset(20_000, rng=0)
        pts = db.points()
        assert pts.min() >= 0 and pts.max() <= 255
        # multi-modal: overall std well above any single component's
        assert pts.std(axis=0).min() > 30


class TestAdult:
    def test_domain_size_matches_paper(self):
        assert adult_capital_loss_domain().size == CAPITAL_LOSS_DOMAIN_SIZE == 4357
        assert ADULT_N == 48_842

    def test_sparsity(self):
        db = adult_capital_loss_dataset(rng=0)
        zero_frac = float(np.mean(db.indices == 0))
        assert 0.94 <= zero_frac <= 0.97
        # nonzero mass concentrates in the 1400-2600 band
        nz = db.indices[db.indices > 0]
        band = np.mean((nz >= 1300) & (nz <= 2700))
        assert band > 0.8

    def test_cumulative_histogram_has_few_distinct_values(self):
        """Section 7.1's sparsity payoff: p << |T| distinct prefix counts."""
        db = adult_capital_loss_dataset(rng=0)
        p = len(np.unique(db.cumulative_histogram()))
        assert p < 0.33 * db.domain.size

    def test_deterministic(self):
        assert adult_capital_loss_dataset(1000, rng=3) == adult_capital_loss_dataset(1000, rng=3)


class TestSynthetic:
    def test_unit_cube_domain(self):
        d = unit_cube_domain(dim=2, resolution=0.25)
        assert d.shape == (5, 5)
        assert d.attributes[0].values[-1] == pytest.approx(1.0)

    def test_paper_defaults(self):
        db = gaussian_clusters_dataset(rng=0)
        assert db.n == 1000
        pts = db.points()
        assert pts.shape == (1000, 4)
        assert pts.min() >= 0.0 and pts.max() <= 1.0

    def test_clusters_are_separable(self):
        from repro.mechanisms import lloyd_kmeans

        db = gaussian_clusters_dataset(n=500, k=2, dim=2, sigma=0.05, rng=1)
        result = lloyd_kmeans(db.points(), k=2, iterations=10, rng=0)
        # two tight blobs: within-cluster variance far below data variance
        total = ((db.points() - db.points().mean(axis=0)) ** 2).sum()
        assert result.objective < 0.5 * total

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            unit_cube_domain(resolution=0.0)
