"""Synthetic equivalent of the paper's ``twitter`` dataset (Section 6.1).

The original: 193,563 geotagged tweets inside the western-USA bounding box
(50N, 125W)-(30N, 110W), discretized at 0.05 degrees into a 400 (latitude) x
300 (longitude) grid, spanning roughly 2222 x 1442 km.

What we build: a seeded mixture of Gaussians centered on real western-US
metro areas (weighted by rough population) plus a uniform background, on a
grid with the *same cell counts* and a uniform **5 km cell spacing** on both
axes (2000 x 1500 km).  The paper's experiments depend on the grid geometry
only through L1 distances — the uniform 5 km spacing keeps every
``theta``-in-km policy meaningful, and makes ``theta = 5 km`` exactly the
line-graph policy, matching the paper's remark that the 5 km series
coincides with the ordered mechanism.  (The original's 5.55 x 4.8 km cells
would make ``theta = 5 km`` an *empty* graph instead.)
"""

from __future__ import annotations

import numpy as np

from ..core.database import Database
from ..core.domain import Domain
from ..core.rng import ensure_rng
from .base import clipped_gaussian_mixture, database_from_points

__all__ = [
    "twitter_domain",
    "twitter_dataset",
    "twitter_latitude_domain",
    "twitter_latitude_dataset",
    "TWITTER_N",
    "CELL_KM",
    "GRID_SHAPE",
]

TWITTER_N = 193_563
CELL_KM = 5.0
GRID_SHAPE = (400, 300)  # latitude cells x longitude cells

# (lat_cell_km, lon_cell_km, weight, sigma_km) — metro areas inside the box,
# expressed in km from the box's SW corner (30N, 125W); weights are rough
# metro populations (millions).
_CITIES_KM = (
    (1955.0, 290.0, 4.0, 35.0),   # Seattle
    (1720.0, 250.0, 2.5, 30.0),   # Portland
    (1510.0, 750.0, 0.8, 40.0),   # Boise
    (1200.0, 1310.0, 1.2, 35.0),  # Salt Lake City
    (865.0, 290.0, 4.7, 45.0),    # San Francisco Bay
    (955.0, 390.0, 2.4, 30.0),    # Sacramento
    (745.0, 580.0, 1.0, 25.0),    # Fresno
    (450.0, 755.0, 13.0, 55.0),   # Los Angeles
    (300.0, 870.0, 3.3, 30.0),    # San Diego
    (690.0, 1100.0, 2.2, 30.0),   # Las Vegas
    (375.0, 1430.0, 4.8, 45.0),   # Phoenix
    (245.0, 1450.0, 1.0, 30.0),   # Tucson
    (1050.0, 580.0, 0.6, 25.0),   # Reno
    (1965.0, 840.0, 0.6, 25.0),   # Spokane
)
_BACKGROUND_WEIGHT = 0.12  # fraction of points drawn uniformly over the box


def twitter_domain() -> Domain:
    """400 x 300 grid with 5 km cells; attribute values are km coordinates."""
    return Domain.uniform_grid(
        GRID_SHAPE, spacings=(CELL_KM, CELL_KM), names=("lat_km", "lon_km")
    )


def twitter_dataset(
    n: int = TWITTER_N, rng: int | np.random.Generator | None = 0
) -> Database:
    """The synthetic tweet-location database (see module docstring)."""
    rng = ensure_rng(rng)
    domain = twitter_domain()
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
    # permuting the row numbers draws exactly what shuffling the rows in
    # place draws (one Fisher-Yates pass), and discretization is row-wise,
    # so reordering the cell indices afterwards gives the same database
    # without numpy's slow row-at-a-time 2-D shuffle
    order = rng.permutation(len(points))
    db = database_from_points(
        domain, points, spacings=np.array([CELL_KM, CELL_KM]), origins=np.zeros(2)
    )
    return Database(domain, db.indices[order])


def twitter_latitude_domain() -> Domain:
    """The 1-D latitude projection used in Figure 2(c): 400 ordered values
    spaced 5 km apart (the paper's "around 2222 km" domain)."""
    values = [i * CELL_KM for i in range(GRID_SHAPE[0])]
    return Domain.ordered("lat_km", values)


def twitter_latitude_dataset(
    n: int = TWITTER_N, rng: int | np.random.Generator | None = 0
) -> Database:
    """Project the synthetic tweets onto latitude (Figure 2(c) workload)."""
    db2d = twitter_dataset(n, rng)
    lat_ranks = db2d.indices // GRID_SHAPE[1]
    return Database(twitter_latitude_domain(), lat_ranks)
