"""Database abstraction (paper Section 2).

A :class:`Database` is an ordered collection of ``n`` tuples, one per
individual; tuple ``i`` belongs to the individual with id ``i``.  Following
the paper we use the *indistinguishability* model: the set of individuals is
fixed and known, and neighboring databases differ by *changing* tuple values
(never by insertion/deletion), so a database is simply a length-``n`` vector
of domain indices.

Histograms are dense :class:`numpy.ndarray` vectors of length ``|T|`` when
the domain is small enough, and sparse ``{index: count}`` dictionaries
otherwise.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from .domain import Domain

__all__ = ["Database", "MAX_DENSE_HISTOGRAM"]

# Histograms above this many cells are returned sparse.  16.7M float64 cells
# is ~134 MB which is already generous for a laptop-scale reproduction.
MAX_DENSE_HISTOGRAM = 1 << 24


class Database:
    """An ``n``-tuple dataset over a :class:`~repro.core.domain.Domain`.

    Instances are immutable: update-style operations return new databases.
    The dense histogram is counted once, on first use, and kept.
    """

    __slots__ = ("domain", "_indices", "_histogram")

    def __init__(self, domain: Domain, indices: np.ndarray):
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim != 1:
            raise ValueError("indices must be a 1-D array (one entry per individual)")
        if indices.size and (indices.min() < 0 or indices.max() >= domain.size):
            raise ValueError("tuple index out of domain range")
        self.domain = domain
        self._indices = indices
        self._indices.setflags(write=False)
        self._histogram = None

    # -- constructors -----------------------------------------------------------
    @classmethod
    def from_indices(cls, domain: Domain, indices: Sequence[int]) -> "Database":
        """Build from raw domain indices (the fast path)."""
        return cls(domain, np.asarray(indices, dtype=np.int64))

    @classmethod
    def from_values(cls, domain: Domain, values: Iterable[Any]) -> "Database":
        """Build from value tuples (or bare values for 1-D domains)."""
        idx = np.fromiter(
            (domain.index_of(v) for v in values), dtype=np.int64, count=-1
        )
        return cls(domain, idx)

    @classmethod
    def empty(cls, domain: Domain) -> "Database":
        return cls(domain, np.empty(0, dtype=np.int64))

    # -- container protocol ------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of tuples (= number of individuals)."""
        return int(self._indices.size)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        """Domain index of individual ``i``'s tuple."""
        return int(self._indices[i])

    def value(self, i: int) -> tuple:
        """Value tuple of individual ``i``."""
        return self.domain.value_of(int(self._indices[i]))

    @property
    def indices(self) -> np.ndarray:
        """Read-only view of the per-individual domain indices."""
        return self._indices

    def __iter__(self):
        return iter(self._indices)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Database)
            and self.domain == other.domain
            and np.array_equal(self._indices, other._indices)
        )

    def __hash__(self) -> int:
        return hash((self.domain, self._indices.tobytes()))

    def __repr__(self) -> str:
        return f"Database(n={self.n}, domain={self.domain!r})"

    # -- updates (return new instances) --------------------------------------------
    def replace(self, i: int, new_index: int) -> "Database":
        """Copy with individual ``i``'s tuple changed to ``new_index``."""
        if not 0 <= new_index < self.domain.size:
            raise ValueError("new_index out of domain range")
        idx = self._indices.copy()
        idx[i] = new_index
        return Database(self.domain, idx)

    def replace_many(self, changes: dict[int, int]) -> "Database":
        """Copy with several individuals' tuples changed at once."""
        idx = self._indices.copy()
        for i, new_index in changes.items():
            if not 0 <= new_index < self.domain.size:
                raise ValueError("new index out of domain range")
            idx[i] = new_index
        return Database(self.domain, idx)

    def restrict(self, ids: Sequence[int]) -> "Database":
        """Sub-database ``D ∩ S`` on a subset of individuals (Theorems 4.2/4.3)."""
        return Database(self.domain, self._indices[np.asarray(ids, dtype=np.int64)])

    def subsample(self, fraction: float, rng: np.random.Generator) -> "Database":
        """Uniform subsample without replacement (skin10/skin01 in Section 6.1)."""
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        m = max(1, int(round(self.n * fraction)))
        chosen = rng.choice(self.n, size=m, replace=False)
        return Database(self.domain, self._indices[np.sort(chosen)])

    # -- aggregates ---------------------------------------------------------------
    def histogram(self) -> np.ndarray:
        """Complete histogram ``h(D)``: counts per domain cell (dense).

        Each call returns a fresh copy of the counts kept from the first.
        """
        if self._histogram is None:
            if self.domain.size > MAX_DENSE_HISTOGRAM:
                raise ValueError(
                    f"domain too large ({self.domain.size} cells) for a dense histogram; "
                    "use sparse_histogram()"
                )
            self._histogram = np.bincount(
                self._indices, minlength=self.domain.size
            ).astype(np.float64)
        return self._histogram.copy()

    def sparse_histogram(self) -> dict[int, int]:
        """Complete histogram as a ``{domain index: count}`` dict."""
        return dict(Counter(self._indices.tolist()))

    def cumulative_histogram(self) -> np.ndarray:
        """``S_T(D)`` (Definition 7.1): prefix sums of the complete histogram.

        Requires an ordered (1-attribute) domain.
        """
        self.domain.require_ordered()
        return np.cumsum(self.histogram())

    def points(self) -> np.ndarray:
        """``(n, m)`` float array of numeric tuple values (k-means input)."""
        return self.domain.numeric_values(self._indices)

    def range_count(self, lo: int, hi: int) -> int:
        """Number of tuples with domain index in ``[lo, hi]`` (ordered domains)."""
        self.domain.require_ordered()
        if lo > hi:
            raise ValueError("empty range: lo > hi")
        return int(np.count_nonzero((self._indices >= lo) & (self._indices <= hi)))
