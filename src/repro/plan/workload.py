"""Workloads: named groups of homogeneous, array-packed query batches.

A :class:`Workload` is the unit the planner reasons about: every group
holds one *family* of scalar queries (``range`` / ``count`` / ``linear``)
packed into dense arrays, so both cost estimation (average support, run
counts) and execution (one vectorized pass per group) never loop over
Python query objects.  Workloads are spec round-trippable like every other
boundary object (:meth:`to_spec` / :meth:`from_spec`) and carry a stable
:meth:`fingerprint` over their canonical spec.

Two groups of the same family are allowed (distinct names); the executor
serves them from one shared release, which is the simplest case of the
plan-level release sharing the planner exploits.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from ..core.domain import Domain
from ..core.queries import (
    CountQuery,
    CumulativeHistogramQuery,
    HistogramQuery,
    LinearQuery,
    Query,
    RangeQuery,
    _int_array,
)
from ..core.specbase import (
    SPEC_VERSION,
    SpecError,
    check_kind,
    check_version,
    spec_digest,
    spec_get,
)

__all__ = [
    "QueryGroup",
    "Workload",
    "WorkloadSkeleton",
    "FAMILY_ORDER",
    "ANY_AGE",
    "validate_range_arrays",
]


def validate_range_arrays(los: np.ndarray, his: np.ndarray, domain: Domain, path: str) -> None:
    """Reject out-of-bounds or inverted ranges, naming the first offender.

    The one bounds check every range-batch entry point shares — the service
    boundary and workload groups must produce identical errors for
    identical inputs.
    """
    domain.require_ordered()
    bad = (los < 0) | (los > his) | (his >= domain.size)
    if bad.any():
        i = int(np.argmax(bad))
        raise SpecError(
            f"{path}[{i}]",
            f"invalid range [{int(los[i])}, {int(his[i])}] for domain size {domain.size}",
        )

#: Canonical group order for auto-grouped flat batches; matches the release
#: order of the pre-planner ``PolicyEngine.answer`` so that fixed-mode plans
#: consume the caller's rng stream identically (bitwise-stable answers).
FAMILY_ORDER = ("range", "count", "linear")

#: A ``max_staleness`` that admits a held release of any age: the
#: ``"answer"`` op's rule on streams, where a release once paid for keeps
#: serving for free however many ticks pass.
ANY_AGE = sys.maxsize


class QueryGroup:
    """One named batch of same-family queries, packed into arrays.

    * ``range``:  ``los``/``his`` — int64 index arrays;
    * ``count``:  ``masks`` — a ``(q, |T|)`` boolean support stack;
    * ``linear``: ``weights`` — a ``(q, n)`` float64 weight stack.

    ``optional=True`` marks a group the caller can live without: under a
    constrained budget with degradation mode ``drop_optional`` the planner
    sheds optional groups (their answers come back NaN) instead of failing
    the whole workload.

    ``max_staleness`` is the group's freshness bound in stream ticks: the
    planner may serve the group from an existing release that is at most
    this many ticks old.  ``None`` (the default) means only current-tick
    releases qualify — on a static dataset every release has age 0, so the
    bound is inert outside streaming sessions.
    """

    __slots__ = ("name", "family", "los", "his", "masks", "weights", "optional", "max_staleness")

    def __init__(
        self,
        name: str,
        family: str,
        *,
        optional: bool = False,
        max_staleness: int | None = None,
        **payload,
    ):
        if family not in FAMILY_ORDER:
            raise ValueError(f"unknown query family {family!r} (known: {FAMILY_ORDER})")
        self.name = str(name)
        self.family = family
        self.optional = bool(optional)
        if max_staleness is not None:
            max_staleness = int(max_staleness)
            if max_staleness < 0:
                raise ValueError("max_staleness must be a non-negative tick count")
        self.max_staleness = max_staleness
        self.los = self.his = self.masks = self.weights = None
        if family == "range":
            self.los = np.asarray(payload.pop("los"), dtype=np.int64)
            self.his = np.asarray(payload.pop("his"), dtype=np.int64)
            if self.los.shape != self.his.shape or self.los.ndim != 1:
                raise ValueError("los and his must be equal-length 1-D arrays")
        elif family == "count":
            self.masks = np.atleast_2d(np.asarray(payload.pop("masks"), dtype=bool))
            if self.masks.ndim != 2:
                raise ValueError("masks must be a (queries, |T|) 2-D boolean stack")
        else:
            self.weights = np.atleast_2d(np.asarray(payload.pop("weights"), dtype=np.float64))
            if self.weights.ndim != 2:
                raise ValueError("weights must be a (queries, n) 2-D float stack")
        if payload:
            raise TypeError(f"unexpected payload for {family!r} group: {sorted(payload)}")

    # -- constructors --------------------------------------------------------------
    @classmethod
    def ranges(
        cls,
        los,
        his,
        name: str = "range",
        *,
        optional: bool = False,
        max_staleness: int | None = None,
    ) -> "QueryGroup":
        return cls(
            name, "range", los=los, his=his, optional=optional, max_staleness=max_staleness
        )

    @classmethod
    def counts(
        cls,
        masks,
        name: str = "count",
        *,
        optional: bool = False,
        max_staleness: int | None = None,
    ) -> "QueryGroup":
        return cls(name, "count", masks=masks, optional=optional, max_staleness=max_staleness)

    @classmethod
    def linear(
        cls,
        weights,
        name: str = "linear",
        *,
        optional: bool = False,
        max_staleness: int | None = None,
    ) -> "QueryGroup":
        return cls(
            name, "linear", weights=weights, optional=optional, max_staleness=max_staleness
        )

    def __len__(self) -> int:
        if self.family == "range":
            return int(self.los.size)
        if self.family == "count":
            return int(self.masks.shape[0])
        return int(self.weights.shape[0])

    # -- planner statistics --------------------------------------------------------
    def avg_support(self) -> float:
        """Mean support size of the count masks (cost of fresh-histogram answering)."""
        if self.family != "count" or not len(self):
            return 0.0
        return float(self.masks.sum(axis=1).mean())

    def avg_runs(self) -> float:
        """Mean number of maximal contiguous runs per count mask.

        When counts are answered from a *prefix-structured* range release,
        the cell noises telescope inside each run: a query's noise variance
        is (number of runs) x (one range query's variance), not (support
        size) x (per-cell variance).  This is what makes sharing a range
        release competitive for interval-like count queries.
        """
        if self.family != "count" or not len(self):
            return 0.0
        starts = self.masks[:, :1].sum(axis=1) + (
            (~self.masks[:, :-1] & self.masks[:, 1:]).sum(axis=1)
            if self.masks.shape[1] > 1
            else 0
        )
        return float(np.asarray(starts, dtype=np.float64).mean())

    def _validate(self, domain: Domain, path: str) -> None:
        if self.family == "range":
            validate_range_arrays(self.los, self.his, domain, path)
        elif self.family == "count":
            if self.masks.shape[1] != domain.size:
                raise SpecError(
                    path, f"mask width {self.masks.shape[1]} != domain size {domain.size}"
                )
        else:
            attr = domain.require_ordered()
            if not attr.is_numeric:
                raise SpecError(path, "linear queries need a numeric domain")

    # -- specs ---------------------------------------------------------------------
    def to_spec(self) -> dict:
        spec: dict = {"name": self.name, "family": self.family}
        if self.optional:
            # only emitted when set: required groups keep their pre-budget
            # spec form (and therefore their workload fingerprints)
            spec["optional"] = True
        if self.max_staleness is not None:
            # same emitted-only-when-set rule: non-streaming specs keep
            # their existing fingerprints
            spec["max_staleness"] = self.max_staleness
        if self.family == "range":
            spec["los"] = self.los.tolist()
            spec["his"] = self.his.tolist()
        elif self.family == "count":
            spec["supports"] = [np.flatnonzero(m).tolist() for m in self.masks]
        else:
            spec["weights"] = [[float(w) for w in row] for row in self.weights]
        return spec

    @classmethod
    def from_spec(cls, spec: dict, domain: Domain, path: str = "group") -> "QueryGroup":
        family = spec_get(spec, "family", str, path)
        name = spec_get(spec, "name", str, path, required=False, default=family)
        optional = bool(
            spec_get(spec, "optional", bool, path, required=False, default=False)
        )
        max_staleness = spec_get(spec, "max_staleness", int, path, required=False)
        if max_staleness is not None and max_staleness < 0:
            raise SpecError(f"{path}.max_staleness", "must be a non-negative tick count")
        if family == "range":
            los = _int_array(spec_get(spec, "los", list, path), f"{path}.los")
            his = _int_array(spec_get(spec, "his", list, path), f"{path}.his")
            if los.size != his.size:
                raise SpecError(f"{path}.his", "must have the same length as los")
            group = cls.ranges(los, his, name=name)
        elif family == "count":
            supports = spec_get(spec, "supports", list, path)
            masks = np.zeros((len(supports), domain.size), dtype=bool)
            for i, support in enumerate(supports):
                idx = _int_array(support, f"{path}.supports[{i}]")
                if idx.size and (idx.min() < 0 or idx.max() >= domain.size):
                    raise SpecError(
                        f"{path}.supports[{i}]",
                        f"index out of range for domain of size {domain.size}",
                    )
                masks[i, idx] = True
            group = cls.counts(masks, name=name)
        elif family == "linear":
            rows = spec_get(spec, "weights", list, path)
            try:
                weights = np.asarray(rows, dtype=np.float64)
            except (TypeError, ValueError):
                raise SpecError(f"{path}.weights", "expected a rectangular list of numbers") from None
            if weights.ndim != 2:
                raise SpecError(f"{path}.weights", "expected a rectangular list of numbers")
            group = cls.linear(weights, name=name)
        else:
            raise SpecError(f"{path}.family", f"unknown query family {family!r}")
        group.optional = optional
        group.max_staleness = max_staleness
        group._validate(domain, path)
        return group

    def nbytes(self) -> int:
        """Bytes retained by this group's packed payload arrays."""
        return sum(
            int(arr.nbytes)
            for arr in (self.los, self.his, self.masks, self.weights)
            if arr is not None
        )

    def __repr__(self) -> str:
        opt = ", optional" if self.optional else ""
        stale = (
            f", max_staleness={self.max_staleness}" if self.max_staleness is not None else ""
        )
        return f"QueryGroup({self.name!r}, family={self.family!r}, n={len(self)}{opt}{stale})"


class Workload:
    """Heterogeneous typed queries, grouped for planning and execution.

    Parameters
    ----------
    domain:
        The domain every group's queries are over (validated per group).
    groups:
        The :class:`QueryGroup` s, in the order the executor will serve
        them.  Names must be unique.
    positions:
        Optional ``{group name: int array}`` mapping each group's answers
        back into one flat output array — recorded by :meth:`from_queries`
        so mixed batches keep their input order.  Without it, the flat
        order is the concatenation of the groups.
    """

    def __init__(self, domain: Domain, groups, positions: dict | None = None):
        self.domain = domain
        self.groups = tuple(groups)
        names = [g.name for g in self.groups]
        if len(set(names)) != len(names):
            raise ValueError(f"group names must be unique, got {names}")
        for group in self.groups:
            group._validate(domain, f"workload.groups[{group.name}]")
        self._positions = positions
        self._n_flat: int | None = None

    # -- constructors --------------------------------------------------------------
    @classmethod
    def ranges(cls, domain: Domain, los, his) -> "Workload":
        """A pure range batch straight from index arrays (the hot path)."""
        return cls(domain, [QueryGroup.ranges(los, his)])

    @classmethod
    def from_queries(cls, domain: Domain, queries) -> "Workload":
        """Auto-group a flat batch of typed scalar queries by family.

        Groups come out in :data:`FAMILY_ORDER` with the original flat
        positions recorded, exactly mirroring the family split of
        ``PolicyEngine.answer``.
        """
        range_ix: list[int] = []
        count_ix: list[int] = []
        linear_ix: list[int] = []
        for pos, q in enumerate(queries):
            if isinstance(q, RangeQuery):
                range_ix.append(pos)
            elif isinstance(q, CountQuery):
                count_ix.append(pos)
            elif isinstance(q, LinearQuery):
                linear_ix.append(pos)
            elif isinstance(q, (HistogramQuery, CumulativeHistogramQuery)):
                raise TypeError(
                    f"{type(q).__name__} is vector-valued; use "
                    "release(db, family) and read the synopsis directly"
                )
            else:
                raise TypeError(f"unsupported query type {type(q).__name__}")
        groups: list[QueryGroup] = []
        positions: dict[str, np.ndarray] = {}
        if range_ix:
            los = np.fromiter((queries[i].lo for i in range_ix), np.int64, len(range_ix))
            his = np.fromiter((queries[i].hi for i in range_ix), np.int64, len(range_ix))
            groups.append(QueryGroup.ranges(los, his))
            positions["range"] = np.asarray(range_ix, dtype=np.intp)
        if count_ix:
            masks = np.stack([queries[i].mask for i in count_ix])
            groups.append(QueryGroup.counts(masks))
            positions["count"] = np.asarray(count_ix, dtype=np.intp)
        if linear_ix:
            weights = np.stack(
                [np.asarray(queries[i].weights, dtype=np.float64) for i in linear_ix]
            )
            groups.append(QueryGroup.linear(weights))
            positions["linear"] = np.asarray(linear_ix, dtype=np.intp)
        wl = cls(domain, groups, positions=positions)
        wl._n_flat = len(queries)
        return wl

    @classmethod
    def from_specs(cls, specs, domain: Domain, path: str = "queries") -> "Workload":
        """Build from a flat list of per-query spec dicts (service shape)."""
        queries = [
            Query.from_spec(q, domain, f"{path}[{i}]") for i, q in enumerate(specs)
        ]
        return cls.from_queries(domain, queries)

    # -- structure -----------------------------------------------------------------
    def group(self, name: str) -> QueryGroup:
        for g in self.groups:
            if g.name == name:
                return g
        raise KeyError(f"no group named {name!r} in this workload")

    def __len__(self) -> int:
        return sum(len(g) for g in self.groups)

    def __iter__(self):
        return iter(self.groups)

    def assemble(self, by_group: dict[str, np.ndarray]) -> np.ndarray:
        """Flatten per-group answers into one array in the workload's order."""
        if self._positions is None:
            parts = [np.asarray(by_group[g.name], dtype=np.float64) for g in self.groups]
            return np.concatenate(parts) if parts else np.empty(0, dtype=np.float64)
        out = np.empty(self._n_flat if self._n_flat is not None else len(self), np.float64)
        for g in self.groups:
            out[self._positions[g.name]] = by_group[g.name]
        return out

    # -- specs ---------------------------------------------------------------------
    def to_spec(self) -> dict:
        """Versioned plain-dict description (domain supplied at load time).

        The flat-order mapping of auto-grouped batches travels too, so a
        plan round-tripped through specs returns its answers in the
        original interleaved query order, not group-concatenation order.
        """
        spec = {
            "kind": "workload",
            "version": SPEC_VERSION,
            "groups": [g.to_spec() for g in self.groups],
        }
        if self._positions is not None:
            spec["positions"] = {
                name: ix.tolist() for name, ix in self._positions.items()
            }
        return spec

    @classmethod
    def from_spec(cls, spec: dict, domain: Domain, path: str = "workload") -> "Workload":
        check_kind(spec, "workload", path)
        check_version(spec, path, required=False)
        items = spec_get(spec, "groups", list, path)
        groups = [
            QueryGroup.from_spec(g, domain, f"{path}.groups[{i}]")
            for i, g in enumerate(items)
        ]
        raw_positions = spec_get(spec, "positions", dict, path, required=False)
        positions = None
        if raw_positions is not None:
            positions = {}
            names = {g.name for g in groups}
            for name, ix in raw_positions.items():
                if name not in names:
                    raise SpecError(f"{path}.positions", f"unknown group {name!r}")
                if not isinstance(ix, list):
                    raise SpecError(f"{path}.positions.{name}", "expected a list of ints")
                positions[name] = _int_array(ix, f"{path}.positions.{name}").astype(np.intp)
            total = sum(len(g) for g in groups)
            flat = (
                np.concatenate(list(positions.values()))
                if positions
                else np.empty(0, dtype=np.intp)
            )
            covered = np.sort(flat)
            if set(positions) != names or not np.array_equal(
                covered, np.arange(total, dtype=np.intp)
            ):
                raise SpecError(
                    f"{path}.positions",
                    "must be a permutation of the flat query order covering every group",
                )
            for group in groups:
                if positions[group.name].size != len(group):
                    raise SpecError(
                        f"{path}.positions.{group.name}",
                        "length must match the group's query count",
                    )
        try:
            wl = cls(domain, groups, positions=positions)
        except ValueError as exc:
            raise SpecError(f"{path}.groups", str(exc)) from None
        if positions is not None:
            wl._n_flat = total
        return wl

    def fingerprint(self) -> str:
        """Stable digest of the canonical workload spec."""
        return spec_digest(self.to_spec())

    def nbytes(self) -> int:
        """Bytes retained by the packed query arrays (plan-cache budgeting).

        A cached :class:`~repro.plan.Plan` keeps its workload alive — the
        executor reads the packed arrays — so this is the dominant term of
        a plan's cache footprint.
        """
        total = sum(g.nbytes() for g in self.groups)
        if self._positions is not None:
            total += sum(int(ix.nbytes) for ix in self._positions.values())
        return total

    def cache_token(self) -> str:
        """Fast structural digest for plan-cache keys (raw array bytes).

        Semantically equivalent workloads (same domain, groups, payload
        arrays and flat-order mapping) share a token.  Unlike
        :meth:`fingerprint` this never materializes the spec — hashing the
        packed arrays directly keeps the plan-cache probe far cheaper than
        the candidate scoring it short-circuits, even at 10k queries.
        """
        h = hashlib.sha256()
        h.update(self.domain.fingerprint().encode("ascii"))
        for g in self.groups:
            h.update(b"\x00g")
            h.update(g.name.encode("utf-8"))
            h.update(g.family.encode("ascii"))
            h.update(b"\x01" if g.optional else b"\x00")
            if g.max_staleness is not None:
                # appended only when set, so non-streaming workloads keep
                # their pre-existing tokens
                h.update(b"\x02s" + repr(g.max_staleness).encode("ascii"))
            for arr in (g.los, g.his, g.weights):
                if arr is not None:
                    # shape prefix: equal flattened bytes under different
                    # shapes (or trailing all-zero rows under packbits
                    # padding below) must not collide across tenants
                    h.update(repr(arr.shape).encode("ascii"))
                    h.update(np.ascontiguousarray(arr).tobytes())
            if g.masks is not None:
                # bit-packed: 8x fewer bytes through the hash for wide masks
                h.update(repr(g.masks.shape).encode("ascii"))
                h.update(np.packbits(g.masks, axis=None).tobytes())
        if self._positions is not None:
            for name in sorted(self._positions):
                h.update(b"\x00p")
                h.update(name.encode("utf-8"))
                h.update(np.ascontiguousarray(self._positions[name]).tobytes())
        return h.hexdigest()[:16]

    def __repr__(self) -> str:
        inner = ", ".join(f"{g.name}:{len(g)}" for g in self.groups)
        return f"Workload({inner or 'empty'})"


class _GroupSkeleton:
    """Structure-only stand-in for a :class:`QueryGroup` (no payload arrays)."""

    __slots__ = ("name", "family", "optional", "max_staleness", "_n")

    def __init__(self, group: QueryGroup):
        self.name = group.name
        self.family = group.family
        self.optional = group.optional
        self.max_staleness = group.max_staleness
        self._n = len(group)

    def __len__(self) -> int:
        return self._n

    def nbytes(self) -> int:
        return 0

    def __repr__(self) -> str:
        return f"_GroupSkeleton({self.name!r}, family={self.family!r}, n={self._n})"


class WorkloadSkeleton:
    """Payload-free stand-in for a :class:`Workload` inside cached plans.

    Carries exactly what a cached :class:`~repro.plan.Plan` needs to stay
    valid and identifiable — the domain, per-group structure (name, family,
    query count, optionality, freshness bound) and the memoized
    :meth:`cache_token` — while dropping the packed query arrays that
    dominate a plan's cache footprint.  Executing such a plan requires the
    caller to supply the live workload (the executor keys the handoff off
    the cache token), so payload access here is a contract violation and
    raises.
    """

    __slots__ = ("domain", "groups", "_token", "_n_flat")

    def __init__(self, workload: Workload):
        self.domain = workload.domain
        self.groups = tuple(_GroupSkeleton(g) for g in workload.groups)
        self._token = workload.cache_token()
        self._n_flat = workload._n_flat

    def group(self, name: str):
        for g in self.groups:
            if g.name == name:
                return g
        raise KeyError(f"no group named {name!r} in this workload")

    def __len__(self) -> int:
        return sum(len(g) for g in self.groups)

    def __iter__(self):
        return iter(self.groups)

    def cache_token(self) -> str:
        return self._token

    def nbytes(self) -> int:
        """The whole point: a skeleton retains no payload bytes."""
        return 0

    def _no_payload(self, what: str):
        raise TypeError(
            f"cannot {what} a payload-free workload skeleton; "
            "run the plan with the live workload (Executor.run(..., workload=...))"
        )

    def assemble(self, by_group):
        self._no_payload("assemble answers from")

    def to_spec(self):
        self._no_payload("serialize")

    def fingerprint(self):
        self._no_payload("fingerprint")

    def __repr__(self) -> str:
        inner = ", ".join(f"{g.name}:{len(g)}" for g in self.groups)
        return f"WorkloadSkeleton({inner or 'empty'})"
