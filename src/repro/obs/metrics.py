"""Counters, gauges and fixed-bucket latency histograms.

The serving tier records a handful of events per request (request counts,
latency observations, cache outcomes, ledger charges).  Every instrument
carries its own lock, so two threads recording the *same* metric contend
only on that one instrument's tiny critical section; the registry's own
lock guards only instrument *creation*, never recording.

Instruments are identified by ``(name, labels)``; ``counter("requests",
op="answer")`` and ``counter("requests", op="plan")`` are two independent
series of one metric, exactly the Prometheus data model the exporter
(:mod:`repro.obs.export`) renders.  Creation is get-or-create: asking for
an existing series returns the live instrument, so hot paths may resolve
by name per call (one lock-free dict probe) or hold the
instrument object and skip the probe entirely.

Three instrument kinds:

* :class:`Counter` — monotone float accumulator (``inc``).  Merged across
  worker snapshots by summing.
* :class:`Gauge` — last-written value (``set``) plus ``add`` for
  up/down tracking.  Merged by max, which is correct for the gauges this
  package emits (shared-ledger totals are identical in every worker).
* :class:`Histogram` — fixed upper-bound buckets, counts plus sum.  The
  default buckets span 100µs..10s, the serving tier's latency range.
  Merged by element-wise summing.

A :class:`NullRegistry` singleton (:data:`NULL_REGISTRY`) implements the
same surface as no-ops so instrumented code never branches: when metrics
are disabled, ``metrics().counter(...).inc()`` is two attribute lookups
and two constant returns.
"""

from __future__ import annotations

from threading import Lock

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Upper bounds (seconds) of the default latency histogram, 100µs to 10s —
#: the serving tier's observed range from a cached range batch to a full
#: multi-group plan compile + execute.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _labels_key(labels: dict) -> tuple:
    """Canonical hashable identity of a label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotone accumulator.  ``inc`` takes the instrument's own lock, so
    concurrent recorders on one series never lose increments and recorders
    on different series never contend."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str = "", labels: dict | None = None):
        self.name = name
        self.labels = dict(labels or {})
        self._lock = Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def sample(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels), "value": self.value}

    def __repr__(self) -> str:
        return f"Counter({self.name}{self.labels or ''}={self.value:g})"


class Gauge:
    """A last-written value (plus ``add`` for up/down tracking)."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str = "", labels: dict | None = None):
        self.name = name
        self.labels = dict(labels or {})
        self._lock = Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def sample(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels), "value": self.value}

    def __repr__(self) -> str:
        return f"Gauge({self.name}{self.labels or ''}={self.value:g})"


class Histogram:
    """Fixed-bucket histogram: counts per upper bound, plus sum and count.

    Buckets are pinned at construction (the Prometheus model: cumulative
    ``le`` buckets are derived at render time), so ``observe`` is one
    binary search plus three increments under the instrument lock — no
    allocation, no resizing, safe at request rate.
    """

    __slots__ = ("name", "labels", "buckets", "_lock", "_counts", "_sum", "_count")

    def __init__(
        self,
        name: str = "",
        labels: dict | None = None,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.name = name
        self.labels = dict(labels or {})
        self.buckets = tuple(float(b) for b in buckets)
        self._lock = Lock()
        # one slot per bucket plus the +Inf overflow slot
        self._counts = [0] * (len(self.buckets) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        # linear scan beats bisect for the ~16-bucket default (short, cache-
        # resident, early exit on the common small latencies)
        i = 0
        for bound in self.buckets:
            if value <= bound:
                break
            i += 1
        with self._lock:
            self._counts[i] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def sample(self) -> dict:
        with self._lock:
            return {
                "name": self.name,
                "labels": dict(self.labels),
                "buckets": list(self.buckets),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
            }

    def __repr__(self) -> str:
        return f"Histogram({self.name}{self.labels or ''}, n={self.count})"


class MetricsRegistry:
    """A get-or-create table of instruments plus snapshot export.

    Only instrument *creation* and :meth:`clear` take the registry's lock;
    recording locks the individual instrument.

    ``snapshot()`` returns the JSON-ready report the exporters consume:
    every counter/gauge/histogram sample, plus the output of registered
    *collectors* — callables polled at snapshot time that bridge external
    state (per-tenant budget totals from a :class:`~repro.api.ledger
    .LedgerStore`, cache occupancy) into gauge samples without any
    hot-path recording.  Collectors are held weakly when they are bound
    methods, so registering a service does not pin it in memory.
    """

    def __init__(self):
        self._lock = Lock()
        self._instruments: dict[tuple, object] = {}
        self._collectors_lock = Lock()
        self._collectors: list = []

    # -- instruments -----------------------------------------------------------------
    def _get_or_create(self, kind: str, name: str, labels: dict, factory):
        key = (kind, name, _labels_key(labels))
        # benign racy read: instruments are never removed, so a hit is final
        inst = self._instruments.get(key)
        if inst is not None:
            return inst
        with self._lock:
            inst = self._instruments.get(key)
            if inst is None:
                inst = self._instruments[key] = factory()
            return inst

    def counter(self, name: str, **labels) -> Counter:
        """The counter series ``name{labels}``, created on first use."""
        return self._get_or_create("counter", name, labels, lambda: Counter(name, labels))

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create("gauge", name, labels, lambda: Gauge(name, labels))

    def histogram(
        self, name: str, *, buckets: tuple[float, ...] | None = None, **labels
    ) -> Histogram:
        """The histogram series ``name{labels}``.  ``buckets`` applies only
        on first creation; later callers share the incumbent's buckets."""
        return self._get_or_create(
            "histogram",
            name,
            labels,
            lambda: Histogram(name, labels, buckets or DEFAULT_LATENCY_BUCKETS),
        )

    # -- collectors ------------------------------------------------------------------
    def add_collector(self, fn) -> None:
        """Register ``fn() -> iterable[(name, labels_dict, value)]`` polled
        at snapshot time and emitted as gauge samples.

        Bound methods are held through :class:`weakref.WeakMethod`, so a
        collector dies with its owner instead of leaking services into the
        registry forever.
        """
        import weakref

        ref = weakref.WeakMethod(fn) if hasattr(fn, "__self__") else (lambda: fn)
        with self._collectors_lock:
            self._collectors.append(ref)

    def _collect(self) -> list[dict]:
        out: list[dict] = []
        dead = []
        with self._collectors_lock:
            refs = list(self._collectors)
        for ref in refs:
            fn = ref()
            if fn is None:
                dead.append(ref)
                continue
            try:
                samples = fn()
            except Exception:
                # a broken collector must never take the snapshot down with it
                continue
            for name, labels, value in samples:
                out.append(
                    {"name": str(name), "labels": dict(labels), "value": float(value)}
                )
        if dead:
            with self._collectors_lock:
                self._collectors = [r for r in self._collectors if r not in dead]
        return out

    # -- export ----------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready report of every instrument plus collector output.

        The shape the exporters (:mod:`repro.obs.export`) consume and
        :class:`repro.net.MultiprocHTTPServer` merges across workers
        (:func:`repro.obs.merge_snapshots`)::

            {"counters": [sample...], "gauges": [sample...],
             "histograms": [sample...]}
        """
        counters: list[dict] = []
        gauges: list[dict] = []
        histograms: list[dict] = []
        # instruments are append-only; list() guards against concurrent creates
        for (kind, _name, _labels), inst in sorted(
            list(self._instruments.items()), key=lambda kv: kv[0][:2]
        ):
            if kind == "counter":
                counters.append(inst.sample())
            elif kind == "gauge":
                gauges.append(inst.sample())
            else:
                histograms.append(inst.sample())
        gauges.extend(self._collect())
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def clear(self) -> None:
        """Drop every instrument and collector (test isolation tooling)."""
        with self._collectors_lock:
            self._collectors = []
        with self._lock:
            self._instruments = {}

    def __len__(self) -> int:
        return len(self._instruments)

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._instruments)} instruments)"


class _NullInstrument:
    """One no-op object standing in for every instrument kind when metrics
    are disabled: recording is a constant-return method call."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, amount: float = 1.0) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    value = 0.0
    count = 0
    sum = 0.0

    def sample(self) -> dict:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The disabled-metrics registry: every method is a cheap no-op."""

    __slots__ = ()

    def counter(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, *, buckets=None, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def add_collector(self, fn) -> None:
        pass

    def snapshot(self) -> dict:
        return {"counters": [], "gauges": [], "histograms": []}

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "NullRegistry()"


NULL_REGISTRY = NullRegistry()
