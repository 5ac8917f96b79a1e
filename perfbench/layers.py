"""Per-layer timing for the traced mode: wrappers around public entry points.

The benchmark never edits the program.  In a traced round it replaces a
handful of public methods *on their classes*, from this file, with thin
wrappers that time each call, and restores the originals when the round
ends.  A wrapper pushes a frame on a thread-local stack, so a layer's
**self time** is its own duration minus the time spent in wrapped calls
nested inside it (the choosing-metrics definition).  Wrapped calls that
run on other threads (the async tier's pool) get their own stacks.

``AsyncBlowfishService.handle`` is a coroutine: many of them overlap on
one event-loop thread, so it is timed as a plain duration, never stacked.

Two phases are kept apart: ``setup`` (warm-up before the timed phase) and
``timed``.  Counts are reported over both, times over ``timed`` only.
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict
from time import perf_counter

#: (module path, class name, attribute, layer name) for every wrapped
#: synchronous entry point.  ``service.handle`` is special-cased so that
#: its time can be split by op.
SYNC_LAYERS = (
    ("repro.api.service", "BlowfishService", "handle", "service.handle"),
    ("repro.api.session", "Session", "answer_ranges_with_meta", "session.answer_ranges"),
    ("repro.api.session", "Session", "plan_execute_with_meta", "session.plan_execute"),
    ("repro.core.policy", "Policy", "from_spec", "policy.parse"),
    ("repro.plan.workload", "Workload", "from_spec", "plan.workload_parse"),
    ("repro.plan.planner", "Planner", "plan", "plan.compile"),
    ("repro.plan.executor", "Executor", "run", "plan.execute"),
    ("repro.engine.engine", "PolicyEngine", "release", "mechanism.release"),
    ("repro.api.ledger", "SQLiteLedgerStore", "charge", "ledger.charge"),
    ("repro.stream.dataset", "StreamDataset", "append", "stream.append"),
    ("repro.stream.dataset", "StreamDataset", "advance", "stream.tick"),
    (
        "repro.stream.mechanisms",
        "HierarchicalIntervalCounter",
        "advance",
        "stream.node_release",
    ),
)


class Recorder:
    """Call counts, total and self seconds per layer, per phase."""

    def __init__(self):
        self.phase = "setup"
        self._lock = threading.Lock()
        self._local = threading.local()
        # phase -> layer -> [calls, total_s, self_s]
        self.stats: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        self._restore: list = []

    # -- recording -------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, layer: str, total: float, own: float) -> None:
        with self._lock:
            entry = self.stats[self.phase][layer]
            entry[0] += 1
            entry[1] += total
            entry[2] += own

    def call(self, layer: str, fn, args, kwargs):
        stack = self._stack()
        frame = [0.0]  # seconds spent in wrapped children
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            self.add(layer, elapsed, elapsed - frame[0])

    # -- installing ------------------------------------------------------------------
    def install(self) -> "Recorder":
        """Wrap every layer's public entry point until :meth:`uninstall`."""
        import importlib

        from repro.api.async_service import AsyncBlowfishService

        for module, cls_name, attr, layer in SYNC_LAYERS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._wrap(cls, attr, layer)
        original = AsyncBlowfishService.__dict__["handle"]
        recorder = self

        @functools.wraps(original)
        async def handle(self, request):
            t0 = perf_counter()
            try:
                return await original(self, request)
            finally:
                elapsed = perf_counter() - t0
                recorder.add("async.handle", elapsed, elapsed)

        AsyncBlowfishService.handle = handle
        self._restore.append((AsyncBlowfishService, "handle", original))
        return self

    def _wrap(self, cls, attr: str, layer: str) -> None:
        raw = cls.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        recorder = self

        if layer == "service.handle":

            @functools.wraps(fn)
            def timed(*args, **kwargs):
                request = args[1] if len(args) > 1 else kwargs.get("request")
                op = request.get("op", "answer") if isinstance(request, dict) else "invalid"
                return recorder.call(f"service.handle.{op}", fn, args, kwargs)

        else:

            @functools.wraps(fn)
            def timed(*args, **kwargs):
                return recorder.call(layer, fn, args, kwargs)

        setattr(cls, attr, classmethod(timed) if is_classmethod else timed)
        self._restore.append((cls, attr, raw))

    def uninstall(self) -> None:
        for cls, attr, raw in reversed(self._restore):
            setattr(cls, attr, raw)
        self._restore.clear()

    # -- export ----------------------------------------------------------------------
    def export(self) -> list[dict]:
        """Gauge samples (``repro.obs`` snapshot shape) for a ``/metrics`` scrape."""
        out = []
        with self._lock:
            for phase, layers in self.stats.items():
                for layer, (calls, total, own) in layers.items():
                    for stat, value in (("calls", calls), ("total", total), ("self", own)):
                        out.append(
                            {
                                "name": "perfbench_layer",
                                "labels": {"phase": phase, "layer": layer, "stat": stat},
                                "value": float(value),
                            }
                        )
        return out

    def snapshot(self) -> dict:
        """``{phase: {layer: [calls, total_s, self_s]}}`` as plain data."""
        with self._lock:
            return {p: {k: list(v) for k, v in ls.items()} for p, ls in self.stats.items()}


def parse_prometheus(text: str) -> dict:
    """``{(name, frozenset(labels)): value}`` from a Prometheus exposition."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        name, _, rest = head.partition("{")
        labels = {}
        if rest:
            for part in rest.rstrip("}").split(","):
                key, _, val = part.partition("=")
                labels[key] = val.strip('"')
        out[(name, frozenset(labels.items()))] = float(value)
    return out


def layer_stats_from_scrape(samples: dict) -> dict:
    """Rebuild :meth:`Recorder.snapshot` from a scraped ``/metrics`` page."""
    stats: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
    index = {"calls": 0, "total": 1, "self": 2}
    for (name, labels), value in samples.items():
        if name != "repro_perfbench_layer":
            continue
        lab = dict(labels)
        stats[lab["phase"]][lab["layer"]][index[lab["stat"]]] = value
    return {p: {k: list(v) for k, v in ls.items()} for p, ls in stats.items()}


def merge(into: dict, other: dict) -> None:
    """Add one round's recorder snapshot into a running total."""
    for phase, layers in other.items():
        dest = into.setdefault(phase, {})
        for layer, vals in layers.items():
            acc = dest.setdefault(layer, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += vals[i]
