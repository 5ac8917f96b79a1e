"""Observability overhead: the instrumented request path vs obs disabled.

``repro.obs`` promises near-zero cost when off and bounded cost when on:
instrumented call sites always run (``tracer().span(...)``,
``metrics().counter(...).inc()``), so the disabled path pays only the
null-singleton method calls, and the enabled path pays one lock per
recorded event.  This benchmark submits the same 10k-query range batch
through ``BlowfishService.handle`` under three configurations —

* **off** — metrics and tracing disabled (the no-op singletons),
* **metrics** — the metrics registry on, tracing off (the expected
  production default),
* **tracing** — metrics on plus a process-wide tracer (every request
  builds its span tree),

interleaved round-robin and scored best-of-``REPEATS``.  Asserted claims:

* same seed => bitwise-identical answers under every configuration
  (observability never perturbs the mechanism), and
* metrics-on stays within 5% of off; tracing-on within 15%.
"""

import time

import numpy as np

from conftest import record

from repro import Database, Domain, Policy, obs
from repro.api import BlowfishService
from repro.experiments.results import ResultTable

SIZE = 100_000
THETA = 4_096
N_QUERIES = 10_000
EPSILON = 0.5
SEED = 20140623
REPEATS = 5

METRICS_LIMIT = 0.05
TRACING_LIMIT = 0.15


def _service_and_request():
    rng = np.random.default_rng(SEED)
    domain = Domain.integers("v", SIZE)
    db = Database.from_indices(domain, rng.integers(0, SIZE, size=2 * SIZE))
    policy = Policy.distance_threshold(domain, THETA)
    los = rng.integers(0, SIZE, size=N_QUERIES)
    his = rng.integers(0, SIZE, size=N_QUERIES)
    los, his = np.minimum(los, his), np.maximum(los, his)

    service = BlowfishService()
    service.register_dataset("bench", db)
    request = {
        "policy": policy.to_spec(),
        "epsilon": EPSILON,
        "options": {"range": {"consistent": False}},
        "dataset": {"name": "bench"},
        "queries": {"kind": "range_batch", "los": los.tolist(), "his": his.tolist()},
        "seed": SEED,
    }
    return service, request


def obs_overhead_probe() -> dict:
    service, request = _service_and_request()

    def run_off():
        obs.configure(metrics=False, tracing=False)
        return service.handle(request)

    def run_metrics():
        obs.configure(metrics=True, tracing=False)
        return service.handle(request)

    def run_tracing():
        obs.configure(metrics=True, tracing=True)
        try:
            return service.handle(request)
        finally:
            obs.tracer().take()  # drain this thread's roots between rounds

    configs = [("off", run_off), ("metrics", run_metrics), ("tracing", run_tracing)]
    bests = {name: float("inf") for name, _ in configs}
    answers = {}
    try:
        for _ in range(REPEATS):
            # interleaved round-robin so machine drift hits every path equally
            for name, fn in configs:
                t0 = time.perf_counter()
                response = fn()
                bests[name] = min(bests[name], time.perf_counter() - t0)
                assert response["ok"], response
                answers[name] = response["answers"]
    finally:
        obs.configure(metrics=False, tracing=False)

    assert answers["metrics"] == answers["off"], (
        "metrics instrumentation perturbed the answers"
    )
    assert answers["tracing"] == answers["off"], (
        "tracing instrumentation perturbed the answers"
    )
    return {
        "off_ms": bests["off"] * 1e3,
        "metrics_ms": bests["metrics"] * 1e3,
        "tracing_ms": bests["tracing"] * 1e3,
        "metrics_overhead": bests["metrics"] / bests["off"] - 1.0,
        "tracing_overhead": bests["tracing"] / bests["off"] - 1.0,
    }


def test_obs_overhead_within_bounds():
    row = obs_overhead_probe()

    table = ResultTable(
        f"observability overhead ({N_QUERIES} range queries, |T|={SIZE})",
        x_label="configuration",
        y_label="best latency (ms)",
    )
    for label, key in (
        ("obs disabled", "off_ms"),
        ("metrics on, tracing off", "metrics_ms"),
        ("metrics + tracing on", "tracing_ms"),
    ):
        table.add(label, 0, row[key], row[key], row[key])
    record(table, "obs_overhead")

    print(
        f"off {row['off_ms']:.1f}ms, metrics {row['metrics_ms']:.1f}ms "
        f"(+{row['metrics_overhead'] * 100:.1f}%), tracing {row['tracing_ms']:.1f}ms "
        f"(+{row['tracing_overhead'] * 100:.1f}%)"
    )
    assert row["metrics_overhead"] < METRICS_LIMIT, (
        f"metrics-on adds {row['metrics_overhead'] * 100:.1f}% over disabled "
        f"(limit {METRICS_LIMIT * 100:.0f}%)"
    )
    assert row["tracing_overhead"] < TRACING_LIMIT, (
        f"tracing-on adds {row['tracing_overhead'] * 100:.1f}% over disabled "
        f"(limit {TRACING_LIMIT * 100:.0f}%)"
    )
