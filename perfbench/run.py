"""End-to-end benchmark of the Blowfish serving stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload wire_reads --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Runs whole rounds of one workload (see ``perfbench/workloads.py``) until
``--seconds`` have passed, checks every response against figures computed
apart from the program (``perfbench/checks.py``), and prints as its last
line one JSON object: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
Lines before it start with ``#``: the environment stamp, operation counts
by op and outcome, and in traced mode the per-layer self-time table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from time import perf_counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: Metric names, units and directions, as the benchmark declares them.
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def env_stamp(workload: str, seed: int) -> dict:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            # never report the commit of a repository that merely encloses
            # an exported checkout
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        )
        commit = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "workload": workload,
        "seed": seed,
    }


def percentile_ms(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) * 1e3


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(rounds, figures) -> dict:
    """Medians over rounds: a burst of load from elsewhere on the machine
    slows a few rounds, and the median over rounds ignores them."""
    return {
        "queries_per_s": median([r.n_queries / r.timed_s for r in rounds]),
        "latency_p50_ms": median([percentile_ms(r.latencies, 50) for r in rounds]),
        "latency_p90_ms": median([percentile_ms(r.latencies, 90) for r in rounds]),
        "setup_s": median([r.setup_s for r in rounds]),
        "peak_rss_mb": median([r.peak_rss_mb for r in rounds]),
        "answer_rmse": figures["answer_rmse"],
        "epsilon_spent": figures["epsilon_spent"],
    }


def per_layer(workload, rounds) -> tuple[dict, list]:
    """Per-layer metrics and the self-time table from the traced rounds."""
    from perfbench.checks import NODE_LABEL
    from perfbench.layers import merge

    stats: dict = {}
    for r in rounds:
        merge(stats, r.layers)
    timed = stats.get("timed", {})
    n_rounds = len(rounds)
    n_req = sum(len(r.latencies) for r in rounds)
    e2e = sum(sum(r.latencies) for r in rounds)

    def calls(layer, phases=("setup", "timed")):
        return sum(stats.get(p, {}).get(layer, [0, 0, 0])[0] for p in phases) / n_rounds

    def mean_ms(layer, which=1):
        c, total, own = timed.get(layer, [0, 0.0, 0.0])
        return (total if which == 1 else own) / c * 1e3 if c else 0.0

    handle_layers = [k for k in timed if k.startswith("service.handle.")]
    service_total = sum(timed[k][1] for k in handle_layers)
    service_self = sum(timed[k][2] for k in handle_layers)
    wire = workload.name == "wire_reads"
    async_total = timed.get("async.handle", [0, 0.0, 0.0])[1]
    counters = Counter()
    for r in rounds:
        counters.update(r.counters)
        counters["node_releases"] += sum(
            1 for entries in r.ledger.values() for e in entries if NODE_LABEL.match(e.label or "")
        )
    metrics = {
        "net.wire_ms": (e2e - async_total) / n_req * 1e3 if wire else 0.0,
        "net.request_kb": sum(r.request_bytes for r in rounds) / n_req / 1024,
        "net.response_kb": sum(r.response_bytes for r in rounds) / n_req / 1024,
        "async.queue_wait_ms": (async_total - service_total) / n_req * 1e3 if wire else 0.0,
        "async.batch_size": (
            counters["async_executed"] / counters["async_batches"]
            if counters["async_batches"]
            else 0.0
        ),
        "service.self_ms": service_self / n_req * 1e3,
        "service.answer_op_ms": mean_ms("service.handle.answer"),
        "service.plan_op_ms": mean_ms("service.handle.plan"),
        "session.answer_ranges_ms": mean_ms("session.answer_ranges"),
        "session.plan_execute_ms": mean_ms("session.plan_execute", which=2),
        "policy.parses": calls("policy.parse"),
        "pool.engine_misses": counters["engine_misses"] / n_rounds,
        "plan.workload_parse_ms": mean_ms("plan.workload_parse"),
        "plan.compile_ms": mean_ms("plan.compile"),
        "plan.compiles": calls("plan.compile"),
        "plan.cache_hit_ratio": (
            counters["plan_hits"] / counters["plan_lookups"] if counters["plan_lookups"] else 0.0
        ),
        "plan.execute_self_ms": mean_ms("plan.execute", which=2),
        "mechanism.release_ms": mean_ms("mechanism.release"),
        "mechanism.releases": calls("mechanism.release"),
        "ledger.charge_ms": mean_ms("ledger.charge"),
        "ledger.charges": calls("ledger.charge"),
        "stream.append_ms": mean_ms("stream.append"),
        "stream.tick_ms": mean_ms("stream.tick"),
        "stream.node_release_ms": mean_ms("stream.node_release"),
        "stream.node_releases": counters["node_releases"] / n_rounds,
        "stream.free_reads": counters["free_reads"] / n_rounds,
    }
    # self time per layer as a share of end-to-end latency
    table = []
    if wire:
        table.append(("net.wire", e2e - async_total))
        table.append(("async.queue_wait", async_total - service_total))
    table.append(("service.self", service_self))
    for layer, (_c, _total, own) in sorted(timed.items()):
        if layer != "async.handle" and not layer.startswith("service.handle."):
            table.append((layer, own))
    return metrics, [(name, seconds, seconds / e2e) for name, seconds in table]


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    Starting the HTTP worker with ``"spawn"`` launches the tracker as a
    child of this process; left alone it outlives this process by a moment
    and ends up an orphan.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _terminate(signum, _frame):
    # unwind through the finally blocks, which stop the HTTP worker
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("wire_reads", "fresh_tenants", "stream_ticks"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="corrupt one output of each kind and show the matching check fails",
    )
    args = parser.parse_args(argv)

    # the program under test is this checkout's source tree; without it
    # there is nothing to measure
    import repro

    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"repro imported from {repro.__file__}, not from this checkout", file=sys.stderr)
        return 2

    from perfbench.checks import self_test

    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")

    # everything the run writes (ledgers, the server's metrics spool) stays
    # inside the checkout and is removed at the end
    run_dir = os.path.join(ROOT, ".perfbench_run", str(os.getpid()))
    os.makedirs(run_dir)
    tempfile.tempdir = run_dir
    signal.signal(signal.SIGTERM, _terminate)
    try:
        return _run(args, run_dir)
    finally:
        stop_resource_tracker()
        tempfile.tempdir = None
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:
            pass


def _run(args, run_dir: str) -> int:
    from perfbench.checks import Checks
    from perfbench.workloads import WORKLOADS

    print("# env " + json.dumps(env_stamp(args.workload, args.seed)), flush=True)
    workload = WORKLOADS[args.workload](args.seed, run_dir)
    workload.prepare()
    workload.warm_process()
    checks = Checks()
    rounds = []
    figures = None
    start = perf_counter()
    while True:
        # traced mode alternates untraced and traced rounds, so both the
        # per-layer figures and the tracing overhead come from one run
        traced = bool(args.trace) and len(rounds) % 2 == 1
        result = workload.run_round(traced)
        round_figures = workload.check_round(result, checks)
        if figures is None:
            figures = round_figures
            workload.replay(result, checks)
            utility = getattr(workload, "utility_table", None)
            utility = utility(result) if utility is not None else None
        elif round_figures != figures:
            checks.fail("replay", f"round {len(rounds)} differs from round 0 on the same requests")
        result.responses = None  # checked; keep the memory flat
        print(
            f"# round {len(rounds)}{' traced' if traced else ''}: setup {result.setup_s:.4f} s, "
            f"{result.n_queries / result.timed_s:.1f} queries/s, "
            f"p50 {percentile_ms(result.latencies, 50):.4f} ms, "
            f"p90 {percentile_ms(result.latencies, 90):.4f} ms",
            flush=True,
        )
        rounds.append(result)
        enough = len(rounds) >= (2 if args.trace else 1)
        if enough and perf_counter() - start >= args.seconds:
            break

    outcomes = Counter()
    for r in rounds:
        outcomes.update(r.outcomes)
    attempted = sum(outcomes.values())
    failed = sum(n for (_op, outcome), n in outcomes.items() if outcome != "ok")
    by_op: dict = {}
    for (op, outcome), n in sorted(outcomes.items()):
        by_op.setdefault(op, {})[outcome] = n
    print(f"# rounds {len(rounds)}; operations by op and outcome " + json.dumps(by_op))
    print("# checks made " + json.dumps(checks.summary()) + f"; worst error ratio {checks.worst_ratio:.3f}")
    for kind, messages in sorted(checks.failures.items()):
        for message in messages[:5]:
            print(f"# CHECK FAILED [{kind}] {message}")
        if len(messages) > 5:
            print(f"# CHECK FAILED [{kind}] ... and {len(messages) - 5} more")

    untraced = [r for r in rounds if not r.traced]
    e2e = end_to_end(untraced, figures)
    if args.trace:
        traced_rounds = [r for r in rounds if r.traced]
        layer_metrics, table = per_layer(workload, traced_rounds)
        traced_e2e = end_to_end(traced_rounds, figures)
        print("# per-layer self time, share of end-to-end latency (traced rounds)")
        for name, seconds, share in table:
            print(f"#   {name:<26} {seconds * 1e3:10.1f} ms  {share * 100:6.1f}%")
        total_share = sum(share for _n, _s, share in table)
        print(f"#   {'sum':<26} {'':>13}  {total_share * 100:6.1f}%")
        if abs(total_share - 1.0) > 0.10:
            checks.fail("layers", f"layer self times sum to {total_share:.3f} of end-to-end latency")
        for key in ("latency_p50_ms", "latency_p90_ms", "queries_per_s"):
            a, b = e2e[key], traced_e2e[key]
            print(f"# tracing overhead {key}: untraced {a:.4g}, traced {b:.4g} ({(b / a - 1) * 100:+.1f}%)")
        metrics = {name: {"value": layer_metrics[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    if utility is not None:
        print("# answer RMSE per policy (Blowfish policies against differential privacy)")
        for name, rmse in utility.items():
            print(f"#   {name:<22} {rmse:12.3f}")
    for value in metrics.values():
        if not math.isfinite(value["value"]):
            checks.fail("metrics", "a metric is not finite")
    print(
        json.dumps(
            {"correct": checks.ok, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
