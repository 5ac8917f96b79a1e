"""``python -m repro`` — experiments, spec-API answering, and a demo service.

Subcommands:

``run [outdir]``
    Regenerate every experiment and print the report (the historical
    default; ``python -m repro [outdir]`` still works).  Honours
    ``REPRO_FULL=1`` for paper-scale runs.

``answer --request FILE``
    Serve one JSON request (the :class:`repro.api.BlowfishService` shape)
    and print the JSON response.  ``-`` reads the request from stdin.  The
    request must carry an inline dataset (``{"dataset": {"indices": ...}}``)
    since a one-shot CLI process has no registered datasets.

``check FILE [FILE ...]``
    Statically analyze spec files (``kind``-tagged policy / plan_budget /
    stream_budget / workload specs, or full request dicts) without serving
    them: no engine is built, no edges enumerated, no budget spent.  Prints
    one report per file (``--json`` for machine-readable output).  Exit 0
    when every file is clean, 1 when any file has error-severity findings,
    2 when a file cannot be read or parsed as JSON.

``serve-demo``
    Spin up an in-process :class:`BlowfishService` around a synthetic
    dataset, print a worked set of requests/responses (policy spec, range
    batch, repeat-for-free, budget refusal), then — with ``--stdin`` —
    keep serving JSON-lines requests from stdin against the registered
    ``"demo"`` dataset until EOF.  For serving across processes use
    ``serve --workers N``.

``serve [--host H] [--port P] [--workers N] [--max-inflight M]``
    Long-lived HTTP serving of the registered ``"demo"`` dataset:
    ``POST /v1/handle`` takes the service request JSON verbatim,
    ``GET /healthz`` reports readiness and ``GET /metrics`` exposes the
    Prometheus text format.  ``--workers N`` (N > 1) serves from N
    processes behind one port (:class:`repro.net.MultiprocHTTPServer`, the
    only multi-process path) with budget truth in a shared SQLite ledger
    and ``/metrics`` merged across all workers.  A request is served by
    the worker that accepted its keep-alive connection.  SIGTERM/SIGINT
    drain gracefully: in-flight requests finish (up to
    ``--drain-deadline`` seconds), new ones answer 503.

``stream-demo [--ticks N] [--horizon H] [--total E] [--degrade MODE]``
    Continual releases over a synthetic append-only feed: per tick the
    service ingests a batch (``"append"``/``"tick"`` ops), a hierarchical
    interval counter folds it in for an amortized ``total/levels`` charge,
    and plan requests are served from the held synopsis — free when the
    workload's ``max_staleness`` tolerates its age.  Past the horizon the
    budget degrades (or refuses, with ``--degrade strict``).

``plan [--explain] [--budget E] [--degrade MODE]``
    Compile a cost-driven plan for a mixed demo workload (ranges, counts,
    a linear batch) under a distance-threshold policy and print its
    ``explain()`` report — per group: chosen mechanism, predicted RMSE,
    sensitivity, epsilon.  ``--budget E`` plans budget-first: ``E`` total
    epsilon is split adaptively across the plan's fresh releases
    (error-minimizing), with ``--degrade`` choosing how to shed load when
    a session budget cannot cover it.  Without ``--explain`` the plan is
    also executed and the answers summarized.  ``--request FILE`` plans a
    JSON request (the service shape) instead of the demo workload.
"""

from __future__ import annotations

import argparse
import json
import sys


def _cmd_run(args: argparse.Namespace) -> int:
    from .experiments.runner import run_all

    for table in run_all(args.outdir):
        print(table.format_text())
        print()
    return 0


def _cmd_answer(args: argparse.Namespace) -> int:
    from .api import BlowfishService

    if args.request == "-":
        raw = sys.stdin.read()
    else:
        with open(args.request, "r", encoding="utf-8") as fh:
            raw = fh.read()
    try:
        request = json.loads(raw)
    except json.JSONDecodeError as exc:
        print(json.dumps({"ok": False, "error": {"field": None, "message": str(exc)}}))
        return 1
    response = BlowfishService().handle(request)
    print(json.dumps(response, indent=args.indent))
    return 0 if response.get("ok") else 1


def _cmd_check(args: argparse.Namespace) -> int:
    from .check import SpecChecker

    checker = SpecChecker()
    streaming = {"stream": True, "plan": False, "auto": None}[args.session]
    worst = 0
    reports = []
    for name in args.specs:
        try:
            if name == "-":
                raw = sys.stdin.read()
            else:
                with open(name, encoding="utf-8") as fh:
                    raw = fh.read()
            spec = json.loads(raw)
        except (OSError, json.JSONDecodeError) as exc:
            if args.json:
                reports.append({"file": name, "ok": False, "unreadable": str(exc)})
            else:
                print(f"{name}: unreadable: {exc}")
            worst = max(worst, 2)
            continue
        report = checker.check_spec(spec, streaming=streaming)
        if args.json:
            reports.append({"file": name, **report.to_dict()})
        else:
            print(f"{name}: {report.summary()}")
            for diag in report:
                print(f"  {diag.render()}")
        if not report.ok:
            worst = max(worst, 1)
    if args.json:
        print(json.dumps(reports if len(args.specs) > 1 else reports[0], indent=2))
    return worst


def _demo_service(seed: int, ledger_path: str | None = None):
    import numpy as np

    from .api import BlowfishService
    from .core.database import Database
    from .core.domain import Domain

    rng = np.random.default_rng(seed)
    domain = Domain.integers("salary_bucket", 100)
    db = Database.from_indices(
        domain, np.clip(rng.normal(45, 18, size=5_000), 0, 99).astype(int)
    )
    ledger = None
    if ledger_path is not None:
        from .api import SQLiteLedgerStore

        ledger = SQLiteLedgerStore(ledger_path)
    service = BlowfishService(ledger_store=ledger)
    service.register_dataset("demo", db)
    return service, domain, db


# Module-level (not a closure) so ``serve --workers`` can pickle it under any
# multiprocessing start method.
def _demo_worker_service(ledger_path: str, seed: int):
    service, _domain, _db = _demo_service(seed, ledger_path)
    return service


def _cmd_serve_demo(args: argparse.Namespace) -> int:
    from .core.policy import Policy

    if args.metrics:
        from . import obs

        obs.configure(metrics=True)
    service, domain, db = _demo_service(args.seed)
    print(f"demo dataset: {db.n} individuals over {domain.size} salary buckets\n")

    policy_spec = Policy.line(domain).to_spec()
    from .check import check_specs

    print(f"static check of the demo policy: {check_specs(policy_spec).summary()}\n")
    requests = [
        (
            "strategy lookup (no data touched, nothing spent)",
            {"op": "describe", "policy": policy_spec, "epsilon": args.epsilon},
        ),
        (
            "a range batch under the line-graph policy",
            {
                "policy": policy_spec,
                "epsilon": args.epsilon,
                "dataset": {"name": "demo"},
                "queries": {"kind": "range_batch", "los": [40, 0, 70], "his": [60, 99, 99]},
                "session": "demo-client",
                "budget": 2 * args.epsilon,
                "seed": args.seed,
            },
        ),
        (
            "the same batch again: answered from the cached release, spending 0",
            {
                "policy": policy_spec,
                "epsilon": args.epsilon,
                "dataset": {"name": "demo"},
                "queries": {"kind": "range_batch", "los": [40, 0, 70], "his": [60, 99, 99]},
                "session": "demo-client",
                "seed": args.seed,
            },
        ),
        (
            "a malformed query: the error names the offending field",
            {
                "policy": policy_spec,
                "epsilon": args.epsilon,
                "dataset": {"name": "demo"},
                "queries": [{"kind": "range", "lo": 40, "hi": 200}],
            },
        ),
    ]
    planned = {
        "op": "plan",
        "policy": policy_spec,
        "epsilon": args.epsilon,
        "dataset": {"name": "demo"},
        "queries": {"kind": "range_batch", "los": [10, 30, 55], "his": [50, 90, 80]},
        "seed": args.seed,
    }
    if args.metrics:
        # opt into a per-request trace: the response carries meta.trace with
        # the service -> session -> planner -> executor -> mechanism spans
        planned["trace"] = True
    requests += [
        (
            "a planned workload: candidates scored, plan compiled and executed",
            planned,
        ),
        (
            "a second tenant, same workload: the compiled plan is served from "
            "the cross-tenant plan cache (meta.plan_cache == 'hit')",
            dict(planned),
        ),
    ]
    for label, request in requests:
        print(f"--- {label}")
        print(f">>> {json.dumps(request)[:120]}...")
        print(json.dumps(service.handle(request), indent=2))
        print()

    if args.metrics:
        from . import obs

        print("--- service metrics (Prometheus text format)")
        print(obs.render_prometheus(service.metrics_snapshot()))

    if args.stdin:
        print("--- serving JSON-lines requests from stdin (dataset 'demo'; EOF to stop)")
        for line in sys.stdin:
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
            except json.JSONDecodeError as exc:
                response = {"ok": False, "error": {"field": None, "message": str(exc)}}
            else:
                response = service.handle(request)
            print(json.dumps(response), flush=True)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import functools
    import os
    import signal
    import tempfile

    server_options = dict(
        max_inflight=args.max_inflight,
        max_body=args.max_body,
        drain_deadline=args.drain_deadline,
    )
    if args.workers <= 1:
        from .net import run_server

        service, _domain, db = _demo_service(args.seed)

        def ready(host: str, port: int) -> None:
            print(
                f"serving dataset 'demo' ({db.n} individuals) on "
                f"http://{host}:{port}",
                flush=True,
            )
            print(
                "routes: POST /v1/handle, GET /healthz, GET /metrics "
                "(SIGTERM/SIGINT drain gracefully)",
                flush=True,
            )

        run_server(
            service, host=args.host, port=args.port, ready=ready, **server_options
        )
        return 0

    from .net import MultiprocHTTPServer

    with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
        ledger_path = os.path.join(tmp, "ledger.sqlite")
        server = MultiprocHTTPServer(
            functools.partial(_demo_worker_service, ledger_path, args.seed),
            workers=args.workers,
            host=args.host,
            port=args.port,
            **server_options,
        )
        host, port = server.start()
        print(
            f"serving dataset 'demo' on http://{host}:{port} across "
            f"{args.workers} worker processes (shared ledger at {ledger_path})",
            flush=True,
        )
        print(
            "routes: POST /v1/handle, GET /healthz, GET /metrics "
            "(merged across workers; SIGTERM/SIGINT drain gracefully)",
            flush=True,
        )

        def _forward_term(signum, frame):
            raise KeyboardInterrupt

        signal.signal(signal.SIGTERM, _forward_term)
        try:
            server.wait()
        except KeyboardInterrupt:
            pass
        finally:
            # repeat signals must not interrupt the drain itself (process
            # supervisors and `timeout` often signal the whole group)
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            codes = server.stop()
        bad = [c for c in codes if c not in (0, None)]
        return 1 if bad else 0


def _cmd_stream_demo(args: argparse.Namespace) -> int:
    from .api import BlowfishService
    from .core.policy import Policy
    from .stream import synthetic_feed

    service = BlowfishService()
    stream, batches = synthetic_feed(
        domain_size=64, ticks=args.ticks, per_tick=200, rng=args.seed
    )
    service.register_stream("feed", stream)
    policy_spec = Policy.line(stream.domain).to_spec()
    budget_spec = {
        "kind": "stream_budget",
        "total": args.total,
        "horizon": args.horizon,
        "degradation": args.degrade,
    }

    def plan_request(queries, seed):
        return {
            "op": "plan",
            "policy": policy_spec,
            "epsilon": args.epsilon,
            "dataset": {"name": "feed"},
            "queries": queries,
            "session": "stream-client",
            "plan_budget": budget_spec,
            "seed": seed,
        }

    fresh_queries = [
        {"kind": "range", "lo": 0, "hi": 31},
        {"kind": "range", "lo": 10, "hi": 50},
    ]
    stale_ok = {
        "kind": "workload",
        "groups": [
            {
                "family": "range",
                "los": [0, 10],
                "his": [31, 50],
                "max_staleness": 3,
            }
        ],
    }
    from .check import SpecChecker

    check = SpecChecker().check_request(
        {"policy": policy_spec, "plan_budget": budget_spec, "epsilon": args.epsilon},
        streaming=True,
    )
    print(f"static check of policy + stream budget: {check.summary()}")
    print(
        f"continual releases over {args.ticks} ticks: total epsilon "
        f"{args.total:g} amortized across horizon {args.horizon} "
        f"({args.degrade} past it)\n"
    )
    for t, batch in enumerate(batches):
        resp = service.handle(
            {"op": "append", "stream": "feed", "indices": batch.tolist()}
        )
        assert resp["ok"], resp
        resp = service.handle({"op": "tick", "stream": "feed"})
        assert resp["ok"], resp
        tick, n = resp["tick"], resp["n"]
        # every third tick the client tolerates 3 ticks of staleness: the
        # held synopsis answers free, nothing is folded, nothing is spent
        tolerant = t > 0 and t % 3 == 0
        queries = stale_ok if tolerant else fresh_queries
        resp = service.handle(plan_request(queries, seed=args.seed + t))
        if not resp["ok"]:
            print(
                f"tick {tick}: n={n} -> refused: {resp['error']['message']}"
                " (strict budgets stop at the horizon)"
            )
            continue
        meta = resp["meta"]
        strategies = sorted(
            {s["strategy"] for s in resp["plan"]["steps"] if s["family"] != "linear"}
        )
        note = " (staleness<=3 tolerated)" if tolerant else ""
        sm = meta["stream"]
        print(
            f"tick {tick}: n={n} | {'/'.join(strategies)} "
            f"spent={meta['epsilon_spent']:g} total={meta['session_total']:g} "
            f"plan_cache={meta['plan_cache']} nodes={sm['node_releases']}"
            f"{' EXHAUSTED' if sm['exhausted'] else ''}{note}"
        )
    d = service.handle({"op": "describe", "policy": policy_spec, "epsilon": args.epsilon})
    print(f"\nstream state: {json.dumps(d['meta']['streams']['feed'])}")
    cache = d["meta"]["plan_cache"]
    print(
        f"plan cache: {cache['size']} plans held ({cache['hits']} hits), "
        f"{cache['payload_bytes_saved']} payload bytes saved by payload-free caching"
    )
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    import numpy as np

    from .api import BlowfishService

    if args.request is not None:
        if args.request == "-":
            raw = sys.stdin.read()
        else:
            with open(args.request, encoding="utf-8") as fh:
                raw = fh.read()
        try:
            request = json.loads(raw)
        except json.JSONDecodeError as exc:
            print(json.dumps({"ok": False, "error": {"field": None, "message": str(exc)}}))
            return 1
        request["op"] = "explain" if args.explain else "plan"
        if args.mode is not None:
            request["mode"] = args.mode
        if args.seed is not None:
            request["seed"] = args.seed
        if args.budget is not None:
            request["plan_budget"] = {"total": args.budget, "degradation": args.degrade}
        response = BlowfishService().handle(request)
        if args.explain and response.get("ok"):
            print(response["report"])
        else:
            print(json.dumps(response, indent=2))
        return 0 if response.get("ok") else 1

    from .core.policy import Policy
    from .plan import Executor, PlanBudget, QueryGroup, Workload

    seed = 0 if args.seed is None else args.seed
    mode = "auto" if args.mode is None else args.mode
    service, domain, db = _demo_service(seed)
    engine = service.pool.get(
        Policy.distance_threshold(domain, args.theta), args.epsilon
    )
    rng = np.random.default_rng(seed)
    los = rng.integers(0, domain.size, 12)
    his = rng.integers(0, domain.size, 12)
    masks = np.zeros((3, domain.size), dtype=bool)
    for i, (a, b) in enumerate(((20, 40), (40, 60), (60, 95))):
        masks[i, a:b] = True
    workload = Workload(
        domain,
        [
            QueryGroup.ranges(np.minimum(los, his), np.maximum(los, his)),
            QueryGroup.counts(masks, name="salary-bands"),
            # optional: under --budget with --degrade drop_optional this is
            # the group the planner sheds first
            QueryGroup.linear(
                np.full((1, db.n), 1.0 / db.n), name="mean-salary", optional=True
            ),
        ],
    )
    budget = None
    if args.budget is not None:
        budget = PlanBudget(total=args.budget, degradation=args.degrade)
    plan = engine.plan(workload, optimize=(mode == "auto"), budget=budget)
    print(
        f"demo dataset: {db.n} individuals over {domain.size} salary buckets; "
        f"policy G^(d,{args.theta:g}), epsilon {args.epsilon:g}"
        + (f", budget {args.budget:g} total ({args.degrade})" if budget else "")
        + "\n"
    )
    print(plan.explain())
    if args.explain:
        return 0
    result = Executor(engine).run(plan, db, rng=np.random.default_rng(seed))
    print()
    for group in workload:
        answers = result.by_group[group.name]
        shown = ", ".join(f"{a:.1f}" for a in answers[:6])
        more = " ..." if len(answers) > 6 else ""
        print(f"{group.name}: [{shown}{more}]")
    print(f"epsilon spent: {result.epsilon_spent:g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="regenerate every experiment (default)")
    run_p.add_argument("outdir", nargs="?", default="experiment_results")
    run_p.set_defaults(func=_cmd_run)

    ans_p = sub.add_parser("answer", help="serve one JSON request via BlowfishService")
    ans_p.add_argument("--request", required=True, help="path to a request JSON file, or -")
    ans_p.add_argument("--indent", type=int, default=2, help="response JSON indent")
    ans_p.set_defaults(func=_cmd_answer)

    chk_p = sub.add_parser(
        "check", help="statically analyze spec files without serving them"
    )
    chk_p.add_argument(
        "specs", nargs="+", metavar="FILE",
        help="spec JSON files (kind-tagged or request-shaped); - reads stdin",
    )
    chk_p.add_argument(
        "--json", action="store_true", help="print machine-readable reports"
    )
    chk_p.add_argument(
        "--session", choices=("auto", "plan", "stream"), default="auto",
        help="session kind assumed by session-sensitive lints such as "
        "max_staleness (default: auto — advisory only)",
    )
    chk_p.set_defaults(func=_cmd_check)

    demo_p = sub.add_parser("serve-demo", help="worked BlowfishService demo")
    demo_p.add_argument("--epsilon", type=float, default=0.5)
    demo_p.add_argument("--seed", type=int, default=0)
    demo_p.add_argument(
        "--stdin", action="store_true", help="then serve JSON-lines requests from stdin"
    )
    demo_p.add_argument(
        "--metrics", action="store_true",
        help="enable repro.obs: trace the planned request (meta.trace) and "
        "print the service metrics report",
    )
    demo_p.set_defaults(func=_cmd_serve_demo)

    serve_p = sub.add_parser(
        "serve", help="serve the demo dataset over HTTP (long-lived)"
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument(
        "--port", type=int, default=8787, help="bind port (0 picks a free one)"
    )
    serve_p.add_argument(
        "--workers", type=int, default=1,
        help="serving processes behind the one port (budget truth in a "
        "shared SQLite ledger when > 1)",
    )
    serve_p.add_argument(
        "--max-inflight", type=int, default=64,
        help="per-worker admission bound; above it requests answer 429 "
        "with Retry-After instead of queueing",
    )
    serve_p.add_argument(
        "--max-body", type=int, default=1 << 20,
        help="largest accepted request body in bytes (413 above it)",
    )
    serve_p.add_argument(
        "--drain-deadline", type=float, default=5.0,
        help="seconds a graceful shutdown waits for in-flight requests",
    )
    serve_p.add_argument("--seed", type=int, default=0, help="demo dataset seed")
    serve_p.set_defaults(func=_cmd_serve)

    stream_p = sub.add_parser(
        "stream-demo", help="continual releases over a synthetic feed"
    )
    stream_p.add_argument("--ticks", type=int, default=10, help="feed length")
    stream_p.add_argument(
        "--horizon", type=int, default=8, help="funded ticks the total amortizes over"
    )
    stream_p.add_argument(
        "--total", type=float, default=8.0, help="total epsilon across the horizon"
    )
    stream_p.add_argument("--epsilon", type=float, default=1.0)
    stream_p.add_argument("--seed", type=int, default=0)
    stream_p.add_argument(
        "--degrade", choices=("strict", "drop_optional", "reuse_stale"),
        default="reuse_stale",
        help="what happens to ticks past the horizon (default: serve stale)",
    )
    stream_p.set_defaults(func=_cmd_stream_demo)

    plan_p = sub.add_parser("plan", help="compile (and run) a cost-driven workload plan")
    plan_p.add_argument(
        "--request", help="JSON request file (or -); defaults to a demo workload"
    )
    plan_p.add_argument(
        "--explain", action="store_true", help="only print the plan report, execute nothing"
    )
    plan_p.add_argument("--epsilon", type=float, default=0.5, help="demo workload only")
    plan_p.add_argument(
        "--theta", type=float, default=2.0, help="distance threshold (demo workload only)"
    )
    plan_p.add_argument(
        "--seed", type=int, default=None, help="noise seed (demo default 0; set on --request too)"
    )
    plan_p.add_argument(
        "--mode", choices=("auto", "fixed"), default=None,
        help="planner mode (demo default auto; set on --request too)",
    )
    plan_p.add_argument(
        "--budget", type=float, default=None,
        help="budget-first planning: total epsilon split adaptively across "
        "the plan's fresh releases (set on --request too)",
    )
    plan_p.add_argument(
        "--degrade", choices=("strict", "drop_optional", "reuse_stale"),
        default="strict",
        help="what to do when the session budget cannot cover --budget",
    )
    plan_p.set_defaults(func=_cmd_plan)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # historical form: `python -m repro [outdir]` means `run [outdir]`
    if not argv or (
        argv[0]
        not in {"run", "answer", "check", "serve", "serve-demo", "stream-demo", "plan", "-h", "--help"}
    ):
        argv.insert(0, "run")
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
