"""Measure the planner cost model's calibration constants, per dataset family.

Runs every range/histogram strategy over a grid of policies and epsilons,
compares the measured per-query MSE with the *raw* analytic formula
(:mod:`repro.analysis.bounds` with the calibration factor divided out), and
prints the median ratio per ``(strategy, consistent)`` pair — the values
baked into ``repro.analysis.bounds.COST_MODEL_FITS`` (the
``"synthetic-grid"`` entry is the legacy ``CALIBRATION`` table).

Run with::

    PYTHONPATH=src python benchmarks/calibrate_cost_model.py [--family NAME]
        [--trials N]

``--family`` picks the dataset family to fit (``synthetic-grid`` — the
spiky mixture the shipped constants were measured on — or ``uniform``;
``all`` fits every family).  The output block is ready to paste into
``COST_MODEL_FITS``; deployments serving a different data distribution
re-fit here, register the result and pin it per dataset with
``BlowfishService.register_dataset(..., calibration=NAME)`` (or scope it
with ``repro.analysis.bounds.calibration``).

Not a test: this is the reproducible provenance of the constants.  Re-run
after changing a mechanism's post-processing and update the fits when the
medians move materially.  For the with-inference prefix mechanisms the
per-theta ratios decay roughly as ``theta^-b``; the fitted exponents land
in the same block (slope of log(ratio) against log(theta) over this grid).
"""

from __future__ import annotations

import argparse
import math
import statistics

import numpy as np

from repro import Database, Domain, Policy, PolicyEngine
from repro.analysis.bounds import calibration_factor, predicted_range_query_mse
from repro.analysis.error import random_range_queries, true_range_answers
from repro.core.queries import CumulativeHistogramQuery, HistogramQuery

SIZE = 1024  # the synthetic families' grid; real families use their own domain
N_TUPLES = 20_000
N_QUERIES = 2_000
TRIALS = 24
EPSILONS = (0.25, 1.0)
THETAS = (1, 2, 4, 16, 64, 256)
SEED = 20140623


def _spiky_database() -> Database:
    rng = np.random.default_rng(SEED)
    # spiky mixture: ~half the mass in a few narrow bands, the rest uniform
    bands = rng.normal((100, 380, 700), (8, 20, 15), size=(N_TUPLES // 2, 3))
    spiky = bands[np.arange(N_TUPLES // 2), rng.integers(0, 3, N_TUPLES // 2)]
    flat = rng.uniform(0, SIZE, N_TUPLES - N_TUPLES // 2)
    values = np.clip(np.concatenate([spiky, flat]), 0, SIZE - 1).astype(np.int64)
    return Database.from_indices(Domain.integers("v", SIZE), values)


def _uniform_database() -> Database:
    rng = np.random.default_rng(SEED)
    values = rng.integers(0, SIZE, N_TUPLES)
    return Database.from_indices(Domain.integers("v", SIZE), values)


def _adult_database() -> Database:
    from repro.datasets import adult_capital_loss_dataset

    return adult_capital_loss_dataset(rng=SEED)


def _twitter_database() -> Database:
    from repro.datasets import twitter_latitude_dataset

    return twitter_latitude_dataset(rng=SEED)


def _skin_database() -> Database:
    from repro.datasets import skin_dataset, skin_domain

    # the R-channel projection of the B x G x R grid: the 1-D ordered
    # workload the paper's skin experiments range over
    db3d = skin_dataset(rng=SEED)
    r = np.asarray(db3d.indices) % skin_domain().shape[-1]
    return Database.from_indices(Domain.integers("R", 256), r.astype(np.int64))


#: dataset family name -> (database builder, distance thresholds to fit
#: over); each family gets its own COST_MODEL_FITS entry.  Thresholds are
#: in the domain's own attribute units — the twitter latitude domain is km
#: with 5 km cells, so its thetas are km multiples of the cell size.
FAMILIES = {
    "synthetic-grid": (_spiky_database, THETAS),
    "uniform": (_uniform_database, THETAS),
    "adult": (_adult_database, THETAS),
    "twitter": (_twitter_database, (5, 10, 20, 80, 320)),
    "skin": (_skin_database, (1, 2, 4, 16, 64)),
}


def measured_mse(
    engine: PolicyEngine, strategy: str, db, los, his, truth, seed: int, trials: int
) -> float:
    errs = []
    for t in range(trials):
        rel = engine.release(db, "range", rng=np.random.default_rng((seed, t)), strategy=strategy)
        errs.append(float(np.mean((rel.ranges(los, his) - truth) ** 2)))
    return float(np.mean(errs))


def _theta_exponent(by_theta: dict[int, list[float]]) -> float | None:
    """Least-squares slope of log(ratio) against log(theta), theta > 1."""
    xs, ys = [], []
    for theta, vals in by_theta.items():
        if theta and theta > 1:
            xs.append(math.log(theta))
            ys.append(math.log(statistics.median(vals)))
    if len(xs) < 2:
        return None
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    denom = sum((x - mx) ** 2 for x in xs)
    return -(sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / denom) if denom else None


def fit_family(family: str, trials: int = TRIALS) -> None:
    builder, thetas = FAMILIES[family]
    db = builder()
    domain = db.domain
    size = domain.size
    rng = np.random.default_rng(SEED)
    los, his = random_range_queries(size, N_QUERIES, rng)
    truth = true_range_answers(db.cumulative_histogram(), los, his)

    ratios: dict[tuple[str, bool], list[float]] = {}
    per_theta: dict[str, dict[int, list[float]]] = {}
    config = 0
    for consistent in (False, True):
        for theta in tuple(thetas) + (None,):
            policy = (
                Policy.differential_privacy(domain)
                if theta is None
                else Policy.distance_threshold(domain, theta)
            )
            for eps in EPSILONS:
                engine = PolicyEngine(
                    policy, eps, options={"range": {"consistent": consistent}}
                )
                for strategy in engine.registry.candidates("range", policy):
                    config += 1
                    sens_q = (
                        HistogramQuery(domain)
                        if strategy == "hierarchical"
                        else CumulativeHistogramQuery(domain)
                    )
                    sens = None
                    try:
                        sens = engine.sensitivity(sens_q)
                        index_gap = (
                            None if theta is None else int(policy.graph.max_edge_index_gap())
                        )
                        # divide the calibrated prediction back out to the raw
                        # analytic formula (same theta proxy as the model)
                        theta_proxy = (
                            max(sens, 1.0)
                            if strategy == "ordered"
                            else index_gap
                            if strategy == "ordered-hierarchical"
                            else None
                        )
                        raw = predicted_range_query_mse(
                            strategy,
                            size,
                            eps,
                            sensitivity=sens,
                            theta=index_gap,
                            consistent=consistent,
                        ) / calibration_factor(strategy, consistent, theta=theta_proxy)
                        got = measured_mse(
                            engine, strategy, db, los, his, truth, config, trials
                        )
                    except Exception as exc:  # unscoreable corner: report and move on
                        print(f"skip {strategy} theta={theta} eps={eps}: {exc}")
                        continue
                    ratio = got / raw if raw > 0 else float("nan")
                    ratios.setdefault((strategy, consistent), []).append(ratio)
                    if consistent and theta is not None:
                        per_theta.setdefault(strategy, {}).setdefault(theta, []).append(ratio)
                    print(
                        f"{strategy:22s} consistent={consistent!s:5s} theta={theta!s:5s} "
                        f"eps={eps:<5g} measured={got:12.2f} raw={raw:12.2f} ratio={ratio:.3f}"
                    )

    # ready to paste into repro.analysis.bounds.COST_MODEL_FITS
    print(f"\nCOST_MODEL_FITS[{family!r}] = {{")
    print('    "constants": {')
    for (strategy, consistent), vals in sorted(ratios.items()):
        print(f"        ({strategy!r}, {consistent}): {statistics.median(vals):.2f},")
    print("    },")
    print('    "theta_exponents": {')
    for strategy, by_theta in sorted(per_theta.items()):
        b = _theta_exponent(by_theta)
        if b is not None and b > 0.05:
            print(f"        {strategy!r}: {b:.2f},")
    print("    },")
    print(
        f'    "provenance": "benchmarks/calibrate_cost_model.py --family {family}: '
        f'|T|={size}, thetas {thetas[0]}..{thetas[-1]}, eps {EPSILONS}, '
        f'{trials} trials",'
    )
    print("}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--family", default="synthetic-grid", choices=(*FAMILIES, "all"),
        help="dataset family to fit (default: synthetic-grid)",
    )
    parser.add_argument(
        "--trials", type=int, default=TRIALS, help=f"trials per config (default {TRIALS})"
    )
    args = parser.parse_args()
    for family in FAMILIES if args.family == "all" else (args.family,):
        print(f"=== dataset family: {family} ===")
        fit_family(family, trials=args.trials)


if __name__ == "__main__":
    main()
