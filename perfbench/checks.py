"""Output checks, computed apart from the program.

* **Truth** comes from numpy prefix sums over the registered data's raw
  domain indices (:func:`prefix_counts`), never from the program's own
  histogram code.
* **Error bound**: the RMSE of every answered group is at most
  :data:`ERROR_MULTIPLE` times the square root of the paper's analytic
  per-query MSE for the mechanism the response names, at the epsilon that
  release was charged (:func:`analytic_mse`).
* **Noise**: no group answered from a fresh release equals the truth.
* **Ledger**: read back from the ledger store, every key's honest composed
  total is within its budget, and the recorded spends sum to the
  responses' ``meta.epsilon_spent``.
* **Zero spend**: reads served from held releases, or within a stream
  group's ``max_staleness``, spend exactly ``0.0``.
* **Replay**: a sample of tenants' seeded request sequences, replayed from
  their first request against a fresh in-process service, answers bitwise
  identically.

:func:`self_test` corrupts one output of each kind and shows that the
matching check, and only that one, fails.
"""

from __future__ import annotations

import math
import re
from collections import Counter, defaultdict, namedtuple

import numpy as np

from repro.analysis.bounds import (
    hierarchical_range_error_estimate,
    oh_expected_range_error,
    optimal_budget_split,
)

#: How far a group's RMSE may exceed the analytic RMSE.  The analytic
#: figures are expectations over noise and over uniformly random ranges;
#: a group of a few dozen queries against one release scatters around it,
#: and post-processing (consistency inference) only lowers it.
ERROR_MULTIPLE = 3.0

#: Fan-out of the tree mechanisms (the registry default, the paper's f=16).
FANOUT = 16

#: Slack for float sums of epsilons (different summation orders).
EPS_TOL = 1e-9

NODE_LABEL = re.compile(r"^stream:(?P<family>[^:]+):L(?P<level>\d+):\d+-\d+$")


def prefix_counts(indices, size: int) -> np.ndarray:
    """``p`` with ``p[i]`` = number of tuples with index below ``i``."""
    hist = np.bincount(np.asarray(indices, dtype=np.int64), minlength=size)
    return np.concatenate([[0], np.cumsum(hist)]).astype(np.float64)


def range_truth(prefix: np.ndarray, los, his) -> np.ndarray:
    """True counts of the inclusive index ranges ``[lo, hi]``."""
    return prefix[np.asarray(his) + 1] - prefix[np.asarray(los)]


def analytic_mse(
    strategy: str,
    *,
    size: int,
    theta: int,
    epsilon: float,
    support: float = 1.0,
    parts: int = 1,
) -> float:
    """The paper's expected squared error of one query under ``strategy``.

    ``theta`` is the policy's distance threshold in domain indices (1 for
    the line graph, ``size`` for differential privacy); it is also the
    cumulative-histogram sensitivity the ordered mechanism adds noise for.
    """
    if strategy == "ordered":
        # Theorem 7.1: two noisy prefix counts of Lap(S/eps) each
        return 4.0 * theta**2 / epsilon**2
    if strategy == "hierarchical-interval":
        # one ordered release per maintained dyadic node, summed
        return parts * 4.0 * theta**2 / epsilon**2
    if strategy == "laplace-histogram":
        # Section 2: Lap(2/eps) per cell, summed over the query's support
        return support * 2.0 * (2.0 / epsilon) ** 2
    if strategy == "hierarchical":
        return hierarchical_range_error_estimate(size, epsilon, FANOUT)
    if strategy == "ordered-hierarchical":
        # Eqns (13)-(15) with the mechanism's degenerate-end budget overrides
        eps_s, eps_h = optimal_budget_split(size, theta, FANOUT, epsilon)
        if theta <= 1:
            eps_s, eps_h = epsilon, 0.0
        if math.ceil(size / theta) == 1:
            eps_s, eps_h = 0.0, epsilon
        return oh_expected_range_error(size, theta, FANOUT, eps_s, eps_h)
    raise KeyError(f"no analytic error for strategy {strategy!r}")


def composed_total(entries) -> float:
    """Honest composed epsilon of one ledger key's entries.

    Stream node spends at one dyadic level cover disjoint arrival
    intervals, so a level costs its largest node (parallel composition);
    levels and every other spend add up (sequential composition).
    """
    per_level: dict = {}
    other = 0.0
    for entry in entries:
        m = NODE_LABEL.match(entry.label or "")
        if m is None:
            other += entry.epsilon
        else:
            key = (m.group("family"), int(m.group("level")))
            per_level[key] = max(per_level.get(key, 0.0), entry.epsilon)
    return other + sum(per_level.values())


class Checks:
    """Counts every check made and records every one that failed."""

    KINDS = ("error_bound", "noise", "ledger_budget", "ledger_sum", "zero_spend", "replay")

    def __init__(self):
        self.made: Counter = Counter()
        self.failures: dict = defaultdict(list)
        self.worst_ratio = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, kind: str, message: str) -> None:
        self.failures[kind].append(message)

    def group(self, label: str, answers, truth, mse: float, *, fresh: bool) -> None:
        """Error bound for one answered group, plus noise if it was fresh."""
        answers = np.asarray(answers, dtype=np.float64)
        truth = np.asarray(truth, dtype=np.float64)
        self.made["error_bound"] += 1
        rmse = float(np.sqrt(np.mean((answers - truth) ** 2)))
        ratio = rmse / math.sqrt(mse) if mse > 0 else math.inf
        self.worst_ratio = max(self.worst_ratio, ratio)
        if not ratio <= ERROR_MULTIPLE:
            self.fail(
                "error_bound",
                f"{label}: rmse {rmse:.4g} is {ratio:.2f}x the analytic "
                f"{math.sqrt(mse):.4g} (allowed {ERROR_MULTIPLE}x)",
            )
        if fresh:
            self.made["noise"] += 1
            if np.array_equal(answers, truth):
                self.fail("noise", f"{label}: a fresh release returned the exact truth")

    def zero_spend(self, label: str, spent) -> None:
        self.made["zero_spend"] += 1
        if spent != 0.0:
            self.fail("zero_spend", f"{label}: a reused or stale-tolerant read spent {spent!r}")

    def ledger(self, entries_by_key: dict, budget: float, reported: float) -> float:
        """Check a ledger read back from its store; returns the composed sum."""
        composed = 0.0
        recorded = 0.0
        for key, entries in entries_by_key.items():
            self.made["ledger_budget"] += 1
            total = composed_total(entries)
            composed += total
            recorded += sum(e.epsilon for e in entries)
            if total > budget + EPS_TOL:
                self.fail(
                    "ledger_budget",
                    f"ledger key {key}: composed total {total!r} exceeds budget {budget!r}",
                )
        self.made["ledger_sum"] += 1
        if abs(recorded - reported) > EPS_TOL * max(1.0, abs(reported)):
            self.fail(
                "ledger_sum",
                f"ledger records {recorded!r} epsilon but responses reported {reported!r}",
            )
        return composed

    def replay(self, label: str, recorded, replayed) -> None:
        self.made["replay"] += 1
        if recorded != replayed:
            self.fail("replay", f"{label}: replayed answers differ from the served ones")

    def summary(self) -> dict:
        return {kind: self.made.get(kind, 0) for kind in self.KINDS}


_Entry = namedtuple("_Entry", "epsilon label")


def self_test() -> int:
    """Corrupt one output of each kind; each must trip exactly its own check."""
    rng = np.random.default_rng(7)
    size, theta, eps = 400, 4, 0.5
    prefix = prefix_counts(rng.integers(0, size, 5000), size)
    los = rng.integers(0, size, 200)
    his = np.maximum(los, rng.integers(0, size, 200))
    truth = range_truth(prefix, los, his)
    mse = analytic_mse("ordered", size=size, theta=theta, epsilon=eps)
    noisy = truth + rng.laplace(0.0, theta / eps, truth.size) - rng.laplace(
        0.0, theta / eps, truth.size
    )
    entries = {"k1": [_Entry(0.5, "range"), _Entry(0.5, "histogram")]}
    nodes = {"k2": [_Entry(1.0, f"stream:range:L0:{t}-{t}") for t in range(4)]}

    def genuine(c: Checks) -> None:
        c.group("ranges", noisy, truth, mse, fresh=True)
        c.zero_spend("hit", 0.0)
        c.ledger(entries, 1.0, 1.0)
        c.ledger(nodes, 1.0, 4.0)
        c.replay("tenant", noisy.tolist(), noisy.tolist())

    corruptions = {
        "error_bound": lambda c: c.group(
            "ranges", noisy + 10 * math.sqrt(mse), truth, mse, fresh=True
        ),
        "noise": lambda c: c.group("ranges", truth, truth, mse, fresh=True),
        "ledger_budget": lambda c: c.ledger(
            {"k1": entries["k1"] + [_Entry(0.5, "range:ordered")]}, 1.0, 1.5
        ),
        "ledger_sum": lambda c: c.ledger(entries, 1.0, 0.5),
        "zero_spend": lambda c: c.zero_spend("hit", 0.5),
        "replay": lambda c: c.replay(
            "tenant",
            noisy.tolist(),
            [float(np.nextafter(noisy[0], np.inf))] + noisy[1:].tolist(),
        ),
    }
    ok = True
    base = Checks()
    genuine(base)
    print(f"genuine outputs: {'pass' if base.ok else 'FAIL ' + str(dict(base.failures))}")
    ok &= base.ok
    for kind, corrupt in corruptions.items():
        c = Checks()
        corrupt(c)
        tripped = sorted(c.failures)
        good = tripped == [kind]
        ok &= good
        print(f"corrupted {kind:<14} -> failed checks {tripped} {'ok' if good else 'WRONG'}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1
