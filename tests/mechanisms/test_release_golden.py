"""Golden release hashes: every tree mechanism's output, pinned bit for bit.

Each case releases a paper dataset with a fixed seed and hashes the
released per-cell estimates (``sha256`` of their float64 bytes).  The
hashes were captured from the per-tree loops that built one tree, and ran
constrained inference on it, at a time; the batched forest builder and GLS
pass must consume the generator in the same order and round identically.
Cases: Hay's hierarchical mechanism (uniform and geometric budget,
consistent and raw), ordered hierarchical (consistent and raw, at theta 1,
2, 4, 32, 256 and |T| - 1 on adult, the widest gap an edge can span, where
every theta but 1 leaves a short last segment, and at theta 8 on twitter
latitude), the ordered mechanism and the quadtree.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pytest

from repro import Policy
from repro.datasets.adult import adult_capital_loss_dataset
from repro.datasets.twitter import twitter_dataset, twitter_latitude_dataset
from repro.mechanisms import HierarchicalMechanism, OrderedMechanism
from repro.mechanisms.ordered_hierarchical import OrderedHierarchicalMechanism
from repro.mechanisms.quadtree import QuadtreeMechanism

EPSILON = 0.5
SEEDS = (3, 11)
ADULT_SIZE = 4357
#: the largest index gap of a distance-threshold edge on adult
ADULT_FULL_THETA = ADULT_SIZE - 1


@functools.lru_cache(maxsize=None)
def _dataset(name):
    return {
        "adult": adult_capital_loss_dataset,
        "twitter": twitter_latitude_dataset,
        "twitter-2d": twitter_dataset,
    }[name]()


def _hay(budget, consistent):
    def release(seed):
        db = _dataset("adult")
        mech = HierarchicalMechanism(
            Policy.differential_privacy(db.domain), EPSILON, budget=budget, consistent=consistent
        )
        return mech.release(db, rng=seed).histogram()

    return release


def _oh(dataset, theta, consistent):
    def release(seed):
        db = _dataset(dataset)
        # twitter latitude values are 5 km apart
        distance = theta * (5.0 if dataset == "twitter" else 1.0)
        mech = OrderedHierarchicalMechanism(
            Policy.distance_threshold(db.domain, distance), EPSILON, consistent=consistent
        )
        assert mech.theta == theta
        return mech.release(db, rng=seed).histogram()

    return release


def _ordered(seed):
    db = _dataset("adult")
    return OrderedMechanism(Policy.line(db.domain), EPSILON).release(db, rng=seed).histogram()


def _quadtree(consistent):
    def release(seed):
        db = _dataset("twitter-2d")
        mech = QuadtreeMechanism(
            Policy.differential_privacy(db.domain), EPSILON, consistent=consistent
        )
        return mech.release(db, rng=seed).cells

    return release


def _kind(consistent):
    return "consistent" if consistent else "raw"


CASES = {}
for _budget in ("uniform", "geometric"):
    for _consistent in (True, False):
        CASES[f"hay-{_budget}-{_kind(_consistent)}"] = _hay(_budget, _consistent)
for _consistent in (True, False):
    for _theta in (1, 2, 4, 32, 256, ADULT_FULL_THETA):
        CASES[f"oh-{_theta}-{_kind(_consistent)}"] = _oh("adult", _theta, _consistent)
    CASES[f"oh-twitter-8-{_kind(_consistent)}"] = _oh("twitter", 8, _consistent)
    CASES[f"quadtree-{_kind(_consistent)}"] = _quadtree(_consistent)
CASES["ordered"] = _ordered

GOLDEN = {
    "hay-geometric-consistent-11":
        "832ef07bae906f12c5d2946583a06e4bed21718b3729d0982c1b5439ffb7540d",
    "hay-geometric-consistent-3":
        "7ab60ff7b09ab3f16c23843204c38bf28bb6aa17123d1db09233f00995c36d86",
    "hay-geometric-raw-11":
        "3128ec2e777e586d23b5ea32cd094bcb8744c5f8e8785ab367a55ee63e976308",
    "hay-geometric-raw-3":
        "8ed59d21fbb4f1e0f05f1df0478a175b3cb38abf8445b1178139fe50a7c7d1b9",
    "hay-uniform-consistent-11":
        "23ab8310a50b53b7149c0645b696ed75c2287acb4ebc73064416f60d81355acd",
    "hay-uniform-consistent-3":
        "0af73f470c5d6dffac2d3d4b351894faa443a6944e5f6d02d0d9d7f81ad24f6e",
    "hay-uniform-raw-11":
        "26dcacd4462ca7b013bbef568c8e569213c6ab5fb368975b30649ecdfb10acff",
    "hay-uniform-raw-3":
        "d90014fa2dea0556173e133425958ef88d0c553b23397114831d87387fb7f05b",
    "oh-1-consistent-11":
        "2fc1e8d43daa3067afdf132e98fd3e5eaeef5dacc11d3aa96cd583ea0f17d7c9",
    "oh-1-consistent-3":
        "50b189a8ffc3b3a16c1de1c8f22280624e65756ff10d5e3bc8a0dcea425dc930",
    "oh-1-raw-11":
        "776b4bf2d64a9e2788fdb6daaece8ea8ea37c17e3cde58d4d387b617a9868f73",
    "oh-1-raw-3":
        "73dfba376c24a8fbff2b3d7c6459ff284b5e47b86011e53fe148d92c9933bd15",
    "oh-2-consistent-11":
        "dc0a6d6e7cb8b4f2869ec3baf3de4587f2d1b7681cf7ef55cb59900450723a7b",
    "oh-2-consistent-3":
        "bc8969f21f0b7175f7ad6e71dd8dc3ecf49b7c36c89560054bc6bf243760337d",
    "oh-2-raw-11":
        "f3f54e9e4718956899debed2c57b15d12b5ffa2b0b9daad763ef4bf102478547",
    "oh-2-raw-3":
        "acc5286fee0f71d47109a2eca79ea614efa3baf63d971513985d788af648be36",
    "oh-256-consistent-11":
        "c1119fd51dd78908928797e47519cb52f26e55097a9e31003e313914351cce61",
    "oh-256-consistent-3":
        "fb8e1ff7745ffd568398e904739fdff9f90475c8f570482f7f05afbef61ed5a0",
    "oh-256-raw-11":
        "0d23818a98fe68c360fe6bb314cd1f6b4f69d8feb3dfb6dad9b7d67c9a17bfc8",
    "oh-256-raw-3":
        "766f76ed9bc0d39fd15d4017eb9fac380907abe0929dc0d01218de7baa413cb9",
    "oh-32-consistent-11":
        "b30458e61de5b689b1a8ee781735521edaa03b1031062eefd372977cbe587e24",
    "oh-32-consistent-3":
        "6ffb090825449af59edd60fbe2ecd504993c8e9369aefb52c9f4094a2b0d29f4",
    "oh-32-raw-11":
        "134bc1b12ab4b946f1ea13e7fe60eb1ec307f78c6da40d32a92f7b502495d0a8",
    "oh-32-raw-3":
        "390ba9788cc853f9d29a217ead2c6617f4b1a0a45f9be8910db33bb82228eb05",
    "oh-4-consistent-11":
        "67cb1f4c3a266da752b315d341b0fda5300d833e9a1592fff3ccb78a5631a46c",
    "oh-4-consistent-3":
        "cc89aa694946c6af588927f2e372f4b63a48779af613ca2516d49b9fea9c7b82",
    "oh-4-raw-11":
        "7a211bef4399ab71c451295210528a4756caa4b566270436711544dd0f543104",
    "oh-4-raw-3":
        "5566fe0691a427cbc2a557e981a1356951ba4896331a97ee89f612efe2f5e8ad",
    "oh-4356-consistent-11":
        "04011a48ba3c699569412da3e78d89e89992a23d0b0f2b9f99c8d5c3f6b69969",
    "oh-4356-consistent-3":
        "1cf985d55480888e92d83ee877400272fe63fb88ea356150805d05390fdcab0b",
    "oh-4356-raw-11":
        "279dfc1a85d6952e360055b307b7d4407b6027b94561baca181550ce6151c280",
    "oh-4356-raw-3":
        "52627d82a993cbf7c11b707784bddfa6822cc65be24b7efff0c462ef43eaa1cc",
    "oh-twitter-8-consistent-11":
        "3000122b3ae44aa45aea29b4deb898690ebe31d2cf2d66e1d76343ec9eb6be2d",
    "oh-twitter-8-consistent-3":
        "1969fc2386627fd697a07d24dfb0d9684bf3e396bd49a1391dfcbd5d9534d186",
    "oh-twitter-8-raw-11":
        "a88fc307c4701b7097c32dda8250ece73d3adb5828cd0c0bfcef837ee25bf7d8",
    "oh-twitter-8-raw-3":
        "f8d9756cff7a40c9ee8b0d40dd131da3cd56b1da490125f76b7e71bb5ec25127",
    "ordered-11":
        "2fc1e8d43daa3067afdf132e98fd3e5eaeef5dacc11d3aa96cd583ea0f17d7c9",
    "ordered-3":
        "50b189a8ffc3b3a16c1de1c8f22280624e65756ff10d5e3bc8a0dcea425dc930",
    "quadtree-consistent-11":
        "abd84ff24ac252cbdf75328a74a72a46ea11457a1559054b81b4fd78e71ad880",
    "quadtree-consistent-3":
        "401e01ce9fc2a08595d086049170455e985333f2656fed8f03df2e36a376c1a2",
    "quadtree-raw-11":
        "6c3f97917e28014a8b92e80d265d279cf939cc885be679501468856f2aada1d4",
    "quadtree-raw-3":
        "a43873883ee6b655cc6b4dca4062773885ac0f16e234aa8cbfe27c0c0d2038c7",
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_release_matches_golden_hash(case, seed):
    out = np.ascontiguousarray(CASES[case](seed), dtype=np.float64)
    assert hashlib.sha256(out.tobytes()).hexdigest() == GOLDEN[f"{case}-{seed}"]


def test_every_golden_hash_has_a_case():
    assert sorted(GOLDEN) == sorted(f"{c}-{s}" for c in CASES for s in SEEDS)
