#!/usr/bin/env python
"""Privacy-flow lint: AST checks that keep the privacy seams tight.

A differential-privacy codebase has a small number of *seams* through which
all privacy-relevant effects must flow: budget is spent through the
accountant/ledger seam, randomness is drawn through the mechanism rng seam,
shared state is guarded by a small lock hierarchy, and the layering keeps
the core algebra ignorant of the serving tier.  Each rule below pins one of
those seams so a refactor cannot quietly route around it.

Rules
-----
``PL001`` budget spends outside the sanctioned charge sites
    ``.spend(...)`` / ``.charge(...)`` method calls are only legal in the
    accountant/ledger implementations themselves and the two executors that
    are audited to charge exactly once per release
    (:mod:`repro.core.composition`, :mod:`repro.engine.engine`,
    :mod:`repro.stream.mechanisms`, :mod:`repro.api.ledger`).

``PL002`` raw randomness outside the rng seam
    The stdlib ``random`` module is banned everywhere; the module-level
    ``np.random.*`` namespace is banned except for seed plumbing
    (``default_rng`` / ``Generator`` / ``SeedSequence`` / ``BitGenerator``
    / ``PCG64``).  All draws must go through a passed-in
    ``np.random.Generator`` so seeding stays deterministic and auditable.
    :mod:`repro.core.rng` is the seam and is exempt.

``PL003`` lock-order violations
    *Leaf* locks are innermost: nothing may be acquired while one is held.
    Violations deadlock under contention.  The leaves are the service's
    registry locks (``_datasets_lock`` et al., by name anywhere) and
    ``self._lock`` inside :class:`~repro.obs.MetricsRegistry` and
    :class:`~repro.core.composition.InMemoryLedgerStore`, whose critical
    sections run only dict work and an instrument constructor.
    ``LRUMap._lock`` stays an ordinary lock: ``get_or_create`` runs the
    caller's factory (a whole session build) under it.

``PL004`` layering violations
    The algebra layers (``core``/``engine``/``plan``/``stream``/
    ``mechanisms``/``constraints``/``analysis``/``datasets``/``check``)
    must not import the serving tier (``repro.api``), and ``repro.core``
    may only import ``repro.core`` / ``repro.obs``.  The HTTP front end
    (``repro.net``) sits strictly *above* the service boundary: it may
    import ``repro.net`` / ``repro.api`` / ``repro.obs`` but never an
    algebra layer directly — everything it serves flows through
    ``BlowfishService.handle``.

``PL005`` obs purity
    ``repro.obs`` is the stdlib-only base of the stack: importing any
    ``repro.*`` sibling or third-party package from it recreates the
    import cycles it exists to break.

Usage::

    python tools/privacy_lint.py src/repro            # exit 1 on findings
    python tools/privacy_lint.py --json src/repro

Only the standard library is used, so the lint runs anywhere CPython does.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
from dataclasses import dataclass

CODES: dict[str, str] = {
    "PL001": "budget spend/charge outside the sanctioned charge sites",
    "PL002": "raw randomness outside the rng seam",
    "PL003": "lock acquired while a leaf lock is held",
    "PL004": "layering violation (lower layer imports the serving tier)",
    "PL005": "repro.obs must stay stdlib-only",
}

#: Files (matched by normalized path suffix) allowed to call .spend()/.charge().
CHARGE_SEAMS = (
    "repro/core/composition.py",
    "repro/engine/engine.py",
    "repro/stream/mechanisms.py",
    "repro/api/ledger.py",
)

#: The one module allowed to touch np.random directly (it IS the seam).
RNG_SEAMS = ("repro/core/rng.py",)

#: np.random attributes that plumb seeds rather than draw randomness.
RNG_SEED_PLUMBING = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64"}
)

#: Lock attribute names that are leaves of the lock hierarchy: nothing may
#: be acquired while one is held.
LEAF_LOCK_NAMES = frozenset({"_datasets_lock", "_collectors_lock", "_oversize_lock"})

#: ``self.<attr>`` locks that are leaves only inside the named class.
LEAF_LOCKS_BY_CLASS: dict[str, frozenset] = {
    "MetricsRegistry": frozenset({"_lock"}),
    "InMemoryLedgerStore": frozenset({"_lock"}),
}

#: Package segments (under repro/) that must never import repro.api.
API_FORBIDDEN_LAYERS = frozenset(
    {
        "core",
        "engine",
        "plan",
        "stream",
        "mechanisms",
        "constraints",
        "analysis",
        "datasets",
        "obs",
        "check",
    }
)

#: Targets (under repro/) the HTTP front end may import: itself, the JSON
#: service boundary and observability — never an algebra layer directly.
NET_ALLOWED_TARGETS = frozenset({"net", "api", "obs"})

#: Stdlib-ish prefixes repro.obs may import (everything else is a finding).
_OBS_ALLOWED_THIRD_PARTY: frozenset = frozenset()


@dataclass(frozen=True)
class Finding:
    """One lint finding, anchored to a file and line."""

    code: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


def _norm(path: str) -> str:
    return path.replace(os.sep, "/")


def _matches_any(path: str, suffixes) -> bool:
    norm = _norm(path)
    return any(norm.endswith(s) for s in suffixes)


def _module_parts(path: str) -> list[str]:
    """The repro-relative package parts of ``path`` (empty if outside repro)."""
    parts = _norm(path).split("/")
    if "repro" in parts:
        return parts[parts.index("repro") + 1 :]
    return []


def _dotted(node: ast.AST) -> str | None:
    """Render an attribute chain like ``np.random.default_rng`` (or None)."""
    names: list[str] = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        names.append(node.id)
        return ".".join(reversed(names))
    return None


# -- PL001: budget charge seam ---------------------------------------------------------


def _check_charge_seam(tree: ast.AST, path: str, findings: list[Finding]) -> None:
    if _matches_any(path, CHARGE_SEAMS):
        return
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("spend", "charge")
        ):
            findings.append(
                Finding(
                    "PL001",
                    path,
                    node.lineno,
                    f".{node.func.attr}() called outside the sanctioned charge "
                    f"sites ({', '.join(CHARGE_SEAMS)}) — budget spends must "
                    "flow through the accountant/ledger seam",
                )
            )


# -- PL002: randomness seam ------------------------------------------------------------


def _check_rng_seam(tree: ast.AST, path: str, findings: list[Finding]) -> None:
    if _matches_any(path, RNG_SEAMS):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root == "random":
                    findings.append(
                        Finding(
                            "PL002",
                            path,
                            node.lineno,
                            "stdlib random imported — draw through a seeded "
                            "np.random.Generator instead",
                        )
                    )
                if alias.name.startswith("numpy.random"):
                    findings.append(
                        Finding(
                            "PL002",
                            path,
                            node.lineno,
                            "numpy.random imported wholesale — import "
                            "default_rng/Generator or take a Generator argument",
                        )
                    )
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == "random" or node.module.startswith("random."):
                findings.append(
                    Finding(
                        "PL002",
                        path,
                        node.lineno,
                        "stdlib random imported — draw through a seeded "
                        "np.random.Generator instead",
                    )
                )
            elif node.module in ("numpy.random",):
                for alias in node.names:
                    if alias.name not in RNG_SEED_PLUMBING:
                        findings.append(
                            Finding(
                                "PL002",
                                path,
                                node.lineno,
                                f"numpy.random.{alias.name} imported — only seed "
                                f"plumbing ({', '.join(sorted(RNG_SEED_PLUMBING))}) "
                                "may be named; draws go through a Generator",
                            )
                        )
        elif isinstance(node, ast.Attribute):
            # np.random.X / numpy.random.X with X outside the seed plumbing:
            # a module-level draw (np.random.normal, np.random.seed, ...)
            dotted = _dotted(node)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if (
                len(parts) >= 3
                and parts[0] in ("np", "numpy")
                and parts[1] == "random"
                and parts[2] not in RNG_SEED_PLUMBING
            ):
                findings.append(
                    Finding(
                        "PL002",
                        path,
                        node.lineno,
                        f"{'.'.join(parts[:3])} used — module-level numpy "
                        "randomness is unseeded global state; draw through a "
                        "passed-in np.random.Generator",
                    )
                )


# -- PL003: lock ordering --------------------------------------------------------------


def _lock_kind(item: ast.withitem, cls: str | None) -> tuple[str, str] | None:
    """Classify a with-item inside class ``cls``: ("leaf"|"lock", description)
    or None."""
    expr = item.context_expr
    name = None
    if isinstance(expr, ast.Attribute):
        name = expr.attr
        if (
            isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and name in LEAF_LOCKS_BY_CLASS.get(cls, ())
        ):
            return ("leaf", f"{cls}.{name}")
    elif isinstance(expr, ast.Name):
        name = expr.id
    if name is None:
        return None
    if name in LEAF_LOCK_NAMES:
        return ("leaf", name)
    if "lock" in name.lower():
        return ("lock", name)
    return None


def _check_lock_order(tree: ast.AST, path: str, findings: list[Finding]) -> None:
    def visit(node: ast.AST, held_leaf: str | None, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, None, child.name)
                continue
            # a nested def is not executed under the outer with; skip it and
            # restart analysis inside it with no locks held
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, None, cls)
                continue
            if isinstance(child, (ast.With, ast.AsyncWith)):
                leaf_here = held_leaf
                for item in child.items:
                    kind = _lock_kind(item, cls)
                    if kind is None:
                        continue
                    if held_leaf is not None:
                        findings.append(
                            Finding(
                                "PL003",
                                path,
                                child.lineno,
                                f"{kind[1]} acquired while leaf lock "
                                f"{held_leaf} is held — leaf locks must be "
                                "innermost (deadlock risk under contention)",
                            )
                        )
                    if kind[0] == "leaf":
                        leaf_here = kind[1]
                visit(child, leaf_here, cls)
                continue
            visit(child, held_leaf, cls)

    visit(tree, None, None)


# -- PL004 / PL005: layering -----------------------------------------------------------


def _imported_repro_modules(tree: ast.AST, parts: list[str]):
    """Yield ``(top_level_target, lineno)`` for every repro-internal import."""
    pkg_parts = parts[:-1]  # package path of the module being linted
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bits = alias.name.split(".")
                if bits[0] == "repro" and len(bits) > 1:
                    yield bits[1], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                if node.module:
                    bits = node.module.split(".")
                    if bits[0] == "repro":
                        if len(bits) > 1:
                            yield bits[1], node.lineno
                        else:
                            for alias in node.names:
                                yield alias.name, node.lineno
            else:
                # resolve `from ..x import y` against the file's package path
                base = pkg_parts[: len(pkg_parts) - (node.level - 1)]
                if node.level - 1 > len(pkg_parts):
                    continue
                if node.module:
                    target = base + node.module.split(".")
                else:
                    target = None  # `from .. import x` — targets are the names
                if target is not None:
                    if len(target) > 0:
                        yield target[0], node.lineno
                elif not base:
                    for alias in node.names:
                        yield alias.name, node.lineno


def _check_layering(tree: ast.AST, path: str, findings: list[Finding]) -> None:
    parts = _module_parts(path)
    if not parts:
        return
    layer = parts[0] if len(parts) > 1 else None  # None for repro/x.py top-levels
    if layer == "net":
        for target, lineno in _imported_repro_modules(tree, parts):
            if target not in NET_ALLOWED_TARGETS:
                findings.append(
                    Finding(
                        "PL004",
                        path,
                        lineno,
                        f"repro.net imports repro.{target} — the HTTP front "
                        "end may only import repro.net / repro.api / "
                        "repro.obs; everything it serves flows through "
                        "BlowfishService.handle",
                    )
                )
        return
    if layer is None or layer not in API_FORBIDDEN_LAYERS:
        return
    for target, lineno in _imported_repro_modules(tree, parts):
        if target == "api":
            findings.append(
                Finding(
                    "PL004",
                    path,
                    lineno,
                    f"repro.{layer} imports repro.api — the algebra layers "
                    "must not depend on the serving tier",
                )
            )
        elif layer == "core" and target not in ("core", "obs"):
            findings.append(
                Finding(
                    "PL004",
                    path,
                    lineno,
                    f"repro.core imports repro.{target} — core may only "
                    "import repro.core / repro.obs",
                )
            )
    if layer == "obs":
        for node in ast.walk(tree):
            modules = []
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                modules = [node.module]
            for mod in modules:
                root = mod.split(".")[0]
                if root in ("numpy", "np", "networkx", "scipy", "pandas"):
                    findings.append(
                        Finding(
                            "PL005",
                            path,
                            node.lineno,
                            f"repro.obs imports {root} — obs is the stdlib-only "
                            "base of the stack",
                        )
                    )
                elif root == "repro" and not mod.startswith("repro.obs"):
                    findings.append(
                        Finding(
                            "PL005",
                            path,
                            node.lineno,
                            f"repro.obs imports {mod} — obs must not depend on "
                            "the rest of the package",
                        )
                    )


# -- driver ----------------------------------------------------------------------------

RULES = (
    _check_charge_seam,
    _check_rng_seam,
    _check_lock_order,
    _check_layering,
)


def lint_file(path: str) -> list[Finding]:
    """Lint one python file; unparseable files yield a PL000-style crash."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source, filename=path)
    findings: list[Finding] = []
    for rule in RULES:
        rule(tree, path, findings)
    return findings


def lint_paths(paths) -> list[Finding]:
    """Lint files and directory trees; returns findings sorted by location."""
    files: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, names in os.walk(path):
                for name in sorted(names):
                    if name.endswith(".py"):
                        files.append(os.path.join(root, name))
        else:
            files.append(path)
    findings: list[Finding] = []
    for path in files:
        findings.extend(lint_file(path))
    findings.sort(key=lambda f: (f.path, f.line, f.code))
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="privacy-flow lint (budget/rng/lock/layering seams)"
    )
    parser.add_argument("paths", nargs="+", help="python files or directories")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    args = parser.parse_args(argv)
    findings = lint_paths(args.paths)
    if args.json:
        print(json.dumps([f.to_dict() for f in findings], indent=2))
    else:
        for finding in findings:
            print(finding.render())
        print(f"privacy lint: {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
