"""Privacy-flow lint: the zero-findings gate and seeded-violation checks.

The first test IS the CI gate: ``src/repro`` must stay lint-clean.  The
rest seed one violation per rule into synthetic files and assert the lint
catches each — in particular a budget ``.charge()`` call outside the
sanctioned accountant/ledger seam (the acceptance case).
"""

from __future__ import annotations

import importlib.util
import os
import sys
import textwrap

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_LINT = os.path.join(_ROOT, "tools", "privacy_lint.py")

spec = importlib.util.spec_from_file_location("privacy_lint", _LINT)
privacy_lint = importlib.util.module_from_spec(spec)
sys.modules["privacy_lint"] = privacy_lint
spec.loader.exec_module(privacy_lint)


def _write(tmp_path, relpath: str, source: str) -> str:
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return str(path)


def _codes(findings):
    return [f.code for f in findings]


def test_src_repro_is_lint_clean():
    findings = privacy_lint.lint_paths([os.path.join(_ROOT, "src", "repro")])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_out_of_seam_charge_is_caught(tmp_path):
    """A budget spend smuggled outside the accountant/ledger seam."""
    path = _write(
        tmp_path,
        "repro/plan/rogue.py",
        """
        def sneak(accountant):
            accountant.charge(1.0)
        """,
    )
    findings = privacy_lint.lint_paths([path])
    assert _codes(findings) == ["PL001"]
    assert findings[0].line == 3  # the dedented source keeps its leading newline


def test_out_of_seam_spend_is_caught(tmp_path):
    path = _write(
        tmp_path,
        "repro/api/rogue.py",
        """
        def sneak(session):
            session.accountant.spend(0.5, label="x")
        """,
    )
    assert _codes(privacy_lint.lint_paths([path])) == ["PL001"]


def test_sanctioned_charge_sites_are_exempt(tmp_path):
    source = """
    def ok(self, amount):
        self.store.charge(amount)
    """
    for seam in ("repro/core/composition.py", "repro/api/ledger.py"):
        path = _write(tmp_path, seam, source)
        assert privacy_lint.lint_paths([path]) == []


def test_raw_randomness_is_caught(tmp_path):
    path = _write(
        tmp_path,
        "repro/mechanisms/rogue.py",
        """
        import random
        import numpy as np

        def noisy():
            return np.random.normal(0.0, 1.0) + random.random()
        """,
    )
    codes = _codes(privacy_lint.lint_paths([path]))
    assert codes.count("PL002") == 2  # the import and the np.random draw
    assert set(codes) == {"PL002"}


def test_seed_plumbing_is_allowed(tmp_path):
    path = _write(
        tmp_path,
        "repro/mechanisms/fine.py",
        """
        import numpy as np

        def draw(rng: np.random.Generator | None):
            rng = rng or np.random.default_rng(7)
            return rng.normal(0.0, 1.0)
        """,
    )
    assert privacy_lint.lint_paths([path]) == []


def test_rng_seam_module_is_exempt(tmp_path):
    path = _write(
        tmp_path,
        "repro/core/rng.py",
        """
        import numpy as np

        def fresh():
            return np.random.default_rng()
        """,
    )
    assert privacy_lint.lint_paths([path]) == []


def test_lock_under_leaf_lock_is_caught(tmp_path):
    path = _write(
        tmp_path,
        "repro/api/rogue_locks.py",
        """
        def bad(self, key):
            with self._oversize_lock:
                with self._lock:
                    pass
        """,
    )
    findings = privacy_lint.lint_paths([path])
    assert _codes(findings) == ["PL003"]


def test_datasets_lock_is_a_leaf(tmp_path):
    path = _write(
        tmp_path,
        "repro/api/rogue_locks2.py",
        """
        def bad(self, key):
            with self._datasets_lock:
                with self._oversize_lock:
                    pass
        """,
    )
    assert _codes(privacy_lint.lint_paths([path])) == ["PL003"]


def test_sequential_leaf_locks_are_fine(tmp_path):
    path = _write(
        tmp_path,
        "repro/api/fine_locks.py",
        """
        def ok(self, keys):
            for key in keys:
                with self._oversize_lock:
                    pass
            with self._datasets_lock:
                pass
        """,
    )
    assert privacy_lint.lint_paths([path]) == []


def test_lock_then_leaf_is_fine(tmp_path):
    # the sanctioned order: coarse session lock first, leaf innermost
    path = _write(
        tmp_path,
        "repro/api/fine_locks2.py",
        """
        def ok(self, key):
            with self._lock:
                with self._oversize_lock:
                    pass
        """,
    )
    assert privacy_lint.lint_paths([path]) == []


def test_self_lock_is_a_leaf_only_in_its_classes(tmp_path):
    path = _write(
        tmp_path,
        "repro/obs/class_locks.py",
        """
        class MetricsRegistry:
            def bad(self):
                with self._lock:
                    with self._collectors_lock:
                        pass

        class LRUMap:
            def ok(self):
                with self._lock:
                    with self._collectors_lock:
                        pass
        """,
    )
    findings = privacy_lint.lint_paths([path])
    assert _codes(findings) == ["PL003"]
    assert "MetricsRegistry._lock" in findings[0].message


def test_core_importing_api_is_caught(tmp_path):
    path = _write(
        tmp_path,
        "repro/core/rogue_import.py",
        "from repro.api import BlowfishService\n",
    )
    assert _codes(privacy_lint.lint_paths([path])) == ["PL004"]


def test_relative_api_import_is_caught(tmp_path):
    path = _write(
        tmp_path,
        "repro/engine/rogue_import.py",
        "from ..api import ledger\n",
    )
    assert _codes(privacy_lint.lint_paths([path])) == ["PL004"]


def test_core_importing_plan_is_caught(tmp_path):
    path = _write(
        tmp_path,
        "repro/core/rogue_layer.py",
        "from repro.plan import Workload\n",
    )
    assert _codes(privacy_lint.lint_paths([path])) == ["PL004"]


def test_api_may_import_anything_repro(tmp_path):
    path = _write(
        tmp_path,
        "repro/api/fine_import.py",
        "from ..core.policy import Policy\nfrom ..plan import Workload\n",
    )
    assert privacy_lint.lint_paths([path]) == []


def test_net_importing_algebra_is_caught(tmp_path):
    # the HTTP front end may never reach around the service boundary
    path = _write(
        tmp_path,
        "repro/net/rogue_import.py",
        "from repro.engine import PolicyEngine\n",
    )
    findings = privacy_lint.lint_paths([path])
    assert _codes(findings) == ["PL004"]
    assert "BlowfishService.handle" in findings[0].message


def test_net_relative_core_import_is_caught(tmp_path):
    path = _write(
        tmp_path,
        "repro/net/rogue_relative.py",
        "from ..core.policy import Policy\n",
    )
    assert _codes(privacy_lint.lint_paths([path])) == ["PL004"]


def test_net_may_import_api_and_obs(tmp_path):
    path = _write(
        tmp_path,
        "repro/net/fine_import.py",
        "from ..api import BlowfishService\n"
        "from .. import obs\n"
        "from .server import run_server\n",
    )
    assert privacy_lint.lint_paths([path]) == []


def test_obs_purity_is_enforced(tmp_path):
    path = _write(
        tmp_path,
        "repro/obs/rogue.py",
        "import numpy as np\nfrom repro.core import domain\n",
    )
    assert sorted(_codes(privacy_lint.lint_paths([path]))) == ["PL005", "PL005"]


def test_cli_exit_codes(tmp_path, capsys):
    clean = _write(tmp_path, "repro/plan/clean.py", "X = 1\n")
    assert privacy_lint.main([clean]) == 0
    assert "0 finding(s)" in capsys.readouterr().out
    rogue = _write(
        tmp_path, "repro/plan/rogue_cli.py", "def f(a):\n    a.spend(1.0)\n"
    )
    assert privacy_lint.main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "PL001" in out


def test_cli_json_output(tmp_path, capsys):
    rogue = _write(tmp_path, "repro/plan/rogue_json.py", "import random\n")
    assert privacy_lint.main(["--json", rogue]) == 1
    import json

    findings = json.loads(capsys.readouterr().out)
    assert findings[0]["code"] == "PL002"
    assert findings[0]["line"] == 1
