"""Import cost: networkx loads only where a networkx graph is built.

Every serving process imports the package at start-up, and no serving path
builds a networkx graph, so importing it up front would only cost start-up
time and memory.  Each check runs in a fresh interpreter, since the test
process itself has long since imported networkx.
"""

import os
import subprocess
import sys
import textwrap

import repro

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _run(code: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_package_imports_without_networkx():
    _run(
        """
        import sys
        import repro, repro.api, repro.net, repro.plan, repro.stream
        import repro.datasets, repro.constraints, repro.__main__
        assert "networkx" not in sys.modules, "networkx imported at start-up"
        """
    )


def test_networkx_graphs_still_build_and_load_it_on_first_use():
    _run(
        """
        import sys
        from repro import Domain, ExplicitGraph, FullDomainGraph
        from repro.constraints import PolicyGraph
        from repro.constraints.marginals import marginal_queries
        from repro.constraints.ranges import max_component_size, rectangle_graph

        assert "networkx" not in sys.modules
        g = ExplicitGraph(Domain.integers("v", 4), [(0, 1), (1, 2)])
        assert "networkx" in sys.modules
        assert g.graph_distance(0, 2) == 2.0
        assert g.graph_distance(0, 3) == float("inf")
        assert g.to_networkx().number_of_edges() == 2

        domain = Domain.grid([2, 2, 3], names=["A1", "A2", "A3"])
        pg = PolicyGraph(FullDomainGraph(domain), marginal_queries(domain, ["A1", "A2"]))
        assert pg.alpha() == 4 and pg.xi() == 1

        assert max_component_size(rectangle_graph([], theta=1.0)) == 0
        """
    )
