"""The package runs on its runtime dependencies alone.

``pyproject.toml`` lists numpy and scipy as the runtime dependencies; the
test tools (pytest, hypothesis) and networkx, which only the test-only
references use, are in the ``dev`` extra.  A subprocess that cannot import
any dev-only package imports every ``repro`` module and drives the routing
flow, channel extraction, the channel router, SVG rendering and the
critical-chain report end to end.

A second subprocess checks that ``import repro`` stays light: the router
imports ``scipy.sparse.csgraph`` on its first route and the HiGHS backend
imports ``scipy.optimize`` on its first solve, so neither is paid by a
process that only imports the package.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Packages only the ``dev`` extra installs.
DEV_ONLY = ("networkx", "hypothesis", "pytest")

SCRIPT = textwrap.dedent("""
    import importlib
    import pkgutil
    import sys

    for name in {dev_only!r}:
        sys.modules[name] = None  # any import of it raises ImportError

    import repro
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)

    from repro.core.placement import Placement
    from repro.eval.critical_chain import chain_report
    from repro.geometry.rect import Rect
    from repro.netlist.module import Module
    from repro.netlist.net import Net
    from repro.netlist.netlist import Netlist
    from repro.plotting import render_svg
    from repro.routing.channel_router import route_channel
    from repro.routing.channels import channel_utilization, extract_channels
    from repro.routing.flow import route_and_adjust
    from repro.routing.technology import Technology

    modules = [Module.rigid("a", 4, 3), Module.rigid("b", 3, 3),
               Module.rigid("c", 7, 2)]
    placements = {{
        "a": Placement(modules[0], Rect(0, 0, 4, 3)),
        "b": Placement(modules[1], Rect(4, 0, 3, 3)),
        "c": Placement(modules[2], Rect(0, 3, 7, 2)),
    }}
    netlist = Netlist(modules, [Net("n0", ("a", "b")),
                                Net("n1", ("a", "b", "c")),
                                Net("n2", ("b", "c"))])
    technology = Technology.around_the_cell()
    routed = route_and_adjust(placements, Rect(0, 0, 7, 5), netlist,
                              technology)
    assert routed.routing.n_routed == 3, routed.routing.failed_nets

    final = list(routed.placements.values())
    channels = extract_channels(final, routed.chip, technology)
    assert channels
    assert set(channel_utilization(channels, routed.graph, routed.routing)) \\
        == {{c.name for c in channels}}
    for channel in channels:
        assert not route_channel(channel, routed.graph,
                                 routed.routing).validate()

    svg = render_svg(routed.placements, routed.chip, routing=routed.routing,
                     channel_graph=routed.graph)
    assert "<line" in svg

    report = chain_report(final)
    assert "width chain" in report and "height chain" in report

    for name in {dev_only!r}:
        assert sys.modules[name] is None, name
    print("ok")
""").format(dev_only=DEV_ONLY)


def test_runs_without_dev_dependencies():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().endswith("ok")


#: Modules ``import repro`` must not load; each is imported where first used.
LAZY = ("scipy.sparse.csgraph", "scipy.optimize")


def test_import_leaves_lazy_modules_unloaded():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = ("import sys\nimport repro\n"
              f"print([m for m in {LAZY!r} if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
