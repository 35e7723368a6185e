"""The traced run's per-layer counts repeat exactly for the same seed.

    python3 -m pytest perfbench/test_counts.py

Each workload's traced run is played twice (about a minute per workload).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))

#: Per-layer counts: work done, not time taken.
COUNTS = ("backend.calls", "backend.nodes", "backend.lp_calls",
          "backend.limit_stops", "formulation.binaries", "formulation.rows",
          "covering.rects", "cache.hits", "cache.misses", "cache.rejected",
          "presolve.rows_removed", "presolve.binaries_fixed",
          "topology.calls", "routing.overflow", "eco.rungs",
          "eco.window_max", "eco.escalations", "eco.solves_avoided",
          "service.deduplicated")


def traced(workload: str, seed: int = 3) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--trace", "1"],
        stdout=subprocess.PIPE, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    return {name: entry["value"] for name, entry in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["flow-cold", "plan-warm", "eco-stream",
                                      "service-mix"])
def test_counts_repeat_exactly(workload):
    first, second = traced(workload), traced(workload)
    assert {n: first[n] for n in COUNTS} == {n: second[n] for n in COUNTS}
    assert first["backend.limit_stops"] == 0
