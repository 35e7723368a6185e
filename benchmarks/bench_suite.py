"""Full-suite regression: every embedded benchmark through the whole flow.

The release-style results table: floorplan + route + adjust for each
embedded MCNC-like instance, recording area, utilization, wirelength, and
runtime.  Guards against quality regressions across the whole pipeline, the
way an open-source floorplanner's CI would.

Instances are independent, so they fan out over
:func:`repro.parallel.parallel_map` (worker count from ``REPRO_WORKERS``,
defaulting to the CPU count).  Setting ``REPRO_BENCH_QUICK=1`` switches to
a small-instance quick mode with tighter time limits — the mode CI runs —
and either mode writes the per-solve telemetry of every instance to
``results/suite_telemetry.json`` as a machine-readable perf artifact.
Suite instances always solve on the ``highs`` backend (the backend
``BENCH_baseline.json`` records) with the default presolve and warm-start
settings; per-step presolve parity is a tier-1 test
(``tests/test_presolve.py``).
``REPRO_BENCH_FORMULATION=unary`` runs the whole suite under the unary
non-overlap encoding — the bench job's end-to-end formulation leg (the
per-solve parity gates live in ``bench_formulations.py``).

The canonical solve cache is on by default; with ``REPRO_CACHE_DIR`` set,
consecutive suite runs share the on-disk tier, and the per-instance hit
rates land in ``results/cache_stats.txt`` plus the telemetry artifact.
``REPRO_BENCH_EXPECT_WARM=1`` turns the warm expectation into an assertion
(hit rate >= 0.30 across recorded solves) — the CI bench job sets it on
its warm run, after a cold run on the same cache dir.  Cache provenance is
stripped from the *canonical* artifact, so a cold and a warm run still
byte-compare identically.

Every run also emits the perf-trajectory artifact ``results/BENCH_<rev>.json``
(wall time, branch-and-bound nodes, LP calls, and cache hits per fixture,
``<rev>`` from ``GITHUB_SHA`` or the local git head).  Quick mode adds the
``ami33-trajectory`` fixture — the full ami33-like augmentation trajectory on
the own branch-and-bound, floorplanning only — which is the repo's hot-path
yardstick: ``benchmarks/bench_gate.py`` compares these artifacts against the
committed ``benchmarks/BENCH_baseline.json`` and ``benchmarks/profile_gate.py``
profiles the same fixture.
"""

from __future__ import annotations

import functools
import json
import os

from benchmarks.conftest import emit
from repro.core.config import FloorplanConfig
from repro.core.floorplanner import Floorplanner
from repro.eval.report import canonicalize_telemetry, format_table, \
    telemetry_report
from repro.netlist.mcnc import ami33_like, apte_like, hp_like, xerox_like
from repro.parallel import parallel_map
from repro.routing.flow import route_and_adjust
from repro.routing.router import RouterMode
from repro.routing.technology import Technology

#: Minimum acceptable packing utilization per instance (regression floor).
#: Envelopes reserve pin-proportional routing space inside the packing, so
#: heavily connected instances (xerox-like: ~20 pins/module) legitimately
#: sit well below bare-packing utilizations.
UTILIZATION_FLOOR = 0.45

#: Environment variable selecting the CI smoke configuration.
QUICK_ENV = "REPRO_BENCH_QUICK"

#: Environment variable selecting the non-overlap formulation (default
#: ``bigm``).  The CI bench job's unary leg sets ``unary`` to prove the
#: stronger encoding carries the full pipeline end to end; trajectories
#: are *not* diffed across formulations (equally-optimal subproblem
#: vertices legitimately steer the greedy augmentation differently — the
#: per-solve parity gates live in ``bench_formulations.py`` and
#: ``tests/test_formulations_parity.py``).
FORMULATION_ENV = "REPRO_BENCH_FORMULATION"

#: Environment variable asserting a warmed solve cache: ``1`` requires the
#: suite-wide cache hit rate to reach :data:`WARM_HIT_RATE_FLOOR`.
EXPECT_WARM_ENV = "REPRO_BENCH_EXPECT_WARM"

#: Minimum hit rate a warm run must reach over its recorded solves.
WARM_HIT_RATE_FLOOR = 0.30


def quick_mode() -> bool:
    """True when the suite runs in CI-smoke quick mode."""
    return os.environ.get(QUICK_ENV, "").strip() not in ("", "0")


def suite_formulation() -> str:
    """The non-overlap formulation the suite runs on (default ``bigm``)."""
    return os.environ.get(FORMULATION_ENV, "").strip() or "bigm"


def expect_warm() -> bool:
    """True when this run must find a warmed cache (CI's warm run)."""
    return os.environ.get(EXPECT_WARM_ENV, "").strip() not in ("", "0")


def _run_one(make, time_limit: float) -> dict:
    """Full pipeline on one instance (module-level so it pickles for
    process workers); returns the table row plus the telemetry document."""
    technology = Technology.around_the_cell()
    netlist = make()
    # ordering_seed pinned so the run is fully deterministic: for a fixed
    # backend the telemetry artifact (minus wall-clock fields) is
    # byte-reproducible and CI can diff it across runs.
    config = FloorplanConfig(seed_size=6, group_size=4, ordering_seed=0,
                             use_envelopes=True, technology=technology,
                             subproblem_time_limit=time_limit,
                             backend="highs",
                             formulation=suite_formulation())
    plan = Floorplanner(netlist, config).run()
    routed = route_and_adjust(plan.placements, plan.chip, netlist,
                              technology, mode=RouterMode.WEIGHTED)
    return {
        "row": {
            "instance": netlist.name,
            "modules": len(netlist),
            "nets": len(netlist.nets),
            "pack_area": round(plan.chip_area, 1),
            "pack_util": round(plan.utilization, 3),
            "final_area": round(routed.chip_area, 1),
            "wirelength": round(routed.wirelength, 1),
            "routed_nets": routed.routing.n_routed,
            "fp_seconds": round(plan.elapsed_seconds, 2),
            "legal": plan.is_legal,
        },
        "telemetry": telemetry_report(plan),
    }


def run_ami33_trajectory() -> dict:
    """The quick-mode ami33 trajectory: floorplan (no routing) the ami33-like
    instance on the own branch-and-bound.

    This is the perf yardstick fixture — the augmentation loop spends its
    wall clock in exactly the vectorized hot paths (B&B node processing,
    constraint assembly, skyline/covering geometry), with no HiGHS time to
    dilute the signal.  ``benchmarks/profile_gate.py`` profiles this function
    and the bench-regression gate tracks its wall time, node count, and LP
    calls across revisions.

    The small seed matters: every subproblem (the 4-module seed included)
    solves to proven optimality well inside the time limit, so wall time
    measures solver throughput rather than the time limit itself — a
    limit-truncated step costs its full budget on any revision, masking
    both speedups and regressions.  The node and LP-call counts are exact
    per-revision constants, which is what lets the bench gate treat them
    as noise-free signals.
    """
    config = FloorplanConfig(seed_size=4, group_size=2, ordering_seed=0,
                             use_envelopes=True,
                             subproblem_time_limit=5.0, backend="bnb",
                             presolve=True, warm_start=True)
    plan = Floorplanner(ami33_like(), config).run()
    assert plan.is_legal
    return {"name": "ami33-trajectory", "telemetry": telemetry_report(plan)}


def bench_rev() -> str:
    """The revision tag for the ``BENCH_<rev>.json`` artifact name."""
    sha = os.environ.get("GITHUB_SHA", "").strip()
    if not sha:
        try:
            import subprocess
            sha = subprocess.run(["git", "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10,
                                 cwd=os.path.dirname(__file__)).stdout.strip()
        except Exception:  # noqa: BLE001 — artifact name only
            sha = ""
    return sha[:12] if sha else "local"


def _fixture_stats(telemetry: dict) -> dict:
    """The per-fixture perf-trajectory record (see ``bench_gate.py``)."""
    return {
        "wall_seconds": round(telemetry["elapsed_seconds"], 3),
        "solve_seconds": round(telemetry["total_solve_seconds"], 3),
        "nodes": telemetry["total_nodes"],
        "lp_calls": telemetry["total_lp_calls"],
        "cache_hits": telemetry["cache_hits"],
        "cache_misses": telemetry["cache_misses"],
    }


def _run_suite() -> list[dict]:
    if quick_mode():
        makes = (apte_like, hp_like)
        time_limit = 10.0
    else:
        makes = (apte_like, xerox_like, hp_like, ami33_like)
        time_limit = 20.0
    runner = functools.partial(_run_one, time_limit=time_limit)
    return parallel_map(runner, makes, workers=None)


def test_full_suite(benchmark, results_dir):
    results = benchmark.pedantic(_run_suite, rounds=1, iterations=1)
    rows = [r["row"] for r in results]
    mode = "quick" if quick_mode() else "full"
    emit(results_dir, "suite.txt",
         format_table(rows, title=f"Full-pipeline suite ({mode} mode): "
                                  "envelopes + weighted router"))
    # Per-instance cache hit rates (workers are separate processes, so the
    # telemetry provenance is the only cross-process counter that survives).
    cache_rows = []
    for r in results:
        hits = r["telemetry"]["cache_hits"]
        misses = r["telemetry"]["cache_misses"]
        cache_rows.append({
            "instance": r["telemetry"]["instance"],
            "cache_hits": hits,
            "cache_misses": misses,
            "hit_rate": round(hits / (hits + misses), 3)
            if hits + misses else 0.0,
        })
    total_hits = sum(c["cache_hits"] for c in cache_rows)
    total_lookups = sum(c["cache_hits"] + c["cache_misses"]
                        for c in cache_rows)
    suite_hit_rate = total_hits / total_lookups if total_lookups else 0.0
    emit(results_dir, "cache_stats.txt",
         format_table(cache_rows, title=f"Solve-cache hit rates ({mode} "
                                        f"mode): suite rate "
                                        f"{suite_hit_rate:.1%}",
                      floatfmt=".3f"))
    artifact = {
        "version": 1,
        "mode": mode,
        "presolve": True,
        "formulation": suite_formulation(),
        "cache": {"hits": total_hits, "lookups": total_lookups,
                  "hit_rate": suite_hit_rate, "instances": cache_rows},
        "instances": [r["telemetry"] for r in results],
    }
    (results_dir / "suite_telemetry.json").write_text(
        json.dumps(artifact, indent=1) + "\n")
    # Timing-free twin of the artifact: byte-identical across runs of the
    # same configuration, so CI diffs it to catch behavioral regressions.
    canonical = {
        "version": 1,
        "mode": mode,
        "presolve": True,
        "formulation": suite_formulation(),
        "instances": [canonicalize_telemetry(r["telemetry"])
                      for r in results],
    }
    (results_dir / "suite_telemetry_canonical.json").write_text(
        json.dumps(canonical, indent=1, sort_keys=True) + "\n")

    # Perf-trajectory artifact: one noise-free record per fixture, compared
    # against benchmarks/BENCH_baseline.json by benchmarks/bench_gate.py.
    fixtures = {r["telemetry"]["instance"]: _fixture_stats(r["telemetry"])
                for r in results}
    if quick_mode():
        trajectory = run_ami33_trajectory()
        fixtures[trajectory["name"]] = _fixture_stats(trajectory["telemetry"])
    bench_doc = {
        "version": 1,
        "rev": bench_rev(),
        "mode": mode,
        "backend": "highs",
        "presolve": True,
        "formulation": suite_formulation(),
        "fixtures": fixtures,
    }
    (results_dir / f"BENCH_{bench_rev()}.json").write_text(
        json.dumps(bench_doc, indent=1, sort_keys=True) + "\n")

    assert all(r["legal"] for r in rows)
    assert all(r["routed_nets"] == r["nets"] for r in rows)
    assert all(r["pack_util"] >= UTILIZATION_FLOOR for r in rows)
    assert all(r["final_area"] >= r["pack_area"] * 0.8 for r in rows)
    if expect_warm():
        assert suite_hit_rate >= WARM_HIT_RATE_FLOOR, (
            f"warm run expected a cache hit rate >= {WARM_HIT_RATE_FLOOR:.0%}"
            f" but measured {suite_hit_rate:.1%} "
            f"({total_hits}/{total_lookups} solves served from cache)")
