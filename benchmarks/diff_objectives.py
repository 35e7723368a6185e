"""Diff two canonical suite-telemetry artifacts on solve outcomes.

The CI bench job runs ``bench_suite.py`` twice against one solve-cache
directory, cold (baseline) and warm (candidate), and feeds both
``suite_telemetry_canonical.json`` artifacts through this tool.  A cache
hit is re-certified before it is served, so every augmentation step must
reach the same status and the same optimal objective; only solver effort
(nodes, LP calls, wall time) may differ.  Objectives are compared with a
small relative tolerance, well above LP roundoff.

Exit status 0 when the artifacts agree, 1 on any mismatch (missing
instance, step-count drift, status change, objective beyond tolerance).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

#: Default relative tolerance for objective agreement.  Well above LP
#: roundoff (~1e-8 observed), well below any real objective regression.
DEFAULT_TOL = 1e-6


def _steps_by_instance(doc: dict[str, Any]) -> dict[str, list[dict]]:
    return {inst["instance"]: inst.get("steps", [])
            for inst in doc.get("instances", [])}


def diff_documents(baseline: dict[str, Any], candidate: dict[str, Any], *,
                   tol: float = DEFAULT_TOL) -> list[str]:
    """Compare two canonical telemetry documents step by step.

    Returns a list of human-readable mismatch descriptions (empty = parity).
    """
    mismatches: list[str] = []
    base = _steps_by_instance(baseline)
    cand = _steps_by_instance(candidate)

    for name in sorted(set(base) | set(cand)):
        if name not in base:
            mismatches.append(f"{name}: only in candidate")
            continue
        if name not in cand:
            mismatches.append(f"{name}: only in baseline")
            continue
        b_steps, c_steps = base[name], cand[name]
        if len(b_steps) != len(c_steps):
            mismatches.append(
                f"{name}: step count {len(b_steps)} vs {len(c_steps)}")
            continue
        for k, (b, c) in enumerate(zip(b_steps, c_steps)):
            if b.get("status") != c.get("status"):
                mismatches.append(
                    f"{name} step {k}: status {b.get('status')!r} vs "
                    f"{c.get('status')!r}")
                continue
            b_obj, c_obj = b.get("objective"), c.get("objective")
            if b_obj is None or c_obj is None:
                if b_obj != c_obj:
                    mismatches.append(
                        f"{name} step {k}: objective {b_obj} vs {c_obj}")
                continue
            scale = max(1.0, abs(b_obj), abs(c_obj))
            if abs(b_obj - c_obj) > tol * scale:
                mismatches.append(
                    f"{name} step {k}: objective {b_obj:.12g} vs "
                    f"{c_obj:.12g} (|diff| = {abs(b_obj - c_obj):.3g} > "
                    f"{tol:g} * {scale:g})")
    return mismatches


def _node_totals(doc: dict[str, Any]) -> int:
    return sum(int(inst.get("total_nodes", 0))
               for inst in doc.get("instances", []))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path,
                        help="canonical artifact of the cold-cache run")
    parser.add_argument("candidate", type=Path,
                        help="canonical artifact of the warm-cache run")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="relative objective tolerance "
                             f"(default {DEFAULT_TOL:g})")
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())
    candidate = json.loads(args.candidate.read_text())
    mismatches = diff_documents(baseline, candidate, tol=args.tol)

    b_nodes, c_nodes = _node_totals(baseline), _node_totals(candidate)
    print(f"baseline:  {args.baseline}  (total_nodes = {b_nodes})")
    print(f"candidate: {args.candidate}  (total_nodes = {c_nodes})")
    if b_nodes:
        print(f"node reduction: {100.0 * (b_nodes - c_nodes) / b_nodes:+.1f}%")

    if mismatches:
        print(f"\n{len(mismatches)} objective/status mismatch(es):")
        for line in mismatches:
            print(f"  {line}")
        return 1
    print("objective parity: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
