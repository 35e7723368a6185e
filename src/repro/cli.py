"""Command-line interface.

``repro-floorplan`` (or ``python -m repro``) drives the full flow from the
shell::

    repro-floorplan floorplan --benchmark ami33 --svg out.svg
    repro-floorplan route --benchmark ami33 --envelopes --router weighted
    repro-floorplan experiments --series 1 2 3
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.config import FloorplanConfig, Objective, Ordering
from repro.core.floorplanner import Floorplanner
from repro.eval.experiments import run_series1, run_series2, run_series3
from repro.eval.report import format_table
from repro.milp.telemetry import DEFAULT_FORMULATION, FORMULATIONS
from repro.netlist.generators import random_netlist
from repro.netlist.mcnc import ami33_like, apte_like, hp_like, xerox_like
from repro.netlist.netlist import Netlist
from repro.netlist.yal import parse_yal
from repro.plotting import render_ascii, render_svg
from repro.routing.flow import route_and_adjust
from repro.routing.router import RouterMode
from repro.routing.technology import Technology

_BENCHMARKS = {
    "ami33": ami33_like,
    "apte": apte_like,
    "xerox": xerox_like,
    "hp": hp_like,
}


def _load_netlist(args: argparse.Namespace) -> Netlist:
    if args.yal:
        return parse_yal(Path(args.yal).read_text(), name=Path(args.yal).stem)
    if args.random:
        return random_netlist(args.random, seed=args.seed)
    return _BENCHMARKS[args.benchmark]()


def _parse_outline(text: str) -> tuple[float, float]:
    """Parse a ``WxH`` die string (e.g. ``"40x25"``)."""
    parts = text.lower().replace(" ", "").split("x")
    try:
        width, height = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"outline must look like WxH (e.g. 40x25), got {text!r}") from None
    if width <= 0 or height <= 0:
        raise argparse.ArgumentTypeError(
            f"outline dimensions must be positive, got {text!r}")
    return (width, height)


def _config_from(args: argparse.Namespace) -> FloorplanConfig:
    technology = Technology.around_the_cell() if getattr(args, "around", False) \
        else Technology.over_the_cell()
    return FloorplanConfig(
        seed_size=args.seed_size,
        group_size=args.group_size,
        whitespace_factor=args.whitespace,
        outline=getattr(args, "outline", None),
        whitespace_target=getattr(args, "whitespace_target", None),
        objective=Objective(args.objective),
        ordering=Ordering(args.ordering),
        ordering_seed=args.seed,
        use_envelopes=getattr(args, "envelopes", False),
        technology=technology,
        subproblem_time_limit=args.time_limit,
        backend=args.backend,
        formulation=getattr(args, "formulation", DEFAULT_FORMULATION),
        presolve=not getattr(args, "no_presolve", False),
        warm_start=not getattr(args, "no_warm_start", False),
        solve_cache=not getattr(args, "no_solve_cache", False),
        cache_dir=getattr(args, "cache_dir", None),
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--benchmark", choices=sorted(_BENCHMARKS),
                        default="ami33", help="embedded benchmark instance")
    parser.add_argument("--yal", help="path to a YAL benchmark file")
    parser.add_argument("--random", type=int, metavar="N",
                        help="generate a random N-module instance instead")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument("--seed-size", type=int, default=6,
                        help="seed group size m")
    parser.add_argument("--group-size", type=int, default=4,
                        help="augmentation group size e")
    parser.add_argument("--whitespace", type=float, default=1.20,
                        help="chip-width area headroom factor")
    parser.add_argument("--outline", type=_parse_outline, default=None,
                        metavar="WxH",
                        help="fixed die outline, e.g. 40x25: run in "
                             "fixed-outline mode (feasibility search under "
                             "the die instead of open-outline height "
                             "minimization)")
    parser.add_argument("--whitespace-target", type=float, default=None,
                        metavar="FRACTION",
                        help="fixed-outline whitespace budget in [0,1); "
                             "derives a die when --outline is not given and "
                             "stops the feasibility search once the used "
                             "region is at least this tight")
    parser.add_argument("--objective", default="area",
                        choices=[o.value for o in Objective])
    parser.add_argument("--ordering", default="connectivity",
                        choices=[o.value for o in Ordering])
    parser.add_argument("--time-limit", type=float, default=30.0,
                        help="per-subproblem MILP time limit (seconds)")
    parser.add_argument("--backend", default="highs",
                        choices=["highs", "bnb", "smt"],
                        help="MILP backend (bnb is the self-contained "
                             "branch-and-bound; smt is the LP-free "
                             "difference-logic solver for rigid "
                             "area/perimeter instances)")
    parser.add_argument("--formulation", default=DEFAULT_FORMULATION,
                        choices=list(FORMULATIONS),
                        help="non-overlap encoding: bigm is the paper's "
                             "eq. (2) two-binary big-M encoding; unary is "
                             "the stronger one-hot encoding with tightened "
                             "big-Ms and valid inequalities (same optima, "
                             "fewer branch-and-bound nodes)")
    parser.add_argument("--no-presolve", action="store_true",
                        help="skip the formulation's dominated-binary "
                             "fixing and, on bnb/simplex/smt, the "
                             "solver-independent MILP presolve layer (bound "
                             "tightening, big-M reduction, symmetry "
                             "breaking; HiGHS always presolves itself)")
    parser.add_argument("--no-warm-start", action="store_true",
                        help="skip cross-step warm starting (stacked "
                             "incumbents and the presolve objective cutoff)")
    parser.add_argument("--no-solve-cache", action="store_true",
                        help="skip the canonical solve cache (every "
                             "subproblem is solved from scratch)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="on-disk solve-cache directory (default: "
                             "$REPRO_CACHE_DIR, else "
                             "~/.cache/repro-floorplan)")


def _cmd_floorplan(args: argparse.Namespace) -> int:
    netlist = _load_netlist(args)
    config = _config_from(args)
    if config.outline_mode:
        return _run_fixed_outline(netlist, config, args)
    plan = Floorplanner(netlist, config).run()
    print(f"{netlist.name}: chip {plan.chip_width:.1f} x {plan.chip_height:.1f}"
          f"  area {plan.chip_area:.1f}  utilization {plan.utilization:.1%}"
          f"  time {plan.elapsed_seconds:.1f}s")
    problems = plan.validate()
    if problems:
        print("VIOLATIONS:", *problems, sep="\n  ")
        return 1
    if args.ascii:
        print(render_ascii(plan.placements, plan.chip))
    if args.svg:
        Path(args.svg).write_text(render_svg(plan.placements, plan.chip))
        print(f"wrote {args.svg}")
    if args.plan_json:
        _write_plan_json(plan, args.plan_json)
    return 0


def _write_plan_json(plan, path: str) -> None:
    from repro.serialize import floorplan_to_dict

    Path(path).write_text(
        json.dumps(floorplan_to_dict(plan), indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def _run_fixed_outline(netlist: Netlist, config: FloorplanConfig,
                       args: argparse.Namespace) -> int:
    """Fixed-outline mode of the ``floorplan`` command: run the feasibility
    search and report the structured result (exit 1 on INFEASIBLE_OUTLINE,
    never a traceback)."""
    from repro.core.outline import solve_fixed_outline

    result = solve_fixed_outline(netlist, config)
    width, height = result.outline
    if not result.feasible:
        cert = result.certificate or {}
        print(f"{netlist.name}: INFEASIBLE_OUTLINE for die "
              f"{width:.1f} x {height:.1f} "
              f"({cert.get('reason', 'unknown')}"
              f"{', proven' if cert.get('proven') else ''}; "
              f"{result.n_probes} probes)")
        print(json.dumps(result.to_dict(), indent=1), file=sys.stderr)
        return 1
    plan = result.plan
    assert plan is not None
    print(f"{netlist.name}: die {width:.1f} x {height:.1f}  realized height "
          f"{plan.chip_height:.1f}  whitespace {result.whitespace:.1%} "
          f"(used region {result.used_whitespace:.1%})  "
          f"{result.n_probes} probes  time {plan.elapsed_seconds:.1f}s")
    problems = plan.validate()
    if problems:
        print("VIOLATIONS:", *problems, sep="\n  ")
        return 1
    if args.ascii:
        print(render_ascii(plan.placements, plan.chip))
    if args.svg:
        Path(args.svg).write_text(render_svg(plan.placements, plan.chip))
        print(f"wrote {args.svg}")
    if args.plan_json:
        _write_plan_json(plan, args.plan_json)
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    netlist = _load_netlist(args)
    args.around = True
    config = _config_from(args)
    plan = Floorplanner(netlist, config).run()
    routed = route_and_adjust(plan.placements, plan.chip, netlist,
                              config.technology,
                              mode=RouterMode(args.router))
    print(f"{netlist.name}: packing area {plan.chip_area:.1f} -> final area "
          f"{routed.chip_area:.1f}  wirelength {routed.wirelength:.1f}  "
          f"routed {routed.routing.n_routed}/{len(netlist.nets)} nets  "
          f"overflow {routed.routing.total_overflow:.1f}")
    if args.svg:
        Path(args.svg).write_text(render_svg(
            routed.placements, routed.chip, routing=routed.routing,
            channel_graph=routed.graph))
        print(f"wrote {args.svg}")
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    from repro.baselines.annealing import AnnealingSchedule
    from repro.baselines.greedy import greedy_skyline_floorplan
    from repro.baselines.wong_liu import WongLiuFloorplanner

    netlist = _load_netlist(args)
    plan = Floorplanner(netlist, _config_from(args)).run()
    print(f"{'method':>12} {'chip area':>10} {'util':>7} {'time':>7}")
    print(f"{'milp':>12} {plan.chip_area:>10.1f} {plan.utilization:>6.1%} "
          f"{plan.elapsed_seconds:>6.1f}s")
    if args.method in ("wong-liu", "all"):
        sa = WongLiuFloorplanner(
            netlist, seed=args.seed,
            schedule=AnnealingSchedule(
                alpha=0.93, moves_per_temperature=20 * len(netlist),
                max_idle_temperatures=12)).run()
        print(f"{'wong-liu':>12} {sa.chip_area:>10.1f} "
              f"{sa.utilization:>6.1%} {sa.elapsed_seconds:>6.1f}s")
    if args.method in ("greedy", "all"):
        greedy = greedy_skyline_floorplan(netlist)
        print(f"{'greedy':>12} {greedy.chip_area:>10.1f} "
              f"{greedy.utilization:>6.1%} {greedy.elapsed_seconds:>6.1f}s")
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from repro.eval.report import telemetry_report

    netlist = _load_netlist(args)
    plan = Floorplanner(netlist, _config_from(args)).run()
    text = json.dumps(telemetry_report(plan), indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    netlist = _load_netlist(args)
    config = _config_from(args)
    config.certify = True
    plan = Floorplanner(netlist, config).run()

    steps = []
    n_violations = 0
    for step in plan.trace.steps:
        cert = step.certification
        if cert is None:
            continue
        n_violations += len(cert.violations)
        steps.append({"index": step.index, "group": list(step.group),
                      **cert.to_dict()})
    final = plan.certification
    if final is not None:
        n_violations += len(final.violations)
    ok = n_violations == 0
    doc = {
        "netlist": netlist.name,
        "backend": config.backend,
        "ok": ok,
        "n_violations": n_violations,
        "chip_width": plan.chip_width,
        "chip_height": plan.chip_height,
        "steps": steps,
        "floorplan": final.to_dict() if final is not None else None,
    }
    text = json.dumps(doc, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    print(f"{netlist.name}: {'CERTIFIED' if ok else 'VIOLATIONS'} "
          f"({len(steps)} steps checked, {n_violations} violations)",
          file=sys.stderr)
    return 0 if ok else 1


def _cmd_eco(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.core.eco import solve_eco
    from repro.serialize import delta_from_dict, floorplan_from_dict, \
        floorplan_to_dict

    baseline = floorplan_from_dict(
        json.loads(Path(args.plan).read_text()))
    delta = delta_from_dict(json.loads(Path(args.delta).read_text()))
    config = baseline.config
    overrides = {}
    if args.margin is not None:
        overrides["eco_margin"] = args.margin
    if args.quality_bound is not None:
        overrides["eco_quality_bound"] = args.quality_bound
    if args.max_levels is not None:
        overrides["eco_max_levels"] = args.max_levels
    if args.certify:
        overrides["certify"] = True
    if overrides:
        config = dataclasses.replace(config, **overrides)

    result = solve_eco(baseline, delta, config)
    if args.report:
        Path(args.report).write_text(
            json.dumps(result.to_dict(include_plan=False), indent=1) + "\n")
        print(f"wrote {args.report}")
    if not result.patched:
        last = result.attempts[-1] if result.attempts else None
        print(f"{baseline.netlist.name}: INFEASIBLE_ECO "
              f"({last.status if last else 'no attempt'}; "
              f"{len(result.attempts)} rungs tried)")
        print(json.dumps(result.to_dict(include_plan=False), indent=1),
              file=sys.stderr)
        return 1
    plan = result.plan
    assert plan is not None
    print(f"{baseline.netlist.name}: {result.status.lower()}  height "
          f"{result.baseline_height:.1f} -> {plan.chip_height:.1f}  "
          f"window {len(result.window)}  frozen {len(result.frozen)}  "
          f"solves {result.solver_invocations} (cold would be "
          f"~{result.cold_solve_estimate}, avoided {result.solves_avoided})")
    if result.certification is not None and not result.certification.ok:
        print("CERTIFICATION VIOLATIONS:",
              *[v.detail for v in result.certification.violations],
              sep="\n  ")
        return 1
    if args.out:
        Path(args.out).write_text(
            json.dumps(floorplan_to_dict(plan), indent=1) + "\n")
        print(f"wrote {args.out}")
    if args.ascii:
        print(render_ascii(plan.placements, plan.chip))
    if args.svg:
        Path(args.svg).write_text(render_svg(plan.placements, plan.chip))
        print(f"wrote {args.svg}")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.check.fuzz import fuzz

    report = fuzz(n=args.n, seed=args.seed, time_limit=args.time_limit,
                  shrink_budget=args.shrink_budget,
                  artifact_dir=args.artifact_dir,
                  formulation_axis=not args.no_formulation_axis,
                  outline_axis=not args.no_outline_axis,
                  eco_axis=not args.no_eco_axis)
    text = json.dumps(report.to_dict(), indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    verdict = "agree" if report.ok else "DISAGREE"
    print(f"fuzz seed={report.seed}: {report.n_cases} cases, backends "
          f"{verdict} ({len(report.failures)} failures, "
          f"{report.n_inconclusive} inconclusive)", file=sys.stderr)
    if report.artifacts:
        print("reproducers:", *report.artifacts, sep="\n  ", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import serve

    config = FloorplanConfig(
        backend=args.backend,
        formulation=args.formulation,
        outline=args.outline,
        subproblem_time_limit=args.time_limit,
        cache_dir=args.cache_dir,
        service_workers=args.service_workers,
        service_queue_size=args.queue_size,
        service_default_deadline=args.default_deadline,
        service_execution=args.execution,
    )
    serve(config, host=args.host, port=args.port)
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    config = FloorplanConfig(subproblem_time_limit=args.time_limit)
    if "1" in args.series:
        rows = run_series1(config=config)
        print(format_table(rows, title="Series 1 (Table 1): size scaling"))
        print()
    if "2" in args.series:
        rows = run_series2(base_config=config)
        print(format_table(rows, title="Series 2 (Table 2): objectives x orderings"))
        print()
    if "3" in args.series:
        rows = run_series3(base_config=config)
        print(format_table(rows, title="Series 3 (Table 3): envelopes x routers"))
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-floorplan",
        description="Analytical MILP floorplanner (DAC 1990 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fp = sub.add_parser("floorplan", help="floorplan a benchmark")
    _add_common(p_fp)
    p_fp.add_argument("--envelopes", action="store_true",
                      help="place with routing envelopes")
    p_fp.add_argument("--ascii", action="store_true",
                      help="print an ASCII floorplan")
    p_fp.add_argument("--svg", help="write an SVG floorplan")
    p_fp.add_argument("--plan-json",
                      help="write the full floorplan document here "
                           "(repro.serialize.floorplan_to_dict format — "
                           "the baseline input of the eco subcommand)")
    p_fp.set_defaults(fn=_cmd_floorplan)

    p_rt = sub.add_parser("route", help="floorplan + global route + adjust")
    _add_common(p_rt)
    p_rt.add_argument("--envelopes", action="store_true",
                      help="place with routing envelopes")
    p_rt.add_argument("--router", default="weighted",
                      choices=[m.value for m in RouterMode])
    p_rt.add_argument("--svg", help="write an SVG with routes")
    p_rt.set_defaults(fn=_cmd_route)

    p_bl = sub.add_parser("baseline",
                          help="compare against baseline floorplanners")
    _add_common(p_bl)
    p_bl.add_argument("--method", default="all",
                      choices=["wong-liu", "greedy", "all"])
    p_bl.set_defaults(fn=_cmd_baseline)

    p_tm = sub.add_parser(
        "telemetry",
        help="floorplan a benchmark and emit per-solve telemetry JSON")
    _add_common(p_tm)
    p_tm.add_argument("--envelopes", action="store_true",
                      help="place with routing envelopes")
    p_tm.add_argument("--out", help="write the JSON here (default: stdout)")
    p_tm.set_defaults(fn=_cmd_telemetry)

    p_ck = sub.add_parser(
        "check",
        help="floorplan a benchmark with independent per-step certification "
             "and emit the certification report JSON (exit 1 on violations)")
    _add_common(p_ck)
    p_ck.add_argument("--envelopes", action="store_true",
                      help="place with routing envelopes")
    p_ck.add_argument("--out", help="write the JSON here (default: stdout)")
    p_ck.set_defaults(fn=_cmd_check)

    p_ec = sub.add_parser(
        "eco",
        help="incrementally re-floorplan a saved plan under a netlist "
             "delta (windowed re-solve with escalation; exit 1 on "
             "INFEASIBLE_ECO or a failed re-certification)")
    p_ec.add_argument("plan",
                      help="baseline floorplan JSON "
                           "(repro.serialize.floorplan_to_dict format)")
    p_ec.add_argument("delta",
                      help="netlist delta JSON "
                           "(repro.serialize.delta_to_dict format)")
    p_ec.add_argument("--margin", type=float, default=None,
                      help="level-0 window growth margin "
                           "(default: the baseline config's eco_margin)")
    p_ec.add_argument("--quality-bound", type=float, default=None,
                      help="accepted patched-height multiplier over the "
                           "packing lower bound (default: the baseline "
                           "config's eco_quality_bound)")
    p_ec.add_argument("--max-levels", type=int, default=None,
                      help="windowed escalation rungs before the full "
                           "re-solve (default: the baseline config's "
                           "eco_max_levels)")
    p_ec.add_argument("--certify", action="store_true",
                      help="independently re-certify the patched plan "
                           "(frozen immobility, partition, geometry)")
    p_ec.add_argument("--out", help="write the patched floorplan JSON here")
    p_ec.add_argument("--report",
                      help="write the provenance report JSON here "
                           "(window, escalation rungs, solves avoided)")
    p_ec.add_argument("--ascii", action="store_true",
                      help="print an ASCII floorplan")
    p_ec.add_argument("--svg", help="write an SVG floorplan")
    p_ec.set_defaults(fn=_cmd_eco)

    p_fz = sub.add_parser(
        "fuzz",
        help="differential-fuzz the MILP backends against each other "
             "(exit 1 and write minimized reproducers on disagreement)")
    p_fz.add_argument("--n", type=int, default=25,
                      help="number of random instances")
    p_fz.add_argument("--seed", type=int, default=0, help="fuzz RNG seed")
    p_fz.add_argument("--time-limit", type=float, default=10.0,
                      help="per-solve time limit (seconds)")
    p_fz.add_argument("--shrink-budget", type=int, default=200,
                      help="max solver evaluations spent minimizing a "
                           "failing case")
    p_fz.add_argument("--no-formulation-axis", action="store_true",
                      help="restrict floorplan-shaped cases to the bigm "
                           "encoding (skip the cross-formulation parity "
                           "axis)")
    p_fz.add_argument("--no-outline-axis", action="store_true",
                      help="keep every floorplan-shaped case open-outline "
                           "(skip the fixed-outline height-cap axis)")
    p_fz.add_argument("--no-eco-axis", action="store_true",
                      help="keep every floorplan-shaped case's obstacles "
                           "floor-anchored (skip the ECO-window floating-"
                           "obstacle axis)")
    p_fz.add_argument("--artifact-dir", default=".",
                      help="directory for minimized reproducer JSON files")
    p_fz.add_argument("--out", help="write the report JSON here "
                                    "(default: stdout)")
    p_fz.set_defaults(fn=_cmd_fuzz)

    p_sv = sub.add_parser(
        "serve",
        help="run the floorplanning job service (HTTP/JSON, priority "
             "queue, idempotent submission, shared solve-cache tier)")
    p_sv.add_argument("--host", default="127.0.0.1", help="bind address")
    p_sv.add_argument("--port", type=int, default=8765,
                      help="bind port (0 = ephemeral)")
    p_sv.add_argument("--service-workers", type=int, default=2,
                      help="worker threads draining the job queue")
    p_sv.add_argument("--queue-size", type=int, default=256,
                      help="max queued jobs before submissions get 429")
    p_sv.add_argument("--default-deadline", type=float, default=None,
                      metavar="SECONDS",
                      help="deadline applied to jobs that name none")
    p_sv.add_argument("--execution", default="inline",
                      choices=["inline", "process"],
                      help="run jobs in the worker thread (inline) or in "
                           "a forked child that can die without taking "
                           "the server down (process)")
    # smt is deliberately absent: a server default must accept any job,
    # and the difference-logic backend rejects flexible/wirelength models.
    p_sv.add_argument("--backend", default="highs",
                      choices=["highs", "bnb"],
                      help="default MILP backend for jobs")
    p_sv.add_argument("--formulation", default=DEFAULT_FORMULATION,
                      choices=list(FORMULATIONS),
                      help="default non-overlap encoding for jobs")
    p_sv.add_argument("--outline", type=_parse_outline, default=None,
                      metavar="WxH",
                      help="default fixed die applied to floorplan jobs "
                           "that declare no outline of their own")
    p_sv.add_argument("--time-limit", type=float, default=30.0,
                      help="default per-subproblem MILP time limit")
    p_sv.add_argument("--cache-dir", default=None, metavar="DIR",
                      help="shared on-disk solve-cache directory (default: "
                           "$REPRO_CACHE_DIR, else "
                           "~/.cache/repro-floorplan)")
    p_sv.set_defaults(fn=_cmd_serve)

    p_ex = sub.add_parser("experiments", help="run the paper's series")
    p_ex.add_argument("--series", nargs="+", default=["1", "2", "3"],
                      choices=["1", "2", "3"])
    p_ex.add_argument("--time-limit", type=float, default=20.0)
    p_ex.set_defaults(fn=_cmd_experiments)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
