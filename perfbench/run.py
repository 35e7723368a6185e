"""Benchmark of the floorplanner: four seeded workloads, end-to-end metrics
and a traced per-layer run.

    python3 perfbench/run.py --workload flow-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the workload for ``--seconds`` of timed work and
prints every end-to-end metric of ``BENCHMARK.json``; times are scaled to
a reference machine speed measured with a fixed probe between operations
(:class:`measure.Speed`), and the wall-clock latencies are printed beside
them.  ``--trace 1`` plays
a fixed, seeded list of operations once untimed, once untraced and once
with the layer wrappers of :mod:`tracing` installed, and prints every
per-layer metric.
``--workload all`` runs each workload in its own process.  Every output is
checked; the last line of standard output is the JSON result.  See
README.md for the design.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

STARTED = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
WORKLOADS = ("flow-cold", "plan-warm", "eco-stream", "service-mix")
#: Set-up runs this many times in an untraced run; setup_s is the median.
SETUP_REPEATS = 3
#: The names the issue gives each workload's latency metrics.
LATENCY_NAMES = {"flow-cold": "flow_s", "plan-warm": "plan_s",
                 "eco-stream": "eco_s", "service-mix": "job_s"}


def in_process(args: argparse.Namespace, run_dir: str, import_s: float,
               speed) -> tuple[dict, dict, list]:
    """flow-cold, plan-warm or eco-stream in this process."""
    from measure import end_to_end, growth, layer_metrics, run_ops
    from tracing import Tracer, install, self_times
    from workloads import EcoStream, FlowCold, PlanWarm

    def build(i: int):
        if args.workload == "plan-warm":
            return PlanWarm(args.seed, os.path.join(run_dir, f"cache{i}"))
        return {"flow-cold": FlowCold,
                "eco-stream": EcoStream}[args.workload](args.seed)

    samples = []
    for i in range(1 if args.trace else SETUP_REPEATS):
        speed.sample(3)
        started = time.perf_counter()
        workload = build(i)
        elapsed = time.perf_counter() - started
        speed.sample(3)
        samples.append(speed.scaled(started, elapsed))
    setup_s = import_s + statistics.median(samples)
    # Set-up garbage is not charged to the timed operations.
    gc.collect()

    if not args.trace:
        ops, measured = run_ops(workload.items(), workload.execute,
                                workload.check, speed, seconds=args.seconds,
                                round_size=workload.round_size,
                                before=workload.before)
        metrics, report = end_to_end(ops, measured, setup_s, speed)
        report.update(workload.report(ops))
        return metrics, report, ops

    items = workload.traced_items()
    # One untimed pass first, so that neither timed pass pays first-touch
    # costs and the difference between them is the tracing overhead.
    warm, _ = run_ops(items, workload.execute, workload.check, speed,
                      before=workload.before)
    plain, _ = run_ops(items, workload.execute, workload.check, speed,
                       before=workload.before)
    tracer = Tracer()
    install(tracer)
    try:
        ops, _ = run_ops(items, workload.execute, workload.check, speed,
                         before=workload.before, tracer=tracer)
    finally:
        tracer.restore()
    tracer.dump(os.path.join(WORK, f"spans-{args.workload}.json"))
    threads = tracer.threads()
    metrics = layer_metrics(threads, tracer.counts)
    metrics.update(workload.layer_extras(ops))
    if args.workload == "flow-cold":
        metrics.update(growth(threads, tracer.roots,
                              [op.modules for op in ops],
                              [op.seconds for op in ops]))
    # Spans are wall time, and so is the tracing overhead.
    traced_s = sum(op.wall_s for op in ops)
    plain_s = sum(op.wall_s for op in plain)
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.unattributed_frac"] = self_times(threads)["op"] / traced_s
    return (metrics, {"traced_s": traced_s, "untraced_s": plain_s},
            warm + plain + ops)


def run_one(args: argparse.Namespace) -> int:
    os.environ.pop("REPRO_CACHE_DIR", None)
    sys.path[:0] = [SRC, HERE]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    entries = spec["per_layer" if args.trace else "end_to_end"]
    run_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        import measure
        import service_mix  # imports the program: part of set-up
        import workloads

        import_wall = time.perf_counter() - STARTED
        weights = {"flow-cold": workloads.FlowCold,
                   "plan-warm": workloads.PlanWarm,
                   "eco-stream": workloads.EcoStream,
                   "service-mix": service_mix}[args.workload].PROBE_WEIGHTS
        # The host slows each CPU on its own (probes pinned to the two CPUs
        # of a 2-core machine varied by 2 % and 17 %, uncorrelated, and in
        # one spell one CPU ran interpreted code at half the other's
        # speed), so the run and the processes it starts (the service's
        # server) stay on one CPU, where the speed probe runs too.
        cpu = measure.pin_to_fastest_cpu(weights)
        speed = measure.Speed(weights)
        speed.sample(5)
        import_s = speed.scaled(STARTED, import_wall)
        if args.workload != "service-mix":
            computed, report, ops = in_process(args, run_dir, import_s, speed)
        elif args.trace:
            computed, report, ops = service_mix.run_traced(args.seed, run_dir)
        else:
            computed, report, ops = service_mix.run(
                args.seed, args.seconds, run_dir, SETUP_REPEATS, import_s,
                speed)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    report["cpu"] = cpu

    unknown = set(computed) - {e["name"] for e in entries}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # A layer a workload does not reach reads 0 (routing on plan-warm, for
    # example): that is the prediction, not a gap.
    metrics = {e["name"]: 0 for e in entries} if args.trace else {}
    metrics.update(computed)

    failed = [op for op in ops if not op.ok]
    for entry in entries:
        print(f"{entry['name']} = {metrics[entry['name']]:.6g} {entry['unit']}")
    if not args.trace:
        alias = LATENCY_NAMES[args.workload]
        print(f"{alias}.p50 = {metrics['latency_s.p50']:.6g} s")
        print(f"{alias}.tail = {metrics['latency_s.tail']:.6g} s "
              f"(p{report['tail_percentile']:.1f} of {report['samples']} "
              f"samples)")
    for key, value in report.items():
        print(f"{key} = {json.dumps(value)}")
    for op in failed[:5]:
        print(f"failed: {op.problem}")
    with open(os.path.join(WORK, f"last-{args.workload}-trace{args.trace}"
                                 ".json"), "w") as fh:
        json.dump({"seed": args.seed, "metrics": metrics, "report": report},
                  fh, indent=1)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]}
                    for e in entries},
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{workload}/{name}": value
             for name, value in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
