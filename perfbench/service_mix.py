"""The service-mix workload: the job service in its own process, driven
over HTTP from one generator thread.

The server is ``repro-floorplan serve`` with its default two inline
workers and an on-disk cache directory; it runs in its own process
because in-process the generator and the server would share one GIL.  The
generator runs an open loop: 6-12-module floorplan jobs fall due at a
fixed offered rate, in an order the seed picks, and each is timed from
when it was due until its result was available, so a stall also delays
the jobs queued behind it.
Most jobs are new instances; some are exact duplicates, which the
request-level dedup absorbs, and some are ``force`` re-runs, which the
solve cache serves.  Each instance's first submission is due before its
duplicates and re-runs, and a re-run is sent only once the original has
finished, so the dedup and cache counts repeat exactly.  ``/v1/stats`` is
scraped on the same schedule.  A short step search over higher rates then
finds the highest rate the server sustains, and a burst of new jobs, all
due at once, measures how many modules per second the saturated server
completes.  The generator probes the machine's speed while the server is
idle, and the gated figures of the fixed-rate phase are rescaled to the
reference speed (see :class:`measure.Speed`): the latencies, and modules
per second of worker time.  The saturated figures are reported on the wall
clock only, because no probe can run beside a busy server without taking
its CPU.
"""

from __future__ import annotations

import json
import math
import os
import random
import signal
import socket
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any

from repro.check import check_floorplan
from repro.netlist import random_netlist
from repro.serialize import floorplan_from_dict, netlist_to_dict

from measure import Op, Speed, end_to_end, layer_metrics, tail
from tracing import durations, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Offered job rate of the fixed-rate phase (jobs/s): well under what the
#: default two-worker server sustains on the one CPU a run keeps to (about
#: 11 jobs/s), so jobs queue now and then but the backlog does not grow.
RATE = 4.0
#: A rate is sustainable while every job succeeds, latency_s.tail stays
#: under this (s), and the queue is empty again when the last job is due.
#: It is several times the median job time at :data:`RATE`, so only a
#: backlog, not one slow job, breaks it.
LATENCY_LIMIT = 1.0
#: Each capacity step multiplies the rate by this and offers it this long.
STEP_FACTOR = 1.4
STEP_SECONDS = 2.0
MAX_STEPS = 6
#: New jobs of the saturation burst, all due at once.
BURST_JOBS = 42
#: Seconds between ``/v1/stats`` scrapes.
STATS_EVERY = 0.5
#: In the fixed-rate phase the generator probes the machine's speed this
#: far into each slot, three times.  Jobs take 0.05-0.1 s at :data:`RATE`,
#: so the server is idle then and the probe times the machine, not the
#: server.  The first probe after the generator's sleep ran cold (up to 1.7
#: times the probe's time in a closed loop), so an untimed one goes first.
PROBE_AT = 0.6
#: Probes taken once every job of a probed phase has ended.
IDLE_PROBES = 10
#: Slots between an instance's first submission and its repeats: longer
#: than a job takes at :data:`RATE`, so a re-run seldom waits for its
#: original.
MIN_GAP = 4
#: The kinds of twenty consecutive slots: 70 % new instances, 15 % exact
#: duplicates and 15 % re-runs.  Most jobs are new, so the solver does most
#: of the work; the repeats are split evenly between the request dedup and
#: the solve cache.  The pattern is the same for every seed: drawn per
#: slot, the count of fast repeats among 40 jobs varied by seed and moved
#: the median job time with it.
KINDS = ("new", "new", "new", "new", "dup", "new", "new", "force", "new",
         "new", "new", "dup", "new", "new", "force", "new", "new", "dup",
         "force", "new")
#: The config every job sends: the small augmentation steps of the
#: repository's own service load test (benchmarks/bench_service.py).  On
#: 42 such jobs planned in-process, the default steps took a median of
#: 0.34 s and up to 2.6 s a job; these steps took 0.09 s and up to 0.39 s,
#: so no single draw holds a worker long enough to decide a run's latency.
JOB_CONFIG = {"seed_size": 3, "group_size": 2}
#: Shares of a job's time in each kind of code (see :class:`measure.Speed`):
#: HiGHS about half, presolve's sparse kernels a sixth, the rest the
#: interpreted layers and the HTTP service.
PROBE_WEIGHTS = {"interpreted": 0.35, "highs": 0.5, "numpy": 0.15}
#: Slots the traced run plays, once against each server.
TRACED_SLOTS = 30
#: New instances per :data:`KINDS` cycle: the seed shuffles the instances
#: within blocks of this many, so a phase of whole cycles sends the same
#: instances whatever the seed.
BLOCK = KINDS.count("new")
#: The burst's instances are numbered from here, apart from the others, so
#: they do not depend on how far the step search went.
BURST_BASE = 100_000
#: Longest wait for the jobs of one phase to finish (s).
SETTLE_SECONDS = 90.0

# Requests go straight to the local server, whatever proxy the
# environment names.
_OPENER = urllib.request.build_opener(urllib.request.ProxyHandler({}))


def call(url: str, doc: dict | None = None,
         timeout: float = 60.0) -> tuple[int, dict]:
    """One JSON request (a POST when ``doc`` is given); returns the status
    code and the decoded body."""
    data = None if doc is None else json.dumps(doc).encode()
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"})
    try:
        with _OPENER.open(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """A job server in its own process, with a fresh cache directory:
    ``repro-floorplan serve``, or the traced launcher."""

    def __init__(self, work_dir: str, tag: str, traced: bool = False) -> None:
        self.cache_dir = os.path.join(work_dir, f"cache-{tag}")
        self.spans_path = os.path.join(work_dir, f"spans-{tag}.json")
        port = _free_port()
        if traced:
            command = [sys.executable, os.path.join(HERE, "serve_traced.py"),
                       "--port", str(port), "--cache-dir", self.cache_dir,
                       "--spans", self.spans_path]
        else:
            command = [sys.executable, "-m", "repro.cli", "serve",
                       "--port", str(port), "--cache-dir", self.cache_dir]
        env = {k: v for k, v in os.environ.items() if k != "REPRO_CACHE_DIR"}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p)
        self.log = open(os.path.join(work_dir, f"server-{tag}.log"), "w")
        self.proc = subprocess.Popen(command, stdout=self.log,
                                     stderr=subprocess.STDOUT, env=env)
        self.url = f"http://127.0.0.1:{port}"
        deadline = time.monotonic() + 60.0
        while True:
            try:
                if call(self.url + "/v1/health", timeout=5.0)[0] == 200:
                    return
            except OSError:
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"server {tag!r} did not come up")
            time.sleep(0.05)

    def stop(self) -> None:
        """Interrupt the server (the launcher then writes its spans) and
        wait for the process to end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def instances(seed: int, count: int,
              base: int = 0) -> list[dict[str, Any]]:
    """``count`` floorplan submissions of 6-12 modules each: the netlists
    numbered from ``base``, the same for every seed, in an order the seed
    shuffles within each :data:`BLOCK`.  The sizes cycle, so every block
    has the same mix of sizes.  With netlists drawn per seed, the median
    job time of three seeds ranged from 0.039 to 0.055 s: 28 new jobs do
    not average out how hard single instances are to plan."""
    rng = random.Random(seed)
    order: list[int] = []
    for start in range(0, count, BLOCK):
        block = list(range(start, min(count, start + BLOCK)))
        rng.shuffle(block)
        order += block
    return [{"kind": "floorplan",
             "netlist": netlist_to_dict(random_netlist(
                 6 + k % 7, seed=base + k, name=f"job{base + k}")),
             "config": dict(JOB_CONFIG)}
            for k in order]


def schedule(rng: random.Random, slots: int,
             first: int) -> list[tuple[str, int]]:
    """``slots`` submissions as ``(kind, instance)``, the kinds following
    :data:`KINDS`: ``"new"`` sends an instance for the first time,
    ``"dup"`` resends an earlier one verbatim and ``"force"`` re-runs an
    earlier one, drawn from those first sent at least :data:`MIN_GAP`
    slots before.  New instances are numbered from ``first``."""
    out: list[tuple[str, int]] = []
    firsts: list[tuple[int, int]] = []
    for slot in range(slots):
        ready = [inst for at, inst in firsts if at <= slot - MIN_GAP]
        kind = KINDS[slot % len(KINDS)]
        if kind == "new" or not ready:
            firsts.append((slot, first + len(firsts)))
            out.append(("new", firsts[-1][1]))
        else:
            out.append((kind, rng.choice(ready)))
    return out


def _next_instance(slots: list[tuple[str, int]]) -> int:
    return 1 + max(inst for kind, inst in slots if kind == "new")


@dataclass
class Sent:
    """One submission: when it was due (wall clock and ``perf_counter``),
    how late the generator sent it, when the server answered (wall clock),
    and the answer."""

    kind: str
    instance: int
    due: float
    due_perf: float
    late: float
    acked: float
    code: int
    job_id: str | None


@dataclass
class Phase:
    """One open-loop phase: an :class:`Op` per submission, every job's
    final status document, and the queue lengths the scrapes saw."""

    ops: list[Op]
    status: dict[str, dict]
    backlog: list[int] = field(default_factory=list)

    def job_times(self, start: str, end: str) -> list[float]:
        return [doc[end] - doc[start] for doc in self.status.values()
                if doc.get("status") == "done"]

    def tail(self) -> float:
        latencies = [op.seconds for op in self.ops if op.ok]
        return tail(latencies)[0] if latencies else float("inf")

    def throughput(self) -> float:
        """Modules of successful jobs per wall-clock second, from when the
        first job was due until the last result was available."""
        done = [op for op in self.ops if op.ok]
        if not done:
            return 0.0
        start = min(op.start for op in self.ops)
        end = max(op.start + op.wall_s for op in done)
        return sum(op.modules for op in done) / (end - start)

    def worker_rate(self, speed: Speed) -> float:
        """Modules per second of worker time at the reference speed, over
        the distinct jobs that ran (a duplicate shares its original's
        job)."""
        jobs = {op.info["job"]: op for op in self.ops if op.ok}
        busy = sum(speed.scaled(*op.info["run"]) for op in jobs.values())
        return sum(op.modules for op in jobs.values()) / busy if busy else 0.0

    def sustained(self) -> bool:
        return (all(op.ok for op in self.ops)
                and self.tail() <= LATENCY_LIMIT
                and (self.backlog[-1] if self.backlog else 0) <= 1)


def drive(url: str, slots: list[tuple[str, int]], docs: list[dict],
          rate: float, speed: Speed | None = None
          ) -> tuple[list[Sent], dict[int, str], list[int]]:
    """Send ``slots`` at ``rate`` from this thread, with a ``/v1/stats``
    scrape every :data:`STATS_EVERY` seconds on the same schedule, and
    with a ``speed`` at a finite rate three probes :data:`PROBE_AT` into
    each slot.
    Returns what was sent, each instance's first job, and the queue
    lengths the scrapes saw."""
    span = len(slots) / rate
    events = sorted([(i / rate, 1, i) for i in range(len(slots))]
                    + [(k * STATS_EVERY, 0, k)
                       for k in range(int(span / STATS_EVERY) + 1)]
                    + [((i + PROBE_AT) / rate, 2, i)
                       for i in range(len(slots) if speed and span else 0)])
    sent: list[Sent] = []
    first_job: dict[int, str] = {}
    backlog: list[int] = []
    origin, wall_origin = time.perf_counter(), time.time()
    for due, event, index in events:
        delay = due - (time.perf_counter() - origin)
        if delay > 0:
            time.sleep(delay)
        if event == 0:
            code, stats = call(url + "/v1/stats")
            if code == 200:
                backlog.append(stats["queued_now"])
            continue
        if event == 2:
            speed.sample(3, warm=True)
            continue
        kind, instance = slots[index]
        doc = docs[instance]
        if kind == "force":
            # A re-run is served from the solve cache only once the
            # original has finished; waiting for it shows up as lateness.
            if instance in first_job:
                call(f"{url}/v1/jobs/{first_job[instance]}?wait=60",
                     timeout=90.0)
            doc = dict(doc, force=True)
        late = time.perf_counter() - origin - due
        code, body = call(url + "/v1/jobs", doc)
        acked = wall_origin + (time.perf_counter() - origin)
        job_id = body.get("job_id") if code == 202 else None
        if kind == "new" and job_id is not None:
            first_job[instance] = job_id
        sent.append(Sent(kind, instance, wall_origin + due, origin + due,
                         late, acked, code, job_id))
    return sent, first_job, backlog


def _run_interval(doc: dict, sent: Sent) -> tuple[float, float]:
    """A done job's run on the ``perf_counter`` clock: its start and its
    wall seconds, from the server's status document."""
    if doc.get("status") != "done":
        return sent.due_perf, 0.0
    return (doc["started_at"] - sent.due + sent.due_perf,
            doc["finished_at"] - doc["started_at"])


def play(url: str, slots: list[tuple[str, int]], docs: list[dict],
         rate: float, speed: Speed | None = None) -> Phase:
    """One open-loop phase, then its output checks (untimed): every job is
    done, its plan rebuilt with ``floorplan_from_dict`` passes
    ``check_floorplan``, and duplicates and re-runs return the original
    job's placements.  ``speed`` probes during the phase (see
    :func:`drive`) and :data:`IDLE_PROBES` times once every job has
    ended."""
    sent, first_job, backlog = drive(url, slots, docs, rate, speed)
    deadline = time.monotonic() + SETTLE_SECONDS
    status: dict[str, dict] = {}
    for s in sent:
        if s.job_id is None or s.job_id in status:
            continue
        wait = max(0.0, deadline - time.monotonic())
        code, doc = call(f"{url}/v1/jobs/{s.job_id}?wait={wait:.1f}",
                         timeout=wait + 30.0)
        status[s.job_id] = doc if code == 200 else {"status": f"HTTP {code}"}
    if speed is not None:
        speed.sample(IDLE_PROBES, warm=True)

    plans: dict[str, tuple] = {}
    for job_id, doc in status.items():
        if doc.get("status") != "done":
            continue
        code, body = call(f"{url}/v1/jobs/{job_id}/result")
        if code != 200:
            continue
        document = body["result"]["floorplan"]
        plan = floorplan_from_dict(document)
        plans[job_id] = (document["placements"], len(plan.placements),
                         plan.utilization, check_floorplan(plan).ok)

    ops = []
    for s in sent:
        doc = status.get(s.job_id, {})
        plan = plans.get(s.job_id)
        original = plans.get(first_job.get(s.instance))
        if s.code != 202:
            problem = f"HTTP {s.code}"
        elif doc.get("status") != "done":
            problem = f"job ended {doc.get('status')}"
        elif plan is None or not plan[3]:
            problem = "the job's plan fails check_floorplan"
        elif original is None or plan[0] != original[0]:
            problem = "placements differ from the original job's"
        else:
            problem = ""
        # Wall time here; run() rescales it once the probes are in.
        seconds = max(doc["finished_at"], s.acked) - s.due \
            if doc.get("status") == "done" else 0.0
        ops.append(Op(seconds=seconds, modules=plan[1] if plan else 0,
                      util=plan[2] if plan else 0.0, problem=problem,
                      info={"late": s.late, "job": s.job_id,
                            "run": _run_interval(doc, s)},
                      start=s.due_perf,
                      wall_s=seconds))
    return Phase(ops, status, backlog)


def _warm_up(server: Server) -> None:
    """One job the schedule never sends, so lazy imports are not timed."""
    doc = {"kind": "floorplan", "netlist": netlist_to_dict(
        random_netlist(8, seed=BURST_BASE - 1, name="warmup")),
           "config": dict(JOB_CONFIG)}
    code, body = call(server.url + "/v1/jobs", doc)
    if code == 202:
        call(f"{server.url}/v1/jobs/{body['job_id']}?wait=60", timeout=90.0)


def run(seed: int, seconds: float, work_dir: str, repeats: int,
        import_s: float, speed: Speed) -> tuple[dict, dict, list[Op]]:
    """The untraced run: ``seconds`` of offered load at :data:`RATE`, then
    the capacity step search and the saturation burst.  Set-up (server
    boot and one warm-up job) is repeated ``repeats`` times.  ``speed``
    probes the machine while the server is idle (around set-up and within
    the fixed-rate phase's slots); the gated figures come from the
    fixed-rate phase, rescaled to the reference speed at the end, while
    the step search judges wall time against the latency limit as it goes
    and the burst reports wall time."""
    fixed_slots = max(1, round(RATE * seconds))
    step_slots = [max(10, round(RATE * STEP_FACTOR ** (k + 1) * STEP_SECONDS))
                  for k in range(MAX_STEPS)]
    server = None
    try:
        speed.sample(3)
        started = time.perf_counter()
        docs = instances(seed, fixed_slots + sum(step_slots))
        burst_docs = instances(seed, BURST_JOBS, BURST_BASE)
        generated = (started, time.perf_counter() - started)
        boots: list[tuple[float, float]] = []
        for i in range(repeats):
            if server is not None:
                server.stop()
            speed.sample(3)
            started = time.perf_counter()
            server = Server(work_dir, f"boot{i}")
            _warm_up(server)
            boots.append((started, time.perf_counter() - started))
            speed.sample(3)

        rng = random.Random(seed)
        slots = schedule(rng, fixed_slots, 0)
        fixed = play(server.url, slots, docs, RATE, speed)
        next_instance = _next_instance(slots)
        best = RATE if fixed.sustained() else 0.0
        rate, steps, step_ops = RATE, [], []
        for n in (step_slots if best else ()):
            rate *= STEP_FACTOR
            slots = schedule(rng, n, next_instance)
            next_instance = _next_instance(slots)
            phase = play(server.url, slots, docs, rate)
            step_ops += phase.ops
            steps.append({"rate": rate, "tail_s": phase.tail(),
                          "backlog_end": phase.backlog[-1:],
                          "sustained": phase.sustained()})
            if not phase.sustained():
                break
            best = rate
        burst_slots = [("new", k) for k in range(BURST_JOBS)]
        burst = play(server.url, burst_slots, burst_docs, math.inf)
    finally:
        if server is not None:
            server.stop()

    setup_s = import_s + speed.scaled(*generated) + statistics.median(
        speed.scaled(*boot) for boot in boots)
    for op in fixed.ops:
        op.seconds = speed.scaled(op.start, op.wall_s)
    metrics, report = end_to_end(fixed.ops, 0.0, setup_s, speed,
                                 throughput=fixed.worker_rate(speed))
    late = [op.info["late"] for op in fixed.ops]
    report.update({
        "max_jobs_per_s": best,
        "fixed_rate_jobs_per_s": RATE,
        "latency_limit_s": LATENCY_LIMIT,
        "generator_late_s": {"p50": statistics.median(late),
                             "max": max(late)},
        "capacity_steps": steps,
        "burst_jobs": BURST_JOBS,
        "burst_wall_modules_per_s": burst.throughput(),
    })
    return metrics, report, fixed.ops + step_ops + burst.ops


def run_traced(seed: int, work_dir: str) -> tuple[dict, dict, list[Op]]:
    """The traced run: one fixed schedule of :data:`TRACED_SLOTS` jobs
    against a plain server, then against the traced launcher, each after
    the same warm-up job."""
    docs = instances(seed, TRACED_SLOTS)
    slots = schedule(random.Random(seed), TRACED_SLOTS, 0)
    passes = []
    for traced in (False, True):
        server = Server(work_dir, "traced" if traced else "plain",
                        traced=traced)
        try:
            _warm_up(server)
            phase = play(server.url, slots, docs, RATE)
            stats = call(server.url + "/v1/stats")[1]
        finally:
            server.stop()
        passes.append((phase, stats, server.spans_path))

    (plain, _stats, _path), (phase, stats, spans_path) = passes
    with open(spans_path) as fh:
        recorded = json.load(fh)
    threads = recorded["threads"]
    metrics = layer_metrics(threads, recorded["counts"])
    run_s = phase.job_times("started_at", "finished_at")
    metrics.update({
        "service.queue_wait_s": statistics.median(
            phase.job_times("created_at", "started_at")),
        "service.run_s": statistics.median(run_s),
        "service.dedup_ratio": stats["deduplicated"] / stats["submissions"],
        "service.deduplicated": stats["deduplicated"],
        "service.backlog_max": max(phase.backlog, default=0),
        "service.generator_late_s": max(op.info["late"] for op in phase.ops),
        "trace.overhead_s": sum(run_s) - sum(
            plain.job_times("started_at", "finished_at")),
        "trace.unattributed_frac": self_times(threads)["service.run"]
        / max(durations(threads, "service.run"), 1e-12),
    })
    report = {"submissions": stats["submissions"],
              "executed": stats["executed"]}
    return metrics, report, plain.ops + phase.ops
