"""The in-process workloads: flow-cold, plan-warm and eco-stream.

Each class builds its inputs from the seed in its constructor (timed as
set-up) and hands :func:`measure.run_ops` its ``items``, ``round_size``,
``before``, ``execute`` and ``check``; ``PROBE_WEIGHTS`` weighs the speed
probe (:class:`measure.Speed`).  ``traced_items`` is the fixed list the
traced run plays, so the traced counts repeat exactly.
"""

from __future__ import annotations

import itertools
import random
import statistics
from collections import Counter
from typing import Any, Iterator

import repro.core.eco as eco_module
from repro.check import check_eco, check_floorplan, check_placements
from repro.core import (ECO_PATCHED, FloorplanConfig, Floorplanner,
                        NetlistDelta, eco_window)
from repro.milp.cache import get_cache
from repro.netlist import (Module, Net, ami33_like, apte_like, hp_like,
                           random_netlist, xerox_like)
from repro.routing import RouterMode, Technology, route_and_adjust

from measure import Op

#: Generated instances take seeds ``seed * STRIDE + k``, so instances of
#: different benchmark seeds never coincide.
STRIDE = 1_000_003
#: Every workload plans with small augmentation steps, a 3-module seed and
#: groups of 2, as the repository's service load test does.  With the
#: default 6 and 4, one random 10-module netlist took up to 4 s to plan
#: against a median of 0.4 s, and such draws set a seed's throughput; the
#: small steps also halve the cold plans of the plan-warm and eco-stream
#: set-ups (2.3 s against 4.8 s for seven netlists of 15-40 modules).
SMALL_STEPS = {"seed_size": 3, "group_size": 2}


def _same_geometry(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        (p.rect, p.envelope, p.rotated)
        == (b[name].rect, b[name].envelope, b[name].rotated)
        for name, p in a.items())


class FlowCold:
    """The paper's full flow, one netlist at a time: ``Floorplanner.run``
    with around-the-cell technology and envelopes, then
    ``route_and_adjust`` with the weighted router.  The memory-only solve
    cache is cleared before each netlist, so every netlist is new to it.

    The timed loop plays whole rounds of the same :attr:`ROUND` netlists, so
    every commit measures the same mix and the tail has at least ten
    samples beyond it.

    With the small augmentation steps (:data:`SMALL_STEPS`) routing does
    about three quarters of the work.
    """

    #: One round: the four MCNC-like fixtures and twenty seeded random
    #: netlists of 8-30 modules, interleaved so that large and small ones
    #: alternate.  Sizes in FLEXIBLE get a quarter of their modules flexible.
    #: Two netlists each of 14-17 modules put the median and the tail (the
    #: 12th-13th and the 11th largest of 24 times) among netlists of about
    #: the same cost: with one netlist per size, the tail fell between
    #: 17 and 16 modules, where times drop by a fifth from one netlist to
    #: the next, and its spread over ten seeds was 0.18 of its median.
    ROUND = ("apte", 30, 11, 8, 17, 22, "xerox", 9, 14, 20, 16, 26,
             "ami33", 10, 16, 13, 15, 19, "hp", 17, 15, 18, 12, 14)
    FLEXIBLE = frozenset({11, 15, 22})
    FIXTURES = {"apte": apte_like, "xerox": xerox_like, "hp": hp_like,
                "ami33": ami33_like}
    #: The timed loop stops only between whole rounds.
    round_size = len(ROUND)
    #: Shares of time in each kind of code (see :class:`measure.Speed`):
    #: routing is interpreted and about three quarters of the flow, HiGHS
    #: 15 % and presolve's sparse kernels 5 %.
    PROBE_WEIGHTS = {"interpreted": 0.8, "highs": 0.15, "numpy": 0.05}

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.config = FloorplanConfig(use_envelopes=True,
                                      technology=Technology.around_the_cell(),
                                      **SMALL_STEPS)
        self.cache = get_cache(None)
        self.round = [
            self.FIXTURES[entry]() if isinstance(entry, str) else
            random_netlist(entry, seed=seed * STRIDE + position,
                           flexible_fraction=0.25 if entry in self.FLEXIBLE
                           else 0.0, name=f"flow{entry}_{position}")
            for position, entry in enumerate(self.ROUND)]
        # One small flow first, the same for every seed, so lazy imports
        # are not timed.
        warmup = random_netlist(6, seed=0, name="warmup")
        self.check(warmup, self.execute(warmup))
        self.cache.clear()

    def items(self) -> Iterator:
        return itertools.cycle(self.round)

    def traced_items(self) -> list:
        # Every other netlist: the four fixtures and eight random ones.
        return self.round[::2]

    def before(self, netlist) -> None:
        self.cache.clear()

    def execute(self, netlist):
        plan = Floorplanner(netlist, self.config).run()
        routed = route_and_adjust(plan.placements, plan.chip, netlist,
                                  self.config.technology,
                                  mode=RouterMode.WEIGHTED)
        return plan, routed

    def check(self, netlist, result) -> Op:
        plan, routed = result
        routing = routed.routing
        problem = ""
        if not check_floorplan(plan).ok:
            problem = "the plan fails check_floorplan"
        elif not check_placements(list(routed.placements.values()),
                                  routed.chip).ok:
            problem = "the routed plan fails check_placements"
        elif routing.failed_nets or routing.n_routed != len(netlist.nets):
            problem = f"{len(netlist.nets) - routing.n_routed} nets unrouted"
        return Op(modules=len(netlist), util=routed.utilization(),
                  problem=problem,
                  info={"wirelength": routed.wirelength,
                        "nets": routing.n_routed,
                        "overflow": routing.total_overflow})

    @staticmethod
    def report(ops: list[Op]) -> dict[str, Any]:
        done = [op for op in ops if op.ok]
        nets = sum(op.info["nets"] for op in done)
        wirelength = sum(op.info["wirelength"] for op in done)
        return {"wl_per_net": wirelength / nets if nets else 0.0}

    @staticmethod
    def layer_extras(ops: list[Op]) -> dict[str, float]:
        return {"routing.overflow": sum(op.info.get("overflow", 0.0)
                                        for op in ops)}


class PlanWarm:
    """Floorplan-only replay from the on-disk solve cache.

    Set-up plans a seeded set of 15-40-module netlists once into a fresh
    cache directory.  Each replay clears the in-memory tier first, as a
    fresh process reading the shared disk tier would start: CI reruns,
    width-search workers, process-mode service children.
    """

    #: Every netlist is replayed equally often, so the median replay falls
    #: among the middle netlists of the round and the tail among the
    #: largest.  With six sizes, one each, the median fell between the
    #: third and fourth netlist, whose replay times differ by a fifth, and
    #: its spread over ten seeds was 0.09 of its median; three netlists of
    #: 25 modules in a round of seven put it among them.
    SIZES = (15, 20, 25, 25, 25, 30, 40)
    #: The timed loop stops only between whole shuffled rounds.
    round_size = len(SIZES)
    #: No solver runs: interpreted layers, with NumPy in the cache key, the
    #: formulation's blocks and the hit re-certification.
    PROBE_WEIGHTS = {"interpreted": 0.7, "numpy": 0.3}

    def __init__(self, seed: int, cache_dir: str) -> None:
        self.seed = seed
        self.config = FloorplanConfig(cache_dir=cache_dir, **SMALL_STEPS)
        self.cache = get_cache(cache_dir)
        self.netlists = [random_netlist(n, seed=seed * STRIDE + k,
                                        name=f"warm{n}_{k}")
                         for k, n in enumerate(self.SIZES)]
        self.plans = [Floorplanner(netlist, self.config).run()
                      for netlist in self.netlists]
        self._stats = (0, 0, 0)

    def items(self) -> Iterator[int]:
        rng = random.Random(self.seed)
        while True:
            order = list(range(len(self.netlists)))
            rng.shuffle(order)
            yield from order

    def traced_items(self) -> list[int]:
        return list(itertools.islice(self.items(), 2 * len(self.SIZES)))

    def before(self, index: int) -> None:
        self.cache.clear()
        stats = self.cache.stats
        self._stats = (stats.hits, stats.misses, stats.rejected)

    def execute(self, index: int):
        return Floorplanner(self.netlists[index], self.config).run()

    def check(self, index: int, plan) -> Op:
        stats = self.cache.stats
        hits = stats.hits - self._stats[0]
        misses = stats.misses - self._stats[1]
        rejected = stats.rejected - self._stats[2]
        steps = plan.trace.n_steps
        problem = ""
        if misses or rejected:
            problem = f"{misses} cache misses, {rejected} rejected hits"
        elif plan.trace.cache_hits != steps or hits != steps + 1:
            problem = "a step or the legalization LP was not a cache hit"
        elif not _same_geometry(plan.placements,
                                self.plans[index].placements):
            problem = "placements differ from the set-up plan"
        return Op(modules=len(plan.placements), util=plan.utilization,
                  problem=problem)

    @staticmethod
    def report(ops: list[Op]) -> dict[str, Any]:
        return {}

    @staticmethod
    def layer_extras(ops: list[Op]) -> dict[str, float]:
        return {}


class EcoStream:
    """A seeded stream of independent ECO deltas (shrink, grow, remove,
    add) applied to baseline plans through ``solve_eco``.

    Set-up plans :attr:`BASELINES` 40-module netlists; the stream gives
    each baseline a whole :attr:`CYCLE` in turn.  One baseline per run
    made the run's figures depend on that one plan, so a run averages over
    several.  The baselines are the same for every benchmark seed, which
    picks the deltas: with baselines drawn per seed, the median delta time
    of four seeds ranged from 0.020 to 0.032 s, because how hard a
    baseline's windows are to solve varies more from plan to plan than
    four plans average out.

    Each slot of the cycle names a kind and the size of the delta's
    level-0 window (0 for a removal, which solves nothing; an addition's
    window is the new module alone), and the stream draws deltas until
    one matches, with a level-1 window of at most :attr:`LEVEL1_CAP`
    modules.  Every seed then sends the same mix of window sizes, whose
    rung times differ widely (medians of 0.017 s at 1 module, 0.039 s at
    2-3 and 0.076 s at 4-5 in one traced round), so the seed does not
    move the mix of work.  Windows stay small because a
    windowed rung of 8-10 modules can stop on the 30 s time limit, and a
    limit stop costs its full budget on every commit while its incumbent
    depends on machine speed; rungs of 5 modules took up to 0.4 s and
    alone decided a run's tail.
    """

    SIZE = 40
    BASELINES = 4
    CYCLE = (("shrink", 3), ("add", 1), ("grow", 3), ("remove", 0),
             ("shrink", 4), ("grow", 4), ("add", 1), ("shrink", 4))
    LEVEL1_CAP = 5
    #: Windowed rungs are accepted up to this multiple of the packing floor.
    #: At the default 1.5, up to a fifth of the resize deltas of a seed
    #: missed it by a little and fell back to a 40-module cold re-solve,
    #: 20-30 times the cost of a windowed rung, so the count of fallbacks
    #: alone set the seed's throughput.
    QUALITY_BOUND = 2.0
    #: The timed loop stops only after every baseline had a whole cycle.
    round_size = len(CYCLE) * BASELINES
    #: HiGHS is about two thirds of a delta's time, presolve's sparse
    #: kernels a sixth.
    PROBE_WEIGHTS = {"interpreted": 0.2, "highs": 0.65, "numpy": 0.15}

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.config = FloorplanConfig(eco_quality_bound=self.QUALITY_BOUND,
                                      **SMALL_STEPS)
        self.cache = get_cache(None)
        netlists = [random_netlist(self.SIZE, seed=b,
                                   name=f"eco{self.SIZE}_{b}")
                    for b in range(self.BASELINES)]
        # Every set-up repeat solves the baselines cold.
        self.cache.clear()
        self.baselines = [Floorplanner(netlist, self.config).run()
                          for netlist in netlists]
        self.typical_areas = [
            sorted(m.width * m.height for m in netlist.modules)[
                len(netlist.modules) // 2] for netlist in netlists]

    def items(self) -> Iterator[tuple[str, int, NetlistDelta]]:
        rng = random.Random(self.seed)
        for k in itertools.count():
            kind, size = self.CYCLE[k % len(self.CYCLE)]
            b = k // len(self.CYCLE) % self.BASELINES
            # A baseline with no module of the wanted window size gets the
            # first draw whose windows stay within the size and the cap.
            fallback = None
            for _attempt in range(200):
                delta = self._delta(kind, b, k, rng)
                level0, level1 = (
                    len(eco_window(self.baselines[b], delta, self.config,
                                   level)) for level in (0, 1))
                if level1 > self.LEVEL1_CAP or level0 > size:
                    continue
                if level0 == size:
                    break
                fallback = fallback or delta
            else:
                if fallback is None:
                    kind, fallback = "add", self._delta("add", b, k, rng)
                delta = fallback
            yield kind, b, delta

    def traced_items(self) -> list:
        return list(itertools.islice(self.items(), self.round_size))

    def _delta(self, kind: str, b: int, k: int,
               rng: random.Random) -> NetlistDelta:
        netlist = self.baselines[b].netlist
        module = netlist.module(rng.choice(netlist.module_names))
        if kind == "shrink":
            return NetlistDelta(resized={module.name: (
                module.width * rng.uniform(0.8, 0.95), module.height)})
        if kind == "grow":
            return NetlistDelta(resized={module.name: (
                module.width * rng.uniform(1.02, 1.08), module.height)})
        if kind == "remove":
            return NetlistDelta(removed=(module.name,))
        area = self.typical_areas[b] * rng.uniform(0.5, 1.0)
        width = (area * rng.uniform(1.0, 2.0)) ** 0.5
        added = Module.rigid(f"eco{k}", width, area / width)
        return NetlistDelta(added=(added,), added_nets=(
            Net(f"eco_net{k}", (added.name, module.name)),))

    def before(self, item) -> None:
        self.cache.clear()

    def execute(self, item):
        _kind, b, delta = item
        return eco_module.solve_eco(self.baselines[b], delta, self.config)

    def check(self, item, result) -> Op:
        kind, b, delta = item
        info = {"kind": kind, "avoided": result.solves_avoided,
                "attempts": [a.to_dict() for a in result.attempts]}
        if result.status != ECO_PATCHED or result.plan is None:
            return Op(problem=f"ECO status {result.status}", info=info)
        report = check_eco(self.baselines[b], delta, result)
        problem = "" if report.ok else \
            f"check_eco: {report.violations[0].detail}"
        return Op(modules=len(result.plan.placements),
                  util=result.plan.utilization, problem=problem, info=info)

    @staticmethod
    def report(ops: list[Op]) -> dict[str, Any]:
        by_size: dict[int, list[float]] = {}
        for op in ops:
            for attempt in op.info.get("attempts", ()):
                if attempt["kind"] == "window":
                    by_size.setdefault(len(attempt["window"]), []).append(
                        attempt["wall_seconds"])
        return {
            "deltas": dict(Counter(op.info.get("kind") for op in ops)),
            "rung_s_by_window": {
                size: {"rungs": len(times), "p50": statistics.median(times),
                       "max": max(times)}
                for size, times in sorted(by_size.items())},
        }

    #: Median windowed-rung time, bucketed by window size.
    BUCKETS = (("eco.rung_s.w1", 1, 1), ("eco.rung_s.w2-3", 2, 3),
               ("eco.rung_s.w4-5", 4, 5), ("eco.rung_s.w6plus", 6, 10**9))

    @classmethod
    def layer_extras(cls, ops: list[Op]) -> dict[str, float]:
        attempts = [a for op in ops for a in op.info.get("attempts", ())]
        windows = [a for a in attempts if a["kind"] == "window"]
        out = {
            "eco.window_max": max((len(a["window"]) for a in windows),
                                  default=0),
            "eco.rungs": len(attempts),
            "eco.rung_accept_ratio":
                sum(a["accepted"] for a in attempts) / len(attempts)
                if attempts else 0.0,
            "eco.escalations": sum(
                max(0, len(op.info.get("attempts", ())) - 1) for op in ops),
            "eco.solves_avoided": sum(op.info.get("avoided", 0)
                                      for op in ops),
        }
        for name, low, high in cls.BUCKETS:
            times = [a["wall_seconds"] for a in windows
                     if low <= len(a["window"]) <= high]
            out[name] = statistics.median(times) if times else 0.0
        return out
