"""Property-based tests (hypothesis) for the incremental ECO engine.

Invariants under test:

* a no-op delta returns the baseline *instance* at zero solver
  invocations — no drift is possible when nothing changed;
* frozen modules never move: every placement outside the accepted window
  is byte-equal to its baseline rectangle and envelope;
* every patched plan re-certifies through :func:`repro.check.check_eco`
  (geometry legality + frozen immobility + partition + height claim);
* the engine's quality contract (docs/algorithms.md §17): a windowed or
  removal-only rung is no taller than ``eco_quality_bound`` times the area
  floor ``env_area / W`` at the baseline's chip width ``W``, and a full
  rung is the cold plan of the patched netlist.
"""

from __future__ import annotations

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.check import check_eco
from repro.core import (
    ECO_PATCHED,
    ECO_UNCHANGED,
    FloorplanConfig,
    Floorplanner,
    NetlistDelta,
    solve_eco,
)
from repro.core.augmentation import module_statistics
from repro.netlist.module import Module
from repro.netlist.net import Net
from repro.netlist.netlist import Netlist

EPS = 1e-6


def _config(**overrides) -> FloorplanConfig:
    params = dict(seed_size=3, group_size=2, use_envelopes=False,
                  solve_cache=False, subproblem_time_limit=15.0)
    params.update(overrides)
    return FloorplanConfig(**params)


KINDS = ("resize", "remove", "add", "mixed")


def _case(seed: int, kind: str) -> tuple[Netlist, NetlistDelta]:
    """A small rigid netlist drawn from ``seed`` and a structured delta of
    ``kind``, covering every edit species the engine supports."""
    rng = random.Random(seed)
    n = rng.randint(3, 5)
    modules = [
        Module.rigid(f"m{i}", float(rng.randint(1, 4)),
                     float(rng.randint(1, 4)),
                     rotatable=rng.random() < 0.7)
        for i in range(n)
    ]
    nets = []
    for j in range(rng.randint(0, 2)):
        a, b = rng.sample([m.name for m in modules], 2)
        nets.append(Net(f"n{j}", (a, b)))
    netlist = Netlist(modules, nets, name=f"eco_prop{seed}")

    victim = modules[rng.randrange(n)]
    if kind == "resize":
        factor = rng.choice([0.6, 0.9, 1.2])
        delta = NetlistDelta(resized={
            victim.name: (round(victim.width * factor, 3), victim.height)})
    elif kind == "remove":
        delta = NetlistDelta(removed=(victim.name,))
    elif kind == "add":
        delta = NetlistDelta(added=(
            Module.rigid("new0", float(rng.randint(1, 3)),
                         float(rng.randint(1, 3))),))
    else:
        other = modules[(modules.index(victim) + 1) % n]
        delta = NetlistDelta(
            added=(Module.rigid("new0", 2.0, 1.0),),
            removed=(other.name,),
            resized={victim.name: (victim.width, victim.height + 1.0)})
    return netlist, delta


SEEDS = st.integers(min_value=0, max_value=10_000)


class TestNoopIdentity:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_noop_delta_returns_the_baseline_instance(self, seed):
        rng = random.Random(seed)
        modules = [Module.rigid(f"m{i}", float(rng.randint(1, 4)),
                                float(rng.randint(1, 4)))
                   for i in range(3)]
        baseline = Floorplanner(Netlist(modules, [], name=f"noop{seed}"),
                                _config()).run()
        result = solve_eco(baseline, NetlistDelta())
        assert result.status == ECO_UNCHANGED
        assert result.plan is baseline
        assert result.solver_invocations == 0
        assert result.attempts == []


class TestPatchedInvariants:
    @given(seed=SEEDS, kind=st.sampled_from(KINDS))
    @settings(max_examples=8, deadline=None)
    def test_frozen_never_move_and_plan_recertifies(self, seed, kind):
        netlist, delta = _case(seed, kind)
        config = _config()
        baseline = Floorplanner(netlist, config).run()
        result = solve_eco(baseline, delta, config)
        assert result.status == ECO_PATCHED, \
            f"rigid unconstrained delta must patch: {result.status}"
        plan = result.plan
        assert plan.is_legal
        # frozen immobility, byte-for-byte
        for name in result.frozen:
            assert plan.placements[name].rect \
                == baseline.placements[name].rect
            assert plan.placements[name].envelope \
                == baseline.placements[name].envelope
        # the window/frozen split partitions the patched module set
        patched_names = set(delta.apply(netlist).module_names)
        assert set(result.window) | set(result.frozen) == patched_names
        assert not set(result.window) & set(result.frozen)
        # independent re-certification through the checker
        report = check_eco(baseline, delta, result)
        assert report.ok, report.violations

    @given(seed=SEEDS, kind=st.sampled_from(KINDS))
    # Adding a module can leave a windowed rung taller than a cold plan of
    # the patched netlist at its own, re-derived width times the bound
    # (seed 137: 8.0 against 1.5 x 5.0), yet inside the contract.
    @example(seed=60, kind="add")
    @example(seed=137, kind="add")
    @settings(max_examples=6, deadline=None)
    def test_patched_height_respects_the_quality_bound(self, seed, kind):
        netlist, delta = _case(seed, kind)
        config = _config()
        baseline = Floorplanner(netlist, config).run()
        result = solve_eco(baseline, delta, config)
        assert result.status == ECO_PATCHED
        patched = delta.apply(netlist)
        accepted = result.attempts[-1]
        assert accepted.accepted
        if accepted.kind == "full":
            cold = Floorplanner(patched, config).run()
            assert result.plan.chip_width == cold.chip_width
            assert result.plan.chip_height == cold.chip_height
            assert result.plan.placements == cold.placements
        else:
            env_area, _widest = module_statistics(patched, config)
            assert result.plan.chip_height <= config.eco_quality_bound \
                * env_area / baseline.chip_width + EPS
