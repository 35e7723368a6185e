"""Incremental augmentation layers against their rescan-everything references.

Three layers stopped rescanning everything placed so far; each keeps its old
all-at-once code here as the reference it must equal exactly:

* ``derive_relations`` picks each pair's direction from slack arrays; the
  reference is the all-pairs loop over four :class:`Relation` candidates and
  ``max()``.  Unit-lattice placements tie exactly on both axes, so the first
  maximum must win in both.
* ``connectivity_ordering``, ``next_group`` and ``criticality_bonus`` read the
  netlist's neighbour counts and per-module net index; the references score
  with ``common_nets`` over the ordered/placed set and scan every net with
  ``Net.connects``.
* ``run_augmentation`` keeps one skyline across steps; the reference builds
  each step's covering polygon and covering rectangles from every placed
  envelope.
"""

from __future__ import annotations

import math
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.augmentation as augmentation
from repro.core.augmentation import run_augmentation
from repro.core.config import FloorplanConfig, Ordering
from repro.core.placement import Placement
from repro.core.selection import (
    connectivity_ordering,
    criticality_bonus,
    module_ordering,
    next_group,
)
from repro.core.topology import Relation, derive_relations
from repro.geometry.covering import covering_rectangles
from repro.geometry.polygon import CoveringPolygon
from repro.geometry.rect import Rect
from repro.netlist.generators import random_netlist
from repro.netlist.module import Module
from repro.netlist.net import Net
from repro.netlist.netlist import Netlist

# ---------------------------------------------------------------------------
# references: the all-at-once code the incremental layers replaced
# ---------------------------------------------------------------------------


def reference_relations(placements, gap_fn=None):
    """One relation per pair: the largest of four slacks, first on ties."""
    relations = []
    for i in range(len(placements)):
        for j in range(i + 1, len(placements)):
            pi, pj = placements[i], placements[j]
            a, b = pi.envelope, pj.envelope
            candidates = [
                (b.x - a.x2, Relation(pi.name, pj.name, "x")),
                (a.x - b.x2, Relation(pj.name, pi.name, "x")),
                (b.y - a.y2, Relation(pi.name, pj.name, "y")),
                (a.y - b.y2, Relation(pj.name, pi.name, "y")),
            ]
            _slack, rel = max(candidates, key=lambda c: c[0])
            if gap_fn is not None:
                first = pi if rel.first == pi.name else pj
                second = pj if first is pi else pi
                rel = Relation(rel.first, rel.second, rel.axis,
                               gap=max(0.0, gap_fn(first, second, rel.axis)))
            relations.append(rel)
    return relations


def reference_nets_of(netlist, name):
    return [n for n in netlist.nets if n.connects(name)]


def reference_bonus(netlist, name):
    return sum(n.criticality for n in reference_nets_of(netlist, name))


def reference_to_set(netlist, candidate, placed):
    return sum(netlist.common_nets(candidate, p) for p in placed)


def reference_ordering(netlist):
    """Greedy ordering, rescoring every remaining module against the whole
    ordered prefix at every pick."""
    names = list(netlist.module_names)
    if not names:
        return []
    totals = {n: sum(netlist.common_nets(n, other)
                     for other in names if other != n)
              for n in names}
    start = max(names, key=lambda n: (totals[n], n))
    ordered = [start]
    remaining = set(names) - {start}
    while remaining:
        best = max(remaining,
                   key=lambda n: (reference_to_set(netlist, n, ordered),
                                  totals[n], n))
        ordered.append(best)
        remaining.remove(best)
    return ordered


def reference_next_group(netlist, placed, candidates, group_size):
    placed_list = list(placed)
    scored = sorted(
        range(len(candidates)),
        key=lambda i: (-(reference_to_set(netlist, candidates[i], placed_list)
                         + reference_bonus(netlist, candidates[i])), i))
    chosen = sorted(scored[:group_size])
    return [candidates[i] for i in chosen]


def reference_cover(placed, chip_width):
    """One step's obstacles and polygon edge count, built from every placed
    envelope."""
    env_rects = [p.envelope for p in placed]
    polygon = CoveringPolygon.from_rects(env_rects, x_min=0.0,
                                         x_max=chip_width)
    obstacles = covering_rectangles(env_rects, x_min=0.0, x_max=chip_width)
    return obstacles, polygon.n_horizontal_edges()


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

#: Inserted out of name order, so the name tie-break differs from position.
NAMES = ("m", "c", "x", "a", "q", "b", "z", "k", "e", "t", "h", "p")
#: Fractions whose float sums depend on the order they are added in.
CRITICALITIES = (0.0, 0.0, 0.1, 0.2, 0.3, 1.0 / 3.0, 0.7, 1.0)

quarters = st.integers(min_value=0, max_value=40).map(lambda v: v / 4.0)
sizes = st.integers(min_value=1, max_value=24).map(lambda v: v / 4.0)
free = st.floats(min_value=0.0, max_value=30.0)
free_sizes = st.floats(min_value=0.1, max_value=8.0)


@st.composite
def lattice_placements(draw):
    """Unit squares on distinct integer cells: diagonal neighbours tie at
    slack 0 on both axes, farther diagonal pairs at equal positive slack."""
    cells = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=4),
                  st.integers(min_value=0, max_value=4)),
        max_size=12, unique=True))
    return [_place(NAMES[k % len(NAMES)] + str(k), Rect(x, y, 1.0, 1.0))
            for k, (x, y) in enumerate(cells)]


@st.composite
def random_placements(draw):
    """Possibly overlapping rectangles (the tangent-legalization input),
    on a quarter grid or at arbitrary floats."""
    coord, size = draw(st.sampled_from(((quarters, sizes), (free, free_sizes))))
    n = draw(st.integers(min_value=0, max_value=10))
    return [_place(f"r{k}", Rect(draw(coord), draw(coord), draw(size),
                                 draw(size)))
            for k in range(n)]


@st.composite
def netlists(draw):
    """Small netlists whose modules often tie on connectivity."""
    n = draw(st.integers(min_value=1, max_value=len(NAMES)))
    names = NAMES[:n]
    modules = [Module.rigid(name, 1.0, 1.0) for name in names]
    nets = []
    if n >= 2:
        for k in range(draw(st.integers(min_value=0, max_value=3 * n))):
            members = draw(st.lists(st.sampled_from(names), min_size=2,
                                    max_size=min(4, n), unique=True))
            nets.append(Net(f"n{k}", tuple(members),
                            criticality=draw(st.sampled_from(CRITICALITIES))))
    return Netlist(modules, nets)


def _place(name: str, rect: Rect) -> Placement:
    return Placement(Module.rigid(name, rect.w, rect.h), rect)


def _recording_gap_fn(calls: list):
    """A gap callback that logs its arguments and returns gaps of both
    signs (negative ones clamp to 0)."""
    def gap_fn(first: Placement, second: Placement, axis: str) -> float:
        calls.append((first.name, second.name, axis))
        return float(len(calls) % 5) - 2.0
    return gap_fn


# ---------------------------------------------------------------------------
# topology
# ---------------------------------------------------------------------------


class TestRelationParity:
    @given(st.one_of(lattice_placements(), random_placements()))
    @settings(max_examples=200, deadline=None)
    def test_relations_match_reference(self, placements):
        assert derive_relations(placements) == reference_relations(placements)

    @given(st.one_of(lattice_placements(), random_placements()))
    @settings(max_examples=200, deadline=None)
    def test_gap_fn_calls_match_reference(self, placements):
        calls: list = []
        ref_calls: list = []
        relations = derive_relations(placements, _recording_gap_fn(calls))
        expected = reference_relations(placements, _recording_gap_fn(ref_calls))
        assert relations == expected
        assert calls == ref_calls

    def test_lattice_tie_keeps_first_direction(self):
        """Diagonal unit squares tie at slack 0 on both axes: x wins, as
        the first maximum."""
        placements = [_place("a", Rect(0, 0, 1, 1)),
                      _place("b", Rect(1, 1, 1, 1))]
        assert derive_relations(placements) == [Relation("a", "b", "x")]


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------


class TestSelectionParity:
    @given(netlists())
    @settings(max_examples=150, deadline=None)
    def test_net_index_and_bonus_match_scan(self, netlist):
        for name in netlist.module_names:
            assert netlist.nets_of(name) == reference_nets_of(netlist, name)
            assert criticality_bonus(netlist, name) == \
                reference_bonus(netlist, name)

    @given(netlists())
    @settings(max_examples=150, deadline=None)
    def test_ordering_matches_reference(self, netlist):
        assert connectivity_ordering(netlist) == reference_ordering(netlist)

    @given(netlists(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_next_group_matches_reference(self, netlist, data):
        names = data.draw(st.permutations(netlist.module_names))
        split = data.draw(st.integers(min_value=0, max_value=len(names)))
        size = data.draw(st.integers(min_value=1, max_value=4))
        placed, candidates = names[:split], names[split:]
        assert next_group(netlist, placed, candidates, size) == \
            reference_next_group(netlist, placed, candidates, size)

    @given(netlists(), st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=3),
           st.sampled_from(tuple(Ordering)))
    @settings(max_examples=100, deadline=None)
    def test_augmentation_groups_match_reference(self, netlist, seed_size,
                                                 group_size, ordering):
        """The group sequence of run_augmentation's selection loop."""
        def groups(order_fn, group_fn):
            order = order_fn(netlist)
            placed, remaining = order[:seed_size], order[seed_size:]
            sequence = [tuple(placed)]
            while remaining:
                group = group_fn(netlist, placed, remaining, group_size)
                remaining = [n for n in remaining if n not in group]
                placed = placed + group
                sequence.append(tuple(group))
            return sequence

        def ordered(nl):
            return module_ordering(nl, ordering, seed=7)

        def reference_ordered(nl):
            return reference_ordering(nl) if ordering is Ordering.CONNECTIVITY \
                else module_ordering(nl, ordering, seed=7)

        assert groups(ordered, next_group) == \
            groups(reference_ordered, reference_next_group)


# ---------------------------------------------------------------------------
# covering
# ---------------------------------------------------------------------------


class TestCoveringParity:
    """Spy on ``covering_rectangles`` where ``run_augmentation`` calls it;
    every step's obstacles and polygon edge count must equal a covering
    built from that step's whole placed set."""

    @staticmethod
    def _run(netlist, config, preplaced=None):
        real = augmentation.covering_rectangles
        calls: list[list[Rect]] = []

        def spy(*args, **kwargs):
            result = real(*args, **kwargs)
            calls.append(result)
            return result

        with mock.patch.object(augmentation, "covering_rectangles", spy):
            result = run_augmentation(netlist, config, preplaced=preplaced)
        steps = [s for s in result.trace.steps if s.n_placed_before]
        assert len(calls) == len(steps)
        for step, obstacles in zip(steps, calls):
            placed = result.placements[:step.n_placed_before]
            expected, edges = reference_cover(placed, result.chip_width)
            assert obstacles == expected
            assert step.n_obstacles == len(expected)
            assert step.n_polygon_edges == edges
        return result

    @given(st.integers(min_value=4, max_value=9),
           st.integers(min_value=0, max_value=10_000), st.booleans())
    @settings(max_examples=8, deadline=None)
    def test_steps_match_from_scratch(self, n, seed, envelopes):
        config = FloorplanConfig(seed_size=2, group_size=2,
                                 use_envelopes=envelopes)
        self._run(random_netlist(n, seed=seed), config)

    @given(st.integers(min_value=4, max_value=8),
           st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=2), st.booleans())
    @settings(max_examples=8, deadline=None)
    def test_steps_match_from_scratch_with_preplaced(self, n, seed, n_fixed,
                                                     floating):
        """Preplaced modules enter the skyline before the seed step: one at
        the left edge, one at the right edge (floating when asked)."""
        netlist = random_netlist(n, seed=seed)
        modules = netlist.modules[:n_fixed]
        chip_width = max(math.sqrt(1.3 * netlist.total_module_area),
                         max(m.max_extent() for m in netlist.modules)) \
            + sum(m.width for m in modules)
        config = FloorplanConfig(seed_size=2, group_size=2,
                                 chip_width=chip_width)
        preplaced = {}
        for k, m in enumerate(modules):
            x = 0.0 if k == 0 else chip_width - m.width
            y = 3.0 if floating and k == len(modules) - 1 else 0.0
            preplaced[m.name] = Placement(m, Rect(x, y, m.width, m.height))
        result = self._run(netlist, config, preplaced)
        assert result.placements[:n_fixed] == list(preplaced.values())
