"""Tests for the critical-chain analysis."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FloorplanConfig
from repro.core.floorplanner import floorplan
from repro.core.placement import Placement
from repro.core.topology import Relation, derive_relations, optimize_topology
from repro.eval.critical_chain import (
    BINDING_EPS,
    binding_relations,
    chain_report,
    critical_chain,
)
from repro.geometry.rect import Rect
from repro.geometry.skyline import Skyline
from repro.netlist.generators import random_netlist
from repro.netlist.module import Module


def _place(name: str, x: float, y: float, w: float, h: float) -> Placement:
    return Placement(Module.rigid(name, w, h), Rect(x, y, w, h))


def reference_chain(placements, axis, *, relations=None, eps=BINDING_EPS):
    """The chain's modules and extent from a networkx DiGraph of the
    binding relations and ``nx.dag_longest_path``."""
    by_name = {p.name: p for p in placements}

    def extent(p: Placement) -> float:
        return p.envelope.w if axis == "x" else p.envelope.h

    def low_edge(p: Placement) -> float:
        return p.envelope.x if axis == "x" else p.envelope.y

    graph = nx.DiGraph()
    graph.add_node("source")
    graph.add_node("sink")
    for p in placements:
        graph.add_node(p.name)
        graph.add_edge(p.name, "sink", weight=0.0)
        if low_edge(p) <= eps:
            graph.add_edge("source", p.name, weight=extent(p))
    for rel in binding_relations(placements, relations, eps=eps):
        if rel.axis != axis:
            continue
        first, second = by_name[rel.first], by_name[rel.second]
        if low_edge(second) < low_edge(first) - eps:
            continue
        graph.add_edge(rel.first, rel.second,
                       weight=extent(second) + rel.gap)
    path = nx.dag_longest_path(graph, weight="weight")
    total = nx.dag_longest_path_length(graph, weight="weight")
    return tuple(n for n in path if n not in ("source", "sink")), total


def _compacted_plan(seed: int, n: int) -> list[Placement]:
    """Random modules dropped onto a skyline, then compacted on both axes
    by the given-topology LP."""
    rng = random.Random(seed)
    sky = Skyline(0.0, 20.0)
    placements = []
    for i in range(n):
        w, h = rng.uniform(1.0, 6.0), rng.uniform(1.0, 6.0)
        x = rng.uniform(0.0, 20.0 - w)
        y = max(sky.height_at(x + t * w / 8.0) for t in range(9))
        placements.append(_place(f"m{i}", x, y, w, h))
        sky.add_rect(placements[-1].rect)
    return optimize_topology(placements, max_chip_width=None,
                             resize_flexible=False).placements


def _column_stacks(seed: int, n_columns: int) -> list[Placement]:
    """Touching columns of touching unit-multiple modules, in shuffled
    order: equal chains abound, so the tie rules decide the answer."""
    rng = random.Random(seed)
    placements = []
    x = 0
    for c in range(n_columns):
        w = rng.choice((1, 2))
        y = 0
        for r in range(rng.randint(1, 4)):
            h = rng.choice((1, 2))
            placements.append(_place(f"c{c}r{r}", x, y, w, h))
            y += h
        x += w
    rng.shuffle(placements)
    return placements


class TestBindingRelations:
    def test_touching_pair_binding(self):
        placements = [_place("a", 0, 0, 3, 3), _place("b", 3, 0, 3, 3)]
        tight = binding_relations(placements)
        assert len(tight) == 1
        assert tight[0].first == "a" and tight[0].axis == "x"

    def test_separated_pair_not_binding(self):
        placements = [_place("a", 0, 0, 3, 3), _place("b", 10, 0, 3, 3)]
        assert binding_relations(placements) == []

    def test_vertical_stack_binding(self):
        placements = [_place("a", 0, 0, 3, 3), _place("b", 0, 3, 3, 3)]
        tight = binding_relations(placements)
        assert len(tight) == 1
        assert tight[0].axis == "y"


class TestCriticalChain:
    def test_simple_stack(self):
        """Three stacked modules: the chain is the full stack."""
        placements = [_place("a", 0, 0, 3, 2), _place("b", 0, 2, 3, 4),
                      _place("c", 0, 6, 3, 1)]
        chain = critical_chain(placements, "y")
        assert chain.modules == ("a", "b", "c")
        assert chain.extent == pytest.approx(7.0)
        assert chain.is_tight

    def test_tallest_column_wins(self):
        """Two columns: the taller one is the critical chain."""
        placements = [
            _place("a1", 0, 0, 2, 3), _place("a2", 0, 3, 2, 3),   # height 6
            _place("b1", 5, 0, 2, 4), _place("b2", 5, 4, 2, 5),   # height 9
        ]
        chain = critical_chain(placements, "y")
        assert chain.modules == ("b1", "b2")
        assert chain.extent == pytest.approx(9.0)

    def test_width_chain(self):
        placements = [_place("a", 0, 0, 4, 2), _place("b", 4, 0, 5, 2),
                      _place("c", 0, 5, 2, 2)]
        chain = critical_chain(placements, "x")
        assert chain.modules == ("a", "b")
        assert chain.extent == pytest.approx(9.0)

    def test_uncompacted_chain_not_tight(self):
        placements = [_place("a", 0, 0, 3, 3), _place("b", 0, 10, 3, 3)]
        chain = critical_chain(placements, "y")
        assert not chain.is_tight
        assert chain.chip_extent == pytest.approx(13.0)

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError):
            critical_chain([_place("a", 0, 0, 1, 1)], "z")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            critical_chain([], "y")

    def test_on_real_floorplan(self):
        """A compacted floorplan's height chain reaches the chip height."""
        nl = random_netlist(8, seed=171)
        plan = floorplan(nl, FloorplanConfig(seed_size=4, group_size=2))
        chain = critical_chain(list(plan.placements.values()), "y")
        assert chain.modules  # non-empty
        assert chain.extent <= plan.chip_height + 1e-4
        # every chain member exists in the floorplan
        assert all(name in plan.placements for name in chain.modules)

    def test_report_format(self):
        placements = [_place("a", 0, 0, 3, 2), _place("b", 0, 2, 3, 4)]
        text = chain_report(placements)
        assert "height chain" in text
        assert "width chain" in text
        assert "a -> b" in text


class TestReferenceParity:
    """``critical_chain`` keeps the networkx reference's answer, ties
    included: the same modules in the same order, and the same extent."""

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=8), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, seed, size, lattice):
        placements = _column_stacks(seed, size) if lattice \
            else _compacted_plan(seed, size)
        for axis in ("x", "y"):
            chain = critical_chain(placements, axis)
            assert (chain.modules, chain.extent) == \
                reference_chain(placements, axis)

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=2, max_value=6),
           st.sampled_from((0.0, 1.0, 2.0)))
    @settings(max_examples=40, deadline=None)
    def test_repeated_relation_overwrites(self, seed, n_columns, gap):
        """A pair given twice keeps its first position and its last gap."""
        placements = _column_stacks(seed, n_columns)
        relations = derive_relations(placements)
        rng = random.Random(seed)
        repeat = rng.choice(binding_relations(placements, relations))
        relations.append(Relation(repeat.first, repeat.second, repeat.axis,
                                  gap=gap))
        for axis in ("x", "y"):
            chain = critical_chain(placements, axis, relations=relations)
            assert (chain.modules, chain.extent) == \
                reference_chain(placements, axis, relations=relations)

    def test_cycle_rejected(self):
        """Two modules on one column, related both ways along x."""
        placements = [_place("a", 0, 0, 2, 2), _place("b", 0, 2, 2, 2)]
        relations = [Relation("a", "b", "x"), Relation("b", "a", "x")]
        with pytest.raises(ValueError):
            critical_chain(placements, "x", relations=relations)
