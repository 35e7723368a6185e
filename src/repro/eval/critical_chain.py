"""Critical chains: what limits the chip dimensions.

After compaction (the section-2.5 LP), some relations are *binding* — the
two modules touch (plus any required gap).  The binding relations form a
DAG per axis; the heaviest path through it is the **critical chain**: the
stack of modules whose summed extents equal the chip dimension.  Shrinking
any module off the chain cannot shrink the chip; the chain is where a
designer (or a soft-block resize) must act.

This is the floorplan analogue of static timing's critical path, derived
purely from geometry — no solver duals needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.placement import Placement
from repro.core.topology import Relation, derive_relations

#: Slack below which a relation counts as binding.
BINDING_EPS = 1e-6


@dataclass(frozen=True)
class CriticalChain:
    """One axis's critical chain.

    Attributes:
        axis: ``"x"`` (chip width) or ``"y"`` (chip height).
        modules: the chain members, in stacking order.
        extent: summed module extents along the axis (+ binding gaps) —
            equals the chip dimension when the floorplan is compacted.
        chip_extent: the chip's dimension on this axis.
    """

    axis: str
    modules: tuple[str, ...]
    extent: float
    chip_extent: float

    @property
    def is_tight(self) -> bool:
        """True when the chain's extent reaches the chip dimension (the
        floorplan is compacted along this axis)."""
        return self.extent >= self.chip_extent - 1e-4 * max(1.0, self.chip_extent)


def binding_relations(placements: Sequence[Placement],
                      relations: Sequence[Relation] | None = None,
                      eps: float = BINDING_EPS) -> list[Relation]:
    """Relations whose separation constraint is tight (modules touch, up to
    the relation's gap)."""
    if relations is None:
        relations = derive_relations(placements)
    by_name = {p.name: p for p in placements}
    tight: list[Relation] = []
    for rel in relations:
        a = by_name[rel.first].envelope
        b = by_name[rel.second].envelope
        slack = (b.x - a.x2 if rel.axis == "x" else b.y - a.y2) - rel.gap
        if slack <= eps:  # touching (or overlapping by solver noise)
            tight.append(rel)
    return tight


def critical_chain(placements: Sequence[Placement], axis: str = "y", *,
                   relations: Sequence[Relation] | None = None,
                   eps: float = BINDING_EPS) -> CriticalChain:
    """The heaviest binding chain along ``axis``.

    Builds a DAG of binding relations (edges point in the growth direction),
    adds a virtual source/sink for chip boundaries, and takes the
    longest path weighted by module extents and binding gaps.

    Raises:
        ValueError: for an unknown axis, an empty placement set, or binding
            relations that form a cycle.
    """
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    placement_list = list(placements)
    if not placement_list:
        raise ValueError("critical_chain needs at least one placement")
    by_name = {p.name: p for p in placement_list}

    def extent(p: Placement) -> float:
        return p.envelope.w if axis == "x" else p.envelope.h

    def low_edge(p: Placement) -> float:
        return p.envelope.x if axis == "x" else p.envelope.y

    weights: dict[tuple[str, str], float] = {}
    for p in placement_list:
        weights[p.name, "sink"] = 0.0
        if low_edge(p) <= eps:
            # resting on the chip boundary: the chain can start here
            weights["source", p.name] = extent(p)
    for rel in binding_relations(placement_list, relations, eps=eps):
        if rel.axis != axis:
            continue
        first = by_name[rel.first]
        second = by_name[rel.second]
        # Guard against cycles from overlap noise: binding edges must make
        # forward progress along the axis.
        if low_edge(second) < low_edge(first) - eps:
            continue
        weights[rel.first, rel.second] = extent(second) + rel.gap
    path, total = _longest_path(["source", "sink", *by_name], weights)
    modules = tuple(n for n in path if n not in ("source", "sink"))
    chip_extent = max((p.envelope.x2 if axis == "x" else p.envelope.y2)
                      for p in placement_list)
    return CriticalChain(axis=axis, modules=modules, extent=total,
                         chip_extent=chip_extent)


def _longest_path(nodes: Sequence[str],
                  weights: Mapping[tuple[str, str], float],
                  ) -> tuple[list[str], float]:
    """The heaviest path of a DAG with non-negative edge weights, and its
    weight.

    Ties resolve in insertion order: nodes are visited in Kahn generations,
    each in node order; each node keeps its first heaviest predecessor, in
    edge order; the path ends at the first heaviest node visited.

    Raises:
        ValueError: when the edges form a cycle.
    """
    succ: dict[str, list[str]] = {v: [] for v in nodes}
    pred: dict[str, list[str]] = {v: [] for v in nodes}
    for u, v in weights:
        succ[u].append(v)
        pred[v].append(u)
    waiting = {v: len(us) for v, us in pred.items()}
    generation = [v for v, n in waiting.items() if n == 0]
    dist: dict[str, tuple[float, str]] = {}  # node -> (weight, predecessor)
    while generation:
        following = []
        for v in generation:
            reach = [(dist[u][0] + weights[u, v], u) for u in pred[v]]
            dist[v] = max(reach, key=lambda r: r[0]) if reach else (0, v)
            for w in succ[v]:
                waiting[w] -= 1
                if waiting[w] == 0:
                    following.append(w)
        generation = following
    if len(dist) < len(pred):
        raise ValueError("binding relations form a cycle")
    end = max(dist, key=lambda v: dist[v][0])
    path = [end]
    while dist[path[-1]][1] != path[-1]:
        path.append(dist[path[-1]][1])
    path.reverse()
    return path, dist[end][0]


def chain_report(placements: Sequence[Placement]) -> str:
    """Two-line report of the width and height critical chains."""
    lines = []
    for axis, label in (("x", "width"), ("y", "height")):
        chain = critical_chain(placements, axis)
        marker = "tight" if chain.is_tight else \
            f"slack {chain.chip_extent - chain.extent:.2f}"
        lines.append(f"{label} chain ({marker}): "
                     + " -> ".join(chain.modules)
                     + f"  [{chain.extent:.2f} / {chain.chip_extent:.2f}]")
    return "\n".join(lines)
