"""Routing results."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.routing.graph import Node


@dataclass(frozen=True)
class NetRoute:
    """The routed tree of one net.

    Attributes:
        net: the net's name.
        edges: routed graph edges (node pairs in canonical order).
        length: total routed length (sum of edge lengths).
        n_terminals: number of connected modules.
    """

    net: str
    edges: tuple[tuple[Node, Node], ...]
    length: float
    n_terminals: int


@dataclass
class RoutingResult:
    """Outcome of a global-routing pass.

    Attributes:
        routes: per-net routed trees, in routing order (critical nets first).
        total_wirelength: summed routed length over all nets.
        edge_usage: wires per graph edge (canonical node-pair keys).
        total_overflow: summed usage beyond capacity.
        max_edge_utilization: the most congested edge's usage/capacity.
        failed_nets: nets that could not be connected (disconnected graph).
    """

    routes: list[NetRoute] = field(default_factory=list)
    total_wirelength: float = 0.0
    edge_usage: dict[tuple[Node, Node], float] = field(default_factory=dict)
    total_overflow: float = 0.0
    max_edge_utilization: float = 0.0
    failed_nets: list[str] = field(default_factory=list)

    @property
    def n_routed(self) -> int:
        """Number of successfully routed nets."""
        return len(self.routes)

    def route_of(self, net_name: str) -> NetRoute | None:
        """The route of the named net, if it was routed."""
        for r in self.routes:
            if r.net == net_name:
                return r
        return None
