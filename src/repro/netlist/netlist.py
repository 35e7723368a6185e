"""The netlist container: modules + nets + derived connectivity.

This is the floorplanner's input object.  It validates referential integrity
(every net endpoint names a module), exposes the pairwise common-net counts
``c_ij`` of section 2.2, and provides the connectivity queries the
module-selection strategies (section 3, step 5) rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from repro.netlist.module import Module
from repro.netlist.net import Net


class Netlist:
    """An immutable circuit: named modules and the nets connecting them."""

    def __init__(self, modules: Iterable[Module], nets: Iterable[Net] = (),
                 name: str = "netlist") -> None:
        self.name = name
        self._modules: dict[str, Module] = {}
        for m in modules:
            if m.name in self._modules:
                raise ValueError(f"duplicate module name {m.name!r}")
            self._modules[m.name] = m
        self._nets: dict[str, Net] = {}
        for n in nets:
            if n.name in self._nets:
                raise ValueError(f"duplicate net name {n.name!r}")
            missing = [x for x in n.modules if x not in self._modules]
            if missing:
                raise ValueError(f"net {n.name!r} references unknown modules {missing}")
            self._nets[n.name] = n
        self._common_nets: dict[tuple[str, str], int] | None = None
        self._nets_by_module: dict[str, list[Net]] | None = None
        self._neighbours: dict[str, dict[str, int]] | None = None

    # -- access -------------------------------------------------------------------

    @property
    def modules(self) -> tuple[Module, ...]:
        """All modules, in insertion order."""
        return tuple(self._modules.values())

    @property
    def nets(self) -> tuple[Net, ...]:
        """All nets, in insertion order."""
        return tuple(self._nets.values())

    @property
    def module_names(self) -> tuple[str, ...]:
        """Module names, in insertion order."""
        return tuple(self._modules)

    def module(self, name: str) -> Module:
        """Look up a module by name."""
        return self._modules[name]

    def net(self, name: str) -> Net:
        """Look up a net by name."""
        return self._nets[name]

    def __len__(self) -> int:
        return len(self._modules)

    def __contains__(self, name: str) -> bool:
        return name in self._modules

    # -- derived connectivity -------------------------------------------------------

    def common_net_counts(self) -> Mapping[tuple[str, str], int]:
        """The ``c_ij`` of section 2.2: for each unordered module pair (keyed
        by the sorted name pair), the number of nets incident to both.

        Pairs with zero common nets are absent from the mapping.
        """
        if self._common_nets is None:
            counts: dict[tuple[str, str], int] = {}
            for n in self._nets.values():
                for pair in n.pairs():
                    counts[pair] = counts.get(pair, 0) + 1
            self._common_nets = counts
        return self._common_nets

    def common_nets(self, a: str, b: str) -> int:
        """``c_ab``: number of nets shared by modules ``a`` and ``b``."""
        key = (a, b) if a <= b else (b, a)
        return self.common_net_counts().get(key, 0)

    def neighbours(self, module_name: str) -> Mapping[str, int]:
        """``c_ab`` for every module ``b`` sharing a net with ``a =
        module_name`` (a read-only view; modules sharing none are absent)."""
        if self._neighbours is None:
            counts: dict[str, dict[str, int]] = {m: {} for m in self._modules}
            for (a, b), c in self.common_net_counts().items():
                counts[a][b] = c
                counts[b][a] = c
            self._neighbours = counts
        return MappingProxyType(self._neighbours.get(module_name, {}))

    def connectivity_to_set(self, candidate: str, placed: Iterable[str]) -> int:
        """Total common-net count between ``candidate`` and a placed set —
        the attraction measure of the augmentation's group selection."""
        counts = self.neighbours(candidate)
        return sum(counts.get(p, 0) for p in placed)

    def nets_of(self, module_name: str) -> list[Net]:
        """All nets incident to ``module_name``, in net order."""
        if self._nets_by_module is None:
            index: dict[str, list[Net]] = {m: [] for m in self._modules}
            for n in self._nets.values():
                for m in n.modules:
                    index[m].append(n)
            self._nets_by_module = index
        return list(self._nets_by_module.get(module_name, ()))

    def degree(self, module_name: str) -> int:
        """Number of nets incident to ``module_name``."""
        return len(self.nets_of(module_name))

    # -- statistics --------------------------------------------------------------

    @property
    def total_module_area(self) -> float:
        """Sum of module areas (the paper reports 11520 for ami33)."""
        return sum(m.area for m in self._modules.values())

    @property
    def n_flexible(self) -> int:
        """Number of flexible modules."""
        return sum(1 for m in self._modules.values() if m.flexible)

    @property
    def n_rigid(self) -> int:
        """Number of rigid modules."""
        return len(self._modules) - self.n_flexible

    def stats(self) -> "NetlistStats":
        """Summary statistics for reports and experiment logs."""
        degrees = [n.degree for n in self._nets.values()]
        return NetlistStats(
            name=self.name,
            n_modules=len(self._modules),
            n_rigid=self.n_rigid,
            n_flexible=self.n_flexible,
            n_nets=len(self._nets),
            total_area=self.total_module_area,
            mean_net_degree=(sum(degrees) / len(degrees)) if degrees else 0.0,
            max_net_degree=max(degrees, default=0),
        )

    def restricted_to(self, names: Iterable[str], name: str | None = None) -> "Netlist":
        """The sub-netlist induced by ``names`` (nets with fewer than two
        surviving endpoints are dropped)."""
        keep = set(names)
        missing = keep - set(self._modules)
        if missing:
            raise ValueError(f"unknown modules {sorted(missing)}")
        modules = [m for m in self._modules.values() if m.name in keep]
        nets = []
        for n in self._nets.values():
            endpoints = tuple(x for x in n.modules if x in keep)
            if len(endpoints) >= 2:
                nets.append(Net(n.name, endpoints, weight=n.weight,
                                criticality=n.criticality))
        return Netlist(modules, nets, name=name or f"{self.name}:sub")


@dataclass(frozen=True)
class NetlistStats:
    """Summary statistics of a netlist."""

    name: str
    n_modules: int
    n_rigid: int
    n_flexible: int
    n_nets: int
    total_area: float
    mean_net_degree: float
    max_net_degree: int
