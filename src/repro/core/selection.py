"""Module ordering and group selection (section 3, Figure 3 steps 1 and 5).

Two orderings from Series 2 of the paper:

* **random** — a seeded shuffle;
* **connectivity** — a greedy linear ordering (in the spirit of [KAN83]):
  start from the module with the largest total connectivity, then repeatedly
  append the module most connected to the already-ordered set, breaking ties
  toward higher total connectivity.

Group selection for each augmentation step then takes the next ``e`` modules
"based on the connectivity to the already fixed modules in the partial
floorplan and timing considerations": candidates are re-ranked by attraction
to the placed set, with a bonus for modules on timing-critical nets.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from repro.core.config import Ordering
from repro.netlist.netlist import Netlist


def random_ordering(netlist: Netlist, seed: int = 0) -> list[str]:
    """A seeded random permutation of the module names."""
    names = list(netlist.module_names)
    random.Random(seed).shuffle(names)
    return names


def connectivity_ordering(netlist: Netlist) -> list[str]:
    """Greedy linear ordering by connectivity.

    Deterministic: ties break by total connectivity, then by name.
    """
    names = list(netlist.module_names)
    if not names:
        return []
    totals = {n: sum(netlist.neighbours(n).values()) for n in names}
    start = max(names, key=lambda n: (totals[n], n))
    ordered = [start]
    remaining = set(names) - {start}
    # score[n]: n's connectivity to the ordered prefix, kept current by
    # adding the common-net counts of the module appended last.
    score = dict.fromkeys(names, 0)
    while remaining:
        for other, c in netlist.neighbours(ordered[-1]).items():
            score[other] += c
        best = max(remaining, key=lambda n: (score[n], totals[n], n))
        ordered.append(best)
        remaining.remove(best)
    return ordered


def module_ordering(netlist: Netlist, ordering: Ordering,
                    seed: int = 0) -> list[str]:
    """The full module sequence for the chosen strategy."""
    if ordering is Ordering.RANDOM:
        return random_ordering(netlist, seed)
    if ordering is Ordering.CONNECTIVITY:
        return connectivity_ordering(netlist)
    raise ValueError(f"unknown ordering {ordering!r}")


def criticality_bonus(netlist: Netlist, name: str) -> float:
    """Timing bonus of a module: the summed criticality of its nets
    ("timing considerations" in Figure 3 step 5)."""
    return sum(n.criticality for n in netlist.nets_of(name))


def next_group(netlist: Netlist, placed: Iterable[str],
               candidates: Sequence[str], group_size: int) -> list[str]:
    """Choose the next ``e`` modules to add to the partial floorplan.

    Candidates are ranked by connectivity to the placed set plus their
    timing bonus; ties preserve the candidate sequence order (so a random
    ordering stays random when connectivity is flat).
    """
    placed_list = list(placed)
    scored = sorted(
        range(len(candidates)),
        key=lambda i: (-(netlist.connectivity_to_set(candidates[i], placed_list)
                         + criticality_bonus(netlist, candidates[i])), i))
    chosen = sorted(scored[:group_size])
    return [candidates[i] for i in chosen]
