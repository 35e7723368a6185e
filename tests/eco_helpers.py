"""Shared helper for the ECO test suites: a resize delta that patches
through a windowed rung instead of a full re-solve."""

from __future__ import annotations

from repro.core import Floorplan, NetlistDelta, eco_window


def windowed_resize(baseline: Floorplan) -> NetlistDelta:
    """Grow one module of ``baseline`` by 0.5 in height: the first module,
    by name, whose level-0 ECO window leaves another module frozen.

    Which modules touch every other one depends on the plan the solver
    returned, so the module is picked from ``baseline`` rather than fixed.
    """
    for name in sorted(baseline.placements):
        module = baseline.netlist.module(name)
        delta = NetlistDelta(
            resized={name: (module.width, module.height + 0.5)})
        window = eco_window(baseline, delta, baseline.config)
        if len(window) < len(baseline.placements):
            return delta
    raise AssertionError("every module's level-0 ECO window covers the "
                         "whole baseline plan")
