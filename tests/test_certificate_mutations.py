"""Mutation tests for the independent checker.

The solve cache serves a hit only after :func:`repro.check.certificate.
check_certificate` re-certifies it, so that checker being vacuous would
quietly disable the cache's entire safety story.  These tests solve a real
subproblem, confirm the baseline certifies (non-vacuity), then
systematically corrupt the solution — nudged coordinates, flipped rotation
binaries, fractional binaries, swapped module positions, broken flexible
areas, objective and bound lies — and assert every mutant is rejected.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check.certificate import Violation, check_certificate
from repro.check.geometry import check_placements
from repro.core.config import FloorplanConfig
from repro.core.formulation import SubproblemBuilder
from repro.geometry.rect import Rect
from repro.milp.solvers.registry import solve
from repro.netlist.module import Module


def _mutate(solution, **changes):
    return dataclasses.replace(solution, **changes)


def _set_value(solution, name, value):
    values = dict(solution.values)
    var = next(v for v in values if v.name == name)
    values[var] = value
    return _mutate(solution, values=values)


@pytest.fixture(scope="module")
def solved():
    """One solved rigid-window subproblem shared by all mutants."""
    window = [
        Module.rigid("a", 4.0, 3.0),
        Module.rigid("b", 2.0, 5.0),
        Module.rigid("c", 3.0, 3.0),
    ]
    chip_width = 8.0
    builder = SubproblemBuilder(window, [], chip_width, FloorplanConfig())
    solution = solve(builder.model, backend="highs")
    return builder, solution, chip_width


def test_baseline_certifies(solved):
    """Non-vacuity: the unmutated solution passes every check."""
    builder, solution, chip_width = solved
    report = check_certificate(builder.model, solution)
    assert report.ok, [v.detail for v in report.violations]
    assert report.n_constraints > 0 and report.n_variables > 0
    placements = builder.decode(solution)
    chip = Rect(0.0, 0.0, chip_width,
                max(p.rect.y2 for p in placements))
    assert check_placements(placements, chip).ok


def test_nudged_coordinate_is_rejected(solved):
    """Pushing a module past the chip width breaks a constraint row."""
    builder, solution, chip_width = solved
    mutant = _set_value(solution, "x[a]", chip_width - 0.5)
    report = check_certificate(builder.model, mutant)
    assert not report.ok
    assert any(v.kind in ("constraint", "variable-bound")
               for v in report.violations)


def test_flipped_rotation_binary_is_rejected(solved):
    """Flipping z[name] changes the module's effective dims; the linking
    rows no longer hold."""
    builder, solution, _w = solved
    z = next(v for v in solution.values if v.name == "z[a]")
    mutant = _set_value(solution, "z[a]",
                        1.0 - round(solution.values[z]))
    report = check_certificate(builder.model, mutant)
    assert not report.ok
    assert any(v.kind == "constraint" for v in report.violations)


def test_fractional_binary_is_rejected(solved):
    """A relaxed binary must trip the integrality check."""
    builder, solution, _w = solved
    binaries = [v.name for v in solution.values
                if v.name.startswith(("z[", "p[", "q["))]
    assert binaries
    mutant = _set_value(solution, binaries[0], 0.5)
    report = check_certificate(builder.model, mutant)
    assert any(v.kind == "integrality" for v in report.violations)


def test_swapped_positions_are_rejected(solved):
    """Swapping two differently-sized modules' positions makes them overlap
    or escape the chip — the geometry checker must notice."""
    builder, solution, chip_width = solved
    values = dict(solution.values)
    by_name = {v.name: v for v in values}
    for name_a, name_b in (("x[a]", "x[b]"), ("y[a]", "y[b]")):
        va, vb = by_name[name_a], by_name[name_b]
        values[va], values[vb] = values[vb], values[va]
    mutant = _mutate(solution, values=values)
    placements = builder.decode(mutant)
    chip = Rect(0.0, 0.0, chip_width,
                max(p.rect.y2 for p in builder.decode(solution)))
    geometry = check_placements(placements, chip)
    certificate = check_certificate(builder.model, mutant)
    assert not geometry.ok or not certificate.ok


def test_broken_flexible_area_is_rejected():
    """Shrinking a flexible module below its contracted area violates area
    conservation in the geometry check."""
    flex = Module.flexible_area("f", 9.0, aspect_low=0.5, aspect_high=2.0)
    rigid = Module.rigid("r", 3.0, 3.0)
    builder = SubproblemBuilder([flex, rigid], [], 8.0, FloorplanConfig())
    solution = solve(builder.model, backend="highs")
    placements = builder.decode(solution)
    chip = Rect(0.0, 0.0, 8.0, max(p.rect.y2 for p in placements))
    assert check_placements(placements, chip).ok

    shrunk = []
    for p in placements:
        if p.module.flexible:
            rect = Rect(p.rect.x, p.rect.y, p.rect.w, p.rect.h * 0.5)
            p = dataclasses.replace(p, rect=rect,
                                    envelope=dataclasses.replace(
                                        p.envelope, h=p.envelope.h * 0.5))
        shrunk.append(p)
    report = check_placements(shrunk, chip)
    assert not report.ok
    assert any("area" in v.detail.lower() for v in report.violations)


def test_objective_lie_is_rejected(solved):
    builder, solution, _w = solved
    mutant = _mutate(solution, objective=solution.objective + 10.0)
    report = check_certificate(builder.model, mutant)
    assert any(v.kind == "objective" for v in report.violations)


def test_bound_cutting_off_incumbent_is_rejected(solved):
    """A minimization dual bound above the feasible objective is a lie."""
    builder, solution, _w = solved
    mutant = _mutate(solution, bound=solution.objective + 10.0)
    report = check_certificate(builder.model, mutant)
    assert any(v.kind == "bound" for v in report.violations)


def test_optimal_without_bound_is_rejected(solved):
    builder, solution, _w = solved
    mutant = _mutate(solution, bound=math.nan)
    report = check_certificate(builder.model, mutant)
    assert any(v.kind == "bound" for v in report.violations)


# -- several bound and integrality faults at once ----------------------------


def _reference_column_checks(form, x, feas_tol, int_tol):
    """The per-variable loops the array bound and integrality checks
    replaced, kept as their reference."""
    found = []
    for j, var in enumerate(form.variables):
        scale = 1.0 + abs(x[j])
        below = form.lb[j] - x[j]
        above = x[j] - form.ub[j]
        worst = max(below, above)
        if worst > feas_tol * scale:
            found.append(Violation(
                "variable-bound", var.name, worst,
                f"{var.name} = {x[j]:.9g} outside "
                f"[{form.lb[j]:.9g}, {form.ub[j]:.9g}]"))
    for j in np.flatnonzero(form.integrality == 1):
        drift = abs(x[j] - round(x[j]))
        if drift > int_tol:
            found.append(Violation(
                "integrality", form.variables[j].name, drift,
                f"{form.variables[j].name} = {x[j]:.9g} is {drift:.3g} "
                f"from the nearest integer (int_tol {int_tol:g})"))
    return found


def _assert_column_checks_match(builder, mutant, feas_tol=1e-6,
                                int_tol=1e-6):
    form = builder.model.to_standard_form()
    report = check_certificate(builder.model, mutant, feas_tol=feas_tol,
                               int_tol=int_tol)
    x = np.array([mutant.values[v] for v in form.variables])
    got = [v for v in report.violations
           if v.kind in ("variable-bound", "integrality")]
    want = _reference_column_checks(form, x, feas_tol, int_tol)
    assert [(v.kind, v.name, float(v.magnitude), v.detail) for v in got] \
        == [(v.kind, v.name, float(v.magnitude), v.detail) for v in want]
    return got


def test_several_column_faults_listed_like_the_loop(solved):
    """Bounds broken on both sides and fractional binaries, several at
    once: the array checks name each one, in column order, with the
    per-variable loop's magnitudes and messages."""
    builder, solution, _w = solved
    values = dict(solution.values)
    by_name = {v.name: v for v in values}
    binaries = [v for v in values if v.is_integral]
    values[by_name["x[a]"]] = -3.0
    values[by_name["y[b]"]] = 1e6
    values[binaries[0]] = 0.4
    values[binaries[1]] = 1.7
    values[binaries[2]] = -0.2500001
    values[binaries[3]] = 2.5
    got = _assert_column_checks_match(builder, _mutate(solution,
                                                       values=values))
    assert {v.name for v in got if v.kind == "variable-bound"} >= {
        "x[a]", "y[b]", binaries[1].name, binaries[2].name}
    assert {v.name for v in got if v.kind == "integrality"} == {
        v.name for v in binaries[:4]}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(changes=st.lists(st.tuples(
    st.integers(min_value=0, max_value=10**6),
    st.one_of(st.floats(min_value=-50.0, max_value=50.0),
              st.sampled_from([0.5, -0.5, 1.0 + 1e-7, 1.0 + 1e-5, -1e-6,
                               1e9, -1e-300]))),
    min_size=1, max_size=8),
    tols=st.sampled_from([(1e-6, 1e-6), (1e-9, 1e-3), (1e-3, 1e-9)]))
def test_random_column_faults_listed_like_the_loop(solved, changes, tols):
    builder, solution, _w = solved
    values = dict(solution.values)
    variables = list(values)
    for index, value in changes:
        values[variables[index % len(variables)]] = value
    _assert_column_checks_match(builder, _mutate(solution, values=values),
                                *tols)


# -- fixed-outline mutants ----------------------------------------------------


@pytest.fixture(scope="module")
def outlined():
    """One feasible fixed-outline solve shared by the outline mutants."""
    from repro.core import solve_fixed_outline
    from repro.netlist.netlist import Netlist

    netlist = Netlist([
        Module.rigid("a", 4.0, 3.0),
        Module.rigid("b", 2.0, 5.0),
        Module.rigid("c", 3.0, 3.0),
        Module.rigid("d", 5.0, 2.0),
    ], [], name="outline_mutants")
    config = FloorplanConfig(outline=(8.0, 10.0), seed_size=2, group_size=2,
                             use_envelopes=False, solve_cache=False,
                             subproblem_time_limit=20.0)
    result = solve_fixed_outline(netlist, config, max_probes=2)
    assert result.feasible
    return result


def test_outline_baseline_certifies(outlined):
    """Non-vacuity: the genuine plan, outline, and whitespace claim pass."""
    from repro.check.geometry import check_outline

    placements = list(outlined.plan.placements.values())
    report = check_outline(placements, outlined.outline,
                           claimed_whitespace=outlined.whitespace)
    assert report.ok, [v.detail for v in report.violations]


def test_placement_nudged_outside_die_is_rejected(outlined):
    """Sliding one module past the die edge must trip the containment
    audit even though the plan is otherwise untouched."""
    from repro.check.geometry import check_outline

    width, _height = outlined.outline
    placements = list(outlined.plan.placements.values())
    victim = placements[0]
    nudged = dataclasses.replace(
        victim, rect=victim.rect.moved_to(width - victim.rect.w + 0.25,
                                          victim.rect.y))
    report = check_outline([nudged] + placements[1:], outlined.outline)
    assert not report.ok
    assert any("outline" in v.detail.lower() or "die" in v.detail.lower()
               for v in report.violations)


def test_padded_outline_whitespace_claim_is_rejected(outlined):
    """A whitespace figure computed against a padded die is a lie relative
    to the actual outline and must fail the accounting audit."""
    from repro.check.geometry import check_outline

    width, height = outlined.outline
    padded_area = (width + 2.0) * (height + 2.0)
    module_area = sum(p.rect.area for p in
                      outlined.plan.placements.values())
    padded_claim = (padded_area - module_area) / padded_area
    placements = list(outlined.plan.placements.values())
    report = check_outline(placements, outlined.outline,
                           claimed_whitespace=padded_claim)
    assert not report.ok
    assert any("whitespace" in v.detail.lower() for v in report.violations)


def test_wrong_whitespace_claim_is_rejected(outlined):
    """Any materially wrong whitespace claim is caught, in both
    directions."""
    from repro.check.geometry import check_outline

    placements = list(outlined.plan.placements.values())
    for claim in (outlined.whitespace + 0.1,
                  max(0.0, outlined.whitespace - 0.1)):
        report = check_outline(placements, outlined.outline,
                               claimed_whitespace=claim)
        assert not report.ok, f"claim {claim} wrongly accepted"
        assert any("whitespace" in v.detail.lower()
                   for v in report.violations)


def test_undersized_outline_packing_bound_is_rejected(outlined):
    """Auditing the plan against a die smaller than its module area trips
    the packing bound, not just per-module containment."""
    from repro.check.geometry import check_outline

    placements = list(outlined.plan.placements.values())
    report = check_outline(placements, (3.0, 3.0))
    assert not report.ok
    assert any("area" in v.detail.lower() or "packing" in v.detail.lower()
               for v in report.violations)


# -- ECO mutants --------------------------------------------------------------


@pytest.fixture(scope="module")
def eco_patched():
    """One genuine windowed ECO result shared by the ECO mutants."""
    from eco_helpers import windowed_resize
    from repro.core import Floorplanner, solve_eco
    from repro.core.eco import ECO_PATCHED
    from repro.netlist.net import Net
    from repro.netlist.netlist import Netlist

    netlist = Netlist([
        Module.rigid("a", 4.0, 3.0, rotatable=False),
        Module.rigid("b", 2.0, 5.0, rotatable=False),
        Module.rigid("c", 3.0, 3.0, rotatable=False),
        Module.rigid("d", 5.0, 2.0, rotatable=False),
        Module.rigid("e", 2.0, 2.0, rotatable=False),
    ], [Net("n1", ("a", "b")), Net("n2", ("c", "d"))], name="eco_mutants")
    config = FloorplanConfig(seed_size=3, group_size=2, use_envelopes=False,
                             solve_cache=False, subproblem_time_limit=20.0)
    baseline = Floorplanner(netlist, config).run()
    delta = windowed_resize(baseline)
    result = solve_eco(baseline, delta, config)
    assert result.status == ECO_PATCHED and result.frozen, \
        f"resizing {delta.resized} must patch through a windowed rung " \
        f"with frozen modules; attempts: " \
        f"{[a.to_dict() for a in result.attempts]}"
    return baseline, delta, result


def _replan(result, placements):
    """Clone an EcoResult with a tampered plan."""
    plan = dataclasses.replace(result.plan, placements=placements)
    return dataclasses.replace(result, plan=plan)


def test_eco_baseline_recertifies(eco_patched):
    """Non-vacuity: the genuine ECO result passes the independent check."""
    from repro.check import check_eco

    baseline, delta, result = eco_patched
    report = check_eco(baseline, delta, result)
    assert report.ok, [v.detail for v in report.violations]


def test_eco_moved_frozen_module_is_rejected(eco_patched):
    """Sliding a frozen module off its baseline position — even while the
    plan stays geometrically legal — violates frozen immobility."""
    from repro.check import check_eco

    baseline, delta, result = eco_patched
    victim = result.frozen[0]
    placements = dict(result.plan.placements)
    p = placements[victim]
    moved = dataclasses.replace(
        p, rect=p.rect.moved_to(p.rect.x, p.rect.y + 50.0),
        envelope=p.envelope.moved_to(p.envelope.x, p.envelope.y + 50.0))
    report = check_eco(baseline, delta, _replan(result, {**placements,
                                                         victim: moved}))
    assert not report.ok
    assert any(v.kind == "eco" and victim in v.name
               for v in report.violations)


def test_eco_overlapping_patch_is_rejected(eco_patched):
    """Stacking a window module onto another placement fails the base
    geometry audit inside check_eco."""
    from repro.check import check_eco

    baseline, delta, result = eco_patched
    window_name = result.window[0]
    other = next(n for n in result.plan.placements if n != window_name)
    placements = dict(result.plan.placements)
    target = placements[other].rect
    p = placements[window_name]
    clash = dataclasses.replace(
        p, rect=p.rect.moved_to(target.x, target.y),
        envelope=p.envelope.moved_to(target.x, target.y))
    report = check_eco(baseline, delta,
                       _replan(result, {**placements, window_name: clash}))
    assert not report.ok
    assert any("overlap" in v.detail.lower() for v in report.violations)


def test_eco_stale_objective_claim_is_rejected(eco_patched):
    """A patched_height claim that understates the realized chip height is
    a lie about the objective and must be caught."""
    from repro.check import check_eco

    baseline, delta, result = eco_patched
    liar = dataclasses.replace(result,
                               patched_height=result.patched_height * 0.5)
    report = check_eco(baseline, delta, liar)
    assert not report.ok
    assert any(v.kind == "eco" and "height" in v.detail.lower()
               for v in report.violations)


def test_eco_window_escape_placement_is_rejected(eco_patched):
    """A placement claimed in neither the window nor the frozen set breaks
    the partition invariant."""
    from repro.check import check_eco

    baseline, delta, result = eco_patched
    escaped = dataclasses.replace(result, frozen=result.frozen[1:])
    report = check_eco(baseline, delta, escaped)
    assert not report.ok
    assert any(v.kind == "eco" and result.frozen[0] in v.name
               for v in report.violations)


def test_eco_dropped_module_is_rejected(eco_patched):
    """A plan silently missing a patched module fails the name audit."""
    from repro.check import check_eco

    baseline, delta, result = eco_patched
    placements = dict(result.plan.placements)
    placements.pop(result.window[0])
    report = check_eco(baseline, delta, _replan(result, placements))
    assert not report.ok
