"""Unit tests for FloorplanConfig and the flexible-module linearization."""

import math

import pytest

from repro.core.config import FloorplanConfig, Linearization, Objective, Ordering
from repro.core.flexible import linearize, max_linear_height
from repro.netlist.module import Module


class TestConfig:
    def test_defaults(self):
        cfg = FloorplanConfig()
        assert cfg.objective is Objective.AREA
        assert cfg.ordering is Ordering.CONNECTIVITY
        assert cfg.linearization is Linearization.SECANT
        assert not cfg.use_envelopes

    def test_string_coercion(self):
        cfg = FloorplanConfig(objective="area+wirelength", ordering="random",
                              linearization="tangent")
        assert cfg.objective is Objective.AREA_WIRELENGTH
        assert cfg.ordering is Ordering.RANDOM
        assert cfg.linearization is Linearization.TANGENT

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            FloorplanConfig(seed_size=0)
        with pytest.raises(ValueError):
            FloorplanConfig(group_size=0)
        with pytest.raises(ValueError):
            FloorplanConfig(whitespace_factor=0.9)
        with pytest.raises(ValueError):
            FloorplanConfig(chip_width=-5.0)
        with pytest.raises(ValueError):
            FloorplanConfig(objective="volume")
        # NaN passes every range check, an infinity or a negative
        # wirelength weight leaves a window without an optimum, and the
        # simplex backend solves LPs only.
        for overrides in ({"backend": "simplex"}, {"chip_width": math.nan},
                          {"whitespace_factor": math.inf},
                          {"outline": (math.nan, 5.0)},
                          {"outline_aspect": math.inf},
                          {"wirelength_weight": math.nan},
                          {"wirelength_weight": -5.0},
                          {"eco_margin": math.inf},
                          {"eco_quality_bound": math.nan},
                          {"int_tol": math.nan}, {"int_tol": -1e-6},
                          {"mip_rel_gap": -0.5}, {"mip_rel_gap": math.inf},
                          {"subproblem_time_limit": 0.0},
                          {"subproblem_time_limit": math.nan}):
            with pytest.raises(ValueError):
                FloorplanConfig(**overrides)
        # A fractional count reaches a slice or range() of the run.
        for name in ("seed_size", "group_size", "relinearization_rounds",
                     "node_limit", "eco_max_levels"):
            with pytest.raises(TypeError, match=name):
                FloorplanConfig(**{name: 2.5})
            with pytest.raises(TypeError, match=name):
                FloorplanConfig(**{name: True})
        # None keeps the time limit and the node limit off.
        FloorplanConfig(subproblem_time_limit=None, node_limit=None,
                        mip_rel_gap=0.0)

    def test_resolved_chip_width_explicit(self):
        cfg = FloorplanConfig(chip_width=42.0)
        assert cfg.resolved_chip_width(10_000.0) == 42.0

    def test_resolved_chip_width_derived(self):
        cfg = FloorplanConfig(whitespace_factor=1.0)
        assert cfg.resolved_chip_width(100.0) == pytest.approx(10.0)

    def test_resolved_chip_width_respects_widest_module(self):
        cfg = FloorplanConfig(whitespace_factor=1.0)
        assert cfg.resolved_chip_width(100.0, widest_module=25.0) == 25.0


class TestLinearization:
    def _module(self) -> Module:
        return Module.flexible_area("f", 16.0, aspect_low=0.25, aspect_high=4.0)

    def test_rigid_rejected(self):
        with pytest.raises(ValueError):
            linearize(Module.rigid("r", 2, 2))

    def test_endpoints_exact_for_secant(self):
        lin = linearize(self._module(), Linearization.SECANT)
        assert lin.height_linear(0.0) == pytest.approx(lin.height_exact(0.0))
        assert lin.height_linear(lin.dw_max) == \
            pytest.approx(lin.height_exact(lin.dw_max))

    def test_secant_overestimates_interior(self):
        lin = linearize(self._module(), Linearization.SECANT)
        for frac in (0.2, 0.5, 0.8):
            dw = frac * lin.dw_max
            assert lin.error(dw) >= -1e-12

    def test_tangent_underestimates_interior(self):
        lin = linearize(self._module(), Linearization.TANGENT)
        for frac in (0.2, 0.5, 0.8, 1.0):
            dw = frac * lin.dw_max
            assert lin.error(dw) <= 1e-12

    def test_tangent_exact_at_reference(self):
        lin = linearize(self._module(), Linearization.TANGENT)
        assert lin.error(0.0) == pytest.approx(0.0)

    def test_tangent_slope_is_taylor_derivative(self):
        m = self._module()
        lin = linearize(m, Linearization.TANGENT)
        # |dh/dw| at w_max is S / w_max^2
        assert lin.slope == pytest.approx(m.area / m.width_max ** 2)

    def test_width_parametrization(self):
        lin = linearize(self._module())
        assert lin.width(0.0) == pytest.approx(lin.w_max)
        assert lin.width(lin.dw_max) == pytest.approx(lin.w_min)

    def test_area_preserved_by_exact_height(self):
        lin = linearize(self._module())
        for frac in (0.0, 0.3, 1.0):
            dw = frac * lin.dw_max
            assert lin.width(dw) * lin.height_exact(dw) == pytest.approx(16.0)

    def test_max_linear_height_bounds_both(self):
        m = self._module()
        for mode in Linearization:
            bound = max_linear_height(m, mode)
            lin = linearize(m, mode)
            assert bound >= lin.height_exact(lin.dw_max) - 1e-9
            assert bound >= lin.height_linear(lin.dw_max) - 1e-9

    def test_square_only_module_degenerate(self):
        m = Module.flexible_area("sq", 9.0, aspect_low=1.0, aspect_high=1.0)
        lin = linearize(m, Linearization.SECANT)
        assert lin.dw_max == pytest.approx(0.0)
        assert lin.height_linear(0.0) == pytest.approx(3.0)
