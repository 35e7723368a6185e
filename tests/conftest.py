"""Shared fixtures: small instances and fast configurations."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core.config import FloorplanConfig
from repro.milp.cache import CACHE_DIR_ENV, clear_caches
from repro.netlist.module import Module, PinCounts
from repro.netlist.net import Net
from repro.netlist.netlist import Netlist
from repro.routing.technology import Technology

# CI selects this with --hypothesis-profile=ci: a failing example is printed
# with the blob that replays it (@reproduce_failure), since an example made
# of objects prints only their reprs.
settings.register_profile("ci", print_blob=True)


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-goldens", action="store_true", default=False,
        help="rewrite tests/goldens/*.json from the current run instead of "
             "comparing against them")


@pytest.fixture
def update_goldens(request: pytest.FixtureRequest) -> bool:
    """True when the run should rewrite the golden files."""
    return bool(request.config.getoption("--update-goldens"))


@pytest.fixture(autouse=True)
def _isolate_solve_cache(monkeypatch: pytest.MonkeyPatch):
    """Every test starts with no process-wide solve cache and no ambient
    cache directory, so hits can never leak between tests (or from the
    developer's ``~/.cache``) and determinism-sensitive assertions stay
    meaningful."""
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    clear_caches()
    yield
    clear_caches()


@pytest.fixture
def tiny_netlist() -> Netlist:
    """Four rigid modules with a simple net structure."""
    modules = [
        Module.rigid("a", 4.0, 3.0, pins=PinCounts(1, 1, 1, 1)),
        Module.rigid("b", 2.0, 5.0, pins=PinCounts(2, 0, 1, 0)),
        Module.rigid("c", 3.0, 3.0, pins=PinCounts(0, 1, 0, 2)),
        Module.rigid("d", 5.0, 2.0, pins=PinCounts(1, 1, 0, 0)),
    ]
    nets = [
        Net("n1", ("a", "b")),
        Net("n2", ("b", "c", "d")),
        Net("n3", ("a", "d"), criticality=0.8),
    ]
    return Netlist(modules, nets, name="tiny")


@pytest.fixture
def mixed_netlist() -> Netlist:
    """Rigid + flexible mix for flexible-module paths."""
    modules = [
        Module.rigid("r1", 4.0, 2.0),
        Module.rigid("r2", 3.0, 3.0, rotatable=False),
        Module.flexible_area("f1", 9.0, aspect_low=0.5, aspect_high=2.0),
        Module.flexible_area("f2", 6.0, aspect_low=0.25, aspect_high=4.0),
    ]
    nets = [
        Net("n1", ("r1", "f1")),
        Net("n2", ("r2", "f2")),
        Net("n3", ("f1", "f2", "r1")),
    ]
    return Netlist(modules, nets, name="mixed")


@pytest.fixture
def fast_config() -> FloorplanConfig:
    """A configuration that solves quickly in tests."""
    return FloorplanConfig(seed_size=3, group_size=2,
                           subproblem_time_limit=10.0)


@pytest.fixture
def around_tech() -> Technology:
    """Around-the-cell technology with convenient pitches."""
    return Technology.around_the_cell(pitch_h=0.25, pitch_v=0.25)
