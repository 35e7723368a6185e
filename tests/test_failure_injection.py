"""Failure-injection tests: solver limits, retries, degraded inputs, and
service-level faults (dying worker processes, corrupt cache blobs)."""


import os

import pytest

import repro.core.augmentation as augmentation_module
from repro.core.augmentation import FloorplanError, _solve_with_retry
from repro.core.config import FloorplanConfig
from repro.core.formulation import SubproblemBuilder
from repro.milp.solution import Solution, SolveStatus
from repro.netlist.generators import random_netlist
from repro.netlist.module import Module
from repro.netlist.net import Net
from repro.netlist.netlist import Netlist


def _builder() -> SubproblemBuilder:
    modules = [Module.rigid("a", 2, 2), Module.rigid("b", 2, 2)]
    return SubproblemBuilder(modules, [], chip_width=10.0,
                             config=FloorplanConfig())


class TestSolveWithRetry:
    def test_retry_after_limit(self, monkeypatch):
        """First solve hits a limit with no incumbent; the retry (with a
        doubled time limit) succeeds and its solution is returned."""
        builder = _builder()
        config = FloorplanConfig(subproblem_time_limit=5.0)
        calls = []
        real_solve = augmentation_module.solve

        def flaky_solve(model, **kwargs):
            calls.append(kwargs.get("time_limit"))
            if len(calls) == 1:
                return Solution(status=SolveStatus.LIMIT, backend="fake")
            return real_solve(model, backend="highs",
                              time_limit=kwargs.get("time_limit"))

        monkeypatch.setattr(augmentation_module, "solve", flaky_solve)
        solution = _solve_with_retry(builder, config)
        assert solution.status.has_solution
        assert calls == [5.0, 10.0]  # doubled limit on retry

    def test_raises_after_two_failures(self, monkeypatch):
        builder = _builder()
        config = FloorplanConfig(subproblem_time_limit=5.0)
        monkeypatch.setattr(
            augmentation_module, "solve",
            lambda model, **kwargs: Solution(status=SolveStatus.LIMIT,
                                             backend="fake"))
        with pytest.raises(FloorplanError):
            _solve_with_retry(builder, config)

    def test_infeasible_not_retried_successfully(self, monkeypatch):
        builder = _builder()
        config = FloorplanConfig(subproblem_time_limit=5.0)
        monkeypatch.setattr(
            augmentation_module, "solve",
            lambda model, **kwargs: Solution(status=SolveStatus.INFEASIBLE,
                                             backend="fake",
                                             message="no way"))
        with pytest.raises(FloorplanError, match="no way"):
            _solve_with_retry(builder, config)

    def test_no_time_limit_single_attempt(self, monkeypatch):
        builder = _builder()
        config = FloorplanConfig(subproblem_time_limit=None)
        attempts = []

        def failing_solve(model, **kwargs):
            attempts.append(1)
            return Solution(status=SolveStatus.INFEASIBLE, backend="fake")

        monkeypatch.setattr(augmentation_module, "solve", failing_solve)
        with pytest.raises(FloorplanError):
            _solve_with_retry(builder, config)
        assert len(attempts) == 1  # no retry possible without a limit


class TestDegradedInputs:
    def test_single_module_netlist_rejected_by_net(self):
        with pytest.raises(ValueError):
            Net("n", ("only",))

    def test_netlist_without_nets_floorplans(self):
        """Pure packing: no connectivity at all."""
        from repro.core.floorplanner import floorplan

        modules = [Module.rigid(f"m{i}", 2 + i, 3) for i in range(4)]
        nl = Netlist(modules, [])
        plan = floorplan(nl, FloorplanConfig(seed_size=2, group_size=1))
        assert plan.is_legal

    def test_two_module_netlist(self):
        from repro.core.floorplanner import floorplan

        nl = Netlist([Module.rigid("a", 3, 2), Module.rigid("b", 2, 2)],
                     [Net("n", ("a", "b"))])
        plan = floorplan(nl, FloorplanConfig(seed_size=2, group_size=1))
        assert plan.is_legal
        assert len(plan.placements) == 2

    def test_identical_modules(self):
        """Symmetric instances (all modules identical) still solve."""
        from repro.core.floorplanner import floorplan

        modules = [Module.rigid(f"m{i}", 3, 3) for i in range(6)]
        nets = [Net(f"n{i}", (f"m{i}", f"m{(i + 1) % 6}")) for i in range(6)]
        nl = Netlist(modules, nets)
        plan = floorplan(nl, FloorplanConfig(seed_size=3, group_size=2))
        assert plan.is_legal
        assert plan.utilization > 0.5

    def test_extreme_aspect_module(self):
        from repro.core.floorplanner import floorplan

        modules = [Module.rigid("sliver", 30.0, 0.5),
                   Module.rigid("block", 4.0, 4.0)]
        nl = Netlist(modules, [Net("n", ("sliver", "block"))])
        plan = floorplan(nl, FloorplanConfig(seed_size=2, group_size=1))
        assert plan.is_legal

    def test_flexible_with_tight_aspect(self):
        from repro.core.floorplanner import floorplan

        modules = [Module.flexible_area("f", 9.0, aspect_low=0.99,
                                        aspect_high=1.01),
                   Module.rigid("r", 2, 2)]
        nl = Netlist(modules, [Net("n", ("f", "r"))])
        plan = floorplan(nl, FloorplanConfig(seed_size=2, group_size=1))
        assert plan.is_legal
        rect = plan.placement("f").rect
        assert rect.area == pytest.approx(9.0, rel=1e-6)

    def test_netlist_bigger_chip_width_than_needed(self):
        """An over-wide chip just gives a short floorplan, never an error."""
        from repro.core.floorplanner import floorplan

        nl = random_netlist(4, seed=99)
        plan = floorplan(nl, FloorplanConfig(chip_width=1000.0, seed_size=2,
                                             group_size=1))
        assert plan.is_legal
        assert plan.chip_height <= 1000.0


def _always_dies(request, ctx, defaults):
    """A worker that dies mid-job without reporting anything."""
    os._exit(3)


def _dies_once(request, ctx, defaults):
    """Dies on the first attempt, succeeds on the requeued one (the marker
    file carries the attempt count across processes)."""
    marker = request["marker"]
    if not os.path.exists(marker):
        with open(marker, "w") as f:
            f.write("died\n")
        os._exit(5)
    return {"survived": True}


class TestServiceWorkerDeath:
    """Process-mode execution: a worker process dying mid-solve must
    requeue the job once or fail it with a structured status — the queue
    keeps draining either way."""

    def _process_config(self, tmp_path) -> FloorplanConfig:
        return FloorplanConfig(service_workers=1,
                               service_execution="process",
                               cache_dir=str(tmp_path / "cache"))

    def test_worker_died_requeues_once_then_fails(self, tmp_path,
                                                  tiny_netlist):
        from repro.serialize import netlist_to_dict
        from service_helpers import running_service

        with running_service(
                self._process_config(tmp_path),
                runners={"die": _always_dies}) as (_service, client):
            _code, doc = client.submit({"kind": "die", "payload": 1})
            _code, status = client.status(doc["job_id"], wait=60.0)
            assert status["status"] == "failed"
            assert status["error"]["kind"] == "worker-died"
            assert status["error"]["exitcode"] == 3
            assert status["attempts"] == 2  # original + one requeue
            _code, events = client.events(doc["job_id"])
            types = [e["type"] for e in events["events"]]
            assert types.count("requeued") == 1
            assert types.count("started") == 2

            # The queue is not wedged: a healthy job still completes.
            _code, doc2 = client.submit({
                "kind": "floorplan",
                "netlist": netlist_to_dict(tiny_netlist),
                "config": {"seed_size": 2, "group_size": 1}})
            _code, status2 = client.status(doc2["job_id"], wait=120.0)
            assert status2["status"] == "done"
            stats = client.stats()
        assert stats["requeued"] == 1
        assert stats["jobs"]["failed"] == 1
        assert stats["jobs"]["done"] == 1

    def test_transient_death_recovers_via_requeue(self, tmp_path):
        from service_helpers import running_service

        marker = str(tmp_path / "first-attempt-died")
        with running_service(
                self._process_config(tmp_path),
                runners={"flaky": _dies_once}) as (_service, client):
            _code, doc = client.submit({"kind": "flaky", "marker": marker})
            _code, status = client.status(doc["job_id"], wait=60.0)
            assert status["status"] == "done"
            assert status["attempts"] == 2
            _code, res = client.result(doc["job_id"])
            stats = client.stats()
        assert res["result"] == {"survived": True}
        assert stats["requeued"] == 1


def _eco_dies_once(request, ctx, defaults):
    """An ECO worker that dies mid-job on the first attempt and runs the
    real runner on the requeued one."""
    from repro.service.runner import run_eco

    marker = request["marker"]
    if not os.path.exists(marker):
        with open(marker, "w") as f:
            f.write("died\n")
        os._exit(7)
    return run_eco(request, ctx, defaults)


class TestServiceEcoRequeueIdempotency:
    def test_requeued_eco_job_applies_the_delta_exactly_once(self, tmp_path):
        """A worker dying mid-ECO requeues the job once; the reattempt must
        start from the *submitted* baseline + delta, never from partially
        patched state — the served plan equals a direct solve bit-for-bit
        and the resized module carries its new dimensions exactly once."""
        from repro.core import Floorplanner, NetlistDelta, solve_eco
        from repro.core.eco import ECO_PATCHED
        from repro.serialize import (delta_to_dict, floorplan_from_dict,
                                     floorplan_to_dict)
        from service_helpers import running_service

        netlist = Netlist([
            Module.rigid("a", 4.0, 3.0, rotatable=False),
            Module.rigid("b", 2.0, 5.0, rotatable=False),
            Module.rigid("c", 3.0, 3.0, rotatable=False),
            Module.rigid("d", 5.0, 2.0, rotatable=False),
        ], [Net("n1", ("a", "b"))], name="eco_requeue")
        config = FloorplanConfig(seed_size=2, group_size=2,
                                 use_envelopes=False, solve_cache=False,
                                 subproblem_time_limit=20.0)
        baseline = Floorplanner(netlist, config).run()
        delta = NetlistDelta(resized={"d": (5.0, 2.5)})
        direct = solve_eco(baseline, delta)
        assert direct.status == ECO_PATCHED

        service_config = FloorplanConfig(service_workers=1,
                                         service_execution="process",
                                         cache_dir=str(tmp_path / "cache"))
        marker = str(tmp_path / "eco-first-attempt-died")
        with running_service(
                service_config,
                runners={"eco": _eco_dies_once}) as (_service, client):
            _code, doc = client.submit({
                "kind": "eco",
                "baseline": floorplan_to_dict(baseline),
                "delta": delta_to_dict(delta),
                "marker": marker,
            })
            _code, status = client.status(doc["job_id"], wait=120.0)
            assert status["status"] == "done"
            assert status["attempts"] == 2
            _code, res = client.result(doc["job_id"])
            stats = client.stats()
        assert stats["requeued"] == 1
        served = floorplan_from_dict(res["result"]["eco"]["floorplan"])
        # The delta landed exactly once: 2.5, not 2.5 applied twice over.
        assert served.placements["d"].rect.h == 2.5
        assert served.is_legal
        assert set(served.placements) == set(direct.plan.placements)
        for name, placement in direct.plan.placements.items():
            assert served.placements[name].rect == placement.rect


class TestServiceCorruptCache:
    def test_corrupt_disk_blob_degrades_to_cold_solve(self, tmp_path,
                                                      tiny_netlist):
        """Corrupting every on-disk cache blob between two identical
        service solves must yield a cold re-solve with an identical
        floorplan — misses and unlinks, never a 500 or a failed job."""
        from repro.serialize import netlist_to_dict
        from service_helpers import running_service

        cache_dir = tmp_path / "cache"
        config = FloorplanConfig(service_workers=1,
                                 service_execution="process",
                                 cache_dir=str(cache_dir))
        submission = {"kind": "floorplan",
                      "netlist": netlist_to_dict(tiny_netlist),
                      "config": {"seed_size": 2, "group_size": 1}}
        with running_service(config) as (_service, client):
            _code, first = client.submit(submission)
            _code, res1 = client.result(first["job_id"], wait=120.0)

            blobs = sorted(cache_dir.glob("*.json"))
            assert blobs, "first solve should have written disk blobs"
            for blob in blobs:
                blob.write_text("{corrupt garbage")

            _code, forced = client.submit(dict(submission, force=True))
            _code, status = client.status(forced["job_id"], wait=120.0)
            assert status["status"] == "done"
            _code, res2 = client.result(forced["job_id"])
            warm = client.events(forced["job_id"])[1]["events"]
        steps = [e["cache"] for e in warm if e["type"] == "step"]
        assert steps and all(not c["hit"] for c in steps)  # cold re-solve
        assert res1["result"]["floorplan"]["placements"] == \
            res2["result"]["floorplan"]["placements"]
        # Corrupt blobs were unlinked and replaced by fresh ones.
        for blob in sorted(cache_dir.glob("*.json")):
            assert "corrupt" not in blob.read_text()
