"""Service-level tests: submit/poll/result parity, priority ordering,
deadlines, cancellation, and HTTP error contracts.

Everything is event- or condition-driven — blocking runners gate on
``threading.Event``/cancel flags and tests wait on job events, never on
sleeps."""

from __future__ import annotations

import json
import math
import threading

import pytest

from repro.core.config import FloorplanConfig
from repro.core.floorplanner import Floorplanner
from repro.milp.model import Model
from repro.milp.solvers.registry import solve
from repro.serialize import (floorplan_from_dict, model_to_dict,
                             netlist_to_dict)
from service_helpers import running_service


def _floorplan_submission(netlist, **config) -> dict:
    config.setdefault("seed_size", 2)
    config.setdefault("group_size", 1)
    return {"kind": "floorplan", "netlist": netlist_to_dict(netlist),
            "config": config}


def _blocking_runner(gate: threading.Event, started: list | None = None):
    """A job kind that parks until ``gate`` is set (checking for
    cancellation), so tests control exactly when the worker is busy.
    Appends each job's ``tag`` to ``started`` as it begins."""

    def run(request, ctx, defaults):
        if started is not None:
            started.append(request.get("tag"))
        while not gate.wait(timeout=0.05):
            ctx.check()
        ctx.check()
        return {"kind": "block", "ok": True}

    return run


def _wait_running(client, job_id: str) -> None:
    """Block until the job has emitted its ``started`` event."""
    seen = 0
    while True:
        _code, doc = client.events(job_id, since=seen, wait=10.0)
        if any(e["type"] == "started" for e in doc["events"]):
            return
        assert doc["status"] in ("queued", "running"), \
            f"job reached {doc['status']} before starting"
        seen = doc["next"]


class TestSubmitPollResult:
    def test_parity_with_direct_solve(self, tiny_netlist, tmp_path):
        """A floorplan served over HTTP equals the same solve run
        in-process: identical placements, chip dimensions, and step
        objectives."""
        config = FloorplanConfig(seed_size=2, group_size=1,
                                 cache_dir=str(tmp_path / "cache"))
        direct = Floorplanner(tiny_netlist, config).run()

        with running_service(config) as (_service, client):
            code, doc = client.submit(_floorplan_submission(tiny_netlist))
            assert code == 202
            assert doc["status"] == "queued"
            assert not doc["deduplicated"]
            code, status = client.status(doc["job_id"], wait=60.0)
            assert code == 200
            assert status["status"] == "done"
            assert status["error"] is None
            code, res = client.result(doc["job_id"])
        assert code == 200
        served = floorplan_from_dict(res["result"]["floorplan"])
        assert served.chip_width == direct.chip_width
        assert served.chip_height == direct.chip_height
        assert served.is_legal
        for name, placement in direct.placements.items():
            assert served.placements[name].rect == placement.rect
        assert [s.objective for s in served.trace.steps] == \
            [s.objective for s in direct.trace.steps]
        summary = res["result"]["summary"]
        assert summary["n_steps"] == direct.trace.n_steps
        assert summary["legal"]

    def test_step_events_stream_telemetry(self, tiny_netlist):
        """One ``step`` event per augmentation step, seq-contiguous, with
        solver telemetry attached; the follow stream ends at ``done``."""
        with running_service() as (_service, client):
            _code, doc = client.submit(_floorplan_submission(tiny_netlist))
            events = client.stream_events(doc["job_id"])
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert events[0]["type"] == "queued"
        assert events[-1]["type"] == "done"
        steps = [e for e in events if e["type"] == "step"]
        assert len(steps) == 3  # seed + 2 augmentation steps of 4 modules
        assert [e["index"] for e in steps] == [0, 1, 2]
        for event in steps:
            assert event["status"] == "optimal"
            assert event["backend"]
            assert event["n_binaries"] >= 0
            assert "cache" in event

    def test_solve_kind_parity(self):
        """The batched ``solve`` kind returns the same objectives as
        direct :func:`registry.solve` calls."""
        models = []
        for k in range(3):
            model = Model(name=f"m{k}")
            x = model.add_var("x", lb=0.0, ub=4.0 + k)
            y = model.add_var("y", lb=0.0, ub=3.0)
            model.add_constraint(x + y <= 5.0 + k)
            model.set_objective(2.0 * x + y, sense="max")
            models.append(model)
        expect = [solve(m).objective for m in models]

        with running_service() as (_service, client):
            code, doc = client.submit(
                {"kind": "solve", "models": [model_to_dict(m)
                                             for m in models]})
            assert code == 202
            code, res = client.result(doc["job_id"], wait=60.0)
        assert code == 200
        solutions = res["result"]["solutions"]
        assert [s["status"] for s in solutions] == ["optimal"] * 3
        assert [s["objective"] for s in solutions] == pytest.approx(expect)

    def test_width_search_kind(self, tiny_netlist):
        with running_service() as (_service, client):
            _code, doc = client.submit({
                "kind": "width_search",
                "netlist": netlist_to_dict(tiny_netlist),
                "config": {"seed_size": 2, "group_size": 1},
                "width_search": {"n_candidates": 2, "workers": 1},
            })
            code, res = client.result(doc["job_id"], wait=120.0)
        assert code == 200
        result = res["result"]
        assert len(result["candidates"]) == 2
        best = floorplan_from_dict(result["floorplan"])
        assert result["best_width"] == best.chip_width
        assert best.is_legal


class TestPriorityOrdering:
    def test_higher_priority_starts_first(self):
        """With one busy worker, queued jobs start strictly by priority
        (FIFO within equal priority) once the worker frees up."""
        gate = threading.Event()
        started: list[str] = []
        config = FloorplanConfig(service_workers=1)
        with running_service(
                config,
                runners={"block": _blocking_runner(gate, started)}) as (
                    _service, client):
            _code, head = client.submit({"kind": "block", "tag": "head"})
            _wait_running(client, head["job_id"])
            submitted = []
            for tag, priority in [("low", 0), ("mid-a", 5), ("mid-b", 5),
                                  ("high", 10)]:
                _code, doc = client.submit({"kind": "block", "tag": tag,
                                            "priority": priority})
                assert not doc["deduplicated"]
                submitted.append((tag, doc["job_id"]))
            gate.set()
            for _tag, job_id in submitted:
                _code, status = client.status(job_id, wait=60.0)
                assert status["status"] == "done"
        assert started == ["head", "high", "mid-a", "mid-b", "low"]


class TestDeadlines:
    def test_queued_job_expires_with_structured_status(self):
        """A job whose deadline passes while queued flips to ``expired``
        with the structured timeout document when a worker reaches it."""
        gate = threading.Event()
        config = FloorplanConfig(service_workers=1)
        with running_service(
                config,
                runners={"block": _blocking_runner(gate)}) as (_service,
                                                               client):
            _code, head = client.submit({"kind": "block", "tag": "head"})
            _wait_running(client, head["job_id"])
            _code, doc = client.submit({"kind": "block", "tag": "doomed",
                                        "deadline_seconds": 0})
            gate.set()
            _code, status = client.status(doc["job_id"], wait=60.0)
        assert status["status"] == "expired"
        assert status["error"]["kind"] == "deadline"
        assert status["error"]["where"] == "queued"
        assert status["error"]["deadline_seconds"] == 0

    def test_running_job_expires_at_observer(self):
        """An in-flight job past its deadline stops at the next
        cooperative check and reports where it expired."""
        gate = threading.Event()  # never set: job can only exit via check()
        with running_service(
                runners={"block": _blocking_runner(gate)}) as (_service,
                                                               client):
            _code, doc = client.submit({"kind": "block",
                                        "deadline_seconds": 0.2})
            _code, status = client.status(doc["job_id"], wait=60.0)
        assert status["status"] == "expired"
        assert status["error"]["where"] == "running"

    def test_default_deadline_from_config(self):
        gate = threading.Event()
        config = FloorplanConfig(service_default_deadline=0.2)
        with running_service(
                config,
                runners={"block": _blocking_runner(gate)}) as (_service,
                                                               client):
            _code, doc = client.submit({"kind": "block"})
            _code, status = client.status(doc["job_id"], wait=60.0)
        assert status["status"] == "expired"
        assert status["error"]["deadline_seconds"] == 0.2


class TestCancellation:
    def test_cancel_queued_job(self):
        gate = threading.Event()
        config = FloorplanConfig(service_workers=1)
        with running_service(
                config,
                runners={"block": _blocking_runner(gate)}) as (_service,
                                                               client):
            _code, head = client.submit({"kind": "block", "tag": "head"})
            _wait_running(client, head["job_id"])
            _code, doc = client.submit({"kind": "block", "tag": "victim"})
            code, cancelled = client.cancel(doc["job_id"])
            assert code == 200
            assert cancelled["cancelled"]
            assert cancelled["status"] == "cancelled"  # immediate: queued
            gate.set()
            _code, head_status = client.status(head["job_id"], wait=60.0)
            _code, status = client.status(doc["job_id"])
        assert head_status["status"] == "done"
        assert status["status"] == "cancelled"
        # The worker never started the cancelled job.
        assert status["started_at"] is None

    def test_cancel_running_job(self):
        gate = threading.Event()  # never set: only cancellation frees it
        with running_service(
                runners={"block": _blocking_runner(gate)}) as (_service,
                                                               client):
            _code, doc = client.submit({"kind": "block"})
            _wait_running(client, doc["job_id"])
            code, cancelled = client.cancel(doc["job_id"])
            assert code == 200
            assert cancelled["cancelled"]
            _code, status = client.status(doc["job_id"], wait=60.0)
            code, res = client.result(doc["job_id"])
            _code, events = client.events(doc["job_id"])
        assert status["status"] == "cancelled"
        assert code == 409
        assert res["error"]["kind"] == "cancelled"
        assert "cancel_requested" in [e["type"] for e in events["events"]]

    def test_cancel_terminal_job_is_a_noop(self, tiny_netlist):
        with running_service() as (_service, client):
            _code, doc = client.submit(_floorplan_submission(tiny_netlist))
            client.status(doc["job_id"], wait=60.0)
            code, cancelled = client.cancel(doc["job_id"])
        assert code == 200
        assert not cancelled["cancelled"]
        assert cancelled["status"] == "done"


class TestHttpContracts:
    def test_malformed_json_body(self):
        with running_service() as (_service, client):
            code, raw = client.raw("POST", "/v1/jobs", b"{not json")
        doc = json.loads(raw)
        assert code == 400
        assert doc["error"]["kind"] == "bad-request"

    def test_non_object_body(self):
        with running_service() as (_service, client):
            code, doc = client.call("POST", "/v1/jobs", [1, 2, 3])
        assert code == 400

    def test_unknown_kind(self):
        with running_service() as (_service, client):
            code, doc = client.submit({"kind": "mystery"})
        assert code == 400
        assert "mystery" in doc["error"]["message"]

    def test_unknown_config_field(self, tiny_netlist):
        """Fields the config never had, and retired ones, get a 400."""
        with running_service() as (_service, client):
            for field, value in (("warp_factor", 9), ("legalize", True)):
                sub = _floorplan_submission(tiny_netlist, **{field: value})
                code, doc = client.submit(sub)
                assert code == 400
                assert "unknown config fields" in doc["error"]["message"]
                assert field in doc["error"]["message"]

    @pytest.mark.parametrize("kind,field,value", [
        ("floorplan", "backend", "bogus"),
        ("floorplan", "backend", "portfolio"),
        ("floorplan", "backend", "simplex"),
        ("floorplan", "lp_engine", "bogus"),
        ("floorplan", "lp_engine", "highs-linprog"),
        ("solve", "backend", "bogus"),
        ("solve", "backend", "portfolio"),
        ("solve", "formulation", "bogus"),
    ])
    def test_unknown_solver_name(self, tiny_netlist, kind, field, value):
        """An unregistered solver name — or, for a floorplan, the LP-only
        simplex — is rejected at submit time, not queued to fail in a
        worker."""
        if kind == "floorplan":
            sub = _floorplan_submission(tiny_netlist, **{field: value})
        else:
            model = Model(name="m")
            model.set_objective(model.add_var("x", lb=0.0, ub=1.0))
            sub = {"kind": "solve", "models": [model_to_dict(model)],
                   field: value}
        with running_service() as (_service, client):
            code, doc = client.submit(sub)
        assert code == 400
        assert repr(value) in doc["error"]["message"]

    @pytest.mark.parametrize("config", [
        {"chip_width": math.nan},
        {"whitespace_factor": math.inf},
        {"outline": [math.nan, 5.0]},
        {"wirelength_weight": -5.0, "objective": "area+wirelength"},
        {"int_tol": math.nan, "backend": "bnb"},
        {"int_tol": math.inf},
        {"mip_rel_gap": -0.5},
        {"mip_rel_gap": math.nan},
        {"subproblem_time_limit": 0.0},
        {"subproblem_time_limit": math.inf},
        {"seed_size": 2.5},
        {"group_size": 1.5},
        {"relinearization_rounds": 0.5},
        {"node_limit": 10.5},
        {"eco_max_levels": 1.5},
    ], ids=["nan-chip-width", "infinite-whitespace", "nan-outline",
            "negative-wirelength-weight", "nan-int-tol", "infinite-int-tol",
            "negative-gap", "nan-gap", "zero-time-limit",
            "infinite-time-limit", "fractional-seed-size",
            "fractional-group-size", "fractional-relinearization-rounds",
            "fractional-node-limit", "fractional-eco-max-levels"])
    def test_config_that_can_only_fail(self, tiny_netlist, config):
        """A config whose run is sure to fail (an infeasible or unbounded
        window, a solve under a NaN tolerance, a fractional count that
        reaches a slice or ``range()``) is rejected at submit time.  The
        server's ``json.loads`` parses NaN and Infinity."""
        with running_service() as (_service, client):
            code, doc = client.submit(
                _floorplan_submission(tiny_netlist, **config))
        assert code == 400
        assert "invalid config" in doc["error"]["message"]

    def test_invalid_netlist(self):
        with running_service() as (_service, client):
            code, doc = client.submit({"kind": "floorplan",
                                       "netlist": {"bogus": True}})
        assert code == 400
        assert doc["error"]["kind"] == "bad-request"

    def test_unknown_job_404(self):
        with running_service() as (_service, client):
            code, doc = client.status("deadbeef")
            assert (code, doc["error"]["kind"]) == (404, "not-found")
            code, _doc = client.result("deadbeef")
            assert code == 404
            code, _doc = client.cancel("deadbeef")
            assert code == 404

    def test_result_before_done_409(self):
        gate = threading.Event()
        with running_service(
                runners={"block": _blocking_runner(gate)}) as (_service,
                                                               client):
            _code, doc = client.submit({"kind": "block"})
            code, res = client.result(doc["job_id"])
            assert code == 409
            assert res["status"] in ("queued", "running")
            gate.set()
            code, res = client.result(doc["job_id"], wait=60.0)
            assert code == 200

    def test_queue_full_429(self):
        gate = threading.Event()
        config = FloorplanConfig(service_workers=1, service_queue_size=1)
        with running_service(
                config,
                runners={"block": _blocking_runner(gate)}) as (_service,
                                                               client):
            _code, head = client.submit({"kind": "block", "tag": "head"})
            _wait_running(client, head["job_id"])
            code, _doc = client.submit({"kind": "block", "tag": "waits"})
            assert code == 202
            code, doc = client.submit({"kind": "block", "tag": "rejected"})
            assert code == 429
            assert doc["error"]["kind"] == "queue-full"
            gate.set()

    def test_health_and_unknown_route(self):
        with running_service() as (_service, client):
            code, doc = client.call("GET", "/v1/health")
            assert (code, doc["status"]) == (200, "ok")
            code, _doc = client.call("GET", "/v1/nothing")
            assert code == 404


class TestConfigValidation:
    def test_service_knob_validation(self):
        with pytest.raises(ValueError):
            FloorplanConfig(service_workers=0)
        with pytest.raises(ValueError):
            FloorplanConfig(service_queue_size=0)
        with pytest.raises(ValueError):
            FloorplanConfig(service_default_deadline=-1.0)
        with pytest.raises(ValueError):
            FloorplanConfig(service_execution="thread")

    def test_cli_has_serve_command(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--service-workers", "3",
             "--execution", "process"])
        assert args.port == 0
        assert args.service_workers == 3
        assert args.execution == "process"
        assert args.formulation == "bigm"


class TestServerFormulationDefault:
    def test_default_formulation_reaches_jobs(self, tiny_netlist):
        """``serve --formulation unary`` must apply to jobs that name no
        encoding of their own — the plan document records it."""
        config = FloorplanConfig(seed_size=2, group_size=1,
                                 formulation="unary")
        with running_service(config) as (_service, client):
            _code, doc = client.submit(_floorplan_submission(tiny_netlist))
            code, status = client.status(doc["job_id"], wait=60.0)
            assert code == 200 and status["status"] == "done"
            _code, res = client.result(doc["job_id"])
        assert res["result"]["config"]["formulation"] == "unary"
        assert res["result"]["floorplan"]["config"]["formulation"] == "unary"

    def test_job_config_overrides_server_default(self, tiny_netlist):
        config = FloorplanConfig(seed_size=2, group_size=1,
                                 formulation="unary")
        with running_service(config) as (_service, client):
            _code, doc = client.submit(_floorplan_submission(
                tiny_netlist, formulation="bigm"))
            code, status = client.status(doc["job_id"], wait=60.0)
            assert code == 200 and status["status"] == "done"
            _code, res = client.result(doc["job_id"])
        # bigm is the default encoding, so the document omits the field
        assert "formulation" not in res["result"]["config"]
