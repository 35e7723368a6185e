"""Idempotent-submission tests: concurrent identical requests coalesce
into exactly one backend solve, and worker processes share solve warmth
through the on-disk cache tier."""

from __future__ import annotations

import threading

import pytest

from repro.core.config import FloorplanConfig
from repro.serialize import netlist_to_dict
from repro.service import canonical_request_text, request_key
from service_helpers import running_service


@pytest.fixture
def submission(tiny_netlist) -> dict:
    return {"kind": "floorplan", "netlist": netlist_to_dict(tiny_netlist),
            "config": {"seed_size": 2, "group_size": 1}}


def _submit_concurrently(client, doc: dict, n_threads: int):
    """``n_threads`` identical submissions released through one barrier;
    returns the (code, response) pairs in thread order."""
    barrier = threading.Barrier(n_threads)
    results: list[tuple[int, dict] | None] = [None] * n_threads

    def worker(slot: int) -> None:
        barrier.wait()
        results[slot] = client.submit(dict(doc))

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert all(r is not None for r in results)
    return results


class TestRequestKeys:
    def test_key_ignores_dict_order_and_float_noise(self, submission):
        reordered = {k: submission[k] for k in reversed(list(submission))}
        noisy = dict(submission,
                     config={"seed_size": 2,
                             "group_size": 1 + 0.0})  # int-valued float
        assert request_key(reordered) == request_key(submission)
        base = dict(submission, config=dict(submission["config"],
                                            mip_rel_gap=1e-4))
        wiggled = dict(submission, config=dict(submission["config"],
                                               mip_rel_gap=1e-4 * (1 + 1e-14)))
        assert request_key(wiggled) == request_key(base)
        del noisy  # float-int mismatch is covered by the canonical text
        assert canonical_request_text(reordered) == \
            canonical_request_text(submission)

    def test_key_excludes_qos_fields(self, submission):
        qos = dict(submission, priority=7, deadline_seconds=3.0, force=True)
        assert request_key(qos) == request_key(submission)
        assert "priority" not in canonical_request_text(qos)

    def test_key_separates_different_computations(self, submission):
        other_config = dict(submission,
                            config={"seed_size": 2, "group_size": 2})
        other_kind = dict(submission, kind="width_search")
        assert request_key(other_config) != request_key(submission)
        assert request_key(other_kind) != request_key(submission)


class TestConcurrentCoalescing:
    def test_identical_submissions_solve_exactly_once(self, submission):
        """16 concurrent identical submissions: one job id, one backend
        execution, byte-identical result bodies for every caller."""
        n_clients = 16
        with running_service() as (service, client):
            responses = _submit_concurrently(client, submission, n_clients)
            assert all(code == 202 for code, _doc in responses)
            job_ids = {doc["job_id"] for _code, doc in responses}
            assert len(job_ids) == 1
            job_id = job_ids.pop()
            assert sum(1 for _c, doc in responses
                       if not doc["deduplicated"]) == 1
            _code, status = client.status(job_id, wait=60.0)
            assert status["status"] == "done"
            bodies = {client.result_bytes(job_id)[1] for _ in range(4)}
            stats = client.stats()
        assert len(bodies) == 1  # byte-identical for all pollers
        assert stats["executed"] == 1
        assert stats["submissions"] == n_clients
        assert stats["deduplicated"] == n_clients - 1

    def test_in_flight_coalescing_with_busy_worker(self):
        """Submissions arriving while the identical job is *running* attach
        to it (the gate guarantees the in-flight window)."""
        gate = threading.Event()

        def blocked(request, ctx, defaults):
            while not gate.wait(timeout=0.05):
                ctx.check()
            return {"echo": request["payload"]}

        with running_service(
                runners={"block": blocked}) as (service, client):
            doc = {"kind": "block", "payload": 42}
            _code, first = client.submit(doc)
            responses = _submit_concurrently(client, doc, 8)
            assert {r["job_id"] for _c, r in responses} == {first["job_id"]}
            assert all(r["deduplicated"] for _c, r in responses)
            gate.set()
            _code, res = client.result(first["job_id"], wait=60.0)
            stats = client.stats()
        assert res["result"] == {"echo": 42}
        assert stats["executed"] == 1

    def test_completed_job_serves_later_identical_submissions(
            self, submission):
        with running_service() as (_service, client):
            _code, first = client.submit(submission)
            client.status(first["job_id"], wait=60.0)
            code, again = client.submit(dict(submission))
            stats = client.stats()
        assert code == 202
        assert again["deduplicated"]
        assert again["job_id"] == first["job_id"]
        assert stats["executed"] == 1

    def test_force_bypasses_dedup(self, submission):
        with running_service() as (_service, client):
            _code, first = client.submit(submission)
            client.status(first["job_id"], wait=60.0)
            _code, forced = client.submit(dict(submission, force=True))
            assert not forced["deduplicated"]
            assert forced["job_id"] != first["job_id"]
            client.status(forced["job_id"], wait=60.0)
            stats = client.stats()
        assert stats["executed"] == 2

    def test_failed_jobs_are_not_coalesced_into(self):
        def boom(request, ctx, defaults):
            raise RuntimeError("injected failure")

        with running_service(runners={"boom": boom}) as (_service, client):
            doc = {"kind": "boom", "payload": 1}
            _code, first = client.submit(doc)
            _code, status = client.status(first["job_id"], wait=60.0)
            assert status["status"] == "failed"
            assert status["error"]["kind"] == "error"
            _code, retry = client.submit(dict(doc))
            assert not retry["deduplicated"]
            assert retry["job_id"] != first["job_id"]


class TestSharedCacheTier:
    def test_worker_processes_share_disk_warm_tier(self, submission,
                                                   tmp_path):
        """Two forked worker processes, one ``cache_dir``: the first solves
        cold and writes the disk tier, the forced rerun (a fresh process
        with a deliberately cold memory tier) serves every step from disk."""
        config = FloorplanConfig(service_workers=1,
                                 service_execution="process",
                                 cache_dir=str(tmp_path / "shared"))
        with running_service(config) as (_service, client):
            _code, first = client.submit(submission)
            cold = client.stream_events(first["job_id"])
            _code, forced = client.submit(dict(submission, force=True))
            warm = client.stream_events(forced["job_id"])
            stats = client.stats()
        assert stats["executed"] == 2
        cold_steps = [e["cache"] for e in cold if e["type"] == "step"]
        warm_steps = [e["cache"] for e in warm if e["type"] == "step"]
        assert len(cold_steps) == len(warm_steps) == 3
        assert all(not c["hit"] for c in cold_steps)
        assert all(c["hit"] and c["tier"] == "disk" for c in warm_steps)
        assert all(c["recertified"] for c in warm_steps)

    def test_inline_workers_share_via_cache_too(self, submission, tmp_path):
        """Inline execution reuses the same cache plumbing: a forced rerun
        hits (memory or disk tier) on every step."""
        config = FloorplanConfig(cache_dir=str(tmp_path / "shared"))
        with running_service(config) as (_service, client):
            _code, first = client.submit(submission)
            client.status(first["job_id"], wait=60.0)
            _code, forced = client.submit(dict(submission, force=True))
            warm = client.stream_events(forced["job_id"])
        warm_steps = [e["cache"] for e in warm if e["type"] == "step"]
        assert warm_steps and all(c["hit"] for c in warm_steps)
