"""The floorplanning job service: queue, worker pool, dedup, HTTP front.

:class:`FloorplanService` is the engine — a bounded priority queue drained
by a pool of worker threads, with idempotent submission (structurally
identical requests coalesce into one job, see :mod:`repro.service.keys`)
and two execution modes per :attr:`FloorplanConfig.service_execution`:

* ``inline`` — the worker thread runs the job itself; step events,
  cooperative cancellation and deadline checks come straight from the
  augmentation observer (:func:`repro.core.augmentation.run_augmentation`'s
  ``on_step``);
* ``process`` — the job runs in a forked child speaking over a pipe; the
  parent relays its events and terminates it on cancel/deadline, and a
  child that dies mid-solve is requeued once, then failed with a
  structured ``worker-died`` status.  The queue never hangs either way.

Either mode shares solve warmth through the on-disk tier of the canonical
solve cache (:mod:`repro.milp.cache`) rooted at the service's
``cache_dir`` — worker processes start with a cold memory tier on purpose,
so cross-process reuse is exactly the disk tier.

The HTTP layer is a stdlib :class:`~http.server.ThreadingHTTPServer`
speaking JSON:

========  ==============================  =======================================
method    path                            meaning
========  ==============================  =======================================
POST      ``/v1/jobs``                    submit (202; 400 malformed, 429 full)
GET       ``/v1/jobs/<id>``               status; ``?wait=S`` long-polls terminal
GET       ``/v1/jobs/<id>/result``        result (409 until done)
GET       ``/v1/jobs/<id>/events``        events; ``?since=N&wait=S``,
                                          ``&follow=1`` streams NDJSON
POST      ``/v1/jobs/<id>/cancel``        cancel queued or running
GET       ``/v1/health``                  liveness
GET       ``/v1/stats``                   queue/worker/dedup counters
========  ==============================  =======================================
"""

from __future__ import annotations

import json
import multiprocessing
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable
from urllib.parse import parse_qs, urlsplit

from repro.core.config import FloorplanConfig
from repro.service.jobs import (Job, JobCancelled, JobExpired, JobStatus,
                                PriorityJobQueue, QueueFull, new_job_id)
from repro.service.keys import request_key
from repro.service.runner import (JOB_RUNNERS, BadRequest, JobContext,
                                  validate_request)

#: How long a follow-mode event stream waits per poll round.
_FOLLOW_POLL_SECONDS = 10.0
#: Parent-side poll interval while supervising a worker process.
_CHILD_POLL_SECONDS = 0.05


def _child_main(runner: Callable[..., dict[str, Any]],
                request: dict[str, Any], defaults: FloorplanConfig,
                conn) -> None:
    """Entry point of a forked worker process.

    Sends ``("event", type, data)`` tuples while running and exactly one
    ``("result", doc)`` or ``("error", doc)`` at the end; a child that
    exits without either is what the parent calls a dead worker.
    """
    from repro.milp.cache import clear_caches

    # Drop the memory tier inherited from the parent so every cross-process
    # reuse is a genuine disk-tier hit.
    clear_caches()
    ctx = JobContext(emit=lambda event_type, **data:
                     conn.send(("event", event_type, data)))
    try:
        result = runner(request, ctx, defaults)
        conn.send(("result", result))
    except BadRequest as exc:
        conn.send(("error", {"kind": "bad-request", "message": str(exc)}))
    except BaseException as exc:  # noqa: BLE001 - report, then die
        conn.send(("error", {"kind": "error",
                             "type": type(exc).__name__,
                             "message": str(exc)}))
    finally:
        conn.close()


class FloorplanService:
    """The job engine behind ``repro-floorplan serve``.

    Args:
        config: service knobs (``service_*`` fields), and the job defaults
            — shared ``cache_dir``, default ``formulation`` and ``outline``
            — that :func:`~repro.service.runner.config_from_request`
            applies per job kind.
        runners: overrides/extends the default kind registry
            (:data:`~repro.service.runner.JOB_RUNNERS`); every runner is
            called as ``runner(request, ctx, config)``.
    """

    def __init__(self, config: FloorplanConfig | None = None, *,
                 runners: dict[str, Callable[..., dict[str, Any]]]
                 | None = None) -> None:
        self.config = config or FloorplanConfig()
        self.runners = dict(JOB_RUNNERS)
        if runners:
            self.runners.update(runners)
        self._queue = PriorityJobQueue(self.config.service_queue_size)
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._by_key: dict[str, Job] = {}
        self._submissions = 0
        self._deduplicated = 0
        self._executed = 0
        self._requeued = 0
        self._running = False
        self._threads: list[threading.Thread] = []

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Start the worker pool (idempotent)."""
        if self._running:
            return
        self._running = True
        self._threads = [
            threading.Thread(target=self._worker, name=f"service-worker-{i}",
                             daemon=True)
            for i in range(self.config.service_workers)
        ]
        for thread in self._threads:
            thread.start()

    def stop(self) -> None:
        """Stop the worker pool; running jobs finish their current step."""
        self._running = False
        for thread in self._threads:
            thread.join(timeout=30.0)
        self._threads = []

    # -- submission -----------------------------------------------------------

    def submit(self, doc: dict[str, Any]) -> tuple[Job, bool]:
        """Submit one job document; returns ``(job, deduplicated)``.

        The document is flat: ``kind`` plus the kind's request fields plus
        the QoS fields ``priority`` / ``deadline_seconds`` / ``force``.
        A structurally identical live (queued/running) or completed job is
        returned instead of creating a new one, unless ``force`` is set or
        the previous attempt ended cancelled/expired/failed.
        """
        if not isinstance(doc, dict):
            raise BadRequest("submission body must be a JSON object")
        kind = doc.get("kind")
        if not isinstance(kind, str):
            raise BadRequest("submission needs a string 'kind'")
        priority = doc.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise BadRequest("'priority' must be an integer")
        deadline_seconds = doc.get(
            "deadline_seconds", self.config.service_default_deadline)
        if deadline_seconds is not None:
            try:
                deadline_seconds = float(deadline_seconds)
            except (TypeError, ValueError):
                raise BadRequest("'deadline_seconds' must be a number")
            if deadline_seconds < 0:
                raise BadRequest("'deadline_seconds' must be >= 0")
        validate_request(kind, doc, runners=self.runners,
                         defaults=self.config)
        key = request_key(doc)
        with self._lock:
            self._submissions += 1
            if not doc.get("force"):
                existing = self._by_key.get(key)
                if existing is not None and (
                        not existing.status.terminal
                        or existing.status is JobStatus.DONE):
                    self._deduplicated += 1
                    return existing, True
            job = Job(id=new_job_id(), key=key, kind=kind, request=doc,
                      priority=priority, deadline_seconds=deadline_seconds)
            if deadline_seconds is not None:
                job.deadline = time.monotonic() + deadline_seconds
            self._queue.put(job)  # raises QueueFull before registration
            self._jobs[job.id] = job
            self._by_key[key] = job
        job.emit("queued", priority=priority,
                 deadline_seconds=deadline_seconds)
        return job, False

    def get(self, job_id: str) -> Job | None:
        """The job with this id, or None."""
        with self._lock:
            return self._jobs.get(job_id)

    def cancel(self, job_id: str) -> bool:
        """Cancel a job; True when the request had any effect."""
        job = self.get(job_id)
        return job is not None and job.request_cancel()

    # -- stats ----------------------------------------------------------------

    def stats_doc(self) -> dict[str, Any]:
        """The ``GET /v1/stats`` document."""
        with self._lock:
            by_status: dict[str, int] = {s.value: 0 for s in JobStatus}
            for job in self._jobs.values():
                by_status[job.status.value] += 1
            return {
                "submissions": self._submissions,
                "deduplicated": self._deduplicated,
                "executed": self._executed,
                "requeued": self._requeued,
                "jobs": by_status,
                "queued_now": len(self._queue),
                "workers": self.config.service_workers,
                "execution": self.config.service_execution,
            }

    # -- execution ------------------------------------------------------------

    def _worker(self) -> None:
        while self._running:
            job = self._queue.get(timeout=0.1)
            if job is not None:
                self._execute(job)

    def _execute(self, job: Job) -> None:
        with job.cond:
            job.attempts += 1
            attempt = job.attempts
        with self._lock:
            self._executed += 1
        job.transition(JobStatus.RUNNING, event="started", attempt=attempt)
        runner = self.runners[job.kind]
        if self._process_mode():
            self._run_in_process(job, runner)
        else:
            self._run_inline(job, runner)

    def _process_mode(self) -> bool:
        return (self.config.service_execution == "process"
                and "fork" in multiprocessing.get_all_start_methods())

    def _run_inline(self, job: Job, runner) -> None:
        ctx = JobContext(emit=job.emit, cancel_event=job.cancel_requested,
                         deadline=job.deadline)
        try:
            result = runner(job.request, ctx, self.config)
        except JobCancelled:
            job.transition(JobStatus.CANCELLED, error={
                "kind": "cancelled", "message": "cancelled while running"})
        except JobExpired:
            job.expire("running")
        except BadRequest as exc:
            job.transition(JobStatus.FAILED, error={
                "kind": "bad-request", "message": str(exc)})
        except Exception as exc:  # noqa: BLE001 - jobs fail, servers don't
            job.transition(JobStatus.FAILED, error={
                "kind": "error", "type": type(exc).__name__,
                "message": str(exc)})
        else:
            job.transition(JobStatus.DONE, result=result)

    def _run_in_process(self, job: Job, runner) -> None:
        """Supervise one forked worker process (terminate on
        cancel/deadline, requeue once on unexplained death)."""
        mp = multiprocessing.get_context("fork")
        parent_conn, child_conn = mp.Pipe(duplex=False)
        proc = mp.Process(target=_child_main,
                          args=(runner, job.request, self.config,
                                child_conn),
                          daemon=True)
        proc.start()
        child_conn.close()
        outcome = None
        try:
            while outcome is None:
                if job.cancel_requested.is_set():
                    proc.terminate()
                    proc.join()
                    job.transition(JobStatus.CANCELLED, error={
                        "kind": "cancelled",
                        "message": "cancelled while running "
                                   "(worker terminated)"})
                    return
                if job.expired_now():
                    proc.terminate()
                    proc.join()
                    job.expire("running")
                    return
                if parent_conn.poll(_CHILD_POLL_SECONDS):
                    try:
                        message = parent_conn.recv()
                    except (EOFError, OSError):
                        break  # pipe closed without a final message
                    if message[0] == "event":
                        job.emit(message[1], **message[2])
                    else:
                        outcome = message
                elif not proc.is_alive():
                    break  # died without closing the pipe cleanly
        finally:
            proc.join()
            parent_conn.close()
        if outcome is None:
            self._handle_worker_death(job, proc.exitcode)
        elif outcome[0] == "result":
            job.transition(JobStatus.DONE, result=outcome[1])
        else:
            job.transition(JobStatus.FAILED, error=outcome[1])

    def _handle_worker_death(self, job: Job, exitcode: int | None) -> None:
        """A worker process exited without reporting: requeue the job once,
        then fail it with the structured ``worker-died`` status — either
        way the queue keeps draining."""
        if job.attempts < 2:
            with self._lock:
                self._requeued += 1
            job.transition(JobStatus.QUEUED, event="requeued",
                           exitcode=exitcode)
            try:
                with self._lock:
                    self._queue.put(job)
                return
            except QueueFull:
                pass
        job.transition(JobStatus.FAILED, error={
            "kind": "worker-died",
            "message": f"worker process died (exit code {exitcode}) "
                       f"after {job.attempts} attempt(s)",
            "exitcode": exitcode,
            "attempts": job.attempts,
        })


# ---------------------------------------------------------------------------
# HTTP layer
# ---------------------------------------------------------------------------

class _ServiceHandler(BaseHTTPRequestHandler):
    """JSON request handler bound to one :class:`FloorplanService` (the
    ``service`` class attribute, set by :func:`make_server`)."""

    service: FloorplanService
    server_version = "repro-floorplan/1"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # tests and the CLI don't want per-request stderr noise

    # -- plumbing -------------------------------------------------------------

    def _send_json(self, code: int, doc: dict[str, Any]) -> None:
        body = (json.dumps(doc) + "\n").encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, kind: str, message: str) -> None:
        self._send_json(code, {"error": {"kind": kind, "message": message}})

    def _read_body(self) -> dict[str, Any] | None:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = 0
        raw = self.rfile.read(length) if length else b""
        try:
            doc = json.loads(raw or b"null")
        except json.JSONDecodeError:
            self._error(400, "bad-request", "body is not valid JSON")
            return None
        if not isinstance(doc, dict):
            self._error(400, "bad-request",
                        "submission body must be a JSON object")
            return None
        return doc

    def _job_or_404(self, job_id: str) -> Job | None:
        job = self.service.get(job_id)
        if job is None:
            self._error(404, "not-found", f"no job {job_id!r}")
        return job

    # -- routes ---------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        parts = urlsplit(self.path).path.strip("/").split("/")
        if parts == ["v1", "jobs"]:
            doc = self._read_body()
            if doc is None:
                return
            try:
                job, deduplicated = self.service.submit(doc)
            except BadRequest as exc:
                self._error(400, "bad-request", str(exc))
                return
            except QueueFull as exc:
                self._error(429, "queue-full", str(exc))
                return
            self._send_json(202, {"job_id": job.id,
                                  "status": job.status.value,
                                  "deduplicated": deduplicated,
                                  "key": job.key})
        elif len(parts) == 4 and parts[:2] == ["v1", "jobs"] \
                and parts[3] == "cancel":
            job = self._job_or_404(parts[2])
            if job is not None:
                cancelled = job.request_cancel()
                self._send_json(200, {"job_id": job.id,
                                      "cancelled": cancelled,
                                      "status": job.status.value})
        else:
            self._error(404, "not-found", f"no route POST {self.path}")

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urlsplit(self.path)
        query = {k: v[-1] for k, v in parse_qs(url.query).items()}
        parts = url.path.strip("/").split("/")
        if parts == ["v1", "health"]:
            self._send_json(200, {"status": "ok"})
        elif parts == ["v1", "stats"]:
            self._send_json(200, self.service.stats_doc())
        elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            job = self._job_or_404(parts[2])
            if job is not None:
                wait = float(query.get("wait", 0.0))
                if wait > 0:
                    job.wait_terminal(wait)
                self._send_json(200, job.status_doc())
        elif len(parts) == 4 and parts[:2] == ["v1", "jobs"] \
                and parts[3] == "result":
            job = self._job_or_404(parts[2])
            if job is None:
                return
            wait = float(query.get("wait", 0.0))
            status = job.wait_terminal(wait) if wait > 0 else job.status
            if status is JobStatus.DONE:
                self._send_json(200, {"job_id": job.id, "status": "done",
                                      "result": job.result})
            else:
                self._send_json(409, {"job_id": job.id,
                                      "status": status.value,
                                      "error": job.error or {
                                          "kind": "not-done",
                                          "message": "job has not completed",
                                      }})
        elif len(parts) == 4 and parts[:2] == ["v1", "jobs"] \
                and parts[3] == "events":
            job = self._job_or_404(parts[2])
            if job is None:
                return
            since = int(query.get("since", 0))
            wait = float(query.get("wait", 0.0))
            if query.get("follow") in ("1", "true"):
                self._stream_events(job, since)
            else:
                events = (job.wait_events(since, wait) if wait > 0
                          else job.events_since(since))
                self._send_json(200, {"job_id": job.id,
                                      "status": job.status.value,
                                      "since": since,
                                      "next": since + len(events),
                                      "events": events})
        else:
            self._error(404, "not-found", f"no route GET {self.path}")

    def _stream_events(self, job: Job, since: int) -> None:
        """NDJSON event stream: one JSON object per line, connection closed
        after the job's terminal event (HTTP/1.0 close-delimited body)."""
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()
        seq = since
        while True:
            batch = job.wait_events(seq, _FOLLOW_POLL_SECONDS)
            for event in batch:
                self.wfile.write(
                    (json.dumps(event) + "\n").encode("utf-8"))
            self.wfile.flush()
            seq += len(batch)
            with job.cond:
                if job.status.terminal and len(job.events) <= seq:
                    return


class _ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    # The socketserver default backlog (5) resets concurrent submitters
    # under load; the queue, not the accept backlog, should do admission.
    request_queue_size = 128


def make_server(service: FloorplanService, host: str = "127.0.0.1",
                port: int = 0) -> ThreadingHTTPServer:
    """An HTTP server bound to ``service`` (``port=0`` = ephemeral)."""
    handler = type("BoundServiceHandler", (_ServiceHandler,),
                   {"service": service})
    return _ServiceHTTPServer((host, port), handler)


def serve(config: FloorplanConfig | None = None, host: str = "127.0.0.1",
          port: int = 8765) -> None:
    """Run the service until interrupted (the ``serve`` CLI command)."""
    service = FloorplanService(config)
    service.start()
    httpd = make_server(service, host, port)
    addr, actual_port = httpd.server_address[:2]
    print(f"repro-floorplan service on http://{addr}:{actual_port} "
          f"({service.config.service_workers} workers, "
          f"{service.config.service_execution} execution)")
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.server_close()
        service.stop()
