"""The sweep service: bounded queue, background worker, crash recovery.

:class:`SweepService` is the daemon's engine, deliberately independent
of HTTP (the :mod:`repro.service.http` layer is a thin adapter over it,
and tests drive it directly).  One background worker thread drains the
queue one job at a time — parallelism belongs *inside* a sweep (the
``jobs`` fan-out over :func:`repro.experiments.parallel.shared_pool`),
not across sweeps, which keeps every job's results store byte-identical
to the same sweep run from the CLI with the same ``--jobs``.

Lifecycle guarantees:

* **Backpressure** — :meth:`submit` refuses (``QueueFullError``) once
  ``queue_depth`` jobs are queued; the HTTP layer maps that to 429.
* **Graceful shutdown** — :meth:`stop` sets the stop event, which
  :func:`repro.scenarios.runner.run_sweep` polls between trace groups
  (the cooperative-stop hook): the in-flight group finishes, its
  records are checkpointed to the store, the job is persisted back to
  ``queued``, and the worker exits.  Nothing computed is lost.
* **Crash recovery** — :meth:`start` re-enqueues every persisted
  ``running``/``queued`` job (interrupted ones first).  Re-running a
  sweep against its existing store recomputes nothing (the PR 4 resume
  contract), so even a ``kill -9`` costs at most the records of the
  trace group that was mid-flight.
"""

from __future__ import annotations

import collections
import json
import sys
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..faults import fire
from ..scenarios import ResultsStore, parse_spec, run_sweep, status_summary
from .jobs import (CANCELLED, DEGRADED, DONE, FAILED, QUEUED, RUNNING, Job,
                   JobStore)

#: Default bound on the number of *queued* (not yet running) jobs.
DEFAULT_QUEUE_DEPTH = 16

#: Default cap on a submitted spec body, in bytes (a scenario file is
#: a few KB; a megabyte of YAML is a client bug, not a sweep).
DEFAULT_MAX_BODY_BYTES = 1 << 20


class QueueFullError(RuntimeError):
    """The queue already holds ``queue_depth`` jobs (HTTP 429)."""


class UnknownJobError(KeyError):
    """No job with the requested id exists (HTTP 404)."""


class JobConflictError(RuntimeError):
    """The operation is invalid for the job's current state (HTTP 409)."""


@dataclass(slots=True)
class ServiceConfig:
    """Everything a daemon instance is configured by (CLI flags map
    one-to-one onto these fields; see ``repro serve --help``)."""

    data_dir: str
    jobs: int = 1                 #: worker processes per sweep
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES

    def __post_init__(self) -> None:
        if self.jobs <= 0:
            raise ValueError("jobs must be positive")
        if self.queue_depth <= 0:
            raise ValueError("queue_depth must be positive")
        if self.max_body_bytes <= 0:
            raise ValueError("max_body_bytes must be positive")


def _stderr_log(event: Dict[str, Any]) -> None:
    print(json.dumps(event, sort_keys=True), file=sys.stderr)


class SweepService:
    """Queue + worker + persistence glue (see module docstring).

    ``log`` receives one dict per structured event (job transitions,
    sweep progress lines, recovery actions); the default serializes each
    to a JSON line on stderr.  Tests pass a collector or a no-op.
    """

    def __init__(self, config: ServiceConfig,
                 log: Optional[Callable[[Dict[str, Any]], None]] = None
                 ) -> None:
        self.config = config
        self.store = JobStore(config.data_dir)
        self._log = log if log is not None else _stderr_log
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._queue: "collections.deque[str]" = collections.deque()
        self._registry: Dict[str, Job] = {}
        self._stop = threading.Event()
        self._worker: Optional[threading.Thread] = None
        #: Set while the worker is inside run_sweep (id of that job).
        self._active: Optional[str] = None

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> None:
        """Recover persisted jobs, then start the worker thread."""
        with self._lock:
            if self._worker is not None:
                raise RuntimeError("service already started")
            for job in self.store.load_all():
                self._registry[job.id] = job
            for job in self.store.recoverable():
                if job.state == RUNNING:
                    # The previous process died mid-sweep; its store
                    # holds every checkpointed point, so re-running is
                    # pure resume.
                    job.state = QUEUED
                    self.store.save(job)
                    self._event("job-recovered", job=job.id)
                self._queue.append(job.id)
            self._worker = threading.Thread(target=self._drain,
                                            name="sweep-worker",
                                            daemon=True)
        self._worker.start()

    def request_stop(self) -> None:
        """Begin a graceful shutdown without waiting (signal-handler
        safe): the in-flight trace group finishes and checkpoints."""
        self._stop.set()
        with self._wake:
            self._wake.notify_all()

    def stop(self, wait: bool = True) -> None:
        """Graceful shutdown; with ``wait`` blocks until the worker has
        checkpointed and exited."""
        self.request_stop()
        worker = self._worker
        if wait and worker is not None:
            worker.join()

    def stopping(self) -> bool:
        return self._stop.is_set()

    # ------------------------------------------------------------------
    # operations (called from HTTP handler threads)

    def submit(self, raw_spec: Dict[str, Any]) -> Job:
        """Validate and enqueue one sweep; returns the queued job.

        Raises :class:`repro.scenarios.SpecError` on a bad spec (the
        caller's 400) and :class:`QueueFullError` on backpressure (429).
        Validation happens *here*, at the boundary, so the worker can
        never pick up a spec that does not parse.
        """
        spec = parse_spec(raw_spec)  # SpecError propagates to the caller
        with self._lock:
            if len(self._queue) >= self.config.queue_depth:
                raise QueueFullError(
                    f"queue is full ({self.config.queue_depth} jobs "
                    "queued); retry after one finishes")
            job = self.store.create(raw_spec, spec.name, self.config.jobs)
            self._registry[job.id] = job
            self._queue.append(job.id)
            self._wake.notify_all()
        self._event("job-queued", job=job.id, scenario=job.scenario)
        return job

    def get(self, job_id: str) -> Job:
        """The job, or :class:`UnknownJobError`."""
        with self._lock:
            try:
                return self._registry[job_id]
            except KeyError:
                raise UnknownJobError(job_id) from None

    def jobs(self) -> List[Job]:
        """Every known job, in submission order."""
        with self._lock:
            return sorted(self._registry.values(), key=lambda job: job.seq)

    def counts(self) -> Dict[str, int]:
        """``{state: job count}`` over every known job."""
        with self._lock:
            counter: Dict[str, int] = {}
            for job in self._registry.values():
                counter[job.state] = counter.get(job.state, 0) + 1
            return counter

    def queue_available(self) -> int:
        """Free queue slots (what health reports)."""
        with self._lock:
            return max(0, self.config.queue_depth - len(self._queue))

    def cancel(self, job_id: str) -> Job:
        """Cancel a *queued* job.  Raises :class:`UnknownJobError` for
        unknown ids and :class:`JobConflictError` when the job is
        already running or terminal (a running sweep is not torn down
        mid-walk; it keeps its resume guarantee instead)."""
        with self._lock:
            job = self._registry.get(job_id)
            if job is None:
                raise UnknownJobError(job_id)
            if job.state != QUEUED:
                raise JobConflictError(
                    f"job {job_id} is {job.state}; only queued jobs "
                    "can be cancelled")
            self._queue.remove(job_id)
            job.state = CANCELLED
            self.store.save(job)
        self._event("job-cancelled", job=job_id)
        return job

    def sweep_summary(self, job: Job) -> Dict[str, Any]:
        """The job's ``status_summary`` document (live completion
        accounting against its results store — exactly the ``repro
        sweep status --format json`` payload)."""
        spec = parse_spec(job.raw_spec)
        return status_summary(spec, ResultsStore(self.store.sweep_dir(job.id)))

    # ------------------------------------------------------------------
    # worker

    def _drain(self) -> None:
        """Worker thread: pop → run (resumably) → persist outcome."""
        while True:
            with self._wake:
                while not self._queue and not self._stop.is_set():
                    self._wake.wait()
                if self._stop.is_set():
                    return
                job = self._registry[self._queue.popleft()]
                job.state = RUNNING
                self.store.save(job)
                self._active = job.id
            self._event("job-started", job=job.id, scenario=job.scenario)
            try:
                self._run_job(job)
            finally:
                with self._lock:
                    self._active = None

    def _run_job(self, job: Job) -> None:
        out = self.store.sweep_dir(job.id)

        def sweep_log(line: str) -> None:
            self._event("sweep-progress", job=job.id, line=line)

        try:
            fire("service.job", job.id)
            summary = run_sweep(parse_spec(job.raw_spec), out,
                                jobs=job.jobs, log=sweep_log,
                                should_stop=self._stop.is_set)
        except Exception as error:  # reprolint: disable=RL009 - last-resort job boundary: the worker thread must survive any job; the failure is recorded on the job, never swallowed
            with self._lock:
                job.state = FAILED
                job.error = f"{type(error).__name__}: {error}"
                self.store.save(job)
            self._event("job-failed", job=job.id, error=job.error)
            return
        with self._lock:
            job.computed += summary.computed
            job.failed_points = summary.failed
            if summary.degraded():
                # Complete, but some points were quarantined (DESIGN.md
                # "Failure model"): terminal, resubmittable — a rerun of
                # the same spec retries exactly the quarantined set.
                job.state = DEGRADED
                job.error = ("sweep completed degraded: quarantined "
                             + ", ".join(summary.quarantined))
            elif summary.complete():
                job.state = DONE
            elif self._stop.is_set():
                # Graceful shutdown checkpointed mid-sweep: back on the
                # queue so the next start resumes it.
                job.state = QUEUED
            else:
                job.state = FAILED
                job.error = (f"sweep stopped with {summary.remaining} "
                             "points remaining")
            self.store.save(job)
        self._event("job-finished", job=job.id, state=job.state,
                    computed=summary.computed, remaining=summary.remaining,
                    failed=summary.failed)

    # ------------------------------------------------------------------

    def log_event(self, kind: str, **fields: Any) -> None:
        """Emit one structured log event (the HTTP layer logs its
        per-request lines through here too, so one ``log`` callable
        captures the daemon's whole stream)."""
        event = {"event": kind}
        event.update(fields)
        self._log(event)

    _event = log_event
