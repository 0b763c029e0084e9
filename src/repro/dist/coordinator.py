"""The sweep coordinator: lease out group tasks, merge records back.

:class:`LeaseBoard` is the lease state machine, shared (under one lock)
by every coordinator HTTP request thread:

::

    pending ──grant──► leased ──records──► done
       ▲                  │
       │                  ├─ task-failed / lease expired / worker died
       │                  ▼
       └──requeue── attempt < max_retries?  ──no──► quarantined
                                                    (failed records)

The board never pushes work: workers *pull* leases
(``POST /v1/dist/lease``), so scheduling degrades gracefully — a slow
worker simply takes fewer tasks, a dead one takes none and its leases
expire back onto the queue.  Retry and quarantine reuse the inline
runner's machinery verbatim (same :class:`TaskFailure` shapes, same
:func:`_failed_records` payloads, same exit-3 ``degraded()`` contract),
so a distributed quarantine record is byte-identical to the one a
``--jobs N`` run would have written.

:func:`run_distributed_sweep` is the drop-in sibling of
:func:`repro.scenarios.runner.run_sweep` behind ``repro sweep run
--transport local|http``: same :class:`SweepRunSummary`, same store,
same resume semantics.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import (Any, Callable, Dict, List, NamedTuple, Optional, Tuple,
                    Union)

from ..experiments.parallel import WORKER_DIED, TaskFailure
from ..faults import fire
from ..scenarios.results import current_generator
from ..scenarios.runner import (DEFAULT_MAX_RETRIES, SweepRunSummary,
                                _failed_records, prepare_sweep)
from ..scenarios.spec import ScenarioSpec
from ..service.schemas import payload_ack, payload_lease
from ..trace.replicate import TraceExport
from ..trace.store import TraceStore
from .protocol import Heartbeat, TaskFailed, TaskLease, TaskResult

#: Default seconds a lease may go without a heartbeat before the
#: coordinator expires it and requeues the task
#: (``repro sweep run --lease-timeout``).
DEFAULT_LEASE_TIMEOUT = 60.0

#: Supervision poll period of the coordinator loops (lease expiry for
#: the http transport, child liveness for the local one).
_POLL_PERIOD = 0.05

#: Seconds the http-transport coordinator keeps serving after the last
#: task completes, so externally-attached workers polling for work
#: receive "drained" (exit 0) instead of a connection error.
_HTTP_DRAIN_GRACE = 2.0


class _Lease(NamedTuple):
    index: int       #: position in the board's task list
    worker: str
    deadline: float  #: time.monotonic() expiry, renewed by heartbeats


class LeaseBoard:
    """Thread-safe lease ledger over one prepared sweep plan.

    All mutation happens under one lock; every public method is one
    atomic transition.  Monotonic time is used only for lease deadlines
    (supervision bookkeeping — never recorded), so the board's *store
    effects* are deterministic in the sequence of worker reports alone.
    """

    def __init__(self, plan, *, max_retries: int = DEFAULT_MAX_RETRIES,
                 lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
                 emit: Callable[[str], None] = lambda line: None) -> None:
        self._lock = threading.Lock()
        self._store = plan.store
        self._sidecar = plan.sidecar
        self._known_keys = plan.known_keys
        self._tasks = list(plan.tasks)
        self._pending = deque(range(len(self._tasks)))
        self._leases: Dict[str, _Lease] = {}
        self._seq = 0
        self._terminal = 0
        self.max_retries = max_retries
        self.lease_timeout = lease_timeout
        self.computed = 0
        self.failed = 0
        self.quarantined: List[str] = []
        self._emit = emit
        self._generator = current_generator()

    def task_count(self) -> int:
        return len(self._tasks)

    def done(self) -> bool:
        """True once every task reached done or quarantined."""
        with self._lock:
            return self._terminal == len(self._tasks)

    def counts(self) -> Tuple[int, int, Tuple[str, ...]]:
        """(computed, failed, quarantined group names) snapshot."""
        with self._lock:
            return self.computed, self.failed, tuple(self.quarantined)

    # ------------------------------------------------------------------
    # worker-facing transitions (called from HTTP handler threads)

    def request_lease(self, worker: str) -> Dict[str, Any]:
        """Grant the next pending task to ``worker`` (the "lease"
        payload), or report idle/drained."""
        fire("dist.lease", worker)
        with self._lock:
            if not self._pending:
                state = ("drained"
                         if self._terminal == len(self._tasks) else "idle")
                return payload_lease(state, None)
            index = self._pending.popleft()
            self._seq += 1
            lease_id = f"lease-{self._seq:06d}"
            self._leases[lease_id] = _Lease(
                index=index, worker=worker,
                deadline=time.monotonic() + self.lease_timeout)
            document = TaskLease(lease=lease_id, generator=self._generator,
                                 task=self._tasks[index])
            return payload_lease("granted", document.to_wire())

    def submit(self, report: Union[TaskResult, TaskFailed]
               ) -> Dict[str, Any]:
        """Ingest a worker's completion or failure report (the "ack"
        payload).  A report for an expired/unknown lease is acked
        "stale" and dropped — the task was already requeued, and the
        eventual winner's records are byte-identical anyway."""
        with self._lock:
            lease = self._leases.pop(report.lease, None)
            if lease is None:
                return payload_ack("stale", report.lease)
            task = self._tasks[lease.index]
            if isinstance(report, TaskFailed):
                self._fail_locked(lease.index,
                                  TaskFailure(report.kind, report.error))
                return payload_ack("ok", report.lease)
            self._store.merge_all(report.records)
            self._sidecar.append_missing(report.baselines, self._known_keys,
                                         task.trace_key())
            self.computed += len(report.records)
            self._terminal += 1
            self._emit(f"  [{self._terminal}/{len(self._tasks)}] "
                       f"{task.group_name()} via {report.worker}: "
                       f"{len(report.records)} points")
            return payload_ack("ok", report.lease)

    def heartbeat(self, beat: Heartbeat) -> Dict[str, Any]:
        """Renew a live lease's deadline (or report it stale)."""
        with self._lock:
            lease = self._leases.get(beat.lease)
            if lease is None or lease.worker != beat.worker:
                return payload_ack("stale", beat.lease)
            self._leases[beat.lease] = lease._replace(
                deadline=time.monotonic() + self.lease_timeout)
            return payload_ack("ok", beat.lease)

    # ------------------------------------------------------------------
    # supervisor-facing transitions

    def expire_worker(self, worker: str) -> int:
        """Expire every lease held by ``worker`` (it is known dead —
        e.g. its subprocess exited); returns the number expired."""
        with self._lock:
            stale = [lease_id for lease_id, lease in self._leases.items()
                     if lease.worker == worker]
            for lease_id in stale:
                lease = self._leases.pop(lease_id)
                self._fail_locked(lease.index,
                                  TaskFailure("worker-died", WORKER_DIED))
            return len(stale)

    def expire_stale(self) -> int:
        """Expire every lease past its heartbeat deadline; returns the
        number expired."""
        now = time.monotonic()
        with self._lock:
            stale = [lease_id for lease_id, lease in self._leases.items()
                     if lease.deadline < now]
            for lease_id in stale:
                lease = self._leases.pop(lease_id)
                self._emit(f"  lease {lease_id} "
                           f"({self._tasks[lease.index].group_name()}) "
                           f"expired on worker {lease.worker}")
                self._fail_locked(lease.index,
                                  TaskFailure("worker-died", WORKER_DIED))
            return len(stale)

    def fail_outstanding(self) -> int:
        """Quarantine everything still pending or leased — the no-wedge
        backstop when no worker can be (re)spawned to make progress.
        Returns the number of tasks quarantined."""
        with self._lock:
            drained = 0
            while self._pending:
                self._quarantine_locked(
                    self._pending.popleft(),
                    TaskFailure("worker-died", WORKER_DIED))
                drained += 1
            for lease_id in list(self._leases):
                lease = self._leases.pop(lease_id)
                self._quarantine_locked(
                    lease.index, TaskFailure("worker-died", WORKER_DIED))
                drained += 1
            return drained

    # ------------------------------------------------------------------

    def _fail_locked(self, index: int, failure: TaskFailure) -> None:
        task = self._tasks[index]
        if task.attempt < self.max_retries:
            self._tasks[index] = task._replace(attempt=task.attempt + 1)
            self._pending.append(index)
            self._emit(f"  {task.group_name()} failed ({failure.kind}); "
                       f"retry {task.attempt + 1} of {self.max_retries} "
                       "queued")
        else:
            self._quarantine_locked(index, failure)

    def _quarantine_locked(self, index: int, failure: TaskFailure) -> None:
        task = self._tasks[index]
        records = _failed_records(task, failure, task.attempt + 1)
        self._store.append_all(records)
        self.failed += len(records)
        name = task.group_name()
        if name not in self.quarantined:
            self.quarantined.append(name)
        self._terminal += 1
        self._emit(f"  quarantined {name} after {task.attempt + 1} "
                   f"attempts: {failure.error}")


def run_distributed_sweep(spec: ScenarioSpec, out: Union[str, Path], *,
                          transport: str = "local", workers: int = 2,
                          limit: Optional[int] = None,
                          log: Optional[Callable[[str], None]] = None,
                          max_retries: int = DEFAULT_MAX_RETRIES,
                          lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
                          host: str = "127.0.0.1", port: int = 0,
                          worker_store: Optional[Union[str, Path]] = None
                          ) -> SweepRunSummary:
    """Run (or resume) ``spec`` through the coordinator/worker tier.

    ``transport="local"`` spawns ``workers`` subprocesses on this host
    that speak the wire protocol over a loopback socket — the CI-
    testable mode, byte-equivalent to ``run_sweep``.
    ``transport="http"`` binds the coordinator on ``host:port`` and
    waits for externally launched ``repro worker --coordinator URL``
    processes to drain the queue.

    ``worker_store`` (local transport only) points the worker
    subprocesses at a separate — possibly empty — replica trace store
    and turns on ``--fetch-traces``: archives they lack are replicated
    from this coordinator's store over loopback HTTP, with SHA-256
    verification (:mod:`repro.trace.replicate`).

    Same summary, store layout, and resume/quarantine semantics as
    :func:`repro.scenarios.runner.run_sweep`; the differential harness
    in ``tests/dist/`` holds the stores byte-identical.
    """
    if transport not in ("local", "http"):
        raise ValueError(f"unknown transport {transport!r}")
    if worker_store is not None and transport != "local":
        raise ValueError("worker_store is a local-transport option; "
                         "http workers set REPRO_TRACE_STORE and "
                         "--fetch-traces themselves")
    if workers <= 0:
        raise ValueError("workers must be positive")
    if limit is not None and limit < 0:
        raise ValueError("limit cannot be negative")
    if max_retries < 0:
        raise ValueError("max_retries cannot be negative")
    if lease_timeout <= 0:
        raise ValueError("lease_timeout must be positive")
    emit = log if log is not None else (
        lambda line: print(line, file=sys.stderr))

    plan = prepare_sweep(spec, out, jobs=workers, limit=limit,
                         attach_baselines=True)
    emit(plan.describe(spec.name, workers) + f", transport={transport}")
    if not plan.tasks:
        return SweepRunSummary(
            total=plan.total, skipped=plan.skipped, computed=0,
            remaining=plan.total - plan.skipped)

    board = LeaseBoard(plan, max_retries=max_retries,
                       lease_timeout=lease_timeout, emit=emit)

    from ..service.http import build_server  # avoid import cycle
    store = TraceStore.from_env()
    export = TraceExport(store.root) if store is not None else None
    server = build_server(host, port, board=board, export=export)
    listener = threading.Thread(target=server.serve_forever,
                                name="dist-coordinator", daemon=True)
    listener.start()
    bound_host, bound_port = server.server_address[:2]
    url = f"http://{bound_host}:{bound_port}"
    try:
        if transport == "local":
            from .local import run_local_workers
            run_local_workers(url, board, workers, emit,
                              worker_store=worker_store)
        else:
            emit(f"coordinator listening on {url}; start workers with: "
                 f"repro worker --coordinator {url}")
            while not board.done():
                board.expire_stale()
                time.sleep(_POLL_PERIOD)
            # Linger so polling workers are answered "drained" and
            # exit 0, rather than hitting connection-refused.
            time.sleep(_HTTP_DRAIN_GRACE)
    finally:
        server.shutdown()
        listener.join(timeout=5.0)
        server.server_close()

    computed, failed, quarantined = board.counts()
    return SweepRunSummary(
        total=plan.total, skipped=plan.skipped, computed=computed,
        remaining=plan.total - plan.skipped - computed - failed,
        failed=failed, quarantined=quarantined)
