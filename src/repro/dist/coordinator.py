"""The sweep coordinator: lease group tasks to pulling workers.

:class:`LeaseBoard` is the wire face of the sweep's one retry/quarantine
state machine, :class:`repro.scenarios.runner.SweepBoard`: the pending
queue, the leases and attempt counts, retry → quarantine and the
store/sidecar ingest all live there, shared with every inline sweep.
This subclass adds only what the wire needs, under the same lock:

* ``request_lease`` — grant the next pending task to a pulling worker
  (``POST /v1/dist/lease``; the ``dist.lease`` fault site), or answer
  idle/drained;
* ``submit`` — turn a worker's ``point-records`` or ``task-failed``
  frame into the board's report;
* ``heartbeat`` / ``expire_stale`` — lease deadlines, renewed by
  heartbeats: a worker that stops heartbeating has its task charged a
  ``worker-died`` failure, exactly like a pool slot whose process died.

The board never pushes work: workers *pull* leases, so scheduling
degrades gracefully — a slow worker simply takes fewer tasks, a dead
one takes none and its leases expire back onto the queue.  Because
retry and quarantine are the inline runner's own transitions, a
distributed quarantine record is byte-identical to the one a
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
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from ..experiments.parallel import TaskFailure
from ..faults import fire
from ..scenarios.results import current_generator
from ..scenarios.runner import (DEFAULT_MAX_RETRIES, SweepBoard,
                                SweepRunSummary, prepare_sweep)
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


class LeaseBoard(SweepBoard):
    """A :class:`SweepBoard` whose leases go to workers over the wire.

    Monotonic time is used only for lease deadlines (supervision
    bookkeeping — never recorded), so the board's *store effects* stay
    deterministic in the sequence of worker reports alone.
    """

    def __init__(self, plan, *, max_retries: int = DEFAULT_MAX_RETRIES,
                 lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
                 emit: Callable[[str], None] = lambda line: None) -> None:
        super().__init__(plan, max_retries=max_retries, emit=emit)
        self.lease_timeout = lease_timeout
        #: time.monotonic() expiry per granted lease, renewed by
        #: heartbeats (entries of leases that ended are dropped lazily).
        self._deadlines: Dict[str, float] = {}
        self._generator = current_generator()

    def request_lease(self, worker: str) -> Dict[str, Any]:
        """Grant the next pending task to ``worker`` (the "lease"
        payload), or report idle/drained."""
        fire("dist.lease", worker)
        with self._lock:
            granted = self._grant_locked(worker)
            if granted is None:
                state = "drained" if self._done_locked() else "idle"
                return payload_lease(state, None)
            lease_id, task = granted
            self._deadlines[lease_id] = time.monotonic() + self.lease_timeout
        document = TaskLease(lease=lease_id, generator=self._generator,
                             task=task)
        return payload_lease("granted", document.to_wire())

    def submit(self, report: Union[TaskResult, TaskFailed]
               ) -> Dict[str, Any]:
        """Ingest a worker's completion or failure report (the "ack"
        payload).  A report for an expired/unknown lease is acked
        "stale" and dropped — the task was already requeued, and the
        eventual winner's records are byte-identical anyway."""
        if isinstance(report, TaskFailed):
            outcome = TaskFailure(report.kind, report.error)
        else:
            outcome = (report.records, report.baselines)
        with self._lock:
            self._deadlines.pop(report.lease, None)
            live = self._report_locked(report.lease, outcome)
        return payload_ack("ok" if live else "stale", report.lease)

    def heartbeat(self, beat: Heartbeat) -> Dict[str, Any]:
        """Renew a live lease's deadline (or report it stale)."""
        with self._lock:
            lease = self._leases.get(beat.lease)
            if lease is None or lease.holder != beat.worker:
                return payload_ack("stale", beat.lease)
            self._deadlines[beat.lease] = (time.monotonic()
                                           + self.lease_timeout)
            return payload_ack("ok", beat.lease)

    def expire_stale(self) -> int:
        """Charge a death to every lease past its heartbeat deadline;
        returns the number expired."""
        now = time.monotonic()
        with self._lock:
            stale = [lease_id for lease_id, deadline
                     in self._deadlines.items() if deadline < now]
            expired = 0
            for lease_id in stale:
                del self._deadlines[lease_id]
                lease = self._leases.get(lease_id)
                if lease is None:
                    continue
                self._emit(f"  lease {lease_id} "
                           f"({self._tasks[lease.index].group_name()}) "
                           f"expired on worker {lease.holder}")
                self._report_locked(lease_id, TaskFailure.worker_died())
                expired += 1
            return expired


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
    board = LeaseBoard(plan, max_retries=max_retries,
                       lease_timeout=lease_timeout, emit=emit)
    if board.done():  # nothing to run: bind no server, start no worker
        return board.summary()

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

    return board.summary()
