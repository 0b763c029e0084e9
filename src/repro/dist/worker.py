"""The pull-based sweep worker behind ``repro worker``.

One loop: request a lease from the coordinator, run the leased group
task through the *same* :func:`repro.scenarios.runner._run_group` path
every other execution mode uses, report the records (or a structured
failure) back, repeat until the coordinator says the sweep is drained.

Failure discipline mirrors :mod:`repro.experiments.parallel` exactly:

* a task that raises becomes a ``task-failed`` frame built by
  :meth:`repro.experiments.parallel.TaskFailure.from_exception` — the
  ``TypeName: message`` text a pool slot records — so a distributed
  quarantine record is byte-identical to a ``--jobs N`` one;
* a worker that dies mid-task simply stops heartbeating (or, under
  ``--transport local``, is seen to exit); the coordinator charges the
  death to the one lease it held, with the constant worker-died text —
  again a pool slot's exact contract;
* a generator-version mismatch (this worker's trace generator differs
  from the coordinator's) refuses the lease and exits distinctly: any
  records it computed would be ignored as stale by the store.

With ``--fetch-traces`` the mismatch rule softens: the coordinator's
store is authoritative, so instead of exiting the worker installs the
coordinator's generator prefix as an override
(:func:`repro.trace.store.set_generator_override`), forbids local
generation (``require_fetch``), and replicates every archive it needs
over ``GET /v1/dist/traces/{key}`` — integrity-verified and resumable
(:mod:`repro.trace.replicate`).  A replication failure surfaces as a
structured ``task-failed`` report, never a hang and never a
silently-wrong trace.

Exit codes: 0 sweep drained, 1 coordinator unreachable (after bounded
retries), 2 generator mismatch (with fetching off, or persisting after
an override is already installed).
"""

from __future__ import annotations

import contextlib
import json
import sys
import threading
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Dict, Optional

from ..common.backoff import backoff_delay
from ..experiments.parallel import TaskFailure
from ..faults import fire
from ..pipeline.tracegen import cached_trace
from ..scenarios.results import current_generator
from ..scenarios.runner import _run_group
from ..trace import replicate
from ..trace.store import TraceStore, set_generator_override
from .protocol import (Heartbeat, ProtocolError, TaskFailed, TaskLease,
                       TaskResult, decode_document, encode)

#: Seconds between lease-renewal heartbeats while a walk runs.
DEFAULT_HEARTBEAT_INTERVAL = 5.0

#: Seconds a drained/idle worker sleeps between lease requests.
DEFAULT_POLL_INTERVAL = 0.5

#: Consecutive transport failures tolerated before the worker gives up
#: (the coordinator process is gone, not just busy).
TRANSPORT_RETRIES = 5


class TransportError(RuntimeError):
    """The coordinator could not be reached or answered garbage."""


class CoordinatorClient:
    """Minimal blocking JSON-over-HTTP client for the dist routes."""

    def __init__(self, base: str, timeout: float = 30.0) -> None:
        self.base = base.rstrip("/")
        self.timeout = timeout

    def post(self, path: str, body: bytes) -> Dict[str, Any]:
        request = urllib.request.Request(
            self.base + path, data=body, method="POST",
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                payload = json.loads(response.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError) as error:
            raise TransportError(
                f"POST {path} failed: {error}") from error
        if not isinstance(payload, dict):
            raise TransportError(f"POST {path} returned a "
                                 f"{type(payload).__name__}, not an object")
        return payload

    def request_lease(self, worker: str) -> Dict[str, Any]:
        return self.post("/v1/dist/lease",
                         json.dumps({"worker": worker}).encode())

    def report(self, document) -> Dict[str, Any]:
        return self.post("/v1/dist/records", encode(document))

    def heartbeat(self, document: Heartbeat) -> Dict[str, Any]:
        return self.post("/v1/dist/heartbeat", encode(document))


class _HeartbeatPump:
    """Daemon thread renewing one lease while its walk runs; stops
    silently on transport failure (the lease will expire, which is the
    correct outcome when the coordinator is gone)."""

    def __init__(self, client: CoordinatorClient, lease: str, worker: str,
                 interval: float) -> None:
        self._client = client
        self._lease = lease
        self._worker = worker
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=f"heartbeat-{lease}")

    def _run(self) -> None:
        beat = 0
        while not self._stop.wait(self._interval):
            beat += 1
            try:
                self._client.heartbeat(Heartbeat(
                    lease=self._lease, worker=self._worker, beat=beat))
            except TransportError:
                return

    def __enter__(self) -> "_HeartbeatPump":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=self._interval + 1.0)


def run_worker(coordinator: str, worker_id: str, *,
               poll_interval: float = DEFAULT_POLL_INTERVAL,
               heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
               log: Optional[Callable[[str], None]] = None,
               client: Optional[CoordinatorClient] = None,
               fetch_traces: bool = False,
               replica_budget_bytes: Optional[int] = None) -> int:
    """Pull and execute leases from ``coordinator`` until drained.

    Returns the process exit code (see module docstring).  ``client``
    is injectable for tests; the default speaks HTTP to
    ``coordinator`` (a base URL like ``http://127.0.0.1:8731``).
    ``fetch_traces`` replicates missing archives from the coordinator
    (and requires an enabled trace store to land them in);
    ``replica_budget_bytes`` caps the replica store, enforced by a gc
    pass after each fetched archive.
    """
    emit = log if log is not None else (
        lambda line: print(line, file=sys.stderr))
    client = client if client is not None else CoordinatorClient(coordinator)
    fetcher: Optional[replicate.TraceFetcher] = None
    if fetch_traces:
        if TraceStore.from_env() is None:
            raise ValueError("--fetch-traces needs an enabled trace "
                             "store (set REPRO_TRACE_STORE) to land "
                             "replicated archives in")
        fetcher = replicate.TraceFetcher(
            coordinator, worker_id=worker_id,
            budget_bytes=replica_budget_bytes)
    with contextlib.ExitStack() as stack:
        if fetcher is not None:
            stack.enter_context(replicate.installed(fetcher))
        try:
            return _lease_loop(client, worker_id, fetcher, emit,
                               poll_interval, heartbeat_interval)
        finally:
            # Drop any coordinator generator override this loop
            # installed, and the trace memo built under it — the
            # process usually exits here, but the in-process tests
            # (and any embedding caller) must get their own generator
            # identity back.
            set_generator_override(None)
            cached_trace.cache_clear()


def _lease_loop(client: CoordinatorClient, worker_id: str,
                fetcher: Optional[replicate.TraceFetcher],
                emit: Callable[[str], None], poll_interval: float,
                heartbeat_interval: float) -> int:
    generator = current_generator()
    override_installed = False
    transport_failures = 0
    while True:
        try:
            payload = client.request_lease(worker_id)
        except TransportError as error:
            transport_failures += 1
            if transport_failures > TRANSPORT_RETRIES:
                emit(f"{worker_id}: giving up after "
                     f"{transport_failures} transport failures: {error}")
                return 1
            # Capped-exponential with deterministic worker-id jitter —
            # a rebooting coordinator is not greeted by every worker's
            # identical linear schedule (repro.common.backoff).
            time.sleep(backoff_delay(transport_failures - 1,
                                     base=poll_interval,
                                     salt=worker_id))
            continue
        transport_failures = 0
        state = payload.get("state")
        if state == "drained":
            emit(f"{worker_id}: sweep drained; exiting")
            return 0
        if state == "idle":
            time.sleep(poll_interval)
            continue
        if state != "granted":
            emit(f"{worker_id}: coordinator sent unknown lease state "
                 f"{state!r}; exiting")
            return 1
        try:
            lease = decode_document(payload.get("lease"))
            if not isinstance(lease, TaskLease):
                raise ProtocolError(f"granted lease payload is a "
                                    f"{lease.TYPE!r} frame")
        except ProtocolError as error:
            emit(f"{worker_id}: coordinator sent a malformed lease: "
                 f"{error}; exiting")
            return 1
        if lease.generator != generator:
            if fetcher is not None and not override_installed:
                # The coordinator's store is authoritative when we can
                # fetch from it: adopt its generator identity, forbid
                # local generation (a locally generated trace would be
                # from *our* sources, silently wrong), drop any memoised
                # traces, and carry on.
                try:
                    set_generator_override(lease.generator)
                except ValueError as error:
                    emit(f"{worker_id}: coordinator advertises an "
                         f"unusable generator: {error}; exiting")
                    return 2
                cached_trace.cache_clear()
                fetcher.require_fetch = True
                override_installed = True
                generator = current_generator()
                emit(f"{worker_id}: generator mismatch; trusting the "
                     f"coordinator's store ({lease.generator}) — local "
                     "generation disabled, archives will be fetched")
            else:
                emit(f"{worker_id}: generator mismatch (coordinator "
                     f"{lease.generator}, worker {generator}); records "
                     "would be stale — exiting")
                return 2
        task = lease.task
        with _HeartbeatPump(client, lease.lease, worker_id,
                            heartbeat_interval):
            try:
                # dist.worker fires before the walk (kill here models a
                # worker dying mid-task: lease expiry + requeue);
                # dist.result fires after it (kill here models dying
                # with finished work unreported — same recovery, and the
                # requeued walk recomputes identical records).
                fire("dist.worker", task.fault_key())
                records, baselines = _run_group(task)
                fire("dist.result", task.fault_key())
            except Exception as error:  # reprolint: disable=RL009 - quarantine boundary: a failed walk must become a structured task-failed report (the parallel_imap contract), not a worker crash
                report = TaskFailed(
                    lease=lease.lease, worker=worker_id,
                    **TaskFailure.from_exception(error)._asdict())
            else:
                report = TaskResult(
                    lease=lease.lease, worker=worker_id,
                    records=tuple(records), baselines=baselines)
        try:
            ack = client.report(report)
        except TransportError as error:
            emit(f"{worker_id}: could not report "
                 f"{task.group_name()}: {error}")
            return 1
        if ack.get("status") == "stale":
            # The lease expired while we walked; the coordinator already
            # requeued the task.  Our copy is dropped — whoever reruns
            # it produces byte-identical records, so nothing is lost.
            emit(f"{worker_id}: lease {lease.lease} went stale; "
                 "result dropped")
