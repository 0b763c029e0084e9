"""Process-level fan-out for the experiment grid, the CLI and sweeps.

Every figure experiment decomposes into independent per-workload slices
(one slice = everything one workload contributes to one figure), so the
natural parallel unit is the (workload × config) grid.  This module
provides:

* :func:`run_workload_grid` — an ordered map of a figure's per-workload
  slice function over ``config.workloads``: inline when ``jobs=1``, and
  otherwise through :func:`parallel_map` on the persistent
  :func:`shared_pool`, whose workers keep each generated trace bundle
  (the :func:`repro.pipeline.tracegen.cached_trace` cache) across every
  figure and ablation of an evaluation run.
* :func:`parallel_map` — a generic ordered process map for callers that
  are not shaped around an experiment config (the CLI's compare
  matrix, ``repro traces build``).
* :func:`parallel_imap` — the incremental variant: results are yielded
  as tasks complete (completion order), so callers that checkpoint
  progress to disk — the scenario sweep runner persisting each finished
  point — lose at most the in-flight tasks on interruption instead of
  the whole batch.
* :func:`shared_pool` — a *persistent* worker pool
  (``concurrent.futures.ProcessPoolExecutor``) shared across calls:
  :func:`parallel_map` and :func:`parallel_imap` draw workers from it
  instead of spawning a fresh pool per call, so a session running
  several sweeps (or a sweep that resumes repeatedly) pays worker
  start-up and trace warm-up once.  Workers run :func:`_attach_worker`
  at start: the trace-store location, the already-computed
  generator-version hash, and the fault plan (chaos testing; see
  :mod:`repro.faults`) are installed so every worker resolves the same
  archives — and fails in the same injected places — as the parent.
* :func:`resolve_jobs` — the ``--jobs auto`` policy: every CLI that
  fans out accepts ``auto`` and resolves it here (all CPUs but one, at
  least one — leaving a core for the parent keeps the incremental
  checkpoint/append loop responsive).

Worker-death tolerance (the failure model DESIGN.md documents): a
worker that dies mid-task — segfault, OOM kill, injected
``worker.task`` fault — breaks a ``ProcessPoolExecutor``
(``BrokenProcessPool``) instead of hanging it.
:func:`parallel_imap` catches the break, salvages every already
completed result, rebuilds the pool with bounded exponential backoff,
and resubmits the unfinished tasks.  After :data:`POOL_REBUILD_LIMIT`
breaks it switches to *isolation mode* — each remaining task runs alone
on a fresh single-worker pool, so the task that breaks its private pool
is deterministically identified as the poison.  What happens to a task
that ultimately fails is the caller's choice via ``task_errors``:
``"raise"`` (default — propagate, :class:`WorkerCrashError` for a dead
worker) or ``"yield"`` (yield a :class:`TaskFailure` in the task's
result slot; the sweep runner's retry/quarantine loop consumes these).

Determinism: results are collected in submission order, and every
:func:`run_workload_grid` task carries a
:func:`repro.common.rng.child_seed`-derived seed that is installed into
the worker's global ``random`` state before the slice runs, so tables
are bit-identical between ``--jobs 1`` and ``--jobs N`` regardless of
how tasks land on workers.  :func:`parallel_map` does no such seeding —
its callers must pass functions that are deterministic on their own.
"""

from __future__ import annotations

import atexit
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import util as _mp_util
from typing import (Any, Callable, Dict, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple, Union)

from ..common.rng import child_seed

#: Pool rebuilds tolerated per :func:`parallel_imap` call before the
#: remaining tasks fall back to one-task-per-pool isolation mode.
POOL_REBUILD_LIMIT = 2

#: Exponential-backoff shape between pool rebuilds: 0.05s, 0.1s, ...,
#: capped so a crash-looping environment cannot stall a sweep forever.
_BACKOFF_BASE_SECONDS = 0.05
_BACKOFF_CAP_SECONDS = 1.0

#: The deterministic error text recorded for a task whose worker died
#: (crash details — signal, address — vary run to run; records must
#: not).
WORKER_DIED = "worker process died while executing this task"


class TaskFailure(NamedTuple):
    """A failed task's result slot under ``task_errors="yield"``.

    ``kind`` is ``"error"`` (the task raised) or ``"worker-died"``
    (the worker running it vanished); ``error`` is a deterministic
    one-line description suitable for durable records.
    """

    kind: str
    error: str


class WorkerCrashError(RuntimeError):
    """A pool worker died executing a task and ``task_errors="raise"``
    (isolation mode identified the task; retrying it would kill again).
    """


def resolve_jobs(jobs: Union[int, str, None]) -> int:
    """Resolve a ``--jobs`` value: ``auto``/None become a worker count
    derived from ``os.cpu_count()`` (all CPUs but one, minimum one);
    integers pass through.  Raises ValueError for anything else."""
    if jobs is None:
        return _auto_jobs()
    if isinstance(jobs, str):
        text = jobs.strip().lower()
        if text == "auto":
            return _auto_jobs()
        try:
            jobs = int(text)
        except ValueError:
            raise ValueError(
                f"jobs must be a positive integer or 'auto', got {jobs!r}"
            ) from None
    if jobs <= 0:
        raise ValueError("jobs must be positive")
    return jobs


def _auto_jobs() -> int:
    return max(1, (os.cpu_count() or 2) - 1)


def _attach_worker(store_env: Optional[str], generator_hash: str,
                   fault_env: Optional[str] = None) -> None:
    """Pool-worker initializer: attach to the parent's trace store.

    Propagates the store location (environment variables survive fork
    but not necessarily alternative start methods) and pre-seeds the
    generator-version hash cache, so workers neither re-hash the
    generator sources nor can disagree with the parent about which
    archives are current.  The fault plan rides along the same way, and
    the worker's injection counters are reset — a forked worker must
    arm a fresh plan, not inherit the parent's spent counters.
    """
    from .. import faults
    from ..trace import store as trace_store

    if store_env is not None:
        # This IS the sanctioned propagation mechanism: the worker's
        # environment is overwritten with the parent's snapshot before
        # any worker code can read it.
        # reprolint: disable=RL004 - worker-side write of the parent snapshot
        os.environ[trace_store.STORE_ENV] = store_env
    trace_store._generator_hash_cache = generator_hash
    if fault_env is not None:
        # reprolint: disable=RL004 - worker-side write of the parent snapshot
        os.environ[faults.FAULT_PLAN_ENV] = fault_env
    else:
        # reprolint: disable=RL004 - worker-side write of the parent snapshot
        os.environ.pop(faults.FAULT_PLAN_ENV, None)
    faults.reset()


def _initargs() -> Tuple[Optional[str], str, Optional[str]]:
    # Imported here, not at module top, so that ``--jobs``'s argparse
    # type (:func:`jobs_argument_type`) loads neither.
    from .. import faults
    from ..trace import store as trace_store

    # Parent-side snapshot that _attach_worker re-applies in every
    # worker; reading the environment here is what makes worker-side
    # reads unnecessary.
    # reprolint: disable=RL004 - sanctioned parent-side snapshot
    return (os.environ.get(trace_store.STORE_ENV),
            trace_store.generator_version_hash(),
            os.environ.get(faults.FAULT_PLAN_ENV))  # reprolint: disable=RL004 - sanctioned parent-side snapshot


_shared_pool: Optional[ProcessPoolExecutor] = None
_shared_pool_jobs: int = 0
_shared_pool_attachment: Optional[Tuple[Optional[str], str,
                                        Optional[str]]] = None
_shared_pool_owner: int = 0


def shared_pool(jobs: int) -> ProcessPoolExecutor:
    """The persistent worker pool for ``jobs`` workers.

    Created on first use and kept alive for the process; every worker
    runs :func:`_attach_worker` once at start.  The pool is re-created
    when a different worker count is requested, when the attachment
    (trace-store location / generator hash / fault plan) no longer
    matches what the workers were initialized with — a caller that
    re-points ``REPRO_TRACE_STORE`` mid-process must never get workers
    still attached to the old store — or when a worker death broke the
    previous pool.  Call :func:`shutdown_shared_pool` to tear it down
    early — an ``atexit`` hook does so at interpreter exit.
    """
    global _shared_pool, _shared_pool_jobs, _shared_pool_attachment, \
        _shared_pool_owner
    if jobs <= 1:
        raise ValueError("shared_pool needs jobs > 1")
    attachment = _initargs()
    if _shared_pool is not None and (
            _shared_pool_jobs != jobs
            or _shared_pool_attachment != attachment
            or getattr(_shared_pool, "_broken", False)):
        shutdown_shared_pool()
    if _shared_pool is None:
        _shared_pool = ProcessPoolExecutor(
            max_workers=jobs, initializer=_attach_worker,
            initargs=attachment)
        _shared_pool_jobs = jobs
        _shared_pool_attachment = attachment
        _shared_pool_owner = os.getpid()
    return _shared_pool


def _shutdown_executor(executor: ProcessPoolExecutor) -> None:
    """Tear an executor down without waiting for queued work: cancel
    what never started, then terminate and reap the worker processes
    (bounded join — a wedged worker must not hang the parent)."""
    processes = list(getattr(executor, "_processes", {}).values())
    executor.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        process.join(5)


def shutdown_shared_pool() -> None:
    """Terminate the persistent pool (idempotent).

    Only the process that created the pool touches the executor; a
    forked child that inherited the globals (a raw ``os.fork``, say)
    just drops its references — terminating the worker processes from
    a non-owner would kill the owner's in-flight tasks.
    """
    global _shared_pool, _shared_pool_jobs, _shared_pool_attachment, \
        _shared_pool_owner
    if _shared_pool is not None:
        executor = _shared_pool
        owner = _shared_pool_owner
        _shared_pool = None
        _shared_pool_jobs = 0
        _shared_pool_attachment = None
        _shared_pool_owner = 0
        if owner == os.getpid():
            _shutdown_executor(executor)


atexit.register(shutdown_shared_pool)
# A multiprocessing *child* process never reaches atexit hooks before
# reaping: Process._bootstrap calls multiprocessing.util._exit_function
# directly, which joins live non-daemon children — and executor workers
# are non-daemon.  A child that ran a pooled sweep (a harness timing
# sweeps in spawned children, say) would hang at exit joining workers
# that are themselves waiting for more work.  Registering the shutdown
# as a multiprocessing finalizer too places it in the finalizer pass
# _exit_function runs *before* that join.  (Children never inherit this
# registration — Process bootstrap clears the finalizer registry — so
# pool workers cannot run it.)
_mp_util.Finalize(None, shutdown_shared_pool, exitpriority=100)


def jobs_argument_type(text: str) -> int:
    """argparse ``type=`` adapter for ``--jobs``: a positive integer or
    ``auto`` (shared by every fan-out CLI so the policy cannot drift)."""
    import argparse

    try:
        return resolve_jobs(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None

#: Slice function signature: (config, workload) -> picklable payload.
WorkloadSlice = Callable[[Any, str], Any]


class _TaskSpec(NamedTuple):
    """One grid cell: a slice function applied to one workload."""

    func: WorkloadSlice
    config: Any
    workload: str
    seed: int


def _run_task(spec: _TaskSpec) -> Any:
    """Execute one grid cell inside a worker (or inline when serial)."""
    # Pin the global RNG per task, not per worker, so any component that
    # (incorrectly) reaches for module-level randomness still produces
    # placement-independent results.
    random.seed(spec.seed)  # reprolint: disable=RL001 - deliberate per-task pinning of the global RNG
    return spec.func(spec.config, spec.workload)


def _task_name(func: WorkloadSlice) -> str:
    return f"{func.__module__}.{getattr(func, '__qualname__', repr(func))}"


def run_workload_grid(func: WorkloadSlice, config: Any, jobs: int = 1
                      ) -> List[Tuple[str, Any]]:
    """Apply ``func`` to every workload of ``config``, in order.

    Returns ``[(workload, payload), ...]`` ordered exactly like
    ``config.workloads``, whatever the completion order was.  With
    ``jobs>1`` the slices run on the persistent :func:`shared_pool`
    through :func:`parallel_map`, so a dead worker is survived (or
    reported as :class:`WorkerCrashError`) the same way as for every
    other fan-out.
    """
    name = _task_name(func)
    tasks = [
        _TaskSpec(func, config, workload,
                  child_seed(config.seed, name, workload))
        for workload in config.workloads
    ]
    return list(zip(config.workloads,
                    parallel_map(_run_task, tasks, jobs=jobs)))


def parallel_map(func: Callable[[Any], Any], items: Sequence[Any],
                 jobs: int = 1) -> List[Any]:
    """Ordered process map for ad-hoc grids (e.g. the CLI compare rows).

    ``func`` must be picklable (module-level); with ``jobs=1`` this is
    just ``list(map(func, items))``.  With ``jobs>1`` the tasks run on
    the persistent :func:`shared_pool` via :func:`parallel_imap`, so
    worker death is survived the same way (transparent pool rebuild;
    :class:`WorkerCrashError` only for a task that kills every pool it
    is given).
    """
    if jobs <= 0:
        raise ValueError("jobs must be positive")
    if jobs == 1 or len(items) <= 1:
        return [func(item) for item in items]
    results: List[Any] = [None] * len(items)
    for index, result in parallel_imap(func, items, jobs=jobs):
        results[index] = result
    return results


def _run_indexed(task: Tuple[Callable[[Any], Any], int, Any]
                 ) -> Tuple[int, Any]:
    """Worker shim for :func:`parallel_imap`: tag results with their
    submission index so callers can reorder if they need to."""
    func, index, item = task
    return index, func(item)


def parallel_imap(func: Callable[[Any], Any], items: Sequence[Any],
                  jobs: int = 1, *, task_errors: str = "raise"
                  ) -> Iterator[Tuple[int, Any]]:
    """Incremental process map: yields ``(index, result)`` pairs.

    With ``jobs=1`` (or a single item) tasks run inline and results
    arrive in submission order; with ``jobs>1`` they arrive in
    *completion* order, tagged with the submitting index.  Use this when
    each finished task should be checkpointed immediately (the scenario
    sweep runner appends each result to its on-disk store, so a killed
    run resumes from the last completed task rather than the last
    completed batch).  ``func`` must be picklable (module-level).
    With ``jobs>1`` the tasks run on the persistent :func:`shared_pool`
    — repeated calls (sweep after sweep, or a resumed sweep) reuse the
    same attached workers instead of re-spawning.

    Failure contract (``task_errors``): with ``"raise"`` (default) a
    task exception propagates and a task whose worker dies on every
    pool it is given raises :class:`WorkerCrashError`; with ``"yield"``
    the failed task's slot yields a :class:`TaskFailure` instead and
    the remaining tasks keep running — the sweep runner's
    retry/quarantine loop consumes these.  Worker death never loses
    completed results: the broken pool is rebuilt (bounded exponential
    backoff, at most :data:`POOL_REBUILD_LIMIT` times per call) and
    only unfinished tasks are resubmitted; after the limit each
    remaining task runs isolated on its own single-worker pool, which
    identifies the poison task deterministically.

    Early-close contract: ``close()``-ing the iterator before
    exhaustion (what the sweep runner's cooperative-stop hook does on
    graceful shutdown) cancels the not-yet-consumed work — under
    ``jobs>1`` the persistent pool is torn down and the next parallel
    call transparently re-creates it.  Results already yielded are
    unaffected.
    """
    if jobs <= 0:
        raise ValueError("jobs must be positive")
    if task_errors not in ("raise", "yield"):
        raise ValueError(f"task_errors must be 'raise' or 'yield', "
                         f"got {task_errors!r}")
    if jobs == 1 or len(items) <= 1:
        for index, item in enumerate(items):
            if task_errors == "raise":
                yield index, func(item)
                continue
            try:
                result = func(item)
            except Exception as error:  # reprolint: disable=RL009 - converted to a TaskFailure the caller retries or quarantines
                yield index, TaskFailure(
                    "error", f"{type(error).__name__}: {error}")
            else:
                yield index, result
        return
    yield from _imap_pooled(func, items, jobs, task_errors)


def _imap_pooled(func: Callable[[Any], Any], items: Sequence[Any],
                 jobs: int, task_errors: str
                 ) -> Iterator[Tuple[int, Any]]:
    """The ``jobs > 1`` body of :func:`parallel_imap` (see its
    docstring for the failure and early-close contracts)."""
    pending: Dict[int, Any] = dict(enumerate(items))
    breaks = 0
    try:
        while pending and breaks <= POOL_REBUILD_LIMIT:
            executor = shared_pool(jobs)
            salvaged: List[Tuple[int, Any]] = []
            futures: Dict[Any, int] = {}
            try:
                for index in sorted(pending):
                    futures[executor.submit(
                        _run_indexed, (func, index, pending[index]))] = index
                for future in as_completed(futures):
                    index = futures[future]
                    try:
                        _, result = future.result()
                    except BrokenProcessPool:
                        raise
                    except Exception as error:
                        if task_errors == "raise":
                            shutdown_shared_pool()
                            raise
                        pending.pop(index, None)
                        yield index, TaskFailure(
                            "error", f"{type(error).__name__}: {error}")
                    else:
                        pending.pop(index, None)
                        yield index, result
            except BrokenProcessPool:
                # A worker died: every unfinished future is poisoned,
                # but futures that completed before the break still
                # hold good results — salvage them, then rebuild.
                for future, index in futures.items():
                    if index not in pending or not future.done() \
                            or future.cancelled():
                        continue
                    try:
                        _, result = future.result()
                    except BaseException:  # reprolint: disable=RL009 - poisoned future; its task is resubmitted to the rebuilt pool
                        continue
                    pending.pop(index, None)
                    salvaged.append((index, result))
                shutdown_shared_pool()
                breaks += 1
                time.sleep(min(_BACKOFF_BASE_SECONDS * 2 ** (breaks - 1),
                               _BACKOFF_CAP_SECONDS))
            yield from salvaged
        # Isolation mode: the pool broke POOL_REBUILD_LIMIT+1 times
        # with this task set.  Run each remaining task alone on a fresh
        # single-worker pool — a break now names the poison task.
        for index in sorted(pending):
            item = pending.pop(index)
            try:
                result = _run_isolated(func, index, item)
            except BrokenProcessPool:
                if task_errors == "raise":
                    raise WorkerCrashError(
                        f"task {index} killed its worker even in "
                        "isolation (after pool rebuilds)") from None
                yield index, TaskFailure("worker-died", WORKER_DIED)
            except Exception as error:
                if task_errors == "raise":
                    raise
                yield index, TaskFailure(
                    "error", f"{type(error).__name__}: {error}")
            else:
                yield index, result
    except GeneratorExit:
        # Closed early: the consumer is done, but the pool still holds
        # queued tasks it would keep burning CPU on.  Terminate it; the
        # abandoned tasks' results were never going to be observed.
        shutdown_shared_pool()
        raise


def _run_isolated(func: Callable[[Any], Any], index: int, item: Any) -> Any:
    """Run one task on a throwaway single-worker pool (isolation mode)."""
    executor = ProcessPoolExecutor(max_workers=1,
                                   initializer=_attach_worker,
                                   initargs=_initargs())
    try:
        _, result = executor.submit(_run_indexed,
                                    (func, index, item)).result()
        return result
    finally:
        _shutdown_executor(executor)
