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
* :func:`shared_pool` — the *persistent* worker slots shared across
  calls: ``jobs`` single-worker ``ProcessPoolExecutor`` instances, each
  running one task at a time.  :func:`parallel_map` and
  :func:`parallel_imap` draw from them instead of spawning a fresh pool
  per call, so a process running several sweeps (or a sweep that
  resumes repeatedly) pays worker start-up and trace warm-up once.
  Workers run :func:`_attach_worker` at start: the trace-store
  location, the already-computed generator-version hash, and the fault
  plan (chaos testing; see :mod:`repro.faults`) are installed so every
  worker resolves the same archives — and fails in the same injected
  places — as the parent.
* :func:`resolve_jobs` — the ``--jobs auto`` policy: every CLI that
  fans out accepts ``auto`` and resolves it here (all CPUs but one, at
  least one — leaving a core for the parent keeps the incremental
  checkpoint/append loop responsive).

Worker death (the failure model DESIGN.md documents): a worker that
dies mid-task — segfault, OOM kill, injected ``worker.task`` fault —
breaks its slot's executor (``BrokenProcessPool``) instead of hanging
it.  A slot runs one task at a time, so the break names exactly the
task that killed it; the slot is replaced and nothing else is lost or
rerun.  The pool is a dumb executor: it never retries.  What happens
to a failed task is the caller's choice via ``task_errors``:
``"raise"`` (default — propagate the exception, or
:class:`WorkerCrashError` naming the task on the first death) or
``"yield"`` (yield a :class:`TaskFailure` in the task's result slot;
the sweep runner reports it to its
:class:`~repro.scenarios.runner.SweepBoard`, which decides retry versus
quarantine).

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
from collections import deque
from concurrent.futures import (FIRST_COMPLETED, Future, ProcessPoolExecutor,
                                wait)
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import util as _mp_util
from typing import (Any, Callable, Dict, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple, Union)

from ..common.rng import child_seed

#: The deterministic error text recorded for a task whose worker died
#: (crash details — signal, address — vary run to run; records must
#: not).
WORKER_DIED = "worker process died while executing this task"


class TaskFailure(NamedTuple):
    """A failed task's result slot under ``task_errors="yield"``.

    ``kind`` is ``"error"`` (the task raised) or ``"worker-died"``
    (the worker running it vanished); ``error`` is a deterministic
    one-line description suitable for durable records.  Build them
    with :meth:`from_exception` and :meth:`worker_died`, so every
    executor — pool slot, serial loop, fleet worker — records the same
    text for the same failure.
    """

    kind: str
    error: str

    @classmethod
    def from_exception(cls, error: BaseException) -> "TaskFailure":
        """The failure of a task that raised: ``TypeName: message``."""
        return cls("error", f"{type(error).__name__}: {error}")

    @classmethod
    def worker_died(cls) -> "TaskFailure":
        """The failure of a task whose worker process died."""
        return cls("worker-died", WORKER_DIED)


class WorkerCrashError(RuntimeError):
    """A worker died executing a task and ``task_errors="raise"``
    (a slot runs one task at a time, so the message names the task)."""


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


def _shutdown_executors(executors: Sequence[ProcessPoolExecutor]) -> None:
    """Tear executors down without waiting for queued work: cancel what
    never started, then terminate and reap the worker processes
    (bounded join — a wedged worker must not hang the parent)."""
    processes = [process for executor in executors
                 for process in getattr(executor, "_processes", {}).values()]
    for executor in executors:
        executor.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        process.join(5)


class _WorkerSlots:
    """``jobs`` single-worker executors attached like the parent.

    Each slot holds at most one task, so when its worker dies the
    ``BrokenProcessPool`` belongs to exactly that task; :meth:`replace`
    then swaps in a fresh executor and the other slots never notice.
    """

    def __init__(self, jobs: int,
                 attachment: Tuple[Optional[str], str, Optional[str]]
                 ) -> None:
        self.attachment = attachment
        #: Only the creating process may terminate the workers.
        self.owner = os.getpid()
        self.executors = [self._fresh() for _ in range(jobs)]

    def _fresh(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=1, initializer=_attach_worker,
                                   initargs=self.attachment)

    def replace(self, slot: int) -> None:
        """Swap slot ``slot``'s broken executor for a fresh one."""
        _shutdown_executors([self.executors[slot]])
        self.executors[slot] = self._fresh()

    def shutdown(self) -> None:
        if self.owner == os.getpid():
            _shutdown_executors(self.executors)


_shared_pool: Optional[_WorkerSlots] = None


def shared_pool(jobs: int) -> _WorkerSlots:
    """The persistent worker slots for ``jobs`` workers.

    Created on first use and kept alive for the process; every worker
    runs :func:`_attach_worker` once at start.  The slots are re-created
    when a different worker count is requested, or when the attachment
    (trace-store location / generator hash / fault plan) no longer
    matches what the workers were initialized with — a caller that
    re-points ``REPRO_TRACE_STORE`` mid-process must never get workers
    still attached to the old store.  A slot whose worker died is
    replaced on its own: here when it died idle, by
    :func:`parallel_imap` when it died running a task.  Call
    :func:`shutdown_shared_pool` to tear them down early — an
    ``atexit`` hook does so at interpreter exit.
    """
    global _shared_pool
    if jobs <= 1:
        raise ValueError("shared_pool needs jobs > 1")
    attachment = _initargs()
    if _shared_pool is not None and (
            len(_shared_pool.executors) != jobs
            or _shared_pool.attachment != attachment):
        shutdown_shared_pool()
    if _shared_pool is None:
        _shared_pool = _WorkerSlots(jobs, attachment)
    for slot, executor in enumerate(_shared_pool.executors):
        if getattr(executor, "_broken", False):
            # Its worker died between calls (an OOM kill while idle).
            _shared_pool.replace(slot)
    return _shared_pool


def shutdown_shared_pool() -> None:
    """Terminate the persistent slots (idempotent).

    Only the process that created them touches the executors; a forked
    child that inherited the globals (a raw ``os.fork``, say) just
    drops its references — terminating the worker processes from a
    non-owner would kill the owner's in-flight tasks.
    """
    global _shared_pool
    slots, _shared_pool = _shared_pool, None
    if slots is not None:
        slots.shutdown()


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


def positive_int_argument_type(text: str) -> int:
    """argparse ``type=`` adapter for counts (``--instructions``,
    ``--cores``, ``--cache-kb``): a positive integer, so a bad value
    exits 2 with a usage message instead of failing inside a command."""
    import argparse

    if not text.strip().isdigit() or int(text) <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return int(text)

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
    through :func:`parallel_map`, so a dead worker is reported as
    :class:`WorkerCrashError` the same way as for every other fan-out.
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

    ``func`` must be picklable (module-level); with ``jobs=1`` (or a
    single item) this is just ``list(map(func, items))``.  With
    ``jobs>1`` the tasks run on the persistent :func:`shared_pool` via
    :func:`parallel_imap`: a task exception propagates, and a task that
    kills its worker raises :class:`WorkerCrashError`.
    """
    if jobs <= 0:
        raise ValueError("jobs must be positive")
    if jobs == 1 or len(items) <= 1:
        return [func(item) for item in items]
    results: List[Any] = [None] * len(items)
    for index, result in parallel_imap(func, items, jobs=jobs):
        results[index] = result
    return results


def parallel_imap(func: Callable[[Any], Any], items: Sequence[Any],
                  jobs: int = 1, *, task_errors: str = "raise"
                  ) -> Iterator[Tuple[int, Any]]:
    """Incremental process map: yields ``(index, result)`` pairs.

    With ``jobs=1`` tasks run inline and results arrive in submission
    order; with ``jobs>1`` they arrive in *completion* order, tagged
    with the submitting index.  Use this when each finished task should
    be checkpointed immediately (the scenario sweep runner appends each
    result to its on-disk store, so a killed run resumes from the last
    completed task rather than the last completed batch).  ``func``
    must be picklable (module-level).  With ``jobs>1`` the tasks run on
    the persistent :func:`shared_pool` — repeated calls (sweep after
    sweep, or a resumed sweep) reuse the same attached workers instead
    of re-spawning — one task per slot, and a freed slot takes its next
    task before the finished result is yielded, so the caller's
    per-result work overlaps the next walk.

    Failure contract (``task_errors``): with ``"raise"`` (default) a
    task exception propagates and a task that kills its worker raises
    :class:`WorkerCrashError` naming it; with ``"yield"`` the failed
    task's slot yields a :class:`TaskFailure` instead and the remaining
    tasks keep running.  Either way a death costs exactly the task that
    died: its slot is replaced, and no other task is rerun or lost.

    Early-close contract: ``close()``-ing the iterator before
    exhaustion (what the sweep runner's cooperative-stop hook does on
    graceful shutdown) cancels the not-yet-consumed work — under
    ``jobs>1`` the persistent slots are torn down and the next parallel
    call transparently re-creates them.  Results already yielded are
    unaffected.
    """
    if jobs <= 0:
        raise ValueError("jobs must be positive")
    if task_errors not in ("raise", "yield"):
        raise ValueError(f"task_errors must be 'raise' or 'yield', "
                         f"got {task_errors!r}")
    if jobs > 1:
        yield from _imap_pooled(func, items, jobs, task_errors)
        return
    for index, item in enumerate(items):
        if task_errors == "raise":
            yield index, func(item)
            continue
        try:
            result = func(item)
        except Exception as error:  # reprolint: disable=RL009 - converted to a TaskFailure the caller retries or quarantines
            yield index, TaskFailure.from_exception(error)
        else:
            yield index, result


def _imap_pooled(func: Callable[[Any], Any], items: Sequence[Any],
                 jobs: int, task_errors: str
                 ) -> Iterator[Tuple[int, Any]]:
    """The ``jobs > 1`` body of :func:`parallel_imap` (see its
    docstring for the failure and early-close contracts)."""
    if not items:
        return
    slots = shared_pool(jobs)
    queue = deque(enumerate(items))
    running: Dict[Future, Tuple[int, int]] = {}  # future -> (slot, index)

    def refill(slot: int) -> None:
        if queue:
            index, item = queue.popleft()
            running[slots.executors[slot].submit(func, item)] = (slot, index)

    try:
        for slot in range(jobs):
            refill(slot)
        while running:
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in sorted(done, key=lambda key: running[key][1]):
                slot, index = running.pop(future)
                try:
                    result = future.result()
                except BrokenProcessPool:
                    # The slot's one worker died running this task.
                    slots.replace(slot)
                    if task_errors == "raise":
                        raise WorkerCrashError(
                            f"task {index} killed its worker process"
                        ) from None
                    result = TaskFailure.worker_died()
                except Exception as error:
                    if task_errors == "raise":
                        raise
                    result = TaskFailure.from_exception(error)
                refill(slot)
                yield index, result
    except BaseException:
        # Closed early, or raising: the other slots still hold tasks
        # nobody will observe.  Terminate them rather than let them
        # burn CPU; the next call re-creates the slots.
        shutdown_shared_pool()
        raise
