"""The sweep runner: expand a scenario, simulate what's missing, resume.

Execution strategy, in order of the wins it banks:

1. **Resume before compute.**  The expanded points are checked against
   the output directory's :class:`~repro.scenarios.results.ResultsStore`
   first; every point that already has a record under the current
   trace-generator version is skipped entirely.  An interrupted sweep
   rerun with the same arguments therefore finishes the remainder
   instead of starting over, and a finished sweep is a no-op.
2. **Batch lanes per trace.**  Missing points that share a trace and
   warmup window — (workload, instructions, seed, core, warmup) —
   become lanes of one single-pass multi-prefetcher walk
   (:func:`repro.sim.engine.run_multi_prefetch_simulation`), each lane
   carrying its own cache geometry, so a 12-engine-variant sweep costs
   one trace walk, not twelve.
3. **Shard wide groups.**  Under ``jobs > 1`` a group with many lanes
   (a geometry × engine cross easily reaches dozens) is split into
   per-shard walks over the same trace (:func:`_shard_tasks`), so a
   scenario with fewer trace groups than workers still saturates the
   pool.  Lanes never interact, so shard records are bit-identical to
   the unsharded walk; the mmap-backed trace store and the per-process
   decoded-column/train-plan caches keep the per-shard trace cost to
   page-cache hits.
4. **Schedule by cost, largest first.**  Tasks are ordered by estimated
   cost (requested instructions × lane count) so the longest walks
   start first and the tail of a parallel run stays short.
5. **Lease from one board, fan out on the persistent slots.**  Tasks
   are leased from a :class:`SweepBoard` — the retry/quarantine state
   machine the distributed coordinator shares — and run via
   :func:`repro.experiments.parallel.parallel_imap` on the process-wide
   worker slots; each outcome is reported back the moment its task
   completes, so a kill loses at most the in-flight tasks.
6. **Memoize baselines across points and runs.**  No-prefetch baseline
   replays are memoized in-process keyed by (trace content hash, cache
   geometry, replacement, warmup) and persisted to the
   :class:`~repro.scenarios.results.BaselineSidecar` next to the
   results store; reruns and resumed sweeps seed their workers from the
   sidecar and skip the replays.

Per-point metrics recorded (units): ``baseline_misses`` and
``remaining_misses`` are correct-path demand-miss *counts* in the
post-warmup measurement window; ``coverage`` is the signed fraction of
baseline misses eliminated (1.0 = all, negative = pollution — not a
percent); ``baseline_mpki``/``remaining_mpki`` are misses per 1000
*retired instructions* (whole-trace instruction count, window-restricted
misses — indicative, as in
:meth:`repro.sim.tracesim.PrefetchSimResult.baseline_mpki`);
``prefetches_issued`` counts issues over the whole trace.  With
``timing: true`` each point also records ``speedup`` — the timing
model's UIPC ratio against a no-prefetch baseline of the same cache
geometry (dimensionless, 1.0 = no change).
"""

from __future__ import annotations

import sys
import threading
import time
from collections import deque
from contextlib import closing
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (Any, Callable, Dict, List, NamedTuple, Optional, Tuple,
                    Union)

from ..common.config import CacheConfig, SystemConfig
from ..experiments.parallel import TaskFailure, parallel_imap
from ..faults import fire
from ..pipeline.tracegen import cached_trace
from ..sim.baseline import export_baseline_memo, seed_baseline_memo
from ..sim.engine import run_multi_prefetch_simulation
from ..sim.timing import run_timing_simulation
from .engines import build_engine
from .results import BaselineSidecar, ResultsStore, current_generator
from .spec import ScenarioSpec, SweepPoint, point_hash

#: Task-count multiple :func:`_shard_tasks` aims for under ``jobs > 1``
#: (oversubscription smooths unequal task costs across workers).
SHARD_OVERSUBSCRIPTION = 2

#: Default retry budget per trace-group task before quarantine
#: (``repro sweep run --max-retries``).
DEFAULT_MAX_RETRIES = 2


@dataclass(slots=True)
class SweepRunSummary:
    """Outcome of one :func:`run_sweep` invocation (point counts)."""

    total: int        #: points the scenario expands to
    skipped: int      #: points already stored (current generator)
    computed: int     #: points simulated by this invocation
    remaining: int    #: points still missing afterwards (``--limit`` runs)
    failed: int = 0   #: points quarantined by this invocation (retries spent)
    #: Trace-group names quarantined this invocation, first-failure order.
    quarantined: Tuple[str, ...] = ()

    def complete(self) -> bool:
        """True when every expanded point now has a stored record —
        successful *or* quarantined (nothing left to attempt)."""
        return self.remaining == 0

    def degraded(self) -> bool:
        """True when the sweep finished but quarantined points (the
        ``repro sweep run`` exit-3 condition; a rerun retries them)."""
        return self.complete() and self.failed > 0


class _GroupTask(NamedTuple):
    """All missing lanes of one (trace, warmup) group — or one shard of
    such a group — one walk's worth."""

    workload: str
    instructions: int
    seed: int
    core: int
    warmup: float
    #: (point hash, point) per lane, in spec expansion order.
    lanes: Tuple[Tuple[str, SweepPoint], ...]
    #: Baseline-memo sidecar entries for *this task's trace*, seeded
    #: into the process that runs it (None on first runs; see
    #: BaselineSidecar).
    baselines: Optional[Dict[str, Dict[str, Any]]] = None
    #: Retry generation: 0 on first submission, +1 per retry.  Part of
    #: the ``worker.task`` fault key, so plans can target first
    #: attempts only (transient fault) or every attempt (poison task).
    attempt: int = 0

    def trace_key(self) -> Tuple[str, int, int, int]:
        """The trace identity tuple sidecar entries are scoped by."""
        return (self.workload, self.instructions, self.seed, self.core)

    def cost(self) -> int:
        """Scheduling cost estimate: trace length × lane count."""
        return self.instructions * len(self.lanes)

    def group_name(self) -> str:
        """Human-readable trace-group identity (shards share it) —
        what quarantine messages and ``repro sweep run`` exit text
        name."""
        return (f"{self.workload}/i{self.instructions}/s{self.seed}"
                f"/c{self.core}")

    def fault_key(self) -> str:
        """Deterministic ``worker.task`` injection key for this task."""
        return (f"{self.workload}:i{self.instructions}:s{self.seed}:"
                f"c{self.core}:w{self.warmup}:lanes{len(self.lanes)}:"
                f"attempt={self.attempt}")


def _cache_config(point: SweepPoint) -> CacheConfig:
    return CacheConfig(capacity_bytes=point.capacity_bytes,
                       associativity=point.associativity,
                       block_bytes=point.block_bytes,
                       replacement=point.replacement)


def _run_group(task: _GroupTask
               ) -> Tuple[List[Dict[str, Any]], Dict[str, Dict[str, Any]]]:
    """Simulate one trace group (or shard); returns (one record per
    lane, the worker's baseline-memo snapshot for the sidecar).

    Runs inside a worker process under ``--jobs N``; everything it
    touches is deterministic in the task alone (trace generation is
    seeded, random replacement uses per-set ``Random(0)``), so records
    are identical whichever worker runs them — and identical however
    the group was sharded, because lanes never observe each other.
    """
    fire("worker.task", task.fault_key())
    if task.baselines:
        seed_baseline_memo(task.baselines)
    bundle = cached_trace(task.workload, task.instructions, task.seed,
                          task.core).bundle
    engines = [build_engine(point.engine, dict(point.params),
                            point.block_bytes)
               for _, point in task.lanes]
    configs = [_cache_config(point) for _, point in task.lanes]
    sims = run_multi_prefetch_simulation(
        bundle, engines, cache_configs=configs,
        warmup_fraction=task.warmup)

    timing_baselines: Dict[CacheConfig, float] = {}
    generator = current_generator()
    records: List[Dict[str, Any]] = []
    for (digest, point), config, sim in zip(task.lanes, configs, sims):
        metrics: Dict[str, Any] = {
            "baseline_misses": sim.baseline_misses,
            "remaining_misses": sim.remaining_misses,
            "coverage": sim.coverage(),
            "prefetches_issued": sim.prefetches_issued,
            "baseline_mpki": sim.baseline_mpki(),
            "remaining_mpki": (
                1000.0 * sim.remaining_misses / sim.instructions
                if sim.instructions else 0.0),
        }
        if point.timing:
            system = replace(SystemConfig(), l1i=config)
            base_uipc = timing_baselines.get(config)
            if base_uipc is None:
                base_uipc = run_timing_simulation(
                    bundle, None, system, task.warmup).uipc()
                timing_baselines[config] = base_uipc
            # The coverage walk mutated this lane's engine; the timing
            # model needs a fresh one, exactly as the figure runners do.
            timed = run_timing_simulation(
                bundle, build_engine(point.engine, dict(point.params),
                                     point.block_bytes),
                system, task.warmup)
            metrics["uipc"] = timed.uipc()
            metrics["speedup"] = (timed.uipc() / base_uipc
                                  if base_uipc else 0.0)
        records.append({
            "hash": digest,
            "label": point.label,
            "generator": generator,
            "point": point.identity(),
            "metrics": metrics,
        })
    # Scoped to this bundle's entries: a persistent worker's memo also
    # holds other traces' (and other sweeps') baselines.
    return records, export_baseline_memo(bundle.content_hash())


def missing_points(spec: ScenarioSpec, store: ResultsStore
                   ) -> Tuple[List[Tuple[str, SweepPoint]], int]:
    """(points without a current-generator record, count already done).

    A quarantined record (``"failed"`` instead of ``"metrics"``) does
    *not* count as done: a rerun retries exactly the quarantined set,
    and a success supersedes the failed record by newest-wins.
    """
    current = store.load_current()
    done = {digest for digest, record in current.items()
            if "failed" not in record}
    pending: List[Tuple[str, SweepPoint]] = []
    skipped = 0
    for point in spec.points():
        digest = point_hash(point)
        if digest in done:
            skipped += 1
        else:
            pending.append((digest, point))
    return pending, skipped


def _failed_records(task: _GroupTask, failure: TaskFailure,
                    attempts: int) -> List[Dict[str, Any]]:
    """Quarantine records for every lane of a spent task: same identity
    envelope as success records, ``failed`` payload instead of
    ``metrics``.  Every field is deterministic (attempt counters, the
    constant worker-died text, injected-fault messages) so fault runs
    stay byte-reproducible."""
    generator = current_generator()
    return [
        {
            "hash": digest,
            "label": point.label,
            "generator": generator,
            "point": point.identity(),
            "failed": {"attempts": attempts, "kind": failure.kind,
                       "error": failure.error},
        }
        for digest, point in task.lanes
    ]


def _group_tasks(pending: List[Tuple[str, SweepPoint]]) -> List[_GroupTask]:
    """Group pending points into one task per (trace, warmup) walk,
    preserving first-seen group order and in-group lane order."""
    groups: Dict[Tuple[str, int, int, int, float],
                 List[Tuple[str, SweepPoint]]] = {}
    for digest, point in pending:
        key = (point.workload, point.instructions, point.seed, point.core,
               point.warmup)
        groups.setdefault(key, []).append((digest, point))
    return [
        _GroupTask(workload=key[0], instructions=key[1], seed=key[2],
                   core=key[3], warmup=key[4], lanes=tuple(lanes))
        for key, lanes in groups.items()
    ]


def _shard_tasks(tasks: List[_GroupTask], jobs: int) -> List[_GroupTask]:
    """Split wide trace groups into lane shards until the task count
    reaches ``jobs * SHARD_OVERSUBSCRIPTION`` (or nothing is left to
    split), then order everything largest-estimated-cost first.

    Deterministic: the split sequence depends only on the task list and
    ``jobs`` (ties broken by original submission order), and shard
    records are bit-identical to unsharded ones, so sharding can never
    change what lands in the results store — only how fast it lands.
    With ``jobs == 1`` the input tasks are returned as-is (submission
    order), preserving the serial runner's byte-for-byte store layout.
    """
    if jobs <= 1:
        return tasks
    target = jobs * SHARD_OVERSUBSCRIPTION
    # Stable working list of [cost, original_index, task] entries.
    work = [[task.cost(), index, task] for index, task in enumerate(tasks)]
    while len(work) < target:
        # Largest task first; original index breaks ties stably.
        work.sort(key=lambda entry: (-entry[0], entry[1]))
        for entry in work:
            if len(entry[2].lanes) > 1:
                cost, index, task = entry
                middle = (len(task.lanes) + 1) // 2
                first = task._replace(lanes=task.lanes[:middle])
                second = task._replace(lanes=task.lanes[middle:])
                entry[0] = first.cost()
                entry[2] = first
                work.append([second.cost(), index, second])
                break
        else:
            break  # every task is a single lane already
    work.sort(key=lambda entry: (-entry[0], entry[1]))
    return [entry[2] for entry in work]


class SweepPlan(NamedTuple):
    """Everything :func:`prepare_sweep` resolved before execution: the
    opened store/sidecar pair, the resume accounting, and the sharded
    task list — what a :class:`SweepBoard` is built over, by the inline
    runner and the distributed coordinator (:mod:`repro.dist`) alike,
    so both execute the exact same tasks against the exact same store."""

    store: ResultsStore
    sidecar: BaselineSidecar
    #: Keys already persisted — updated in place as groups finish.
    known_keys: set
    total: int      #: points the scenario expands to
    skipped: int    #: points already stored (current generator)
    selected: int   #: points this invocation will attempt
    groups: int     #: distinct (trace, warmup) groups among them
    tasks: List[_GroupTask]

    def describe(self, spec_name: str, jobs: int) -> str:
        """The standard one-line sweep preamble ``emit`` prints."""
        return (f"sweep {spec_name!r}: {self.total} points "
                f"({self.skipped} stored, {self.selected} to run in "
                f"{len(self.tasks)} tasks over {self.groups} trace "
                f"groups, jobs={jobs})")


def prepare_sweep(spec: ScenarioSpec, out: Union[str, Path], jobs: int = 1,
                  limit: Optional[int] = None) -> SweepPlan:
    """Resolve a sweep invocation into a :class:`SweepPlan`.

    Opens (creating if needed) the results store under ``out``, records
    the launching spec, computes the missing-point set, groups and
    shards it exactly as :func:`run_sweep` would for ``jobs``, and
    attaches each task's trace-scoped sidecar entries, which
    :func:`_run_group` seeds into the baseline memo of whichever
    process runs the task — inline, a pool slot, or a fleet worker
    without a shared filesystem.
    """
    store = ResultsStore(out)
    store.write_scenario(spec.source)
    sidecar = BaselineSidecar(out)
    stored, baselines_by_trace = sidecar.load_all()
    known_keys = set(stored)
    pending, skipped = missing_points(spec, store)
    total = skipped + len(pending)
    selected = pending if limit is None else pending[:limit]
    groups = _group_tasks(selected)
    # Each task ships only its own trace's sidecar entries.
    tasks = [task._replace(baselines=baselines_by_trace.get(task.trace_key()))
             for task in _shard_tasks(groups, jobs)]
    return SweepPlan(store=store, sidecar=sidecar,
                     known_keys=known_keys, total=total, skipped=skipped,
                     selected=len(selected), groups=len(groups),
                     tasks=tasks)


class _Lease(NamedTuple):
    index: int   #: position in the board's task list
    holder: str  #: who runs the task: a fleet worker id, or "inline"


#: A lease's end: :func:`_run_group`'s result, or why it failed.
_Outcome = Union[Tuple[List[Dict[str, Any]], Dict[str, Dict[str, Any]]],
                 TaskFailure]


class SweepBoard:
    """The one retry/quarantine state machine of a sweep.

    ::

        pending ──grant──► leased ──records──► done
           ▲                  │
           │                  ├─ failed: raised, or its worker died
           │                  ▼
           └──requeue── attempt < max_retries?  ──no──► quarantined
                                                        (failed records)

    :func:`run_sweep` grants itself every pending task and reports each
    outcome; the coordinator's :class:`~repro.dist.coordinator.LeaseBoard`
    subclass grants tasks to pulling workers.  Successes are appended to
    the store (baselines to the sidecar) as they arrive; a task that
    fails every attempt is quarantined with :func:`_failed_records`.  A
    report for a lease that is no longer live is dropped, so a task's
    records reach the store once.  All mutation happens under one lock;
    a subclass adds transitions by taking ``self._lock`` and calling the
    ``_*_locked`` helpers.
    """

    def __init__(self, plan: SweepPlan, *,
                 max_retries: int = DEFAULT_MAX_RETRIES,
                 emit: Callable[[str], None] = lambda line: None) -> None:
        self._lock = threading.Lock()
        self._plan = plan
        self._tasks = list(plan.tasks)
        self._pending = deque(range(len(self._tasks)))
        self._leases: Dict[str, _Lease] = {}
        self._seq = 0
        self._terminal = 0
        self.max_retries = max_retries
        self.computed = 0
        self.failed = 0
        self.quarantined: List[str] = []
        self._emit = emit
        self._started = time.monotonic()  # reprolint: disable=RL002 - progress timing; stderr only, never recorded

    def task_count(self) -> int:
        return len(self._tasks)

    def done(self) -> bool:
        """True once every task reached done or quarantined."""
        with self._lock:
            return self._done_locked()

    def counts(self) -> Tuple[int, int, Tuple[str, ...]]:
        """(computed, failed, quarantined group names) snapshot."""
        with self._lock:
            return self.computed, self.failed, tuple(self.quarantined)

    def summary(self) -> SweepRunSummary:
        """The invocation's outcome so far."""
        computed, failed, quarantined = self.counts()
        plan = self._plan
        return SweepRunSummary(
            total=plan.total, skipped=plan.skipped, computed=computed,
            remaining=plan.total - plan.skipped - computed - failed,
            failed=failed, quarantined=quarantined)

    def grant_all(self, holder: str) -> List[Tuple[str, _GroupTask]]:
        """Lease every pending task to ``holder``: ``(lease id, task)``
        pairs in queue order (requeued retries at the tail)."""
        with self._lock:
            granted = []
            while (lease := self._grant_locked(holder)) is not None:
                granted.append(lease)
            return granted

    def report(self, lease_id: str, outcome: _Outcome) -> bool:
        """End a lease with its outcome; False if the lease was no
        longer live (the report is stale and dropped)."""
        with self._lock:
            return self._report_locked(lease_id, outcome)

    def expire_worker(self, holder: str) -> int:
        """Charge a death to every lease ``holder`` held (its process
        is known dead); returns the number expired."""
        with self._lock:
            stale = [lease_id for lease_id, lease in self._leases.items()
                     if lease.holder == holder]
            for lease_id in stale:
                self._report_locked(lease_id, TaskFailure.worker_died())
            return len(stale)

    def fail_outstanding(self) -> int:
        """Quarantine everything still pending or leased — the no-wedge
        backstop when no worker can be (re)spawned to make progress.
        Returns the number of tasks quarantined."""
        with self._lock:
            indices = list(self._pending)
            indices += [lease.index for lease in self._leases.values()]
            self._pending.clear()
            self._leases.clear()
            for index in indices:
                self._quarantine_locked(index, TaskFailure.worker_died())
            return len(indices)

    # ------------------------------------------------------------------

    def _done_locked(self) -> bool:
        return self._terminal == len(self._tasks)

    def _grant_locked(self, holder: str
                      ) -> Optional[Tuple[str, _GroupTask]]:
        if not self._pending:
            return None
        index = self._pending.popleft()
        self._seq += 1
        lease_id = f"lease-{self._seq:06d}"
        self._leases[lease_id] = _Lease(index=index, holder=holder)
        return lease_id, self._tasks[index]

    def _report_locked(self, lease_id: str, outcome: _Outcome) -> bool:
        lease = self._leases.pop(lease_id, None)
        if lease is None:
            return False
        if isinstance(outcome, TaskFailure):
            self._fail_locked(lease.index, outcome)
            return True
        records, baselines = outcome
        task = self._tasks[lease.index]
        self._plan.store.append_all(records)
        self._plan.sidecar.append_missing(baselines, self._plan.known_keys,
                                          task.trace_key())
        self.computed += len(records)
        self._terminal += 1
        elapsed = time.monotonic() - self._started  # reprolint: disable=RL002 - progress timing; stderr only, never recorded
        self._emit(f"  [{self._terminal}/{len(self._tasks)}] "
                   f"{task.group_name()} via {lease.holder}: "
                   f"{len(records)} points ({elapsed:.1f}s elapsed)")
        return True

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
        self._plan.store.append_all(records)
        self.failed += len(records)
        name = task.group_name()
        if name not in self.quarantined:
            self.quarantined.append(name)
        self._terminal += 1
        self._emit(f"  quarantined {name} after {task.attempt + 1} "
                   f"attempts: {failure.error}")


def run_sweep(spec: ScenarioSpec, out: Union[str, Path], jobs: int = 1,
              limit: Optional[int] = None,
              log: Optional[Callable[[str], None]] = None,
              should_stop: Optional[Callable[[], bool]] = None,
              max_retries: int = DEFAULT_MAX_RETRIES) -> SweepRunSummary:
    """Run (or resume) ``spec``, persisting results under ``out``.

    ``jobs`` fans tasks out over the persistent worker slots, sharding
    wide trace groups so they stay saturated (records are identical for
    any value); ``limit`` caps the number of *new* points this
    invocation computes — the standard way to chunk a long sweep or to
    exercise resume in tests.  ``log`` receives one progress line per
    completed task (default: stderr).

    ``should_stop`` is the cooperative-stop hook (the sweep service's
    graceful shutdown): polled between tasks, never mid-walk.  When it
    returns True the in-flight task finishes and is checkpointed to the
    store, queued tasks are cancelled, and the summary comes back with
    ``remaining > 0`` — the sweep resumes later exactly like one
    interrupted by ``--limit`` or a kill, recomputing nothing.

    Failure model (DESIGN.md "Failure model"): every pending task is
    leased from the sweep's :class:`SweepBoard`, run through
    :func:`parallel_imap`, and its outcome reported back; the board
    requeues a failed task (its worker died, or it raised) up to
    ``max_retries`` times, and the next round runs the requeued ones.
    A task that fails every attempt is *quarantined*: one ``failed``
    record per lane is appended to the store (deterministic payload —
    attempt counts, the constant worker-died text), the sweep keeps
    going, and the summary reports ``failed`` / ``quarantined`` with
    ``degraded()`` true.  Quarantined points do not count as done on
    resume, so a later rerun retries exactly that set and successes
    supersede by newest-wins.
    """
    if jobs <= 0:
        raise ValueError("jobs must be positive")
    if limit is not None and limit < 0:
        raise ValueError("limit cannot be negative")
    if max_retries < 0:
        raise ValueError("max_retries cannot be negative")
    emit = log if log is not None else (
        lambda line: print(line, file=sys.stderr))
    stop = should_stop if should_stop is not None else (lambda: False)

    plan = prepare_sweep(spec, out, jobs=jobs, limit=limit)
    emit(plan.describe(spec.name, jobs))
    board = SweepBoard(plan, max_retries=max_retries, emit=emit)
    while not board.done() and not stop():
        leases = board.grant_all("inline")
        # Closing the iterator — on a stop, an exception or a Ctrl-C —
        # cancels the tasks still running (parallel_imap's early-close
        # contract), so no abandoned simulation keeps burning CPU.
        with closing(parallel_imap(_run_group, [task for _, task in leases],
                                   jobs=jobs, task_errors="yield")
                     ) as results:
            for finished, (index, outcome) in enumerate(results, start=1):
                board.report(leases[index][0], outcome)
                if stop() and not board.done():
                    # Everything completed so far is in the store; the
                    # cancelled tasks' points stay missing for a resume
                    # (not quarantined).
                    emit(f"  stop requested; checkpointed after "
                         f"{finished} of {len(leases)} tasks")
                    break
    return board.summary()
