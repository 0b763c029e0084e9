"""Command-line interface: ``python -m repro <command>`` (or the
``repro`` console script).

Eight commands cover the everyday workflows:

* ``trace``    — generate a workload trace, print its characterization,
  optionally save it as a ``.npz`` bundle for external tools;
* ``simulate`` — run one prefetch engine over one workload and report
  coverage/accuracy (the quickstart, without writing code);
* ``compare``  — the Figure 10 matrix for a chosen set of engines; each
  workload's trace is replayed *once* against every engine through the
  single-pass multi-prefetcher engine (:mod:`repro.sim.engine`), and
  ``--jobs N`` fans the workload rows out over N processes;
* ``traces``   — manage the content-addressed on-disk trace store
  (:mod:`repro.trace.store`): ``build`` pre-generates the experiment
  matrix's bundles (``--jobs N|auto`` fans out per trace), ``ls`` lists
  what is cached (``--format json`` for tooling), ``gc`` evicts stale
  or over-budget archives;
* ``sweep``    — declarative scenario sweeps (:mod:`repro.scenarios`):
  ``run`` expands a YAML/JSON scenario file into simulation points,
  batches points sharing a trace into single multi-prefetcher walks,
  fans out with ``--jobs N|auto`` over the persistent worker pool
  (sharding wide trace groups), and checkpoints every completed point
  so an interrupted sweep *resumes* (failed tasks are retried up to
  ``--max-retries`` times, then quarantined — the sweep completes
  degraded with exit code 3 and a rerun retries exactly the
  quarantined set); ``status`` reports completion (``--format json``
  for scripts); ``report`` renders markdown or CSV summary tables;
  ``verify`` is the offline integrity checker (``--repair`` drops
  corrupt/quarantined state so resume recomputes only what was lost);
* ``serve``    — the sweep-service daemon (:mod:`repro.service`): a
  long-running HTTP API over the same resumable sweep engine — submit
  scenario specs, poll job status, fetch reports; jobs persist under
  ``--data-dir`` and a restarted daemon resumes every in-flight sweep
  with zero recomputation.  The API reference is ``docs/api.md``;
* ``worker``   — a distributed-sweep worker (:mod:`repro.dist`): pulls
  trace-group leases from a coordinator started by ``repro sweep run
  --transport http``, runs them through the standard group path, and
  streams the records back; ``--transport local`` spawns these
  automatically as subprocesses;
* ``lint``     — reprolint (:mod:`repro.analysis`), the repo's own
  AST-based determinism & hot-path contract checker; CI gates on
  ``repro lint src tests benchmarks examples`` exiting 0.

Every ``--jobs`` flag accepts ``auto`` (all CPUs but one, minimum one).

The full figure-by-figure evaluation lives in
``python -m repro.experiments`` (which takes the same ``--jobs`` flag).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from typing import List, NamedTuple, Optional, TYPE_CHECKING, Tuple

# Module top holds only what building the parser needs; each command
# imports what it runs, so parsing the command line (and ``repro lint``)
# loads none of the simulator.
from .common.config import CacheConfig, PIFConfig
from .experiments.parallel import (jobs_argument_type,
                                   positive_int_argument_type)
from .workloads.spec import WORKLOAD_NAMES

if TYPE_CHECKING:
    from .trace.store import TraceStore

#: Engine names the CLI accepts (PIF gets the experiment-scale window).
ENGINE_NAMES = ("none", "next-line", "next-line-miss", "stride",
                "discontinuity", "tifs", "pif")


#: argparse type for ``--jobs``: positive integer or ``auto``.
_jobs_value = jobs_argument_type


def _engine(name: str):
    from .core.pif import ProactiveInstructionFetch
    from .prefetch import make_prefetcher

    if name == "pif":
        return ProactiveInstructionFetch(PIFConfig(sab_window_regions=3))
    return make_prefetcher(name)


def _cache(kilobytes: int) -> CacheConfig:
    return CacheConfig(capacity_bytes=kilobytes * 1024, associativity=2)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", default="oltp-db2",
                        choices=sorted(WORKLOAD_NAMES))
    parser.add_argument("--instructions", type=positive_int_argument_type,
                        default=400_000,
                        help="requested trace length per core (retired "
                             "instructions, not fetch accesses)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--cache-kb", type=positive_int_argument_type,
                        default=32,
                        help="L1-I capacity in KB (2-way)")


def cmd_trace(args: argparse.Namespace) -> int:
    """Generate and characterize one trace."""
    from .pipeline.tracegen import generate_trace
    from .trace.serialize import save_bundle
    from .trace.stats import analyze_block_stream

    trace = generate_trace(args.workload, instructions=args.instructions,
                           seed=args.seed)
    bundle = trace.bundle
    stats = analyze_block_stream(bundle.retire_block_array())
    print(f"workload            {bundle.workload}")
    print(f"instructions        {bundle.instructions:,}")
    print(f"retire records      {len(bundle.retire_pc):,}")
    print(f"fetch accesses      {len(bundle.access_block):,}")
    print(f"wrong-path fraction {bundle.wrong_path_fraction():.1%}")
    print(f"touched footprint   {bundle.footprint_blocks() * 64 // 1024} KB")
    print(f"sequential fraction {stats.sequential_fraction:.1%}")
    print(f"branch accuracy     "
          f"{trace.frontend_stats.conditional_accuracy():.1%}")
    if args.output:
        path = save_bundle(bundle, args.output)
        print(f"saved               {path}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run one engine over one workload.

    Printed ``miss coverage`` and ``prefetch accuracy`` are percents of
    baseline misses eliminated / of prefetch fills referenced; the miss
    counts cover the post-warmup measurement window only.
    """
    from .pipeline.tracegen import cached_trace
    from .sim.tracesim import run_prefetch_simulation

    bundle = cached_trace(args.workload, args.instructions, args.seed).bundle
    engine = _engine(args.engine)
    result = run_prefetch_simulation(bundle, engine,
                                     cache_config=_cache(args.cache_kb),
                                     warmup_fraction=args.warmup)
    print(f"engine              {engine.name}")
    print(f"baseline misses     {result.baseline_misses:,}")
    print(f"remaining misses    {result.remaining_misses:,}")
    print(f"miss coverage       {result.coverage():.1%}")
    print(f"prefetches issued   {result.prefetches_issued:,}")
    if result.cache_stats is not None:
        print(f"prefetch accuracy   "
              f"{result.cache_stats.prefetch_accuracy():.1%}")
    return 0


class _CompareTask(NamedTuple):
    """One compare-matrix row: a workload against every chosen engine."""

    workload: str
    engines: Tuple[str, ...]
    instructions: int
    seed: int
    cache_kb: int
    warmup: float


def _compare_row(task: _CompareTask) -> str:
    """Render one workload's coverage cells (single trace walk)."""
    from .pipeline.tracegen import cached_trace
    from .sim.engine import run_multi_prefetch_simulation

    bundle = cached_trace(task.workload, task.instructions, task.seed).bundle
    results = run_multi_prefetch_simulation(
        bundle, [_engine(name) for name in task.engines],
        cache_config=_cache(task.cache_kb), warmup_fraction=task.warmup)
    cells = [f"{result.coverage():10.1%}" for result in results]
    return f"{task.workload:12s}  " + "  ".join(cells)


def cmd_compare(args: argparse.Namespace) -> int:
    """Coverage matrix: chosen engines over all six workloads.

    Cells are miss coverage — the percent of no-prefetch baseline
    misses the engine eliminates in the measurement window (signed:
    a polluting engine prints negative).
    """
    from .experiments.parallel import parallel_map

    engines = tuple(args.engines.split(","))
    for name in engines:
        if name not in ENGINE_NAMES:
            print(f"unknown engine {name!r}; choose from {ENGINE_NAMES}",
                  file=sys.stderr)
            return 2
    print(f"{'workload':12s}  " + "  ".join(f"{n:>10s}" for n in engines))
    tasks = [_CompareTask(workload, engines, args.instructions, args.seed,
                          args.cache_kb, args.warmup)
             for workload in WORKLOAD_NAMES]
    for row in parallel_map(_compare_row, tasks, jobs=args.jobs):
        print(row)
    return 0


def _store_for(args: argparse.Namespace) -> Optional[TraceStore]:
    """The store a ``traces`` subcommand operates on (``--store`` wins
    over the environment).  Prints the shared disabled-store error and
    returns None when persistence is off, so callers just exit 2."""
    from .trace.store import TraceStore

    if args.store is not None:
        return TraceStore(args.store)
    store = TraceStore.from_env()
    if store is None:
        print("trace store is disabled (REPRO_TRACE_STORE); pass --store",
              file=sys.stderr)
    return store


class _BuildTask(NamedTuple):
    """One (workload, core) archive to ensure in the store."""

    workload: str
    instructions: int
    seed: int
    core: int
    store_root: str


def _build_one(task: _BuildTask) -> str:
    """Ensure one trace archive exists; returns 'cached' or 'built'.

    Presence is checked by path, not by loading: decompressing a
    multi-MB archive (and bumping its LRU mtime) just to print "cached"
    would make a warm no-op build as expensive as a real load pass.
    Corrupt archives still self-heal on the consumer path
    (``cached_trace`` -> ``store.get``).
    """
    from .pipeline.tracegen import generate_trace
    from .trace.store import TraceKey, TraceStore

    store = TraceStore(task.store_root)
    key = TraceKey(task.workload, task.instructions, task.seed, task.core)
    if store.path_for(key).exists():
        return "cached"
    trace = generate_trace(task.workload, instructions=task.instructions,
                           seed=task.seed, core=task.core)
    store.put(key, trace.bundle,
              extra={"frontend_stats": asdict(trace.frontend_stats)})
    return "built"


def cmd_traces_build(args: argparse.Namespace) -> int:
    """Pre-generate the experiment matrix's traces into the store.

    Defaults track the experiment configurations (``--quick`` selects
    ``QUICK_CONFIG``, otherwise ``ExperimentConfig``), so a plain
    ``repro traces build`` produces exactly the archives a subsequent
    ``python -m repro.experiments`` run will look up.
    """
    from .experiments.common import QUICK_CONFIG, ExperimentConfig
    from .experiments.parallel import parallel_map

    store = _store_for(args)
    if store is None:
        return 2
    config = QUICK_CONFIG if args.quick else ExperimentConfig()
    instructions = (args.instructions if args.instructions is not None
                    else config.instructions)
    seed = args.seed if args.seed is not None else config.seed
    cores = args.cores if args.cores is not None else config.cores
    workloads = (sorted(WORKLOAD_NAMES) if args.workloads == "all"
                 else args.workloads.split(","))
    for workload in workloads:
        if workload not in WORKLOAD_NAMES:
            print(f"unknown workload {workload!r}; choose from "
                  f"{sorted(WORKLOAD_NAMES)}", file=sys.stderr)
            return 2
    tasks = [
        _BuildTask(workload, instructions, seed, core, str(store.root))
        for workload in workloads for core in range(cores)
    ]
    outcomes = parallel_map(_build_one, tasks, jobs=args.jobs)
    for task, outcome in zip(tasks, outcomes):
        print(f"{outcome:7s}  {task.workload} core {task.core} "
              f"({task.instructions:,} instructions, seed {task.seed})")
    built = sum(1 for outcome in outcomes if outcome == "built")
    print(f"{built} built, {len(outcomes) - built} already cached, "
          f"store at {store.root}")
    return 0


def cmd_traces_ls(args: argparse.Namespace) -> int:
    """List the store's archives, current generator version first.

    ``--format json`` emits one JSON document: store root, running
    generator version, and an entry list (``state`` is ``current``,
    ``stale``, or ``foreign``; key fields are null for foreign files) —
    the machine-readable surface for tooling and CI scripts.
    """
    from .trace.store import generator_version_hash

    store = _store_for(args)
    if store is None:
        return 2
    entries = store.entries()
    if args.format == "json":
        payload = {
            "store": str(store.root),
            "generator": generator_version_hash()[:12],
            "total_bytes": sum(entry.size_bytes for entry in entries),
            "entries": [
                {
                    "file": entry.path.name,
                    "state": ("foreign" if entry.key is None
                              else "current" if entry.current else "stale"),
                    "size_bytes": entry.size_bytes,
                    "workload": entry.key.workload if entry.key else None,
                    "instructions": (entry.key.instructions
                                     if entry.key else None),
                    "seed": entry.key.seed if entry.key else None,
                    "core": entry.key.core if entry.key else None,
                    "generator": entry.generator_hash,
                }
                for entry in entries
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"store   {store.root}")
    print(f"version {generator_version_hash()[:12]}")
    if not entries:
        print("(empty)")
        return 0
    total = 0
    for entry in entries:
        total += entry.size_bytes
        if entry.key is None:
            # Not a store-produced name: listed for visibility, but gc
            # deliberately never touches it.
            print(f"  {'foreign':8s} {entry.size_bytes / 1024:8.1f} KB  "
                  f"{entry.path.name} (not managed by the store)")
        else:
            state = "current" if entry.current else "stale"
            key = entry.key
            print(f"  {state:8s} {entry.size_bytes / 1024:8.1f} KB  "
                  f"{key.workload} i={key.instructions:,} s={key.seed} "
                  f"c={key.core}")
    print(f"{len(entries)} archives, {total / 1024:.1f} KB")
    return 0


def cmd_traces_gc(args: argparse.Namespace) -> int:
    """Evict stale (and optionally over-budget or all) archives."""
    store = _store_for(args)
    if store is None:
        return 2
    removed = store.gc(max_bytes=args.max_bytes, remove_all=args.all)
    # gc also sweeps abandoned atomic-write staging files (under .tmp/);
    # report those separately — they were never listed as archives.
    scratch = [path for path in removed if path.parent != store.root]
    archives = len(removed) - len(scratch)
    message = f"removed {archives} archives from {store.root}"
    if scratch:
        message += f" (+{len(scratch)} abandoned scratch files)"
    print(message)
    return 0


def _load_sweep_spec(args: argparse.Namespace):
    """The scenario a ``sweep`` subcommand operates on.

    ``run`` requires ``--spec``; ``status``/``report`` fall back to the
    ``scenario.json`` the last ``run`` recorded in the output directory.
    Returns None (after printing to stderr) when nothing resolves, so
    callers just exit 2.
    """
    from .scenarios import ResultsStore, SpecError, load_spec, parse_spec

    try:
        if args.spec is not None:
            return load_spec(args.spec)
        store = ResultsStore(args.out)
        try:
            return parse_spec(store.load_scenario())
        except FileNotFoundError:
            print(f"no scenario recorded under {store.root} "
                  "(run `repro sweep run` first, or pass --spec)",
                  file=sys.stderr)
            return None
    # CLI boundary: the error is reported on stderr and becomes exit
    # code 2; nothing downstream ever consumes the bad spec.
    # reprolint: disable=RL007 - converted to an exit code at the CLI boundary
    except SpecError as error:
        print(f"invalid scenario: {error}", file=sys.stderr)
        return None


def cmd_sweep_run(args: argparse.Namespace) -> int:
    """Run (or resume) a scenario sweep; exit 0 only when complete.

    ``--limit N`` computes at most N new points this invocation (the
    sweep stays resumable); ``--jobs N`` fans trace groups out over N
    processes — stored records are identical for any job count;
    ``--max-retries N`` bounds per-task retries before quarantine.
    ``--transport local`` executes through the distributed tier with
    ``--workers N`` subprocess workers on this host; ``--transport
    http`` binds a coordinator and waits for external ``repro worker``
    processes.  Stores are byte-equivalent across all transports after
    ``repro sweep verify --repair``.
    Exit codes: 0 complete, 1 incomplete (resumable), 2 usage, 3
    complete but *degraded* — quarantined groups are named on stdout
    and retried by the next run.
    """
    from .scenarios import run_sweep

    if args.limit is not None and args.limit < 0:
        print("--limit cannot be negative", file=sys.stderr)
        return 2
    if args.max_retries < 0:
        print("--max-retries cannot be negative", file=sys.stderr)
        return 2
    if args.workers <= 0:
        print("--workers must be positive", file=sys.stderr)
        return 2
    if args.lease_timeout <= 0:
        print("--lease-timeout must be positive", file=sys.stderr)
        return 2
    if args.worker_store is not None and args.transport != "local":
        print("--worker-store only applies to --transport local "
              "(http workers set REPRO_TRACE_STORE and --fetch-traces "
              "themselves)", file=sys.stderr)
        return 2
    spec = _load_sweep_spec(args)
    if spec is None:
        return 2
    if args.transport == "inline":
        summary = run_sweep(spec, args.out, jobs=args.jobs,
                            limit=args.limit, max_retries=args.max_retries)
    else:
        from .dist.coordinator import run_distributed_sweep

        summary = run_distributed_sweep(
            spec, args.out, transport=args.transport,
            workers=args.workers, limit=args.limit,
            max_retries=args.max_retries,
            lease_timeout=args.lease_timeout,
            host=args.bind_host, port=args.bind_port,
            worker_store=args.worker_store)
    print(f"{summary.computed} points computed, {summary.skipped} already "
          f"stored, {summary.remaining} remaining")
    if summary.degraded():
        print(f"sweep degraded: {summary.failed} points quarantined in "
              f"{len(summary.quarantined)} groups: "
              + ", ".join(summary.quarantined))
        print("rerun to retry exactly the quarantined set",
              file=sys.stderr)
        return 3
    if not summary.complete():
        print(f"sweep incomplete; rerun `repro sweep run --spec ... --out "
              f"{args.out}` to resume", file=sys.stderr)
        return 1
    return 0


def cmd_sweep_verify(args: argparse.Namespace) -> int:
    """Offline integrity check of a sweep directory (and trace store).

    Exit 0 when clean, 1 when integrity errors were found (corrupt or
    quarantined records, damaged sidecar lines, unreadable plan caches
    or trace archives), 2 on usage errors.  ``--repair`` rewrites the
    stores canonically, dropping everything damaged so the next run
    recomputes exactly what was lost; see DESIGN.md "Failure model".
    """
    from .scenarios import ResultsStore, format_report, verify_store

    spec = None
    if args.spec is not None:
        spec = _load_sweep_spec(args)
        if spec is None:
            return 2
    else:
        from .scenarios import SpecError, parse_spec

        store = ResultsStore(args.out)
        try:
            spec = parse_spec(store.load_scenario())
        except FileNotFoundError:
            spec = None  # verify still runs schema/hash checks
        # reprolint: disable=RL007 - a corrupt recorded scenario must not stop the fsck; membership checks are skipped and the corruption is reported
        except SpecError:
            spec = None
    report = verify_store(spec, args.out, repair=args.repair)
    if args.format == "json":
        print(json.dumps({
            "findings": [finding._asdict()
                         for finding in report.findings],
            "checked": report.checked,
            "repaired": report.repaired,
            "clean": report.clean(),
        }, indent=2, sort_keys=True))
    else:
        print(format_report(report))
    return 0 if report.clean() else 1


def cmd_sweep_status(args: argparse.Namespace) -> int:
    """Print completion accounting for a sweep output directory.

    ``--format json`` emits the same accounting as one JSON document
    (see :func:`repro.scenarios.report.status_summary` for the fields)
    so scripts can gate on ``complete``/``missing`` without parsing
    prose.
    """
    from .scenarios import ResultsStore, format_status, status_summary

    spec = _load_sweep_spec(args)
    if spec is None:
        return 2
    if args.format == "json":
        print(json.dumps(status_summary(spec, ResultsStore(args.out)),
                         indent=2, sort_keys=True))
        return 0
    print(format_status(spec, ResultsStore(args.out)))
    return 0


def cmd_sweep_report(args: argparse.Namespace) -> int:
    """Render the sweep's summary tables (markdown or CSV) to stdout.

    Coverage cells are percents, misses/1K-instr cells are counts per
    1000 retired instructions, speedup cells are UIPC ratios; the CSV
    form keeps coverage as a signed fraction for machine consumers.
    """
    from .scenarios import ResultsStore, format_csv, format_markdown, summarize

    spec = _load_sweep_spec(args)
    if spec is None:
        return 2
    summary = summarize(spec, ResultsStore(args.out))
    if args.format == "csv":
        print(format_csv(summary), end="")
    else:
        print(format_markdown(summary), end="")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the sweep-service HTTP daemon until SIGTERM/SIGINT.

    Shutdown is graceful: the signal wakes the main thread, the HTTP
    listener stops, and the worker finishes (and checkpoints) the trace
    group it is walking before the process exits — an interrupted job
    is persisted back to ``queued`` and the next start on the same
    ``--data-dir`` resumes it with zero recomputed points.
    """
    import signal
    import threading

    from .service import ServiceConfig, SweepService, build_server

    try:
        config = ServiceConfig(data_dir=args.data_dir, jobs=args.jobs,
                               queue_depth=args.queue_depth,
                               max_body_bytes=args.max_body_kb * 1024)
    except ValueError as error:
        print(f"invalid configuration: {error}", file=sys.stderr)
        return 2
    service = SweepService(config)
    try:
        server = build_server(args.host, args.port, service)
    except OSError as error:
        print(f"cannot bind {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return 2
    stop = threading.Event()

    def _request_shutdown(signum: int, frame) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _request_shutdown)
    signal.signal(signal.SIGINT, _request_shutdown)
    service.start()
    listener = threading.Thread(target=server.serve_forever,
                                name="http-listener", daemon=True)
    listener.start()
    host, port = server.server_address[:2]
    service.log_event("serve-started", host=host, port=port,
                      pid=os.getpid(), data_dir=args.data_dir,
                      jobs=args.jobs, queue_depth=args.queue_depth)
    print(f"repro serve listening on http://{host}:{port} "
          f"(data dir {args.data_dir}; SIGTERM for graceful shutdown)",
          file=sys.stderr)
    stop.wait()
    service.log_event("serve-stopping", reason="signal")
    server.shutdown()          # stop accepting requests first,
    listener.join()
    service.stop(wait=True)    # then checkpoint the in-flight sweep
    server.server_close()
    service.log_event("serve-stopped")
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    """Run a pull-based distributed-sweep worker until drained.

    Points at a coordinator started by ``repro sweep run --transport
    http`` (which prints the URL).  Each leased trace group runs
    through the exact same group path as every other execution mode,
    so the records streamed back are bit-identical to an inline run's.
    ``--fetch-traces`` replicates archives this host lacks from the
    coordinator's store (verified, resumable); on a generator mismatch
    it adopts the coordinator's store as authoritative instead of
    exiting 2.
    Exit codes: 0 sweep drained, 1 coordinator unreachable, 2 trace
    generator-version mismatch with the coordinator (when fetching is
    off, or the mismatch persists with an override installed).
    """
    from .dist.worker import run_worker
    from .trace.store import TraceStore

    if args.poll_interval <= 0:
        print("--poll-interval must be positive", file=sys.stderr)
        return 2
    budget_bytes = None
    if args.replica_budget_mb is not None:
        if args.replica_budget_mb <= 0:
            print("--replica-budget-mb must be positive", file=sys.stderr)
            return 2
        if not args.fetch_traces:
            print("--replica-budget-mb needs --fetch-traces",
                  file=sys.stderr)
            return 2
        budget_bytes = int(args.replica_budget_mb * 1024 * 1024)
    if args.fetch_traces and TraceStore.from_env() is None:
        print("--fetch-traces needs an enabled trace store; set "
              "REPRO_TRACE_STORE to the replica directory",
              file=sys.stderr)
        return 2
    worker_id = (args.worker_id if args.worker_id is not None
                 else f"worker-{os.getpid()}")
    return run_worker(args.coordinator, worker_id,
                      poll_interval=args.poll_interval,
                      fetch_traces=args.fetch_traces,
                      replica_budget_bytes=budget_bytes)


def cmd_lint(args: argparse.Namespace) -> int:
    """Run reprolint (see :mod:`repro.analysis`) and gate on the result.

    Exit 0 = clean, 1 = findings (any not suppressed inline), 2 =
    usage error — the same contract CI relies on.
    """
    from .analysis import runner

    return runner.run(args)


def _configure_lint(parser: argparse.ArgumentParser) -> None:
    from .analysis import runner

    runner.configure_parser(parser)


class _DeferredParser(argparse.ArgumentParser):
    """A subcommand parser that can attach its arguments on first use.

    ``repro lint`` takes its flags from the linter itself
    (:func:`repro.analysis.runner.configure_parser`).  Deferring that
    call to the subcommand's own parse, which ``repro lint --help``
    also goes through, keeps the linter out of every other command's
    process.
    """

    def __init__(self, *args, configure=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._configure = configure

    def parse_known_args(self, args=None, namespace=None):
        if self._configure is not None:
            configure, self._configure = self._configure, None
            configure(self)
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Proactive Instruction Fetch reproduction toolkit")
    commands = parser.add_subparsers(dest="command", required=True,
                                     parser_class=_DeferredParser)

    trace = commands.add_parser("trace", help="generate + characterize a trace")
    _add_common(trace)
    trace.add_argument("--output", default=None,
                       help="save the bundle to this .npz path")
    trace.set_defaults(func=cmd_trace)

    simulate = commands.add_parser("simulate",
                                   help="run one prefetch engine")
    _add_common(simulate)
    simulate.add_argument("--engine", default="pif", choices=ENGINE_NAMES)
    simulate.add_argument("--warmup", type=float, default=0.4,
                          help="warmup window as a fraction of trace "
                               "accesses in [0, 1), not a percent")
    simulate.set_defaults(func=cmd_simulate)

    compare = commands.add_parser("compare",
                                  help="coverage matrix over all workloads")
    _add_common(compare)
    compare.add_argument("--engines", default="next-line,tifs,pif",
                         help="comma-separated engine list")
    compare.add_argument("--warmup", type=float, default=0.4,
                         help="warmup window as a fraction of trace "
                              "accesses in [0, 1), not a percent")
    compare.add_argument("--jobs", type=_jobs_value, default=1,
                         help="worker processes for the workload rows, or "
                              "'auto' for all CPUs but one (output is "
                              "identical for any value)")
    compare.set_defaults(func=cmd_compare)

    traces = commands.add_parser(
        "traces", help="manage the on-disk trace store")
    trace_commands = traces.add_subparsers(dest="traces_command",
                                           required=True)

    def _add_store(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--store", default=None,
                            help="store directory (default: "
                                 "$REPRO_TRACE_STORE or ~/.cache/repro/traces)")

    build = trace_commands.add_parser(
        "build", help="pre-generate the experiment traces into the store")
    _add_store(build)
    build.add_argument("--workloads", default="all",
                       help="comma-separated workload list, or 'all'")
    build.add_argument("--quick", action="store_true",
                       help="QUICK_CONFIG scale (what the CI smoke and "
                            "--quick experiment runs replay)")
    build.add_argument("--instructions", type=positive_int_argument_type,
                       default=None,
                       help="trace length per core (default: the "
                            "selected experiment config's)")
    build.add_argument("--seed", type=int, default=None,
                       help="root seed (default: the experiment config's)")
    build.add_argument("--cores", type=positive_int_argument_type,
                       default=None,
                       help="cores (independent traces) per workload "
                            "(default: the experiment config's)")
    build.add_argument("--jobs", type=_jobs_value, default=1,
                       help="worker processes, one trace per task, or "
                            "'auto' for all CPUs but one")
    build.set_defaults(func=cmd_traces_build)

    ls = trace_commands.add_parser("ls", help="list stored archives")
    _add_store(ls)
    ls.add_argument("--format", default="text", choices=("text", "json"),
                    help="output format (json = machine-readable listing)")
    ls.set_defaults(func=cmd_traces_ls)

    gc = trace_commands.add_parser(
        "gc", help="evict stale or over-budget archives")
    _add_store(gc)
    gc.add_argument("--max-bytes", type=int, default=None,
                    help="additionally evict LRU current archives to fit "
                         "this budget")
    gc.add_argument("--all", action="store_true",
                    help="clear the store completely")
    gc.set_defaults(func=cmd_traces_gc)

    sweep = commands.add_parser(
        "sweep", help="run declarative scenario sweeps")
    sweep_commands = sweep.add_subparsers(dest="sweep_command", required=True)

    def _add_out(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--out", required=True,
                            help="sweep output directory (results store)")

    sweep_run = sweep_commands.add_parser(
        "run", help="run or resume a scenario sweep")
    sweep_run.add_argument("--spec", required=True,
                           help="scenario file (.yaml/.yml/.json); see "
                                "examples/scenarios/")
    _add_out(sweep_run)
    sweep_run.add_argument("--jobs", type=_jobs_value, default=1,
                           help="worker processes for the task fan-out, or "
                                "'auto' for all CPUs but one (results are "
                                "identical for any value; jobs > 1 also "
                                "shards wide trace groups)")
    sweep_run.add_argument("--limit", type=int, default=None,
                           help="compute at most N new points this run "
                                "(the sweep stays resumable)")
    sweep_run.add_argument("--max-retries", type=int, default=2,
                           help="retries per failed trace-group task "
                                "before it is quarantined as failed "
                                "records (default: 2; a later run "
                                "retries exactly the quarantined set)")
    sweep_run.add_argument("--transport", default="inline",
                           choices=("inline", "local", "http"),
                           help="execution tier: inline (this process "
                                "plus --jobs pool workers), local "
                                "(coordinator + --workers subprocess "
                                "workers on this host), or http "
                                "(coordinator only; start repro worker "
                                "processes against the printed URL). "
                                "Stores are byte-equivalent across all "
                                "three after verify --repair")
    sweep_run.add_argument("--workers", type=int, default=2,
                           help="worker subprocesses for --transport "
                                "local (default: 2; ignored inline)")
    sweep_run.add_argument("--lease-timeout", type=float, default=60.0,
                           help="seconds a leased task may go without a "
                                "heartbeat before it is requeued "
                                "(default: 60; distributed transports "
                                "only)")
    sweep_run.add_argument("--bind-host", default="127.0.0.1",
                           help="coordinator bind address for the "
                                "distributed transports (default: "
                                "loopback; the protocol is "
                                "unauthenticated)")
    sweep_run.add_argument("--bind-port", type=int, default=0,
                           help="coordinator TCP port (default: 0 = "
                                "pick a free one; --transport http "
                                "prints the bound URL)")
    sweep_run.add_argument("--worker-store", default=None,
                           help="replica trace-store directory for "
                                "--transport local workers; they start "
                                "against it (even empty) and fetch "
                                "missing archives from this "
                                "coordinator's store with SHA-256 "
                                "verification")
    sweep_run.set_defaults(func=cmd_sweep_run)

    sweep_verify = sweep_commands.add_parser(
        "verify", help="offline integrity check of a sweep directory")
    _add_out(sweep_verify)
    sweep_verify.add_argument("--spec", default=None,
                              help="scenario file (default: the "
                                   "scenario.json recorded by run; "
                                   "enables membership checks)")
    sweep_verify.add_argument("--repair", action="store_true",
                              help="rewrite the stores canonically, "
                                   "dropping corrupt/quarantined/stale "
                                   "records and deleting unreadable "
                                   "caches so the next run recomputes "
                                   "exactly what was lost")
    sweep_verify.add_argument("--format", default="text",
                              choices=("text", "json"),
                              help="output format (json = machine-"
                                   "readable findings)")
    sweep_verify.set_defaults(func=cmd_sweep_verify)

    sweep_status = sweep_commands.add_parser(
        "status", help="show a sweep's completion state")
    _add_out(sweep_status)
    sweep_status.add_argument("--spec", default=None,
                              help="scenario file (default: the "
                                   "scenario.json recorded by run)")
    sweep_status.add_argument("--format", default="text",
                              choices=("text", "json"),
                              help="output format (json = machine-readable "
                                   "accounting)")
    sweep_status.set_defaults(func=cmd_sweep_status)

    sweep_report = sweep_commands.add_parser(
        "report", help="render a sweep's summary tables")
    _add_out(sweep_report)
    sweep_report.add_argument("--spec", default=None,
                              help="scenario file (default: the "
                                   "scenario.json recorded by run)")
    sweep_report.add_argument("--format", default="markdown",
                              choices=("markdown", "csv"),
                              help="output format (default: markdown)")
    sweep_report.set_defaults(func=cmd_sweep_report)

    serve = commands.add_parser(
        "serve", help="run the sweep-service HTTP daemon")
    serve.add_argument("--data-dir", required=True,
                       help="service state directory: job files plus one "
                            "resumable sweep store per job (restarting "
                            "on the same directory resumes in-flight "
                            "sweeps)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: loopback only; the "
                            "API is unauthenticated)")
    serve.add_argument("--port", type=int, default=8642,
                       help="TCP port (0 picks a free one; the chosen "
                            "port is printed at startup)")
    serve.add_argument("--jobs", type=_jobs_value, default=1,
                       help="worker processes per sweep, or 'auto' "
                            "(one job runs at a time; parallelism goes "
                            "inside the sweep so stores stay identical "
                            "to CLI runs)")
    serve.add_argument("--queue-depth", type=int, default=16,
                       help="max queued jobs before submissions get "
                            "429 (backpressure)")
    serve.add_argument("--max-body-kb", type=int, default=1024,
                       help="max request body size in KiB; larger spec "
                            "submissions get 413")
    serve.set_defaults(func=cmd_serve)

    worker = commands.add_parser(
        "worker", help="run a distributed-sweep worker")
    worker.add_argument("--coordinator", required=True,
                        help="coordinator base URL (printed by repro "
                             "sweep run --transport http), e.g. "
                             "http://127.0.0.1:8731")
    worker.add_argument("--worker-id", default=None,
                        help="stable worker identity for lease "
                             "accounting (default: worker-<pid>)")
    worker.add_argument("--poll-interval", type=float, default=0.5,
                        help="seconds to sleep when the coordinator has "
                             "no pending task (default: 0.5)")
    worker.add_argument("--fetch-traces", action="store_true",
                        help="replicate missing trace archives from the "
                             "coordinator's store (SHA-256-verified, "
                             "resumable) instead of generating them "
                             "locally; on a generator mismatch the "
                             "coordinator's store becomes authoritative "
                             "rather than exiting 2. Needs "
                             "REPRO_TRACE_STORE")
    worker.add_argument("--replica-budget-mb", type=float, default=None,
                        help="cap the replica trace store at this many "
                             "MiB, evicting least-recently-used "
                             "archives after each fetch (default: "
                             "unbounded)")
    worker.set_defaults(func=cmd_worker)

    lint = commands.add_parser(
        "lint", help="run reprolint, the determinism contract checker",
        configure=_configure_lint)
    lint.set_defaults(func=cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``repro ... | head``).  Point stdout at
        # os.devnull so the flush at exit cannot fail again, and exit 1
        # as Python does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
