"""High-level trace generation: workload name in, TraceBundle out.

This is the reproduction's stand-in for the paper's Flexus trace
collection (Section 5): it wires the synthetic program, the executor,
and the fetch model together and returns the paired access/retire
streams of one simulated core.

Programs and traces are cached per parameter tuple because every
experiment in the evaluation matrix replays the same six workloads.
The cache is two-level: an in-process ``lru_cache`` in front of the
content-addressed on-disk :class:`~repro.trace.store.TraceStore`, so
repeat runs (and every worker of the persistent
:func:`~repro.experiments.parallel.shared_pool`) load columnar ``.npz``
archives instead of re-executing the generator.  Store round-trips are bit-identical to fresh
generation; set ``REPRO_TRACE_STORE=off`` to disable persistence.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Any, Dict, Optional, Union

from ..common.config import SystemConfig
from ..common.profiling import STAGE_TRACE_LOAD, stage
from ..trace import replicate
from ..trace.bundle import TraceBundle
from ..trace.store import TraceKey, TraceStore
from ..workloads.executor import ProgramExecutor
from ..workloads.generator import build_program
from ..workloads.program import SyntheticProgram
from ..workloads.spec import WorkloadSpec, get_spec
from .frontend import FetchModel, FrontEndStats

#: Default trace length per core.  The paper uses 1 G instructions per
#: core; the synthetic workloads reach stream steady state far sooner.
DEFAULT_INSTRUCTIONS = 400_000


@dataclass(slots=True)
class GeneratedTrace:
    """A trace bundle plus the front-end statistics that produced it."""

    bundle: TraceBundle
    frontend_stats: FrontEndStats = field(default_factory=FrontEndStats)


@lru_cache(maxsize=32)
def _cached_program(name: str, seed: int) -> SyntheticProgram:
    return build_program(get_spec(name), seed)


def program_for(workload: Union[str, WorkloadSpec], seed: int) -> SyntheticProgram:
    """The synthetic program for a workload (cached for paper workloads)."""
    if isinstance(workload, WorkloadSpec):
        return build_program(workload, seed)
    return _cached_program(workload, seed)


def generate_trace(
    workload: Union[str, WorkloadSpec],
    instructions: int = DEFAULT_INSTRUCTIONS,
    seed: int = 42,
    core: int = 0,
    system: Optional[SystemConfig] = None,
    predictor_kind: str = "hybrid",
) -> GeneratedTrace:
    """Generate one core's trace for ``workload``.

    All cores share the program (the code segment); each core gets its
    own executor RNG stream, so per-core traces differ the way threads
    of one server process differ.
    """
    spec = get_spec(workload) if isinstance(workload, str) else workload
    cfg = system if system is not None else SystemConfig()
    program = program_for(workload, seed)
    executor = ProgramExecutor(program, spec, seed=seed, core=core)
    frontend = FetchModel(
        program=program,
        pipeline=cfg.pipeline,
        branch_config=cfg.branch,
        predictor_kind=predictor_kind,
        block_bytes=cfg.l1i.block_bytes,
        seed=seed + core,
    )
    accesses, retires, retired = frontend.process(executor.run(instructions))
    bundle = TraceBundle(
        workload=spec.name,
        core=core,
        seed=seed,
        block_bytes=cfg.l1i.block_bytes,
        retires=retires,
        accesses=accesses,
        instructions=retired,
    )
    return GeneratedTrace(bundle=bundle, frontend_stats=frontend.stats)


def _stats_from_extra(extra: Dict[str, Any]) -> FrontEndStats:
    """Rebuild front-end statistics from a store archive's metadata."""
    recorded = extra.get("frontend_stats")
    if not isinstance(recorded, dict):
        return FrontEndStats()
    known = FrontEndStats.__dataclass_fields__
    return FrontEndStats(**{name: int(value)
                            for name, value in recorded.items()
                            if name in known})


@lru_cache(maxsize=128)
def cached_trace(workload: str, instructions: int, seed: int,
                 core: int = 0) -> GeneratedTrace:
    """Memoized :func:`generate_trace` for the named paper workloads.

    Wall-clock spent here (store load or fresh generation; in-process
    ``lru_cache`` hits never enter) is attributed to the ``trace-load``
    stage when the runner's ``--profile`` collector is active.

    Experiments and benchmarks share traces through this entry point so
    the expensive generation cost is paid once per parameter tuple —
    first from the in-process cache, then from the on-disk
    :class:`~repro.trace.store.TraceStore` (keyed by the same tuple plus
    the generator-version hash), and only then by running the
    generator.  Freshly generated traces are persisted back to the
    store, front-end statistics included.
    """
    with stage(STAGE_TRACE_LOAD):
        store = TraceStore.from_env()
        key = TraceKey(workload=workload, instructions=instructions,
                       seed=seed, core=core)
        if store is not None:
            loaded = store.get(key)
            if loaded is None:
                # Local miss: before generating, consult the installed
                # replication fetcher (a --fetch-traces worker) — the
                # coordinator's verified archive beats regeneration.
                fetcher = replicate.active_fetcher()
                if fetcher is not None and fetcher.fetch(key, store):
                    loaded = store.get(key)
                    if loaded is None and fetcher.require_fetch:
                        raise replicate.ReplicationError(
                            f"replicated archive for {key} did not load "
                            "back, and a generator override forbids "
                            "local generation")
            if loaded is not None:
                bundle, extra = loaded
                return GeneratedTrace(bundle=bundle,
                                      frontend_stats=_stats_from_extra(extra))
        trace = generate_trace(workload, instructions=instructions, seed=seed,
                               core=core)
        if store is not None:
            store.put(key, trace.bundle,
                      extra={"frontend_stats": asdict(trace.frontend_stats)})
        return trace
