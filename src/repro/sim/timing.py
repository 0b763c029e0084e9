"""Block-granularity timing model: UIPC and speedup (Figure 10 right).

The paper's performance claim rests on two terms this model preserves:
how many correct-path fetches stall (prefetcher coverage), and how much
of each stall's latency is exposed (prefetch timeliness).  Rather than a
cycle-accurate out-of-order core — noted as infeasibly slow in Python by
the reproduction calibration — the model charges:

* a base cost of ``1/retire_width`` cycles per retired instruction;
* per correct-path fetch miss, the fill latency minus a fixed overlap
  allowance (the work the fetch queue + ROB can cover), floored at 0;
* per fetch that hits an *in-flight* prefetch, only the residual
  latency (a late prefetch still helps — MSHR merge behaviour);
* no overlap allowance for the first fetch after a trap-level change,
  modelling the empty-ROB returns the paper calls out (Section 2.3);
* wrong-path fetches perturb the cache but cost no cycles (they overlap
  the resolution shadow by construction).

Fill latency is the L2 hit latency for warm blocks and the memory
latency for never-before-touched blocks.

Like the lane walk in :mod:`repro.sim.engine`, the fetch loop runs
natively by default: an exact-type engine of the engine's native table
(none, next-line, stride, discontinuity, PIF) on the 2-way LRU/FIFO
L1-I takes the timing entry point of ``_walk.c``
(:func:`_run_timing_native`), which reproduces
:func:`_run_timing_fast` bit for bit: it takes the loop's float
constants from :func:`_loop_constants`, adds in the loop's order and
returns the three accumulators as doubles.  Every other case — TIFS,
subclasses, other geometries, no C compiler, an engine walked before,
inputs failing the native checks — takes :func:`_run_timing_fast`, the
columnar loop over the bundle's raw columns (no ``FetchAccess``
objects) that probes the cache through ``access_fast`` result codes
and drives the prefetcher through the buffer-reuse
``on_demand_access_into`` hook with one scratch list.  ``kernel=
"reference"`` keeps the original object-model loop (over
:class:`~repro.cache.reference.ReferenceInstructionCache` and the
list-returning prefetcher API) as the differentially tested oracle —
``tests/sim/test_timing.py`` and ``tests/sim/test_native.py`` lock
every ``TimingResult`` field across them, floats exactly.

Known defect, kept on purpose so that every stored ``speedup`` stays
comparable: a prefetched block evicted from the L1-I before any demand
keeps its ``in_flight`` entry.  Re-prefetches of it are filtered out as
"in flight", and its next demand miss pops the long-past ready time, is
charged no stall and is counted as a late prefetch hit.  On the 12
competitive-sweep traces of trace seed 94 such misses are 12% (stride)
to 71% (discontinuity) of the measured fetch misses, 32% for PIF, and
the stall they escape is 2-7% of the measured cycles.  All three loops
(reference, Python and native) share it; fixing it moves every
speedup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cache.icache import InstructionCache
from ..cache.reference import ReferenceInstructionCache
from ..common.config import SystemConfig
from ..common.profiling import STAGE_TIMING_WALK, stage
from ..prefetch.base import NullPrefetcher, Prefetcher, demand_access_hook
from ..trace.bundle import TraceBundle
from .engine import (
    _native_counts,
    _native_inputs,
    _native_outputs,
    refuse_natively_walked,
    resolve_kernel,
)


@dataclass(slots=True)
class TimingResult:
    """UIPC measurement for one (trace, prefetcher) timing run."""

    workload: str
    prefetcher: str
    instructions: int
    cycles: float
    stall_cycles: float
    fetch_misses: int
    late_prefetch_hits: int

    def uipc(self) -> float:
        """User instructions committed per cycle."""
        if self.cycles <= 0:
            return 0.0
        return self.instructions / self.cycles

    def stall_fraction(self) -> float:
        """Fraction of cycles spent stalled on instruction fetch."""
        if self.cycles <= 0:
            return 0.0
        return self.stall_cycles / self.cycles


def run_timing_simulation(
    bundle: TraceBundle,
    prefetcher: Optional[Prefetcher] = None,
    system: Optional[SystemConfig] = None,
    warmup_fraction: float = 0.25,
    perfect_cache: bool = False,
    kernel: Optional[str] = None,
) -> TimingResult:
    """Timing-simulate one prefetcher over one trace bundle.

    ``perfect_cache=True`` models the paper's perfect-latency L1-I
    (every fetch returns at hit latency; all other behaviour unchanged).
    ``kernel`` mirrors :func:`repro.sim.engine.run_multi_prefetch_simulation`:
    ``"fast"`` (the default, also for None) runs the native timing walk,
    or the columnar result-code loop where that declines, and
    ``"reference"`` the original object walk; all produce identical
    results.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    engine = prefetcher if prefetcher is not None else NullPrefetcher()
    refuse_natively_walked([engine])
    cfg = system if system is not None else SystemConfig()
    if not len(bundle.retire_pc):
        raise ValueError("cannot time an empty trace")
    with stage(STAGE_TIMING_WALK):
        if resolve_kernel(kernel) == "reference":
            return _run_timing_reference(bundle, engine, cfg,
                                         warmup_fraction, perfect_cache)
        timed = _run_timing_native(bundle, engine, cfg, warmup_fraction,
                                   perfect_cache)
        if timed is None:
            timed = _run_timing_fast(bundle, engine, cfg, warmup_fraction,
                                     perfect_cache)
        return timed


def _loop_constants(bundle: TraceBundle, cfg: SystemConfig
                    ) -> Tuple[float, float, float, float, float]:
    """The fetch loop's float constants: (base cycles per retire
    record, overlap allowance, L2 latency, memory latency, instructions
    per retire record)."""
    instructions_per_retire = bundle.instructions / len(bundle.retire_pc)
    width = cfg.pipeline.retire_width
    return (instructions_per_retire / width,
            cfg.pipeline.fetch_queue_entries / width,
            float(cfg.memory.l2_hit_latency),
            float(cfg.memory.memory_latency), instructions_per_retire)


def _run_timing_native(bundle: TraceBundle, engine: Prefetcher,
                       cfg: SystemConfig, warmup_fraction: float,
                       perfect_cache: bool) -> Optional[TimingResult]:
    """:func:`_run_timing_fast`'s result from the native timing walk, or
    None — engine untouched — when the walk declines
    (:func:`repro.sim.engine._native_inputs`; a PIF plan is looked up
    there, as for the lane walk).  C takes the loop's float constants
    from :func:`_loop_constants` and adds them in the loop's order, so
    the doubles are equal; the engine's counters come back as from the
    lane walk."""
    inputs = _native_inputs(
        engine, InstructionCache(cfg.l1i), bundle,
        int(len(bundle.access_block) * warmup_fraction), perfect_cache)
    if inputs is None:
        return None
    library, arguments = inputs
    out_lane, out_channels = _native_outputs()
    out_timing = np.zeros(3, dtype=np.float64)
    if library.walk_timing(*arguments,
                           np.array(_loop_constants(bundle, cfg),
                                    dtype=np.float64),
                           out_lane, out_channels, out_timing):
        raise MemoryError("native timing walk ran out of memory")
    counts = _native_counts(engine, out_lane, out_channels)
    if counts["retired"] != len(bundle.retire_pc):
        raise RuntimeError("access/retire alignment broken in timing model")
    cycles, stall_cycles, instructions = out_timing.tolist()
    return TimingResult(
        workload=bundle.workload,
        prefetcher="perfect" if perfect_cache else engine.name,
        instructions=int(instructions),
        cycles=cycles,
        stall_cycles=stall_cycles,
        fetch_misses=counts["fetch_misses"],
        late_prefetch_hits=counts["late_hits"],
    )


# reprolint: hot
def _run_timing_fast(bundle: TraceBundle, engine: Prefetcher,
                     cfg: SystemConfig, warmup_fraction: float,
                     perfect_cache: bool) -> TimingResult:
    """Columnar fetch loop over the flat-array cache kernel."""
    cache = InstructionCache(cfg.l1i)
    access_fast = cache.access_fast
    cache_fill = cache.fill
    contains = cache.contains
    cache_prefetch = cache.prefetch
    into = demand_access_hook(engine)
    on_retire = engine.on_retire

    blocks = bundle.access_block.tolist()
    pcs = bundle.access_pc.tolist()
    trap_levels = bundle.access_trap.tolist()
    wrong_paths = bundle.access_wrong_path.tolist()
    retire_pcs = bundle.retire_pc.tolist()
    retire_traps = bundle.retire_trap.tolist()

    (base, overlap, l2_latency, memory_latency,
     instructions_per_retire) = _loop_constants(bundle, cfg)
    warmup_boundary = int(len(blocks) * warmup_fraction)

    now = 0.0
    measured_cycles = 0.0
    measured_instructions = 0.0
    measured_stalls = 0.0
    fetch_misses = 0
    late_hits = 0

    in_flight: Dict[int, float] = {}
    touched: set = set()
    touched_add = touched.add
    previous_tl: Optional[int] = None
    issue_queue_free_at = 0.0
    retire_cursor = 0
    out: List[int] = []
    position = 0

    for block, pc, trap_level, wrong_path in zip(blocks, pcs, trap_levels,
                                                 wrong_paths):
        measuring = position >= warmup_boundary
        position += 1
        if wrong_path:
            # Wrong-path fetches overlap resolution: cache effects only.
            code = access_fast(block)
            touched_add(block)
            if into(block, pc, trap_level, code != 0, code == 2, out):
                issue_queue_free_at = _issue_prefetches(
                    out, contains, cache_prefetch, in_flight, now,
                    issue_queue_free_at, touched_add, touched,
                    l2_latency, memory_latency)
                del out[:]
            continue

        # Base pipeline cost of the instructions this fetch feeds.
        start = now
        now += base

        hide = overlap
        if previous_tl is not None and trap_level != previous_tl:
            # Returning from / entering a handler drains the ROB.
            hide = 0.0
        previous_tl = trap_level

        code = access_fast(block, False)
        stall = 0.0
        if perfect_cache:
            if code == 0:
                cache_fill(block, False)
        elif code:
            ready = in_flight.get(block)
            if ready is not None and ready > now:
                # Prefetch in flight: expose only the residual latency.
                stall = (ready - now) - hide
                if stall < 0.0:
                    stall = 0.0
                late_hits += 1
            if ready is not None and ready <= now + stall:
                del in_flight[block]
        else:
            if measuring:
                fetch_misses += 1
            ready = in_flight.pop(block, None)
            if ready is not None:
                stall = (ready - now) - hide
                late_hits += 1
            else:
                latency = l2_latency if block in touched else memory_latency
                stall = latency - hide
            if stall < 0.0:
                stall = 0.0
            cache_fill(block, False)
        now += stall
        touched_add(block)

        if into(block, pc, trap_level, code != 0, code == 2, out):
            issue_queue_free_at = _issue_prefetches(
                out, contains, cache_prefetch, in_flight, now,
                issue_queue_free_at, touched_add, touched,
                l2_latency, memory_latency)
            del out[:]

        on_retire(retire_pcs[retire_cursor], retire_traps[retire_cursor],
                  code != 2)
        retire_cursor += 1

        if measuring:
            measured_cycles += now - start
            measured_instructions += instructions_per_retire
            measured_stalls += stall

    if retire_cursor != len(retire_pcs):
        raise RuntimeError("access/retire alignment broken in timing model")

    return TimingResult(
        workload=bundle.workload,
        prefetcher="perfect" if perfect_cache else engine.name,
        instructions=int(measured_instructions),
        cycles=measured_cycles,
        stall_cycles=measured_stalls,
        fetch_misses=fetch_misses,
        late_prefetch_hits=late_hits,
    )


# reprolint: hot
def _issue_prefetches(candidates, contains, cache_prefetch,
                      in_flight: Dict[int, float], now: float,
                      queue_free_at: float, touched_add, touched,
                      l2_latency: float, memory_latency: float) -> float:
    """Issue prefetches one per cycle through a shared port.

    Blocks already resident or already in flight are filtered (the
    Section 4.3 probe).  The cache is filled immediately — functional
    state — while ``in_flight`` carries the arrival time that demand
    fetches pay if they arrive early.  Issued blocks join ``touched``:
    the fill installs them in the L2 as well, so a later refetch after
    L1 eviction pays the L2 latency, not memory latency.
    """
    issue_at = max(now, queue_free_at)
    for block in candidates:
        if contains(block) or block in in_flight:
            continue
        issue_at += 1.0
        latency = l2_latency if block in touched else memory_latency
        in_flight[block] = issue_at + latency
        touched_add(block)
        cache_prefetch(block)
    return issue_at


def _run_timing_reference(bundle: TraceBundle, engine: Prefetcher,
                          cfg: SystemConfig, warmup_fraction: float,
                          perfect_cache: bool) -> TimingResult:
    """The original object-model fetch loop (semantics oracle)."""
    cache = ReferenceInstructionCache(cfg.l1i)

    accesses = bundle.accesses
    retires = bundle.retires
    instructions_per_retire = bundle.instructions / len(retires)
    width = cfg.pipeline.retire_width
    overlap = cfg.pipeline.fetch_queue_entries / width
    l2_latency = float(cfg.memory.l2_hit_latency)
    memory_latency = float(cfg.memory.memory_latency)
    warmup_boundary = int(len(accesses) * warmup_fraction)

    now = 0.0
    measured_cycles = 0.0
    measured_instructions = 0.0
    measured_stalls = 0.0
    fetch_misses = 0
    late_hits = 0

    in_flight: Dict[int, float] = {}
    touched: set = set()
    previous_tl: Optional[int] = None
    issue_queue_free_at = 0.0
    retire_cursor = 0

    def fill_latency(block: int) -> float:
        if block in touched:
            return l2_latency
        return memory_latency

    def issue(candidates, queue_free_at: float) -> float:
        issue_at = max(now, queue_free_at)
        for block in candidates:
            if cache.contains(block) or block in in_flight:
                continue
            issue_at += 1.0
            in_flight[block] = issue_at + fill_latency(block)
            touched.add(block)
            cache.prefetch(block)
        return issue_at

    for position, access in enumerate(accesses):
        measuring = position >= warmup_boundary
        block = access.block
        if access.wrong_path:
            # Wrong-path fetches overlap resolution: cache effects only.
            outcome = cache.access(block)
            touched.add(block)
            candidates = engine.on_demand_access(
                block, access.pc, access.trap_level,
                outcome.hit, outcome.was_prefetched)
            issue_queue_free_at = issue(candidates, issue_queue_free_at)
            continue

        # Base pipeline cost of the instructions this fetch feeds.
        base = instructions_per_retire / width
        start = now
        now += base

        hide = overlap
        if previous_tl is not None and access.trap_level != previous_tl:
            # Returning from / entering a handler drains the ROB.
            hide = 0.0
        previous_tl = access.trap_level

        outcome = cache.access(block, fill_on_miss=False)
        stall = 0.0
        if perfect_cache:
            if not outcome.hit:
                cache.fill(block, prefetched=False)
        elif outcome.hit:
            ready = in_flight.get(block)
            if ready is not None and ready > now:
                # Prefetch in flight: expose only the residual latency.
                stall = max(0.0, (ready - now) - hide)
                late_hits += 1
            if ready is not None and ready <= now + stall:
                del in_flight[block]
        else:
            fetch_misses += 1 if measuring else 0
            ready = in_flight.get(block)
            if ready is not None:
                stall = max(0.0, (ready - now) - hide)
                late_hits += 1
                del in_flight[block]
            else:
                stall = max(0.0, fill_latency(block) - hide)
            cache.fill(block, prefetched=False)
        now += stall
        touched.add(block)

        candidates = engine.on_demand_access(
            block, access.pc, access.trap_level,
            outcome.hit, outcome.was_prefetched)
        issue_queue_free_at = issue(candidates, issue_queue_free_at)

        retire = retires[retire_cursor]
        retire_cursor += 1
        engine.on_retire(retire.pc, retire.trap_level, tagged=outcome.tagged)

        if measuring:
            measured_cycles += now - start
            measured_instructions += instructions_per_retire
            measured_stalls += stall

    if retire_cursor != len(retires):
        raise RuntimeError("access/retire alignment broken in timing model")

    return TimingResult(
        workload=bundle.workload,
        prefetcher="perfect" if perfect_cache else engine.name,
        instructions=int(measured_instructions),
        cycles=measured_cycles,
        stall_cycles=measured_stalls,
        fetch_misses=fetch_misses,
        late_prefetch_hits=late_hits,
    )


def speedup_comparison(
    bundle: TraceBundle,
    prefetchers: Dict[str, Prefetcher],
    system: Optional[SystemConfig] = None,
    warmup_fraction: float = 0.25,
    include_perfect: bool = True,
    kernel: Optional[str] = None,
) -> Dict[str, float]:
    """Speedups over the no-prefetch baseline for several engines.

    Returns {engine name: speedup}; always includes ``baseline`` (1.0)
    and, when requested, ``perfect``.
    """
    baseline = run_timing_simulation(bundle, NullPrefetcher(), system,
                                     warmup_fraction, kernel=kernel)
    base_uipc = baseline.uipc()
    results: Dict[str, float] = {"baseline": 1.0}
    for name, engine in prefetchers.items():
        timed = run_timing_simulation(bundle, engine, system,
                                      warmup_fraction, kernel=kernel)
        results[name] = timed.uipc() / base_uipc if base_uipc else 0.0
    if include_perfect:
        perfect = run_timing_simulation(bundle, None, system,
                                        warmup_fraction, perfect_cache=True,
                                        kernel=kernel)
        results["perfect"] = perfect.uipc() / base_uipc if base_uipc else 0.0
    return results
