"""Single-pass multi-prefetcher simulation engine.

:func:`repro.sim.tracesim.run_prefetch_simulation` replays the whole
trace once per engine.  Every figure that compares N prefetchers (or N
sweep settings of one prefetcher) over the same trace therefore walked
the identical access stream N times — the dominant cost of the full
evaluation, since the walk is pure Python.

This module replays one trace bundle against N independent *lanes* in a
single walk.  Each lane owns its test cache and prefetch engine; lanes
never observe each other, and every lane sees exactly the request
sequence a standalone :func:`run_prefetch_simulation` call would feed
it, so the per-lane results are **bit-identical** to N sequential runs
(the equivalence test in ``tests/sim/test_engine.py`` locks this).

Two interchangeable kernels drive the lane walk:

* ``"fast"`` (the default) — flat arrays and specialized walkers.  An
  exact-type PIF engine on the 2-way LRU/FIFO geometry (the paper's
  L1-I) takes :func:`_walk_lane_native_pif`: one call into a C99 lane
  walk (``_pifwalk.c``, built on first use by :mod:`repro.sim.native`)
  over the bundle's access columns and the shared
  :mod:`~repro.sim.trainplan` schedule, which replaces running the
  compactors per lane.  Every other lane iterates the trace columns
  decoded to plain Python lists once per bundle (cached in the
  bundle's derived-value cache, so lane shards re-walking one trace
  share the decode): on the 2-way geometry
  :func:`_walk_lane_inline2` inlines the cache probe/fill/prefetch
  directly over the cache's slot arrays with every counter in a local
  int, and next-line, stride and discontinuity get walkers with the
  engine fused in; every other geometry gets :func:`_walk_lane_generic`
  over the allocation-free ``access_fast`` (an int result code —
  ``MISS``/``HIT``/``HIT_PREFETCHED`` — instead of an ``AccessResult``
  object).  Prefetchers are driven through the buffer-reuse hook
  ``on_demand_access_into`` with a per-lane scratch list, so the
  steady-state loop allocates nothing per access.  A PIF lane the
  native walk declines (no C compiler, an engine walked before, an
  input failing the native walk's checks) takes the hook-driven
  :func:`_walk_lane_inline2` with the same results.
* ``"reference"`` — the original object-model walk over
  :class:`~repro.cache.reference.ReferenceInstructionCache` with
  ``access()``/``on_demand_access()``, kept as the differentially
  tested semantics oracle.

Both kernels are locked bit-identical for every prefetcher × replacement
policy by ``tests/sim/test_engine.py`` (PIF lanes with the native walk
and without it).  Only callers that pass ``kernel="reference"`` — the
differential tests — take the oracle.

The no-prefetch baseline depends only on the access stream and the
cache configuration, so it does not ride the lane walk at all: each
distinct configuration is served by the *memoized*
:func:`repro.sim.baseline.measured_baseline` (a vectorized replay keyed
by trace content hash + geometry + warmup, shared across lanes, shards,
sweep points, and — through the sweep runner's sidecar — across runs).
Lanes sharing a configuration share the one replay.  The lane walk
itself iterates the columnar arrays (as plain Python scalars, or
natively) — no record objects are materialized.

Counter windows: ``prefetches_issued`` counts every issue over the whole
trace — the same (unwindowed) accounting as ``prefetcher.stats`` and the
caches' :class:`~repro.cache.stats.CacheStats` — while the miss counts
remain restricted to the post-warmup measurement window.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..cache.icache import InstructionCache
from ..cache.reference import ReferenceInstructionCache
from ..common.addressing import block_bits_for
from ..common.config import CacheConfig
from ..common.profiling import STAGE_BASELINE, STAGE_LANE_WALK, stage
from ..core.pif import ProactiveInstructionFetch
from ..prefetch.base import Prefetcher, demand_access_hook
from ..prefetch.discontinuity import DiscontinuityPrefetcher
from ..prefetch.nextline import NextLinePrefetcher
from ..prefetch.stride import StridePrefetcher
from ..trace.bundle import TraceBundle
from . import native
from .baseline import measured_baseline
from .trainplan import PIFTrainPlan, PLAN_DTYPES, train_plan_for
from .tracesim import PrefetchSimResult

#: Lane-walk kernels; ``"fast"`` is the default.
KERNELS = ("fast", "reference")


def resolve_kernel(kernel: Optional[str]) -> str:
    """Normalize a kernel selector (None -> ``"fast"``), rejecting
    unknown names.

    Both kernels produce bit-identical metrics, so the selector only
    ever changes provenance fields and speed.
    """
    if kernel is None:
        kernel = "fast"
    if kernel not in KERNELS:
        raise ValueError(f"unknown simulation kernel {kernel!r}; "
                         f"choices: {KERNELS}")
    return kernel


class _Lane:
    """One (prefetcher, test cache) pair riding the shared trace walk."""

    __slots__ = ("prefetcher", "cache", "baseline", "remaining_misses",
                 "per_level_remaining", "prefetches_issued")

    def __init__(self, prefetcher: Prefetcher, cache,
                 baseline: _Baseline) -> None:
        self.prefetcher = prefetcher
        self.cache = cache
        self.baseline = baseline
        self.remaining_misses = 0
        self.per_level_remaining: Dict[int, int] = {}
        self.prefetches_issued = 0


class _Baseline:
    """The no-prefetch miss accounting shared by every lane with one
    configuration, served by the memoized baseline replay
    (:func:`repro.sim.baseline.measured_baseline`), so sweep points and
    lane shards replaying one (trace, geometry) pay the replay once per
    process — or never, when a sidecar entry was seeded."""

    __slots__ = ("stats", "misses", "per_level")

    def __init__(self, bundle: TraceBundle, config: CacheConfig,
                 warmup_fraction: float) -> None:
        measured = measured_baseline(bundle, config, warmup_fraction)
        self.stats = measured.stats()
        self.misses = measured.misses
        self.per_level = dict(measured.per_level)


def _retire_hook(prefetcher: Prefetcher):
    """The prefetcher's retire hook, or None when it is the base no-op
    (saving a Python call per correct-path access for fetch-side
    engines)."""
    if type(prefetcher).on_retire is Prefetcher.on_retire:
        return None
    return prefetcher.on_retire


# reprolint: hot
def _walk_lane_inline2(lane: _Lane, blocks, pcs, trap_levels, wrong_paths,
                       retire_pcs, retire_traps,
                       retire_cursor: int, measuring: bool) -> int:
    """One lane's walk over an access slice, 2-way LRU/FIFO cache inlined.

    This is the innermost loop of the whole reproduction, specialized
    for the paper's cache geometry (2 ways, MRU-byte recency): the
    demand probe, fill, and prefetch install operate directly on the
    cache's flat slot arrays as local variables, and every counter
    accumulates in a local int, flushed into ``CacheStats`` once per
    slice.  State layout and transition order mirror
    ``InstructionCache.access_fast``/``prefetch`` exactly; the
    differential suite pins this walker to the reference engine for
    every prefetcher.

    ``measuring`` folds the warmup window out of the per-access branch
    work: the caller runs the warmup slice with it False and the
    measurement slice with it True.  Returns the advanced retire cursor.
    """
    cache = lane.cache
    tags = cache._tags
    flags = cache._flags
    mru = cache._mru
    mru_on_access = cache._mru_on_access
    n_sets = cache._n_sets
    prefetcher = lane.prefetcher
    into = demand_access_hook(prefetcher)
    on_retire = _retire_hook(prefetcher)
    out: List[int] = []
    per_level = lane.per_level_remaining
    demand_accesses = demand_hits = demand_misses = useful = 0
    requests = fills = drops = evictions = evicted_unused = 0
    remaining = issued_total = 0
    for block, pc, trap_level, wrong_path in zip(blocks, pcs, trap_levels,
                                                 wrong_paths):
        # -- demand access (InstructionCache.access_fast, inlined) --
        demand_accesses += 1
        index = block % n_sets
        slot = index + index
        if tags[slot] != block:
            if tags[slot + 1] == block:
                slot += 1
            else:
                slot = -1
        if slot >= 0:
            demand_hits += 1
            if mru_on_access:
                mru[index] = slot & 1
            state = flags[slot]
            if state == 1:
                flags[slot] = 3
                useful += 1
                code = 2
            else:
                flags[slot] = state | 2
                code = 1
        else:
            demand_misses += 1
            code = 0
            slot = index + index
            if tags[slot] is not None:
                if tags[slot + 1] is not None:
                    slot += 1 - mru[index]
                    evictions += 1
                    if flags[slot] == 1:
                        evicted_unused += 1
                else:
                    slot += 1
            tags[slot] = block
            flags[slot] = 0
            mru[index] = slot & 1
            if measuring and not wrong_path:
                remaining += 1
                per_level[trap_level] = per_level.get(trap_level, 0) + 1
        # -- prefetcher hook + prefetch installs (prefetch(), inlined) --
        count = into(block, pc, trap_level, code != 0, code == 2, out)
        if count:
            issued_total += count
            for candidate in out:
                requests += 1
                cindex = candidate % n_sets
                cslot = cindex + cindex
                if tags[cslot] == candidate or tags[cslot + 1] == candidate:
                    drops += 1
                    continue
                if tags[cslot] is not None:
                    if tags[cslot + 1] is not None:
                        cslot += 1 - mru[cindex]
                        evictions += 1
                        if flags[cslot] == 1:
                            evicted_unused += 1
                    else:
                        cslot += 1
                tags[cslot] = candidate
                flags[cslot] = 1
                mru[cindex] = cslot & 1
                fills += 1
            del out[:]
        if not wrong_path:
            if on_retire is not None:
                on_retire(retire_pcs[retire_cursor],
                          retire_traps[retire_cursor], code != 2)
            retire_cursor += 1
    stats = cache.stats
    stats.demand_accesses += demand_accesses
    stats.demand_hits += demand_hits
    stats.demand_misses += demand_misses
    stats.useful_prefetches += useful
    stats.prefetch_requests += requests
    stats.prefetch_fills += fills
    stats.prefetch_drops_present += drops
    stats.evictions += evictions
    stats.evicted_unused_prefetches += evicted_unused
    lane.remaining_misses += remaining
    lane.prefetches_issued += issued_total
    return retire_cursor


# reprolint: hot
def _walk_lane_inline2_nextline(lane: _Lane, blocks, pcs, trap_levels,
                                wrong_paths, retire_pcs, retire_traps,
                                retire_cursor: int, measuring: bool) -> int:
    """:func:`_walk_lane_inline2` with the next-line engine fused in.

    The three classic fetch-side baselines (next-line, stride,
    discontinuity) have per-access bodies of a few lines and no retire
    hook, so the walk inlines them next to the cache operations instead
    of paying a Python call per access; their learned state lives in
    locals for the slice and is written back at the end.  Semantics are
    exactly :meth:`NextLinePrefetcher.on_demand_access_into`.
    """
    cache = lane.cache
    tags = cache._tags
    flags = cache._flags
    mru = cache._mru
    mru_on_access = cache._mru_on_access
    n_sets = cache._n_sets
    prefetcher = lane.prefetcher
    degree = prefetcher.degree
    miss_only = prefetcher._miss_only
    last_triggered = prefetcher._last_triggered
    per_level = lane.per_level_remaining
    demand_accesses = demand_hits = demand_misses = useful = 0
    requests = fills = drops = evictions = evicted_unused = 0
    remaining = issued = triggers = 0
    for block, trap_level, wrong_path in zip(blocks, trap_levels,
                                             wrong_paths):
        demand_accesses += 1
        index = block % n_sets
        slot = index + index
        if tags[slot] != block:
            if tags[slot + 1] == block:
                slot += 1
            else:
                slot = -1
        if slot >= 0:
            hit = True
            demand_hits += 1
            if mru_on_access:
                mru[index] = slot & 1
            state = flags[slot]
            if state == 1:
                flags[slot] = 3
                useful += 1
            else:
                flags[slot] = state | 2
        else:
            hit = False
            demand_misses += 1
            slot = index + index
            if tags[slot] is not None:
                if tags[slot + 1] is not None:
                    slot += 1 - mru[index]
                    evictions += 1
                    if flags[slot] == 1:
                        evicted_unused += 1
                else:
                    slot += 1
            tags[slot] = block
            flags[slot] = 0
            mru[index] = slot & 1
            if measuring and not wrong_path:
                remaining += 1
                per_level[trap_level] = per_level.get(trap_level, 0) + 1
        if not (hit and miss_only) and block != last_triggered:
            last_triggered = block
            triggers += 1
            issued += degree
            for candidate in range(block + 1, block + degree + 1):
                requests += 1
                cindex = candidate % n_sets
                cslot = cindex + cindex
                if tags[cslot] == candidate or tags[cslot + 1] == candidate:
                    drops += 1
                    continue
                if tags[cslot] is not None:
                    if tags[cslot + 1] is not None:
                        cslot += 1 - mru[cindex]
                        evictions += 1
                        if flags[cslot] == 1:
                            evicted_unused += 1
                    else:
                        cslot += 1
                tags[cslot] = candidate
                flags[cslot] = 1
                mru[cindex] = cslot & 1
                fills += 1
        if not wrong_path:
            retire_cursor += 1
    prefetcher._last_triggered = last_triggered
    pf_stats = prefetcher.stats
    pf_stats.triggers += triggers
    pf_stats.issued += issued
    stats = cache.stats
    stats.demand_accesses += demand_accesses
    stats.demand_hits += demand_hits
    stats.demand_misses += demand_misses
    stats.useful_prefetches += useful
    stats.prefetch_requests += requests
    stats.prefetch_fills += fills
    stats.prefetch_drops_present += drops
    stats.evictions += evictions
    stats.evicted_unused_prefetches += evicted_unused
    lane.remaining_misses += remaining
    lane.prefetches_issued += issued
    return retire_cursor


# reprolint: hot
def _walk_lane_inline2_stride(lane: _Lane, blocks, pcs, trap_levels,
                              wrong_paths, retire_pcs, retire_traps,
                              retire_cursor: int, measuring: bool) -> int:
    """:func:`_walk_lane_inline2` with the stride engine fused in
    (semantics of :meth:`StridePrefetcher.on_demand_access_into`)."""
    cache = lane.cache
    tags = cache._tags
    flags = cache._flags
    mru = cache._mru
    mru_on_access = cache._mru_on_access
    n_sets = cache._n_sets
    prefetcher = lane.prefetcher
    degree = prefetcher.degree
    last_block = prefetcher._last_block
    last_stride = prefetcher._last_stride
    confirmed = prefetcher._confirmed
    per_level = lane.per_level_remaining
    demand_accesses = demand_hits = demand_misses = useful = 0
    requests = fills = drops = evictions = evicted_unused = 0
    remaining = issued = triggers = 0
    for block, trap_level, wrong_path in zip(blocks, trap_levels,
                                             wrong_paths):
        demand_accesses += 1
        index = block % n_sets
        slot = index + index
        if tags[slot] != block:
            if tags[slot + 1] == block:
                slot += 1
            else:
                slot = -1
        if slot >= 0:
            demand_hits += 1
            if mru_on_access:
                mru[index] = slot & 1
            state = flags[slot]
            if state == 1:
                flags[slot] = 3
                useful += 1
            else:
                flags[slot] = state | 2
        else:
            demand_misses += 1
            slot = index + index
            if tags[slot] is not None:
                if tags[slot + 1] is not None:
                    slot += 1 - mru[index]
                    evictions += 1
                    if flags[slot] == 1:
                        evicted_unused += 1
                else:
                    slot += 1
            tags[slot] = block
            flags[slot] = 0
            mru[index] = slot & 1
            if measuring and not wrong_path:
                remaining += 1
                per_level[trap_level] = per_level.get(trap_level, 0) + 1
        if block != last_block:
            if last_block is not None:
                stride = block - last_block
                if stride == last_stride and stride != 0:
                    confirmed = True
                elif last_stride is not None:
                    confirmed = False
                last_stride = stride
                if confirmed:
                    triggers += 1
                    issued += degree
                    for step in range(1, degree + 1):
                        candidate = block + stride * step
                        requests += 1
                        cindex = candidate % n_sets
                        cslot = cindex + cindex
                        if (tags[cslot] == candidate
                                or tags[cslot + 1] == candidate):
                            drops += 1
                            continue
                        if tags[cslot] is not None:
                            if tags[cslot + 1] is not None:
                                cslot += 1 - mru[cindex]
                                evictions += 1
                                if flags[cslot] == 1:
                                    evicted_unused += 1
                            else:
                                cslot += 1
                        tags[cslot] = candidate
                        flags[cslot] = 1
                        mru[cindex] = cslot & 1
                        fills += 1
            last_block = block
        if not wrong_path:
            retire_cursor += 1
    prefetcher._last_block = last_block
    prefetcher._last_stride = last_stride
    prefetcher._confirmed = confirmed
    pf_stats = prefetcher.stats
    pf_stats.triggers += triggers
    pf_stats.issued += issued
    stats = cache.stats
    stats.demand_accesses += demand_accesses
    stats.demand_hits += demand_hits
    stats.demand_misses += demand_misses
    stats.useful_prefetches += useful
    stats.prefetch_requests += requests
    stats.prefetch_fills += fills
    stats.prefetch_drops_present += drops
    stats.evictions += evictions
    stats.evicted_unused_prefetches += evicted_unused
    lane.remaining_misses += remaining
    lane.prefetches_issued += issued
    return retire_cursor


# reprolint: hot
def _walk_lane_inline2_discontinuity(lane: _Lane, blocks, pcs, trap_levels,
                                     wrong_paths, retire_pcs, retire_traps,
                                     retire_cursor: int,
                                     measuring: bool) -> int:
    """:func:`_walk_lane_inline2` with the discontinuity engine fused in
    (semantics of :meth:`DiscontinuityPrefetcher.on_demand_access_into`)."""
    cache = lane.cache
    tags = cache._tags
    flags = cache._flags
    mru = cache._mru
    mru_on_access = cache._mru_on_access
    n_sets = cache._n_sets
    prefetcher = lane.prefetcher
    nl_degree = prefetcher.next_line_degree
    table_get = prefetcher._table.get
    table_put = prefetcher._table.put
    previous = prefetcher._previous_block
    out: List[int] = []
    per_level = lane.per_level_remaining
    demand_accesses = demand_hits = demand_misses = useful = 0
    requests = fills = drops = evictions = evicted_unused = 0
    remaining = issued = triggers = 0
    for block, trap_level, wrong_path in zip(blocks, trap_levels,
                                             wrong_paths):
        demand_accesses += 1
        index = block % n_sets
        slot = index + index
        if tags[slot] != block:
            if tags[slot + 1] == block:
                slot += 1
            else:
                slot = -1
        if slot >= 0:
            hit = True
            demand_hits += 1
            if mru_on_access:
                mru[index] = slot & 1
            state = flags[slot]
            if state == 1:
                flags[slot] = 3
                useful += 1
            else:
                flags[slot] = state | 2
        else:
            hit = False
            demand_misses += 1
            slot = index + index
            if tags[slot] is not None:
                if tags[slot + 1] is not None:
                    slot += 1 - mru[index]
                    evictions += 1
                    if flags[slot] == 1:
                        evicted_unused += 1
                else:
                    slot += 1
            tags[slot] = block
            flags[slot] = 0
            mru[index] = slot & 1
            if measuring and not wrong_path:
                remaining += 1
                per_level[trap_level] = per_level.get(trap_level, 0) + 1
        if previous is not None and previous != block:
            if not hit and block != previous + 1:
                table_put(previous, block)
            target = table_get(block)
            triggers += 1
            for candidate in range(block + 1, block + nl_degree + 1):
                out.append(candidate)
            if target is not None:
                out.append(target)
                out.append(target + 1)
            issued += len(out)
            for candidate in out:
                requests += 1
                cindex = candidate % n_sets
                cslot = cindex + cindex
                if tags[cslot] == candidate or tags[cslot + 1] == candidate:
                    drops += 1
                    continue
                if tags[cslot] is not None:
                    if tags[cslot + 1] is not None:
                        cslot += 1 - mru[cindex]
                        evictions += 1
                        if flags[cslot] == 1:
                            evicted_unused += 1
                    else:
                        cslot += 1
                tags[cslot] = candidate
                flags[cslot] = 1
                mru[cindex] = cslot & 1
                fills += 1
            del out[:]
        previous = block
        if not wrong_path:
            retire_cursor += 1
    prefetcher._previous_block = previous
    pf_stats = prefetcher.stats
    pf_stats.triggers += triggers
    pf_stats.issued += issued
    stats = cache.stats
    stats.demand_accesses += demand_accesses
    stats.demand_hits += demand_hits
    stats.demand_misses += demand_misses
    stats.useful_prefetches += useful
    stats.prefetch_requests += requests
    stats.prefetch_fills += fills
    stats.prefetch_drops_present += drops
    stats.evictions += evictions
    stats.evicted_unused_prefetches += evicted_unused
    lane.remaining_misses += remaining
    lane.prefetches_issued += issued
    return retire_cursor


#: Fields of the native lane walk's ``out_lane`` array, in the order of
#: ``_pifwalk.c``'s ``OUT_*`` enum; the first nine are CacheStats fields.
_NATIVE_LANE = (
    "demand_accesses", "demand_hits", "demand_misses", "useful_prefetches",
    "prefetch_requests", "prefetch_fills", "prefetch_drops_present",
    "evictions", "evicted_unused_prefetches", "remaining", "issued",
    "stream_allocations", "retired", "channels", "levels",
)

#: Fields of one ``out_channels`` row (``_pifwalk.c``'s ``CH_*`` enum).
_NATIVE_CHANNEL = (
    "key", "regions_recorded", "index_insertions", "stream_allocations",
    "window_advances", "regions_emitted", "passed", "discarded",
    "index_hits", "index_misses", "sab_allocations",
)

#: Channel keys the native walk can hold (trap levels are a uint8).
_NATIVE_KEYS = 256


def _native_access_columns(bundle: TraceBundle):
    """The access columns as the native walk reads them — (block, pc,
    trap level, wrong-path flag as uint8) — or None when one fails a
    check the C side relies on: dtype, C-contiguity, equal lengths, and
    non-negative blocks and PCs (so C's ``%`` and ``>>`` agree with
    Python's).  Cached per bundle."""
    derived = bundle.derived_cache()
    if "native_access" not in derived:
        columns = (bundle.access_block, bundle.access_pc,
                   bundle.access_trap, bundle.access_wrong_path)
        usable = (
            all(column.dtype == dtype and column.ndim == 1
                and column.flags.c_contiguous
                for column, dtype in zip(
                    columns, (np.int64, np.int64, np.uint8, np.bool_)))
            and len({len(column) for column in columns}) == 1
            and not (len(columns[0])
                     and min(columns[0].min(), columns[1].min()) < 0))
        derived["native_access"] = (
            (*columns[:3], columns[3].view(np.uint8)) if usable else None)
    return derived["native_access"]


def _plan_fits(plan: PIFTrainPlan, retires: int, width: int) -> bool:
    """True when ``plan`` passes the checks the C side relies on:
    dtype, C-contiguity and equal lengths of the five columns; ``at``
    strictly ascending and below the retire count; keys below
    :data:`_NATIVE_KEYS`; triggers -1 (an open) or non-negative; bit
    vectors non-negative and within the region ``width``."""
    if any(column.dtype != dtype or column.ndim != 1
           or not column.flags.c_contiguous
           for column, dtype in zip(plan, PLAN_DTYPES)):
        return False
    if len({len(column) for column in plan}) != 1:
        return False
    if not len(plan.at):
        return True
    return bool(plan.at[0] >= 0 and plan.at[-1] < retires
                and (np.diff(plan.at) > 0).all()
                and plan.key.min() >= 0 and plan.key.max() < _NATIVE_KEYS
                and plan.trigger.min() >= -1 and plan.bits.min() >= 0
                and not (plan.bits >> width).any())


def _walk_lane_native_pif(lane: _Lane, bundle: TraceBundle,
                          warmup_boundary: int) -> Optional[int]:
    """One PIF lane's whole walk, warmup and measured slices, in the
    native lane walk (``_pifwalk.c``, built by :mod:`repro.sim.native`).

    Returns the retire records consumed, or None — lane and engine
    untouched — when the lane must take the hook-driven
    :func:`_walk_lane_inline2` instead: the library cannot be built or
    loaded, the engine was walked before (the native walk starts from
    empty PIF state), or an input fails a check the C side relies on.

    The C walk reproduces the reference walk bit for bit, its train side
    replaying the shared :class:`~repro.sim.trainplan.PIFTrainPlan`.  It
    writes back the cache's counters, the lane's miss counts, the
    engine's prefetch stats, every channel's
    :class:`~repro.core.pif.PIFChannelStats` and the compactor, index
    and SAB-file counters — but not the history, index or SAB contents,
    so the engine is marked ``walked_natively`` and a second walk of it
    is refused (:func:`refuse_natively_walked`).
    """
    engine = lane.prefetcher
    geometry = engine.config.geometry
    width = geometry.preceding + geometry.succeeding
    if engine._channels or width > 62:
        return None
    library = native.load()
    if library is None:
        return None
    columns = _native_access_columns(bundle)
    if columns is None:
        return None
    plan = train_plan_for(bundle, geometry, engine.block_bytes,
                          engine.separate_trap_levels,
                          engine.config.temporal_compactor_entries)
    if not _plan_fits(plan, len(bundle.retire_pc), width):
        return None
    cache = lane.cache
    ways = engine.config.index_associativity
    main_history, main_index = engine.channel_sizes(0)
    handler_history, handler_index = engine.channel_sizes(1)
    # _pifwalk.c's CFG_* order.
    config = np.array([
        cache._n_sets, cache._mru_on_access, engine.separate_trap_levels,
        geometry.preceding, geometry.succeeding,
        block_bits_for(engine.block_bytes), engine.config.sab_count,
        engine.config.sab_window_regions, warmup_boundary,
        main_history, handler_history,
        main_index // ways if main_index else 0,
        handler_index // ways if handler_index else 0, ways,
    ], dtype=np.int64)
    out_lane = np.zeros(len(_NATIVE_LANE), dtype=np.int64)
    out_levels = np.zeros(2 * _NATIVE_KEYS, dtype=np.int64)
    out_channels = np.zeros((_NATIVE_KEYS, len(_NATIVE_CHANNEL)),
                            dtype=np.int64)
    status = library.pifwalk_lane(
        len(columns[0]), *columns,
        len(plan.at), plan.at, plan.key, plan.trigger,
        plan.survives.view(np.uint8), plan.bits,
        config, out_lane, out_levels, out_channels)
    if status != 0:
        raise MemoryError("native PIF lane walk ran out of memory")

    counts = dict(zip(_NATIVE_LANE, out_lane.tolist()))
    stats = cache.stats
    for name in _NATIVE_LANE[:9]:
        setattr(stats, name, getattr(stats, name) + counts[name])
    levels = out_levels[:2 * counts["levels"]].tolist()
    per_level = lane.per_level_remaining
    for level, remaining in zip(levels[::2], levels[1::2]):
        per_level[level] = per_level.get(level, 0) + remaining
    lane.remaining_misses += counts["remaining"]
    lane.prefetches_issued += counts["issued"]
    # A PIF trigger is exactly a demand miss (tagged misses probe the
    # index; prefetched hits never reach the trigger path).
    engine.stats.triggers += counts["demand_misses"]
    engine.stats.issued += counts["issued"]
    engine.stats.stream_allocations += counts["stream_allocations"]
    for row in out_channels[:counts["channels"]].tolist():
        channel_counts = dict(zip(_NATIVE_CHANNEL, row))
        channel = engine._channel(channel_counts["key"])
        for name in ("regions_recorded", "index_insertions",
                     "stream_allocations", "window_advances"):
            setattr(channel.stats, name, channel_counts[name])
        channel.spatial.regions_emitted = channel_counts["regions_emitted"]
        channel.temporal.passed = channel_counts["passed"]
        channel.temporal.discarded = channel_counts["discarded"]
        channel.index.insertions = channel_counts["index_insertions"]
        channel.index.hits = channel_counts["index_hits"]
        channel.index.misses = channel_counts["index_misses"]
        channel.sabs.allocations = channel_counts["sab_allocations"]
    engine.walked_natively = True
    return counts["retired"]


def refuse_natively_walked(prefetchers: Sequence[Prefetcher]) -> None:
    """Raise when an engine already went through the native PIF walk.

    That walk leaves its history, index and SAB contents in C, so
    walking the engine again would silently diverge from the reference.
    Every caller in the repository builds fresh engines per walk.
    """
    for prefetcher in prefetchers:
        if getattr(prefetcher, "walked_natively", False):
            raise RuntimeError(
                f"engine {prefetcher.name!r} was already walked by the "
                "native PIF lane walk, which keeps no replayable state; "
                "build a fresh engine per walk")

#: Engines whose per-access logic is fused into a specialized 2-way
#: walker (PIF's is the native lane walk, which takes the whole lane).
#: Exact types only: a subclass may change behaviour, so it falls back
#: to the hook-driven walker.
_FUSED_WALKERS = {
    NextLinePrefetcher: _walk_lane_inline2_nextline,
    StridePrefetcher: _walk_lane_inline2_stride,
    DiscontinuityPrefetcher: _walk_lane_inline2_discontinuity,
    ProactiveInstructionFetch: _walk_lane_native_pif,
}


def _select_walker(lane: _Lane):
    """Pick the most specialized fast walker this lane supports."""
    if lane.cache._mru is None:
        return _walk_lane_generic
    return _FUSED_WALKERS.get(type(lane.prefetcher), _walk_lane_inline2)


# reprolint: hot
def _walk_lane_generic(lane: _Lane, blocks, pcs, trap_levels, wrong_paths,
                       retire_pcs, retire_traps,
                       retire_cursor: int, measuring: bool) -> int:
    """One lane's walk for any cache geometry/policy, through the
    allocation-free ``access_fast``/``prefetch`` methods."""
    cache = lane.cache
    access_fast = cache.access_fast
    prefetch = cache.prefetch
    prefetcher = lane.prefetcher
    into = demand_access_hook(prefetcher)
    on_retire = _retire_hook(prefetcher)
    out: List[int] = []
    per_level = lane.per_level_remaining
    for block, pc, trap_level, wrong_path in zip(blocks, pcs, trap_levels,
                                                 wrong_paths):
        code = access_fast(block)
        if code == 0 and measuring and not wrong_path:
            lane.remaining_misses += 1
            per_level[trap_level] = per_level.get(trap_level, 0) + 1
        count = into(block, pc, trap_level, code != 0, code == 2, out)
        if count:
            lane.prefetches_issued += count
            for candidate in out:
                prefetch(candidate)
            del out[:]
        if not wrong_path:
            if on_retire is not None:
                on_retire(retire_pcs[retire_cursor],
                          retire_traps[retire_cursor], code != 2)
            retire_cursor += 1
    return retire_cursor


def _walk_reference(lanes: List[_Lane], blocks, pcs, trap_levels,
                    wrong_paths, retire_pcs, retire_traps,
                    warmup_boundary: int) -> int:
    """The original object-model lane walk (semantics oracle)."""
    retire_cursor = 0
    for position, (block, pc, trap_level, wrong_path) in enumerate(
            zip(blocks, pcs, trap_levels, wrong_paths)):
        measuring = position >= warmup_boundary
        correct_path = not wrong_path
        retire_pc = retire_trap = None
        if correct_path:
            retire_pc = retire_pcs[retire_cursor]
            retire_trap = retire_traps[retire_cursor]
            retire_cursor += 1
        for lane in lanes:
            test_result = lane.cache.access(block)
            if correct_path and measuring and not test_result.hit:
                lane.remaining_misses += 1
                lane.per_level_remaining[trap_level] = (
                    lane.per_level_remaining.get(trap_level, 0) + 1)
            candidates = lane.prefetcher.on_demand_access(
                block, pc, trap_level,
                test_result.hit, test_result.was_prefetched)
            for candidate in candidates:
                lane.prefetches_issued += 1
                lane.cache.prefetch(candidate)
            if retire_pc is not None:
                lane.prefetcher.on_retire(retire_pc, retire_trap,
                                          tagged=test_result.tagged)
    return retire_cursor


def run_multi_prefetch_simulation(
    bundle: TraceBundle,
    prefetchers: Sequence[Prefetcher],
    cache_config: Optional[CacheConfig] = None,
    warmup_fraction: float = 0.25,
    cache_configs: Optional[Sequence[Optional[CacheConfig]]] = None,
    kernel: Optional[str] = None,
) -> List[PrefetchSimResult]:
    """Simulate every prefetcher over ``bundle`` in one trace walk.

    Arguments mirror :func:`repro.sim.tracesim.run_prefetch_simulation`;
    ``cache_config`` applies to every lane unless ``cache_configs``
    supplies a per-lane override (``None`` entries fall back to
    ``cache_config``).  ``kernel`` selects the lane-walk implementation
    (``"fast"``, the default for None, or ``"reference"`` — results
    are bit-identical either way).  Returns one
    :class:`PrefetchSimResult` per prefetcher, in input order, each
    identical to what a standalone sequential run of that engine would
    have produced.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    if cache_configs is not None and len(cache_configs) != len(prefetchers):
        raise ValueError("cache_configs must match prefetchers in length")
    kernel = resolve_kernel(kernel)
    refuse_natively_walked(prefetchers)
    cache_class = (InstructionCache if kernel == "fast"
                   else ReferenceInstructionCache)
    default_config = cache_config if cache_config is not None else CacheConfig()

    baselines: Dict[CacheConfig, _Baseline] = {}
    lanes: List[_Lane] = []
    with stage(STAGE_BASELINE):
        for position, prefetcher in enumerate(prefetchers):
            lane_config = default_config
            if cache_configs is not None and cache_configs[position] is not None:
                lane_config = cache_configs[position]
            baseline = baselines.get(lane_config)
            if baseline is None:
                baseline = _Baseline(bundle, lane_config, warmup_fraction)
                baselines[lane_config] = baseline
            lanes.append(_Lane(prefetcher, cache_class(lane_config),
                               baseline))

    warmup_boundary = int(len(bundle.access_block) * warmup_fraction)
    retires = len(bundle.retire_pc)

    if lanes:
        with stage(STAGE_LANE_WALK):
            if kernel == "fast":
                warm = measured = None
                for lane in lanes:
                    walker = _select_walker(lane)
                    retire_cursor = None
                    if walker is _walk_lane_native_pif:
                        retire_cursor = walker(lane, bundle,
                                               warmup_boundary)
                        walker = _walk_lane_inline2  # if it declined
                    if retire_cursor is None:
                        if warm is None:
                            (blocks, pcs, trap_levels, wrong_paths,
                             retire_pcs, retire_traps) = \
                                bundle.decoded_columns()
                            warm = (blocks[:warmup_boundary],
                                    pcs[:warmup_boundary],
                                    trap_levels[:warmup_boundary],
                                    wrong_paths[:warmup_boundary],
                                    retire_pcs, retire_traps)
                            measured = (blocks[warmup_boundary:],
                                        pcs[warmup_boundary:],
                                        trap_levels[warmup_boundary:],
                                        wrong_paths[warmup_boundary:],
                                        retire_pcs, retire_traps)
                        retire_cursor = walker(lane, *warm, 0, False)
                        retire_cursor = walker(lane, *measured,
                                               retire_cursor, True)
                    if retire_cursor != retires:
                        raise RuntimeError(
                            "access/retire alignment broken: lane "
                            f"{lane.prefetcher.name!r} consumed "
                            f"{retire_cursor} of {retires} retire records"
                        )
            else:
                retire_cursor = _walk_reference(
                    lanes, *bundle.decoded_columns(), warmup_boundary)
                if retire_cursor != retires:
                    raise RuntimeError(
                        "access/retire alignment broken: consumed "
                        f"{retire_cursor} of {retires} retire records"
                    )

    return [
        PrefetchSimResult(
            workload=bundle.workload,
            prefetcher=lane.prefetcher.name,
            instructions=bundle.instructions,
            baseline_misses=lane.baseline.misses,
            remaining_misses=lane.remaining_misses,
            per_level_baseline=dict(lane.baseline.per_level),
            per_level_remaining=lane.per_level_remaining,
            prefetches_issued=lane.prefetches_issued,
            cache_stats=lane.cache.stats,
            baseline_stats=lane.baseline.stats,
        )
        for lane in lanes
    ]
