"""Single-pass multi-prefetcher simulation engine.

:func:`repro.sim.tracesim.run_prefetch_simulation` replays the whole
trace once per engine.  Every figure that compares N prefetchers (or N
sweep settings of one prefetcher) over the same trace therefore walked
the identical access stream N times.

This module replays one trace bundle against N independent *lanes* in a
single walk.  Each lane owns its test cache and prefetch engine; lanes
never observe each other, and every lane sees exactly the request
sequence a standalone :func:`run_prefetch_simulation` call would feed
it, so the per-lane results are **bit-identical** to N sequential runs
(the equivalence test in ``tests/sim/test_engine.py`` locks this).

Two planes walk a lane, with bit-identical results:

* **native** — an exact-type engine of :data:`_NATIVE_ENGINES` (none,
  next-line, stride, discontinuity, TIFS, PIF and its fetch-order
  variant) takes :func:`_walk_lane_native`: one call into a C99 walk
  (``_walk.c``, built on first use by :mod:`repro.sim.native`) over the
  bundle's access columns, on any associativity with LRU, FIFO or
  random replacement, PIF's train side replaying the shared
  :mod:`~repro.sim.trainplan` schedule instead of running the
  compactors per lane.  The same table and library serve the timing
  model (:func:`repro.sim.timing.run_timing_simulation`).
* **reference** — :func:`_walk_reference`, the object-model walk over
  :class:`~repro.cache.icache.InstructionCache` with ``access()``,
  ``on_demand_access()`` and ``on_retire()``.  It is the semantics
  oracle, and it walks every lane the native walk declines: no C
  compiler, a subclass engine, an engine walked before, a TIFS with an
  unbounded history, an input failing the native walk's checks.

The default kernel, ``"fast"``, takes the native walk where it can;
``kernel="reference"`` (the differential tests) walks every lane on the
reference plane.  Both are locked bit-identical for every prefetcher,
geometry and replacement policy by ``tests/sim/test_engine.py`` and by
the Hypothesis differential in ``tests/sim/test_native.py``.

The no-prefetch baseline depends only on the access stream and the
cache configuration, so it does not ride the lane walk at all: each
distinct configuration is served by the *memoized*
:func:`repro.sim.baseline.measured_baseline` (one replay per trace
content hash + geometry + warmup, shared across lanes, shards, sweep
points, and — through the sweep runner's sidecar — across runs).
Lanes sharing a configuration share the one replay.

Counter windows: ``prefetches_issued`` counts every issue over the whole
trace — the same (unwindowed) accounting as ``prefetcher.stats`` and the
caches' :class:`~repro.cache.stats.CacheStats` — while the miss counts
remain restricted to the post-warmup measurement window.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..cache.icache import InstructionCache
from ..cache.stats import CacheStats
from ..common.addressing import block_bits_for
from ..common.config import CacheConfig
from ..common.profiling import STAGE_BASELINE, STAGE_LANE_WALK, stage
from ..core.pif import AccessOrderPIF, ProactiveInstructionFetch
from ..prefetch.base import NullPrefetcher, Prefetcher
from ..prefetch.discontinuity import DiscontinuityPrefetcher
from ..prefetch.nextline import NextLinePrefetcher
from ..prefetch.stride import StridePrefetcher
from ..prefetch.tifs import TIFSPrefetcher
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
    """One (prefetcher, test cache) pair riding the shared trace walk:
    the cache's configuration and counters (the reference walk builds
    the cache itself)."""

    __slots__ = ("prefetcher", "config", "stats", "baseline",
                 "remaining_misses", "per_level_remaining",
                 "prefetches_issued")

    def __init__(self, prefetcher: Prefetcher, config: CacheConfig,
                 baseline: _Baseline) -> None:
        self.prefetcher = prefetcher
        self.config = config
        self.stats = CacheStats()
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


#: Fields of the native walks' ``config`` array, in the order of
#: ``_walk.c``'s ``CFG_*`` enum; a field an engine does not set is 0.
_NATIVE_CONFIG = (
    "engine", "n_sets", "ways", "policy", "warmup", "perfect", "hits",
    "degree", "miss_only", "table_entries", "separate", "access_order",
    "preceding", "succeeding", "block_bits", "sab_count", "window",
    "history_main", "history_handler", "index_sets_main",
    "index_sets_handler", "index_ways", "streams", "window_blocks",
    "history_blocks", "index_sets",
)

#: ``_walk.c``'s ``POLICY_*`` value of each replacement policy.
_NATIVE_POLICIES = {"lru": 0, "fifo": 1, "random": 2}

#: Fields of the native walks' ``out_lane`` array, in the order of
#: ``_walk.c``'s ``OUT_*`` enum; the first nine are CacheStats fields.
_NATIVE_OUT = (
    "demand_accesses", "demand_hits", "demand_misses", "useful_prefetches",
    "prefetch_requests", "prefetch_fills", "prefetch_drops_present",
    "evictions", "evicted_unused_prefetches", "remaining", "triggers",
    "issued", "stream_allocations", "retired", "channels", "levels",
    "fetch_misses", "late_hits", "index_insertions", "index_hits",
    "index_misses",
)

#: Fields of one ``out_channels`` row (``_walk.c``'s ``CH_*`` enum).
_NATIVE_CHANNEL = (
    "key", "regions_recorded", "index_insertions", "stream_allocations",
    "window_advances", "regions_emitted", "passed", "discarded",
    "index_hits", "index_misses", "sab_allocations",
)

#: Channel keys the native walk can hold (trap levels are a uint8).
_NATIVE_KEYS = 256

#: No block or prefetch candidate of a native walk may exceed this.
_INT64_MAX = 2 ** 63 - 1

#: The train plan of an engine without a train side.
_NO_PLAN = PIFTrainPlan(*(np.zeros(0, dtype=dtype) for dtype in PLAN_DTYPES))


def _native_access_columns(bundle: TraceBundle):
    """The access columns as the native walks read them — (block, pc,
    trap level, wrong-path flag as uint8) — and the largest block, or
    None when a column fails a check the C side relies on: dtype,
    C-contiguity, equal lengths, and non-negative blocks and PCs (so C's
    ``%`` and ``>>`` agree with Python's).  Cached per bundle."""
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
        top = int(columns[0].max()) if usable and len(columns[0]) else 0
        derived["native_access"] = (
            ((*columns[:3], columns[3].view(np.uint8)), top)
            if usable else None)
    return derived["native_access"]


def _plan_fits(plan: PIFTrainPlan, steps: int, width: int) -> bool:
    """True when ``plan`` passes the checks the C side relies on:
    dtype, C-contiguity and equal lengths of the five columns; ``at``
    strictly ascending and below the train step count (retire records,
    or accesses for a fetch-order plan); keys below
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
    return bool(plan.at[0] >= 0 and plan.at[-1] < steps
                and (np.diff(plan.at) > 0).all()
                and plan.key.min() >= 0 and plan.key.max() < _NATIVE_KEYS
                and plan.trigger.min() >= -1 and plan.bits.min() >= 0
                and not (plan.bits >> width).any())


# Per-engine set-up of a native walk: ``(config fields, train plan)``,
# where ``"engine"`` is ``_walk.c``'s ``ENGINE_*`` value, or None when
# the engine has learned state (the C walk starts from empty state), a
# candidate could leave int64 (``top`` is the trace's largest block) or
# a structure has no C counterpart (TIFS's unbounded history).

def _null_fields(engine: NullPrefetcher, bundle: TraceBundle, top: int):
    return {"engine": 0}, _NO_PLAN


def _next_line_fields(engine: NextLinePrefetcher, bundle: TraceBundle,
                      top: int):
    if engine._last_triggered != -1 or top + engine.degree > _INT64_MAX:
        return None
    return {"engine": 1, "degree": engine.degree,
            "miss_only": engine._miss_only}, _NO_PLAN


def _stride_fields(engine: StridePrefetcher, bundle: TraceBundle,
                   top: int):
    if (engine._last_block is not None or engine._last_stride is not None
            or engine._confirmed or (engine.degree + 1) * top > _INT64_MAX):
        return None
    return {"engine": 2, "degree": engine.degree}, _NO_PLAN


def _discontinuity_fields(engine: DiscontinuityPrefetcher,
                          bundle: TraceBundle, top: int):
    if (engine._previous_block is not None or len(engine._table)
            or top + max(engine.next_line_degree, 1) > _INT64_MAX):
        return None
    return {"engine": 3, "degree": engine.next_line_degree,
            "table_entries": engine._table.capacity}, _NO_PLAN


def _pif_fields(engine: ProactiveInstructionFetch, bundle: TraceBundle,
                top: int, source: str = "retire"):
    geometry = engine.config.geometry
    width = geometry.preceding + geometry.succeeding
    if engine._channels or width > 62:
        return None
    plan = train_plan_for(bundle, geometry, engine.block_bytes,
                          engine.separate_trap_levels,
                          engine.config.temporal_compactor_entries,
                          source=source)
    steps = len(bundle.access_pc if source == "access" else bundle.retire_pc)
    if not _plan_fits(plan, steps, width):
        return None
    ways = engine.config.index_associativity
    main_history, main_index = engine.channel_sizes(0)
    handler_history, handler_index = engine.channel_sizes(1)
    return {
        "engine": 4, "separate": engine.separate_trap_levels,
        "access_order": source == "access",
        "preceding": geometry.preceding, "succeeding": geometry.succeeding,
        "block_bits": block_bits_for(engine.block_bytes),
        "sab_count": engine.config.sab_count,
        "window": engine.config.sab_window_regions,
        "history_main": main_history, "history_handler": handler_history,
        "index_sets_main": main_index // ways if main_index else 0,
        "index_sets_handler": handler_index // ways if handler_index else 0,
        "index_ways": ways,
    }, plan


def _access_order_pif_fields(engine: AccessOrderPIF, bundle: TraceBundle,
                             top: int):
    # PIF's predict side; the train side replays a plan of the access
    # columns at every access, wrong path included.
    return _pif_fields(engine, bundle, top, source="access")


def _tifs_fields(engine: TIFSPrefetcher, bundle: TraceBundle, top: int):
    # The C miss log is a ring: an unbounded history takes the
    # reference walk.
    history, index = engine.history, engine.index
    if (history.capacity is None or history.tail or len(index)
            or engine._streams):
        return None
    return {
        "engine": 5, "streams": engine._stream_capacity,
        "window_blocks": engine.window_blocks,
        "history_blocks": history.capacity,
        "index_sets": (index.capacity // index.associativity
                       if index.capacity else 0),
        "index_ways": index.associativity,
    }, _NO_PLAN


#: The engines the native walks run, by exact type: a subclass may
#: change behaviour, so it takes the reference walk.  Both
#: :func:`run_multi_prefetch_simulation` and
#: :func:`repro.sim.timing.run_timing_simulation` choose from this table.
_NATIVE_ENGINES = {
    NullPrefetcher: _null_fields,
    NextLinePrefetcher: _next_line_fields,
    StridePrefetcher: _stride_fields,
    DiscontinuityPrefetcher: _discontinuity_fields,
    ProactiveInstructionFetch: _pif_fields,
    AccessOrderPIF: _access_order_pif_fields,
    TIFSPrefetcher: _tifs_fields,
}


def _native_inputs(engine: Prefetcher, config: CacheConfig,
                   bundle: TraceBundle, warmup_boundary: int,
                   perfect: bool = False, hits: bool = False):
    """``(library, arguments)`` for a native walk of ``engine`` on a
    cache of ``config`` over ``bundle`` — the arguments both entry
    points of ``_walk.c`` start with, ``hits`` asking the lane walk for
    per-access hit flags — or None when the walk must take the
    reference walk: an engine outside :data:`_NATIVE_ENGINES`, no
    library, an engine with learned state, a TIFS with an unbounded
    history, or an input failing a check the C side relies on."""
    fields_for = _NATIVE_ENGINES.get(type(engine))
    if fields_for is None:
        return None
    library = native.load()
    if library is None:
        return None
    access = _native_access_columns(bundle)
    if access is None:
        return None
    columns, top = access
    setup = fields_for(engine, bundle, top)
    if setup is None:
        return None
    fields, plan = setup
    fields.update(n_sets=config.n_sets, ways=config.associativity,
                  policy=_NATIVE_POLICIES[config.replacement],
                  warmup=warmup_boundary, perfect=perfect, hits=hits)
    arguments = np.array([fields.get(name, 0) for name in _NATIVE_CONFIG],
                         dtype=np.int64)
    return library, (len(columns[0]), *columns, len(plan.at), plan.at,
                     plan.key, plan.trigger, plan.survives.view(np.uint8),
                     plan.bits, arguments)


def _native_outputs():
    """Zeroed ``out_lane`` and ``out_channels`` arrays."""
    return (np.zeros(len(_NATIVE_OUT), dtype=np.int64),
            np.zeros((_NATIVE_KEYS, len(_NATIVE_CHANNEL)), dtype=np.int64))


def _native_counts(engine: Prefetcher, out_lane: np.ndarray,
                   out_channels: np.ndarray) -> Dict[str, int]:
    """Write a native walk's engine counters back — ``PrefetchStats``,
    for TIFS the index counters, and for PIF every channel's
    :class:`~repro.core.pif.PIFChannelStats` and compactor, index and
    SAB-file counters — and mark the engine ``walked_natively``, since
    its learned state stayed in C.  Returns ``out_lane`` by name."""
    counts = dict(zip(_NATIVE_OUT, out_lane.tolist()))
    engine.stats.triggers += counts["triggers"]
    engine.stats.issued += counts["issued"]
    engine.stats.stream_allocations += counts["stream_allocations"]
    if type(engine) is TIFSPrefetcher:
        engine.index.insertions += counts["index_insertions"]
        engine.index.hits += counts["index_hits"]
        engine.index.misses += counts["index_misses"]
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
    if type(engine) is not NullPrefetcher:
        engine.walked_natively = True
    return counts


#: The ``out_hits`` argument of a lane walk that records no hit flags.
_NO_HITS = np.zeros(0, dtype=np.uint8)


def _walk_lane_native(lane: _Lane, bundle: TraceBundle,
                      warmup_boundary: int) -> Optional[int]:
    """One lane's whole walk, warmup and measured slices, in the native
    lane walk (``_walk.c``, built by :mod:`repro.sim.native`).

    Returns the retire records consumed, or None — lane and engine
    untouched — when the lane must take :func:`_walk_reference` instead
    (:func:`_native_inputs`).  The C walk reproduces the reference walk
    bit for bit; it writes back the cache's counters, the lane's miss
    counts and the engine's counters (:func:`_native_counts`), and a
    second walk of a marked engine is refused
    (:func:`refuse_natively_walked`).
    """
    inputs = _native_inputs(lane.prefetcher, lane.config, bundle,
                            warmup_boundary)
    if inputs is None:
        return None
    library, arguments = inputs
    out_lane, out_channels = _native_outputs()
    out_levels = np.zeros(2 * _NATIVE_KEYS, dtype=np.int64)
    if library.walk_lane(*arguments, out_lane, out_levels, out_channels,
                         _NO_HITS):
        raise MemoryError("native lane walk ran out of memory")
    counts = _native_counts(lane.prefetcher, out_lane, out_channels)
    stats = lane.stats
    for name in _NATIVE_OUT[:9]:
        setattr(stats, name, getattr(stats, name) + counts[name])
    levels = out_levels[:2 * counts["levels"]].tolist()
    per_level = lane.per_level_remaining
    for level, remaining in zip(levels[::2], levels[1::2]):
        per_level[level] = per_level.get(level, 0) + remaining
    lane.remaining_misses += counts["remaining"]
    lane.prefetches_issued += counts["issued"]
    return counts["retired"]


def refuse_natively_walked(prefetchers: Sequence[Prefetcher]) -> None:
    """Raise when an engine already went through a native walk.

    That walk leaves the engine's learned state in C, so walking the
    engine again would silently diverge from the reference.  Every
    caller in the repository builds fresh engines per walk.
    """
    for prefetcher in prefetchers:
        if prefetcher.walked_natively:
            raise RuntimeError(
                f"engine {prefetcher.name!r} was already walked by a "
                "native walk, which keeps no replayable state; build a "
                "fresh engine per walk")


def _walk_reference(lanes: List[_Lane], blocks, pcs, trap_levels,
                    wrong_paths, retire_pcs, retire_traps,
                    warmup_boundary: int) -> int:
    """The object-model lane walk (semantics oracle)."""
    walked = [(lane, InstructionCache(lane.config)) for lane in lanes]
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
        for lane, cache in walked:
            test_result = cache.access(block)
            if correct_path and measuring and not test_result.hit:
                lane.remaining_misses += 1
                lane.per_level_remaining[trap_level] = (
                    lane.per_level_remaining.get(trap_level, 0) + 1)
            candidates = lane.prefetcher.on_demand_access(
                block, pc, trap_level,
                test_result.hit, test_result.was_prefetched)
            for candidate in candidates:
                lane.prefetches_issued += 1
                cache.prefetch(candidate)
            if retire_pc is not None:
                lane.prefetcher.on_retire(retire_pc, retire_trap,
                                          tagged=test_result.tagged)
    for lane, cache in walked:
        lane.stats = cache.stats
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
    ``cache_config``).  ``kernel`` selects the lane-walk plane
    (``"fast"``, the default for None: native where it can, or
    ``"reference"`` — results are bit-identical either way).  Returns
    one :class:`PrefetchSimResult` per prefetcher, in input order, each
    identical to what a standalone sequential run of that engine would
    have produced.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    if cache_configs is not None and len(cache_configs) != len(prefetchers):
        raise ValueError("cache_configs must match prefetchers in length")
    kernel = resolve_kernel(kernel)
    refuse_natively_walked(prefetchers)
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
            lanes.append(_Lane(prefetcher, lane_config, baseline))

    warmup_boundary = int(len(bundle.access_block) * warmup_fraction)
    retires = len(bundle.retire_pc)

    if lanes:
        with stage(STAGE_LANE_WALK):
            declined = []
            for lane in lanes:
                retire_cursor = None
                if kernel == "fast":
                    retire_cursor = _walk_lane_native(lane, bundle,
                                                      warmup_boundary)
                if retire_cursor is None:
                    declined.append(lane)
                elif retire_cursor != retires:
                    raise RuntimeError(
                        "access/retire alignment broken: lane "
                        f"{lane.prefetcher.name!r} consumed "
                        f"{retire_cursor} of {retires} retire records")
            if declined:
                retire_cursor = _walk_reference(
                    declined, *bundle.decoded_columns(), warmup_boundary)
                if retire_cursor != retires:
                    raise RuntimeError(
                        "access/retire alignment broken: consumed "
                        f"{retire_cursor} of {retires} retire records")

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
            cache_stats=lane.stats,
            baseline_stats=lane.baseline.stats,
        )
        for lane in lanes
    ]
