"""Specialized no-prefetch baseline replay over raw trace columns.

Every coverage measurement needs the same denominator: the demand
misses a plain L1-I takes on the access stream with no prefetcher
attached.  The generic :class:`~repro.cache.icache.InstructionCache`
computes it faithfully, but through a method call per access that also
maintains what a baseline never reads (the prefetched/referenced flag
bytes and the prefetch counters).  Being pure bookkeeping with no
prefetch interaction, the baseline is the one part of the replay that
specializes cleanly.

:func:`replay_baseline` walks the columnar access stream once with the
minimal per-set state each replacement policy actually needs (a recency
list for LRU, a fill queue for FIFO, a way table plus the per-set
``Random(0)`` draw sequence for random — matching the cache model's
policy construction exactly) and records a per-access hit flag.  All
counting is then vectorized over that flag array: warmup windowing,
correct-path filtering and per-trap-level miss counts become numpy mask
reductions (:func:`count_measured_misses`) instead of per-access branch
work.

The contract is bit-identical results: the hit flags, the
:class:`~repro.cache.stats.CacheStats` counters, and the derived miss
counts all equal what an ``InstructionCache`` walk over the object view
produces (``tests/sim/test_baseline.py`` locks this against the real
cache model).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cache.stats import CacheStats
from ..common.config import CacheConfig
from ..trace.bundle import TraceBundle


@dataclass(slots=True)
class BaselineReplay:
    """Outcome of one no-prefetch replay of an access stream."""

    #: Per-access demand-hit flag, aligned with the access columns.
    hits: np.ndarray
    #: Whole-trace cache counters (prefetch counters are all zero).
    stats: CacheStats


# reprolint: hot
def _replay_lru(blocks: List[int], n_sets: int, ways: int,
                hits: np.ndarray) -> int:
    """LRU replay; returns the eviction count and fills ``hits``."""
    sets: List[List[int]] = [[] for _ in range(n_sets)]
    evictions = 0
    for position, block in enumerate(blocks):
        lines = sets[block % n_sets]
        if block in lines:
            hits[position] = True
            if lines[-1] != block:
                lines.remove(block)
                lines.append(block)
        else:
            if len(lines) == ways:
                del lines[0]
                evictions += 1
            lines.append(block)
    return evictions


# reprolint: hot
def _replay_fifo(blocks: List[int], n_sets: int, ways: int,
                 hits: np.ndarray) -> int:
    """FIFO replay: hits do not promote; victim is the oldest fill."""
    sets: List[List[int]] = [[] for _ in range(n_sets)]
    evictions = 0
    for position, block in enumerate(blocks):
        lines = sets[block % n_sets]
        if block in lines:
            hits[position] = True
        else:
            if len(lines) == ways:
                del lines[0]
                evictions += 1
            lines.append(block)
    return evictions


# reprolint: hot
def _replay_random(blocks: List[int], n_sets: int, ways: int,
                   hits: np.ndarray) -> int:
    """Random replay, reproducing the cache model's draw sequence.

    The cache model gives each set an independent ``Random(0)`` and
    fills free ways lowest-index first.  Both details are replicated so
    the victim sequence — and therefore every hit flag — matches.
    """
    way_blocks: List[List[Optional[int]]] = [[None] * ways
                                             for _ in range(n_sets)]
    rngs = [random.Random(0) for _ in range(n_sets)]
    evictions = 0
    for position, block in enumerate(blocks):
        index = block % n_sets
        slots = way_blocks[index]
        if block in slots:
            hits[position] = True
        else:
            try:
                way = slots.index(None)
            except ValueError:
                way = rngs[index].randrange(ways)
                evictions += 1
            slots[way] = block
    return evictions


def replay_baseline(bundle: TraceBundle,
                    config: Optional[CacheConfig] = None) -> BaselineReplay:
    """Replay ``bundle``'s access stream through a no-prefetch cache.

    Bit-identical to driving :class:`~repro.cache.icache.InstructionCache`
    over every access: same hit flags, same counters.
    """
    cache_config = config if config is not None else CacheConfig()
    blocks = bundle.access_block.tolist()
    hits = np.zeros(len(blocks), dtype=np.bool_)
    n_sets, ways = cache_config.n_sets, cache_config.associativity
    if cache_config.replacement == "lru":
        evictions = _replay_lru(blocks, n_sets, ways, hits)
    elif cache_config.replacement == "fifo":
        evictions = _replay_fifo(blocks, n_sets, ways, hits)
    elif cache_config.replacement == "random":
        evictions = _replay_random(blocks, n_sets, ways, hits)
    else:
        raise ValueError(
            f"unknown replacement policy {cache_config.replacement!r}")
    stats = CacheStats()
    stats.demand_accesses = len(blocks)
    stats.demand_hits = int(np.count_nonzero(hits))
    stats.demand_misses = stats.demand_accesses - stats.demand_hits
    stats.evictions = evictions
    return BaselineReplay(hits=hits, stats=stats)


# ---------------------------------------------------------------------------
# Cross-point baseline memoization (sweep-scale execution engine).
#
# A no-prefetch baseline depends only on (trace content, cache geometry,
# replacement policy, warmup window) — nothing a prefetch engine does
# can change it.  Engine-axis sweeps and lane shards therefore replay
# identical baselines over and over; `measured_baseline` collapses them
# to one replay per key per process, and its export/seed helpers let
# the sweep runner persist entries in an on-disk sidecar next to the
# results store so later runs (and sibling workers) skip even that.


@dataclass(slots=True, frozen=True)
class MeasuredBaseline:
    """The derived outcome of one no-prefetch baseline replay.

    Immutable value object: ``stats()`` materializes a fresh
    :class:`CacheStats` per caller so no consumer can mutate a shared
    instance.  ``per_level`` maps trap level to measured-window miss
    count (stored as a sorted tuple so the object is hashable and
    JSON-stable).
    """

    misses: int
    per_level: Tuple[Tuple[int, int], ...]
    demand_accesses: int
    demand_hits: int
    evictions: int

    def stats(self) -> CacheStats:
        """Whole-trace cache counters, as the replay produced them."""
        return CacheStats(
            demand_accesses=self.demand_accesses,
            demand_hits=self.demand_hits,
            demand_misses=self.demand_accesses - self.demand_hits,
            evictions=self.evictions,
        )

    def to_json(self) -> Dict[str, object]:
        """JSON-able form for the on-disk sidecar."""
        return {
            "misses": self.misses,
            "per_level": {str(level): count
                          for level, count in self.per_level},
            "demand_accesses": self.demand_accesses,
            "demand_hits": self.demand_hits,
            "evictions": self.evictions,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> MeasuredBaseline:
        """Inverse of :meth:`to_json`; raises KeyError/ValueError on
        malformed payloads (callers treat those as cache misses)."""
        per_level = tuple(sorted(
            (int(level), int(count))
            for level, count in dict(payload["per_level"]).items()))
        return cls(misses=int(payload["misses"]), per_level=per_level,
                   demand_accesses=int(payload["demand_accesses"]),
                   demand_hits=int(payload["demand_hits"]),
                   evictions=int(payload["evictions"]))


_derivation_hash_cache: Optional[str] = None


def baseline_derivation_hash() -> str:
    """Short digest over this module's source — the replay semantics.

    Folded into every memo key so *persisted* entries (the sweep
    sidecar) can never outlive the algorithm that derived them: editing
    the replay code changes the key and stale sidecar lines silently
    stop matching, exactly like the trace store's generator-version
    hash.
    """
    global _derivation_hash_cache
    if _derivation_hash_cache is None:
        import hashlib
        from pathlib import Path

        _derivation_hash_cache = hashlib.sha256(
            Path(__file__).read_bytes()).hexdigest()[:8]
    return _derivation_hash_cache


def baseline_memo_key(content_hash: str, config: CacheConfig,
                      warmup_fraction: float) -> str:
    """The stable string key a baseline is memoized (and persisted)
    under: trace content hash + full cache geometry + warmup window +
    replay-derivation hash."""
    return (f"{content_hash}:{config.capacity_bytes}:{config.associativity}"
            f":{config.block_bytes}:{config.replacement}:{warmup_fraction!r}"
            f":d{baseline_derivation_hash()}")


#: Process-wide memo: sidecar-seeded and freshly computed baselines.
_BASELINE_MEMO: Dict[str, MeasuredBaseline] = {}


def measured_baseline(bundle: TraceBundle,
                      config: Optional[CacheConfig] = None,
                      warmup_fraction: float = 0.25) -> MeasuredBaseline:
    """The memoized measured-window baseline for (bundle, config, warmup).

    Lookup order: the bundle's derived-value cache (no hashing needed),
    then the process-wide memo keyed by trace content hash (hit when a
    sidecar seeded the entry or another bundle instance computed it),
    then a real :func:`replay_baseline` pass.  Results are bit-identical
    to the direct replay in every case — the memo stores only derived
    counts, and the replay itself stays the single source of truth.
    """
    cache_config = config if config is not None else CacheConfig()
    derived = bundle.derived_cache()
    local_key = ("baseline", cache_config, warmup_fraction)
    measured = derived.get(local_key)
    memo_key = baseline_memo_key(bundle.content_hash(), cache_config,
                                 warmup_fraction)
    if measured is not None:
        # Mirror derived-cache hits into the exportable memo so sidecar
        # snapshots stay complete even when the bundle was warm.
        if memo_key not in _BASELINE_MEMO:
            _BASELINE_MEMO[memo_key] = measured
        return measured
    measured = _BASELINE_MEMO.get(memo_key)
    if measured is None:
        replay = replay_baseline(bundle, cache_config)
        misses, per_level = count_measured_misses(bundle, replay.hits,
                                                  warmup_fraction)
        measured = MeasuredBaseline(
            misses=misses,
            per_level=tuple(sorted(per_level.items())),
            demand_accesses=replay.stats.demand_accesses,
            demand_hits=replay.stats.demand_hits,
            evictions=replay.stats.evictions,
        )
        _BASELINE_MEMO[memo_key] = measured
    derived[local_key] = measured
    return measured


def seed_baseline_memo(entries: Dict[str, Dict[str, object]]) -> int:
    """Install sidecar entries into the process-wide memo.

    Malformed entries are skipped (the baseline is simply recomputed);
    returns the number installed.  Existing keys are left untouched —
    a computed entry and its sidecar copy are identical by construction.
    """
    installed = 0
    for memo_key, payload in entries.items():
        if memo_key in _BASELINE_MEMO:
            continue
        try:
            _BASELINE_MEMO[memo_key] = MeasuredBaseline.from_json(payload)
        except (KeyError, TypeError, ValueError):
            continue
        installed += 1
    return installed


def export_baseline_memo(content_hash: str
                         ) -> Dict[str, Dict[str, object]]:
    """Snapshot one trace's entries of the process-wide memo in
    sidecar (JSON) form.

    Memo keys are prefixed by the trace content hash, so scoping by it
    is what keeps a long-lived worker from leaking baselines belonging
    to other traces or other sweeps into a results directory's sidecar.
    """
    prefix = content_hash + ":"
    return {memo_key: measured.to_json()
            for memo_key, measured in _BASELINE_MEMO.items()
            if memo_key.startswith(prefix)}


def clear_baseline_memo() -> None:
    """Drop the process-wide memo (tests and benchmark isolation)."""
    _BASELINE_MEMO.clear()


def count_measured_misses(bundle: TraceBundle, hits: np.ndarray,
                          warmup_fraction: float
                          ) -> Tuple[int, Dict[int, int]]:
    """Correct-path demand misses inside the measurement window.

    Vectorized equivalent of the per-access accounting the trace walk
    used to do: an access counts when it missed, is on the correct
    path, and falls at or after the warmup boundary.  Returns the total
    and the per-trap-level split.
    """
    counted = ~hits & ~bundle.access_wrong_path  # fresh array; safe to mask
    boundary = int(len(hits) * warmup_fraction)
    if boundary:
        counted[:boundary] = False
    misses = int(np.count_nonzero(counted))
    levels, counts = np.unique(bundle.access_trap[counted],
                               return_counts=True)
    per_level = {int(level): int(count)
                 for level, count in zip(levels, counts)}
    return misses, per_level
