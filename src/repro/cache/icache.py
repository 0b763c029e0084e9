"""Set-associative instruction-cache model (the object model).

Functional (non-timed) model of the paper's 64 KB 2-way L1-I.  It tracks
a *prefetched* bit per resident block — the tag the PIF design threads
from the fetch stage to the compactors ("instructions that were not
explicitly prefetched are tagged at the fetch stage", Section 4.2) — and
all the counters needed for accuracy/coverage reporting.

The model is deliberately simple: per-set ``dict`` tag stores, one
:class:`~repro.cache.replacement.ReplacementPolicy` object per set, a
`_Line` dataclass per resident block.  It is the cache of the reference
walks in :mod:`repro.sim.engine` and :mod:`repro.sim.timing`, and the
semantics the native walks (``sim/_walk.c``) reproduce bit for bit for
every associativity and replacement policy (``tests/sim/test_native.py``
and the kernel-equivalence suites lock the two planes together).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..common.config import CacheConfig
from .replacement import ReplacementPolicy, make_policy
from .stats import CacheStats


@dataclass(slots=True)
class AccessResult:
    """Outcome of one demand access.

    ``was_prefetched`` is True when the access hit a block the
    prefetcher installed and that had not yet been demanded — exactly
    the complement of the PIF trigger tag.
    """

    hit: bool
    was_prefetched: bool

    @property
    def tagged(self) -> bool:
        """The PIF fetch-stage tag: set when the fetch was *not* served
        by a prefetch (Section 4.2)."""
        return not self.was_prefetched


@dataclass(slots=True)
class _Line:
    block: int
    prefetched: bool
    referenced: bool


class InstructionCache:
    """A set-associative cache of instruction blocks.

    The model is functional: a miss is recorded and the block is
    (optionally) filled immediately; timing is layered on by
    :mod:`repro.sim.timing`.  All addresses are *block* addresses — the
    callers do the PC-to-block mapping.
    """

    def __init__(self, config: Optional[CacheConfig] = None) -> None:
        self.config = config if config is not None else CacheConfig()
        self.stats = CacheStats()
        self._n_sets = self.config.n_sets
        self._ways = self.config.associativity
        self._sets: List[Dict[int, _Line]] = [dict() for _ in range(self._n_sets)]
        self._policies: List[ReplacementPolicy] = [
            make_policy(self.config.replacement, self._ways)
            for _ in range(self._n_sets)
        ]
        self._way_of: List[Dict[int, int]] = [dict() for _ in range(self._n_sets)]

    def set_index(self, block: int) -> int:
        """Set an instruction block maps to."""
        return block % self._n_sets

    def contains(self, block: int) -> bool:
        """Presence probe with no side effects (used by prefetch filtering)."""
        return block in self._sets[self.set_index(block)]

    def access(self, block: int, fill_on_miss: bool = True) -> AccessResult:
        """Demand access for ``block``; updates replacement and counters.

        On a miss the block is filled immediately when ``fill_on_miss``
        (the functional-model default); timing simulators pass False and
        manage fills themselves.
        """
        index = self.set_index(block)
        lines = self._sets[index]
        self.stats.demand_accesses += 1
        line = lines.get(block)
        if line is not None:
            self.stats.demand_hits += 1
            was_prefetched = line.prefetched and not line.referenced
            if was_prefetched:
                self.stats.useful_prefetches += 1
            line.referenced = True
            self._policies[index].on_access(self._way_of[index][block])
            return AccessResult(hit=True, was_prefetched=was_prefetched)
        self.stats.demand_misses += 1
        if fill_on_miss:
            self._fill(block, prefetched=False)
        return AccessResult(hit=False, was_prefetched=False)

    def prefetch(self, block: int) -> bool:
        """Install ``block`` on behalf of a prefetcher.

        Probes first — "predictions first probe the instruction cache to
        confirm that the block is not present" (Section 4.3) — and
        returns True only if a fill actually happened.
        """
        self.stats.prefetch_requests += 1
        if self.contains(block):
            self.stats.prefetch_drops_present += 1
            return False
        self._fill(block, prefetched=True)
        self.stats.prefetch_fills += 1
        return True

    def fill(self, block: int, prefetched: bool = False) -> Optional[int]:
        """Explicit fill used by timing simulators; returns the evicted
        block, if any."""
        return self._fill(block, prefetched)

    def invalidate(self, block: int) -> bool:
        """Remove ``block`` if present (True if it was resident)."""
        index = self.set_index(block)
        lines = self._sets[index]
        if block not in lines:
            return False
        way = self._way_of[index].pop(block)
        del lines[block]
        self._policies[index].on_invalidate(way)
        return True

    def resident_blocks(self) -> List[int]:
        """All resident block addresses (unordered; for tests/tools)."""
        blocks: List[int] = []
        for lines in self._sets:
            blocks.extend(lines.keys())
        return blocks

    def _free_ways_of(self, index: int) -> List[int]:
        used = set(self._way_of[index].values())
        return [way for way in range(self._ways) if way not in used]

    def _fill(self, block: int, prefetched: bool) -> Optional[int]:
        index = self.set_index(block)
        lines = self._sets[index]
        if block in lines:
            # Refill of a resident block: refresh recency only.
            self._policies[index].on_fill(self._way_of[index][block])
            return None
        evicted_block: Optional[int] = None
        free = self._free_ways_of(index)
        if free:
            way = free[0]
        else:
            way = self._policies[index].victim()
            evicted_block = self._victim_block(index, way)
            evicted_line = lines.pop(evicted_block)
            del self._way_of[index][evicted_block]
            self.stats.evictions += 1
            if evicted_line.prefetched and not evicted_line.referenced:
                self.stats.evicted_unused_prefetches += 1
        lines[block] = _Line(block=block, prefetched=prefetched, referenced=False)
        self._way_of[index][block] = way
        self._policies[index].on_fill(way)
        return evicted_block

    def _victim_block(self, index: int, way: int) -> int:
        for block, block_way in self._way_of[index].items():
            if block_way == way:
                return block
        raise RuntimeError(f"victim way {way} of set {index} holds no block")
