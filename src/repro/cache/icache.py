"""Set-associative instruction-cache model (flat-array fast kernel).

Functional (non-timed) model of the paper's 64 KB 2-way L1-I.  It tracks
a *prefetched* bit per resident block — the tag the PIF design threads
from the fetch stage to the compactors ("instructions that were not
explicitly prefetched are tagged at the fetch stage", Section 4.2) — and
all the counters needed for accuracy/coverage reporting.

This is the hot core of every simulation, so the state layout is flat:
one slot per (set, way) across three parallel arrays — a tag list, a
packed prefetched/referenced flag byte, and a recency stamp — instead
of per-set dictionaries of line objects with a replacement-policy object
per set.  LRU and FIFO are inlined as monotonic timestamps (LRU stamps
on access and fill, FIFO on fill only; the victim is the minimum stamp
in the set), and the random policy keeps the per-set ``Random(0)`` draw
sequence of :class:`~repro.cache.replacement.RandomPolicy`.  The
steady-state demand path, :meth:`InstructionCache.access_fast`, performs
no allocation at all: it returns one of the integer result codes below.

The object-model original lives on as
:class:`repro.cache.reference.ReferenceInstructionCache`; the two are
kept bit-identical by the differential suites in ``tests/cache`` and
``tests/sim``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..common.config import CacheConfig
from .stats import CacheStats

#: ``access_fast`` result codes.  ``HIT_PREFETCHED`` marks the *first*
#: demand hit on a block a prefetcher installed — the complement of the
#: PIF fetch-stage tag (``tagged == code != HIT_PREFETCHED``).
MISS = 0
HIT = 1
HIT_PREFETCHED = 2

#: Flag-byte bits: bit 0 = installed by a prefetch, bit 1 = demanded
#: since install.  A flag byte of exactly ``_PREFETCHED`` therefore
#: identifies an unused prefetch.
_PREFETCHED = 1
_REFERENCED = 2


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


class InstructionCache:
    """A set-associative cache of instruction blocks.

    The model is functional: a miss is recorded and the block is
    (optionally) filled immediately; timing is layered on by
    :mod:`repro.sim.timing`.  All addresses are *block* addresses — the
    callers do the PC-to-block mapping.

    Hot-path callers use :meth:`access_fast` (returns a result code and
    allocates nothing); :meth:`access` wraps it in an
    :class:`AccessResult` for external consumers.
    """

    def __init__(self, config: Optional[CacheConfig] = None) -> None:
        self.config = config if config is not None else CacheConfig()
        self.stats = CacheStats()
        self._n_sets = self.config.n_sets
        self._ways = self.config.associativity
        n_slots = self._n_sets * self._ways
        #: Resident block per slot; None marks a free way.  (None, not a
        #: numeric sentinel: block addresses are unconstrained ints —
        #: stride prefetchers can legitimately probe negative blocks.)
        self._tags: List[Optional[int]] = [None] * n_slots
        self._flags = bytearray(n_slots)
        self._stamps = [0] * n_slots
        self._tick = 0
        replacement = self.config.replacement
        if replacement == "random":
            # One RNG per set, matching the policy objects the reference
            # model builds (Random(0) each).
            self._rngs: Optional[List[random.Random]] = [
                random.Random(0) for _ in range(self._n_sets)]
        else:
            self._rngs = None
        # Two-way LRU/FIFO (the paper's L1-I geometry) collapses recency
        # to a single "most recent way" byte per set: the victim is the
        # other way.  The general stamp machinery serves the remaining
        # (associativity, policy) combinations.  _mru doubles as the
        # capability flag the engine checks before selecting its inlined
        # 2-way lane walk — both planes share this one structure.
        self._mru: Optional[bytearray] = None
        self._mru_on_access = False
        if self._ways == 2 and replacement in ("lru", "fifo"):
            self._mru = bytearray(self._n_sets)
            self._mru_on_access = replacement == "lru"
            self._stamp_on_access = False
            self._stamp_on_fill = False
        else:
            self._stamp_on_access = replacement == "lru"
            self._stamp_on_fill = replacement in ("lru", "fifo")

    def set_index(self, block: int) -> int:
        """Set an instruction block maps to."""
        return block % self._n_sets

    def contains(self, block: int) -> bool:
        """Presence probe with no side effects (used by prefetch filtering)."""
        tags = self._tags
        slot = (block % self._n_sets) * self._ways
        end = slot + self._ways
        while slot < end:
            if tags[slot] == block:
                return True
            slot += 1
        return False

    def access_fast(self, block: int, fill_on_miss: bool = True) -> int:
        """Demand access returning a result code; allocation-free.

        Returns :data:`MISS`, :data:`HIT` or :data:`HIT_PREFETCHED`,
        with exactly the state transitions and counter updates of
        :meth:`access`.  On a miss the block is filled immediately when
        ``fill_on_miss`` (the functional-model default); timing
        simulators pass False and manage fills themselves.
        """
        stats = self.stats
        stats.demand_accesses += 1
        index = block % self._n_sets
        slot = index * self._ways
        end = slot + self._ways
        tags = self._tags
        base = slot
        while slot < end:
            if tags[slot] == block:
                stats.demand_hits += 1
                if self._mru_on_access:
                    self._mru[index] = slot - base
                elif self._stamp_on_access:
                    self._tick = tick = self._tick + 1
                    self._stamps[slot] = tick
                flags = self._flags
                state = flags[slot]
                if state == _PREFETCHED:
                    flags[slot] = _PREFETCHED | _REFERENCED
                    stats.useful_prefetches += 1
                    return 2
                flags[slot] = state | _REFERENCED
                return 1
            slot += 1
        stats.demand_misses += 1
        if fill_on_miss:
            self._install(block, index, 0)
        return 0

    def access(self, block: int, fill_on_miss: bool = True) -> AccessResult:
        """Demand access for ``block``; updates replacement and counters.

        Object-API wrapper over :meth:`access_fast` for external
        callers; simulation hot loops use the code path directly.
        """
        code = self.access_fast(block, fill_on_miss)
        if code == 0:
            return AccessResult(hit=False, was_prefetched=False)
        return AccessResult(hit=True, was_prefetched=code == 2)

    def prefetch(self, block: int) -> bool:
        """Install ``block`` on behalf of a prefetcher.

        Probes first — "predictions first probe the instruction cache to
        confirm that the block is not present" (Section 4.3) — and
        returns True only if a fill actually happened.  The probe and
        the fill share one set lookup.
        """
        stats = self.stats
        stats.prefetch_requests += 1
        index = block % self._n_sets
        slot = index * self._ways
        end = slot + self._ways
        tags = self._tags
        while slot < end:
            if tags[slot] == block:
                stats.prefetch_drops_present += 1
                return False
            slot += 1
        self._install(block, index, _PREFETCHED)
        stats.prefetch_fills += 1
        return True

    def fill(self, block: int, prefetched: bool = False) -> Optional[int]:
        """Explicit fill used by timing simulators; returns the evicted
        block, if any."""
        index = block % self._n_sets
        slot = index * self._ways
        end = slot + self._ways
        tags = self._tags
        base = slot
        while slot < end:
            if tags[slot] == block:
                # Refill of a resident block: refresh recency only.
                if self._mru is not None:
                    self._mru[index] = slot - base
                elif self._stamp_on_fill:
                    self._tick = tick = self._tick + 1
                    self._stamps[slot] = tick
                return None
            slot += 1
        return self._install(block, index, _PREFETCHED if prefetched else 0)

    def invalidate(self, block: int) -> bool:
        """Remove ``block`` if present (True if it was resident)."""
        tags = self._tags
        slot = (block % self._n_sets) * self._ways
        end = slot + self._ways
        while slot < end:
            if tags[slot] == block:
                tags[slot] = None
                self._flags[slot] = 0
                return True
            slot += 1
        return False

    def resident_blocks(self) -> List[int]:
        """All resident block addresses (unordered; for tests/tools)."""
        return [block for block in self._tags if block is not None]

    def _install(self, block: int, index: int, flag: int) -> Optional[int]:
        """Fill ``block`` into its set; the caller has established that
        the block is absent.  Returns the evicted block, if any."""
        base = index * self._ways
        end = base + self._ways
        tags = self._tags
        # Free ways fill lowest-index first (the reference model's
        # ``_free_ways_of`` order).
        slot = base
        while slot < end:
            if tags[slot] is None:
                break
            slot += 1
        evicted: Optional[int] = None
        mru = self._mru
        if slot == end:
            if mru is not None:
                slot = base + 1 - mru[index]
            else:
                rngs = self._rngs
                if rngs is not None:
                    slot = base + rngs[index].randrange(self._ways)
                else:
                    stamps = self._stamps
                    slot = base
                    best = stamps[base]
                    probe = base + 1
                    while probe < end:
                        if stamps[probe] < best:
                            best = stamps[probe]
                            slot = probe
                        probe += 1
            evicted = tags[slot]
            stats = self.stats
            stats.evictions += 1
            if self._flags[slot] == _PREFETCHED:
                stats.evicted_unused_prefetches += 1
        tags[slot] = block
        self._flags[slot] = flag
        if mru is not None:
            mru[index] = slot - base
        elif self._stamp_on_fill:
            self._tick = tick = self._tick + 1
            self._stamps[slot] = tick
        return evicted
