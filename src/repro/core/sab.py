"""Stream address buffers (Section 4.3, Figure 6).

An SAB is one active replay of a recorded stream: it holds a window of
consecutive spatial-region records read from the history buffer, watches
the core's L1-I fetches, and advances its history pointer whenever a
fetch lands inside the window — issuing prefetches for the records that
slide into view.  A small file of SABs, most-recently-matched first,
supports several concurrent streams (the paper uses four, each tracking
seven regions).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..common.addressing import RegionGeometry
from .history import HistoryBuffer
from .spatial import SpatialRegionRecord


#: Entries kept in a shared record->blocks memo before it is dropped
#: wholesale (records recycle as the history wraps, so the memo cannot
#: grow without bound).
_BLOCK_CACHE_LIMIT = 1 << 16


class StreamAddressBuffer:
    """One active prediction stream.

    ``block_cache`` memoizes :meth:`SpatialRegionRecord.blocks` per
    record — the decode is pure (records are immutable tuples and the
    geometry is fixed per file) and windows re-read the same history
    records on every slide, so the owning :class:`SABFile` shares one
    cache across its SABs.  Cached lists are never mutated.
    """

    def __init__(self, geometry: RegionGeometry, window_regions: int,
                 block_bytes: int = 64,
                 block_cache: Optional[Dict[SpatialRegionRecord,
                                            List[int]]] = None) -> None:
        if window_regions <= 0:
            raise ValueError("window_regions must be positive")
        self.geometry = geometry
        self.window_regions = window_regions
        self.block_bytes = block_bytes
        self._block_cache = block_cache if block_cache is not None else {}
        #: Next history position to read when the window slides.
        self.pointer = 0
        #: Window entries: (history position, record).
        self.window: List[Tuple[int, SpatialRegionRecord]] = []
        #: block address -> index of the first window region covering it.
        self._block_map: Dict[int, int] = {}
        self.matches = 0
        self.regions_replayed = 0

    # ------------------------------------------------------------------

    def allocate(self, history: HistoryBuffer[SpatialRegionRecord],
                 start_position: int) -> List[int]:
        """Point the SAB at ``start_position`` and fill the window.

        Returns the block addresses of the initial window, in replay
        order — the initial prefetch burst.
        """
        self.pointer = start_position
        self.window = []
        self._block_map = {}
        return self._refill(history)

    def covers(self, block: int) -> bool:
        """True if ``block`` is inside the current window."""
        return block in self._block_map

    def advance(self, history: HistoryBuffer[SpatialRegionRecord],
                block: int) -> Optional[List[int]]:
        """Advance past ``block`` if it matches the window.

        Returns new prefetch candidates (possibly empty) on a match,
        None when the block is not part of this stream.
        """
        slot = self._block_map.get(block)
        if slot is None:
            return None
        self.matches += 1
        if slot == 0:
            # Still in the head region: the pointer does not move.
            return []
        self.window = self.window[slot:]
        self._rebuild_block_map()
        return self._refill(history)

    # ------------------------------------------------------------------

    def _blocks_of(self, record: SpatialRegionRecord) -> List[int]:
        """Memoized record decode; the returned list is shared, read-only."""
        cache = self._block_cache
        blocks = cache.get(record)
        if blocks is None:
            if len(cache) >= _BLOCK_CACHE_LIMIT:
                cache.clear()
            blocks = record.blocks(self.geometry, self.block_bytes)
            cache[record] = blocks
        return blocks

    def _refill(self, history: HistoryBuffer[SpatialRegionRecord]
                ) -> List[int]:
        """Read records at ``pointer`` until the window is full; return
        the blocks of the newly read records in replay order."""
        out: List[int] = []
        needed = self.window_regions - len(self.window)
        if needed <= 0:
            return out
        run = history.read_run(self.pointer, needed)
        window = self.window
        setdefault = self._block_map.setdefault
        for position, record in run:
            slot = len(window)
            window.append((position, record))
            self.regions_replayed += 1
            for block in self._blocks_of(record):
                setdefault(block, slot)
                out.append(block)
        if run:
            self.pointer = run[-1][0] + 1
        return out

    def _rebuild_block_map(self) -> None:
        self._block_map = block_map = {}
        setdefault = block_map.setdefault
        for slot, (_, record) in enumerate(self.window):
            for block in self._blocks_of(record):
                setdefault(block, slot)


class SABFile:
    """The file of concurrent SABs with LRU replacement.

    Stored as a plain list, most-recently-matched first — the file holds
    four entries, so ordered scans beat any keyed structure and the
    per-fetch probe allocates nothing.
    """

    def __init__(self, geometry: RegionGeometry, count: int = 4,
                 window_regions: int = 7, block_bytes: int = 64) -> None:
        if count <= 0:
            raise ValueError("need at least one SAB")
        self.geometry = geometry
        self.count = count
        self.window_regions = window_regions
        self.block_bytes = block_bytes
        self._sabs: List[StreamAddressBuffer] = []
        self._block_cache: Dict[SpatialRegionRecord, List[int]] = {}
        self.allocations = 0

    def advance(self, history: HistoryBuffer[SpatialRegionRecord],
                block: int) -> Optional[List[int]]:
        """Offer a fetched block to every active SAB (MRU first).

        Returns the new prefetch candidates from the first SAB that
        matches, or None when no active stream covers the block.
        """
        sabs = self._sabs
        for position, sab in enumerate(sabs):
            blocks = sab.advance(history, block)
            if blocks is None:
                continue
            if position:
                del sabs[position]
                sabs.insert(0, sab)
            return blocks
        return None

    def allocate(self, history: HistoryBuffer[SpatialRegionRecord],
                 start_position: int) -> List[int]:
        """Start a new stream, evicting the LRU SAB if the file is full;
        returns its initial burst."""
        self.allocations += 1
        sab = StreamAddressBuffer(self.geometry, self.window_regions,
                                  self.block_bytes, self._block_cache)
        blocks = sab.allocate(history, start_position)
        sabs = self._sabs
        if len(sabs) >= self.count:
            sabs.pop()
        sabs.insert(0, sab)
        return blocks

    def active_streams(self) -> List[StreamAddressBuffer]:
        """Current SABs, MRU first (for tests and introspection)."""
        return list(self._sabs)

    def reset(self) -> None:
        """Drop all active streams."""
        self._sabs = []
