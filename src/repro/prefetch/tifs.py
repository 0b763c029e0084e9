"""Temporal Instruction Fetch Streaming (TIFS), Ferdman et al., MICRO'08.

The state-of-the-art temporal instruction prefetcher the paper compares
against (Section 5.5).  TIFS records the L1-I *miss* stream — one block
address per record, GHB-style — and on a miss whose address has been
seen before, replays the subsequent recorded addresses.

Its two structural handicaps versus PIF are intrinsic to what it
observes, not to its sizing (and we therefore reproduce them, not fix
them):

* the recorded stream is the *miss* stream, already filtered and
  fragmented by the instruction cache (Section 2.1);
* fetch-side misses include wrong-path references injected by branch
  mispredictions (Section 2.2).

Following the TIFS design, the log records "would-be misses": real
demand misses plus first demand hits on prefetched blocks, so the
prefetcher's own success does not erase its training data.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.history import HistoryBuffer, IndexTable
from .base import Prefetcher


class _MissStream:
    """One active replay of the recorded miss stream."""

    __slots__ = ("pointer", "window")

    def __init__(self, pointer: int, window: List[int]) -> None:
        self.pointer = pointer
        self.window = window


class TIFSPrefetcher(Prefetcher):
    """Temporal streaming over the (would-be) miss stream.

    Parameters mirror PIF's so head-to-head comparisons vary only the
    observed stream and record granularity: ``history_blocks`` is the
    instruction-miss log capacity, ``streams`` the number of concurrent
    stream queues, ``window_blocks`` the per-stream lookahead.
    """

    def __init__(self, history_blocks: int = 32 * 1024 * 8,
                 index_entries: Optional[int] = None,
                 streams: int = 4, window_blocks: int = 12) -> None:
        super().__init__()
        if streams <= 0 or window_blocks <= 0:
            raise ValueError("streams and window must be positive")
        self.name = "tifs"
        self.history: HistoryBuffer[int] = HistoryBuffer(history_blocks)
        self.index = IndexTable(index_entries)
        self.window_blocks = window_blocks
        #: Active replays, most-recently-used first (the LRU file of
        #: stream queues, kept as a plain list so the per-access scan
        #: allocates nothing).
        self._streams: List[_MissStream] = []
        self._stream_capacity = streams

    # ------------------------------------------------------------------

    def on_demand_access(self, block: int, pc: int, trap_level: int,
                         hit: bool, was_prefetched: bool) -> List[int]:
        out: List[int] = []
        # Advance the first (MRU-first) stream whose window has the
        # block.
        matched = False
        streams = self._streams
        for position, stream in enumerate(streams):
            window = stream.window
            if block in window:
                stream.pointer += window.index(block) + 1
                self._refill(stream, out)
                if position:
                    del streams[position]
                    streams.insert(0, stream)
                matched = True
                break
        would_be_miss = (not hit) or (hit and was_prefetched)
        if would_be_miss:
            position = self.history.append(block)
            previous = self.index.lookup(block)
            self.index.insert(block, position)
            if not hit and not matched and previous is not None:
                self._allocate(previous + 1, out)
        self.stats.issued += len(out)
        return out

    # ------------------------------------------------------------------

    def _allocate(self, pointer: int, prefetches: List[int]) -> None:
        self.stats.triggers += 1
        self.stats.stream_allocations += 1
        stream = _MissStream(pointer, [])
        self._refill(stream, prefetches)
        if stream.window:
            streams = self._streams
            if len(streams) >= self._stream_capacity:
                streams.pop()
            streams.insert(0, stream)

    def _refill(self, stream: _MissStream, prefetches: List[int]) -> None:
        """Re-read the lookahead window at the stream's pointer and queue
        prefetches for addresses newly entering the window."""
        new_window = self.history.read_run_values(stream.pointer,
                                                  self.window_blocks)
        old_window = stream.window
        for address in new_window:
            if address not in old_window:
                prefetches.append(address)
        stream.window = new_window

    def reset(self) -> None:
        super().reset()
        self.history = HistoryBuffer(self.history.capacity)
        self.index = IndexTable(self.index.capacity, self.index.associativity)
        self._streams = []
