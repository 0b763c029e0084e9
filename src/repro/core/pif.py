"""Proactive Instruction Fetch: the paper's contribution, assembled.

PIF wires the four hardware structures of Figure 4 around the existing
L1-I:

* the **compactors** (spatial + temporal) watch the back-end's retire
  stream and produce compact spatial-region records;
* the **history buffer** logs the records in FIFO order;
* the **index table** maps trigger PCs to their most recent history
  position — inserted only for *tagged* triggers (fetches the
  prefetcher did not cover), so index entries mark stream heads;
* the **stream address buffers** replay recorded streams, watching the
  front-end's fetches and issuing prefetch requests ahead of them.

Trap-level separation (Section 2.3) is implemented as one complete
channel per trap level: handler streams are recorded and replayed
independently so they neither fragment application streams nor get
fragmented by them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..common.addressing import RegionGeometry
from ..common.config import PIFConfig
from ..prefetch.base import Prefetcher
from .history import HistoryBuffer, IndexTable
from .sab import SABFile
from .spatial import SpatialCompactor, SpatialRegionRecord
from .temporal import TemporalCompactor

#: Fraction of history/index capacity granted to each non-zero trap
#: level when trap-level separation is on.  Handler code is tiny
#: compared to application code; a narrow channel suffices.
_HANDLER_CHANNEL_FRACTION = 8


@dataclass(slots=True)
class PIFChannelStats:
    """Per-trap-level accounting."""

    regions_recorded: int = 0
    index_insertions: int = 0
    stream_allocations: int = 0
    window_advances: int = 0


class _Channel:
    """All PIF state for one trap level."""

    def __init__(self, config: PIFConfig, block_bytes: int,
                 history_entries: int, index_entries: Optional[int]) -> None:
        self.spatial = SpatialCompactor(config.geometry, block_bytes)
        self.temporal = TemporalCompactor(config.temporal_compactor_entries)
        self.history: HistoryBuffer[SpatialRegionRecord] = HistoryBuffer(
            history_entries)
        self.index = IndexTable(index_entries, config.index_associativity)
        self.sabs = SABFile(config.geometry, config.sab_count,
                            config.sab_window_regions, block_bytes)
        self.stats = PIFChannelStats()


class ProactiveInstructionFetch(Prefetcher):
    """The PIF prefetch engine (one per core, as in the paper).

    ``unbounded_index=True`` switches the index table to the unlimited
    variant used in the trace studies; the hardware configuration uses
    the bounded set-associative table from :class:`PIFConfig`.
    """

    def __init__(self, config: Optional[PIFConfig] = None,
                 block_bytes: int = 64,
                 separate_trap_levels: bool = True,
                 unbounded_index: bool = False) -> None:
        super().__init__()
        self.name = "pif"
        self.config = config if config is not None else PIFConfig()
        self.block_bytes = block_bytes
        self.separate_trap_levels = separate_trap_levels
        self.unbounded_index = unbounded_index
        self._channels: Dict[int, _Channel] = {}

    # ------------------------------------------------------------------

    def _channel(self, trap_level: int) -> _Channel:
        key = trap_level if self.separate_trap_levels else 0
        channel = self._channels.get(key)
        if channel is None:
            channel = _Channel(self.config, self.block_bytes,
                               *self.channel_sizes(key))
            self._channels[key] = channel
        return channel

    def channel_sizes(self, key: int) -> Tuple[int, Optional[int]]:
        """(history entries, index entries or None for the unbounded
        index) of the channel with ``key``."""
        shrink = _HANDLER_CHANNEL_FRACTION if key else 1
        history_entries = max(64, self.config.history_entries // shrink)
        if self.unbounded_index:
            return history_entries, None
        ways = self.config.index_associativity
        index_entries = max(ways, self.config.index_entries // shrink)
        # Keep the way count dividing evenly after shrinking.
        index_entries -= index_entries % ways
        return history_entries, max(index_entries, ways)

    # ------------------------------------------------------------------
    # back-end side: record

    def on_retire(self, pc: int, trap_level: int, tagged: bool) -> None:
        """Feed one collapsed retire record through the compactors."""
        key = trap_level if self.separate_trap_levels else 0
        channel = self._channels.get(key)
        if channel is None:
            channel = self._channel(trap_level)
        region = channel.spatial.feed(pc, tagged)
        if region is None:
            return
        self._record(channel, region)

    def _record(self, channel: _Channel, region: SpatialRegionRecord) -> None:
        survivor = channel.temporal.feed(region)
        if survivor is None:
            return
        position = channel.history.append(survivor)
        channel.stats.regions_recorded += 1
        if survivor.tagged:
            channel.index.insert(survivor.trigger_pc, position)
            channel.stats.index_insertions += 1

    # ------------------------------------------------------------------
    # front-end side: predict

    def on_demand_access(self, block: int, pc: int, trap_level: int,
                         hit: bool, was_prefetched: bool) -> List[int]:
        """Advance active streams; on a tagged miss, try to start one.

        Stream allocation follows Section 4.3: the index table is probed
        only for *tagged misses* — fetches that both missed the L1-I and
        were not covered by a prefetch.  Tagged hits merely advance
        active windows; they never allocate.  A window match (even an
        empty head-region match) does not suppress allocation: a tagged
        miss inside a tracked window means the replay fell behind, and
        re-allocating from the most recent history position resyncs it.
        """
        channel = self._channel(trap_level)
        candidates = channel.sabs.advance(channel.history, block)
        if candidates is None:
            candidates = []
        else:
            channel.stats.window_advances += 1
        if not hit and not was_prefetched:
            self.stats.triggers += 1
            start = channel.index.lookup(pc)
            if start is not None:
                candidates += channel.sabs.allocate(channel.history, start)
                channel.stats.stream_allocations += 1
                self.stats.stream_allocations += 1
        # Deduplicate preserving order (a region's trigger block often
        # also arrives via the window slide) so issue counters stay
        # meaningful; the cache would drop the duplicates anyway.
        out = list(dict.fromkeys(candidates))
        self.stats.issued += len(out)
        return out

    # ------------------------------------------------------------------

    def channel_stats(self) -> Dict[int, PIFChannelStats]:
        """Per-trap-level statistics snapshot."""
        return {level: channel.stats
                for level, channel in self._channels.items()}

    def compaction_ratio(self, trap_level: int = 0) -> float:
        """Temporal-compactor discard ratio for one channel."""
        channel = self._channels.get(
            trap_level if self.separate_trap_levels else 0)
        if channel is None:
            return 0.0
        return channel.temporal.compaction_ratio()

    def reset(self) -> None:
        super().reset()
        self._channels = {}

    @property
    def geometry(self) -> RegionGeometry:
        """The configured spatial-region geometry."""
        return self.config.geometry


class AccessOrderPIF(ProactiveInstructionFetch):
    """Ablation: the identical PIF hardware fed the *fetch-order* stream.

    Records from demand accesses (wrong-path noise included, since the
    front-end cannot distinguish it) instead of from retirement.  The
    coverage gap between this variant and the real PIF isolates the
    paper's central claim — that observing retirement, not fetch, is
    what makes the predictor nearly perfect — inside one design.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.name = "pif-access-order"

    def on_retire(self, pc: int, trap_level: int, tagged: bool) -> None:
        """Retirement is invisible to this variant."""

    def on_demand_access(self, block: int, pc: int, trap_level: int,
                         hit: bool, was_prefetched: bool) -> List[int]:
        """Predict as PIF does, then record this fetch."""
        candidates = super().on_demand_access(block, pc, trap_level, hit,
                                              was_prefetched)
        channel = self._channel(trap_level)
        region = channel.spatial.feed(pc, tagged=not was_prefetched)
        if region is not None:
            self._record(channel, region)
        return candidates
