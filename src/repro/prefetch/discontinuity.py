"""The discontinuity prefetcher (Spracklen et al., HPCA'05).

Records one non-sequential transition per source block: when a demand
miss at block ``B`` follows an access to block ``A`` with ``B != A+1``,
the table learns ``A -> B``.  On a later access to ``A``, the recorded
discontinuity target is prefetched alongside next lines.  Its lookahead
is structurally limited to a single transition (Section 6 of the paper),
which is the contrast PIF's unbounded stream-following draws against.
"""

from __future__ import annotations

from typing import List, Optional

from ..common.lru import LRUCache
from .base import Prefetcher


class DiscontinuityPrefetcher(Prefetcher):
    """One-transition discontinuity table plus next-line assist."""

    def __init__(self, table_entries: int = 4 * 1024,
                 next_line_degree: int = 2) -> None:
        super().__init__()
        if table_entries <= 0:
            raise ValueError("table_entries must be positive")
        if next_line_degree < 0:
            raise ValueError("next_line_degree cannot be negative")
        self.name = "discontinuity"
        self.next_line_degree = next_line_degree
        self._table: LRUCache[int, int] = LRUCache(table_entries)
        self._previous_block: Optional[int] = None

    def on_demand_access(self, block: int, pc: int, trap_level: int,
                         hit: bool, was_prefetched: bool) -> List[int]:
        previous = self._previous_block
        out: List[int] = []
        if previous is not None and previous != block:
            if not hit and block != previous + 1:
                # Learn the discontinuity edge previous -> block.
                self._table.put(previous, block)
            target = self._table.get(block)
            self.stats.triggers += 1
            out = list(range(block + 1, block + self.next_line_degree + 1))
            if target is not None:
                out += (target, target + 1)
            self.stats.issued += len(out)
        self._previous_block = block
        return out

    def reset(self) -> None:
        super().reset()
        self._table.clear()
        self._previous_block = None
