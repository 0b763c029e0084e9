"""Next-line instruction prefetching.

The oldest and simplest instruction prefetcher (Smith 1978; Jouppi
1990): on an access (or a miss), prefetch the following N sequential
blocks.  It captures the sequential body of functions but cannot follow
discontinuities, and its over-fetch past region ends pollutes the cache
— both limitations the paper uses it to illustrate (Section 5.5).
"""

from __future__ import annotations

from typing import List

from .base import Prefetcher


class NextLinePrefetcher(Prefetcher):
    """Prefetch the next ``degree`` sequential blocks.

    ``trigger`` selects the classic variants: ``"access"`` (tagged
    next-line: prefetch on every demand access — the paper's
    "aggressive" configuration) or ``"miss"`` (prefetch only on demand
    misses).
    """

    def __init__(self, degree: int = 4, trigger: str = "access") -> None:
        super().__init__()
        if degree <= 0:
            raise ValueError("degree must be positive")
        if trigger not in ("access", "miss"):
            raise ValueError(f"unknown trigger {trigger!r}")
        self.degree = degree
        self.trigger = trigger
        self._miss_only = trigger == "miss"
        self.name = f"next-line(d={degree},{trigger})"
        self._last_triggered: int = -1

    def on_demand_access(self, block: int, pc: int, trap_level: int,
                         hit: bool, was_prefetched: bool) -> List[int]:
        if hit and self._miss_only:
            return []
        if block == self._last_triggered:
            # Same-block fetch burst: the line buffer absorbs these in
            # hardware; re-issuing the same window is pure overhead.
            return []
        self._last_triggered = block
        self.stats.triggers += 1
        self.stats.issued += self.degree
        return list(range(block + 1, block + self.degree + 1))

    def reset(self) -> None:
        super().reset()
        self._last_triggered = -1
