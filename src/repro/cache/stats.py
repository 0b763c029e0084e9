"""Counters every cache-model consumer reads.

Kept as a plain mutable dataclass — the cache increments fields in its
hot path and experiments snapshot/derive ratios at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(slots=True)
class CacheStats:
    """Demand/prefetch counters for one cache instance."""

    demand_accesses: int = 0
    demand_hits: int = 0
    demand_misses: int = 0
    prefetch_requests: int = 0
    prefetch_fills: int = 0
    prefetch_drops_present: int = 0
    useful_prefetches: int = 0
    evictions: int = 0
    evicted_unused_prefetches: int = 0

    def miss_rate(self) -> float:
        """Demand miss rate."""
        if self.demand_accesses == 0:
            return 0.0
        return self.demand_misses / self.demand_accesses

    def hit_rate(self) -> float:
        """Demand hit rate."""
        return 1.0 - self.miss_rate() if self.demand_accesses else 0.0

    def prefetch_accuracy(self) -> float:
        """Fraction of prefetch fills that were demanded before eviction."""
        if self.prefetch_fills == 0:
            return 0.0
        return self.useful_prefetches / self.prefetch_fills

    def mpki(self, instructions: int) -> float:
        """Demand misses per kilo-instruction."""
        if instructions <= 0:
            raise ValueError("instructions must be positive")
        return 1000.0 * self.demand_misses / instructions

    def describe(self) -> Dict[str, float]:
        """Flat dictionary including derived ratios."""
        return {
            "demand_accesses": float(self.demand_accesses),
            "demand_hits": float(self.demand_hits),
            "demand_misses": float(self.demand_misses),
            "miss_rate": self.miss_rate(),
            "prefetch_requests": float(self.prefetch_requests),
            "prefetch_fills": float(self.prefetch_fills),
            "prefetch_drops_present": float(self.prefetch_drops_present),
            "useful_prefetches": float(self.useful_prefetches),
            "prefetch_accuracy": self.prefetch_accuracy(),
            "evictions": float(self.evictions),
            "evicted_unused_prefetches": float(self.evicted_unused_prefetches),
        }
