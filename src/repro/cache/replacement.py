"""Per-set replacement policies for the set-associative cache model.

The paper's L1-I uses LRU (Table I); the instability analysis in
Section 2.1 is precisely about LRU treating temporally-correlated blocks
independently.  Random and FIFO are provided for the ablation study that
checks PIF's advantage is not an artifact of one replacement policy.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import List


class ReplacementPolicy(ABC):
    """Recency/ordering state for one cache set.

    The cache owns the tag array; the policy only answers "which way is
    the victim" and observes accesses/fills.  Ways are integers in
    ``[0, associativity)``.
    """

    def __init__(self, associativity: int) -> None:
        if associativity <= 0:
            raise ValueError("associativity must be positive")
        self.associativity = associativity

    @abstractmethod
    def on_access(self, way: int) -> None:
        """Record a demand hit on ``way``."""

    @abstractmethod
    def on_fill(self, way: int) -> None:
        """Record a fill into ``way``."""

    @abstractmethod
    def victim(self) -> int:
        """Way to evict next (all ways are assumed valid)."""

    def on_invalidate(self, way: int) -> None:
        """Record an invalidation of ``way`` (optional hook)."""


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used: victim is the way touched longest ago."""

    def __init__(self, associativity: int) -> None:
        super().__init__(associativity)
        self._order: List[int] = list(range(associativity))

    def _touch(self, way: int) -> None:
        self._order.remove(way)
        self._order.append(way)

    def on_access(self, way: int) -> None:
        self._touch(way)

    def on_fill(self, way: int) -> None:
        self._touch(way)

    def on_invalidate(self, way: int) -> None:
        self._order.remove(way)
        self._order.insert(0, way)

    def victim(self) -> int:
        return self._order[0]

    def recency_order(self) -> List[int]:
        """Ways from LRU to MRU (exposed for tests and visualization)."""
        return list(self._order)


class FIFOPolicy(ReplacementPolicy):
    """First-in-first-out: victim is the oldest *fill*; hits don't promote."""

    def __init__(self, associativity: int) -> None:
        super().__init__(associativity)
        self._queue: List[int] = list(range(associativity))

    def on_access(self, way: int) -> None:
        pass

    def on_fill(self, way: int) -> None:
        self._queue.remove(way)
        self._queue.append(way)

    def victim(self) -> int:
        return self._queue[0]


class RandomPolicy(ReplacementPolicy):
    """Uniform-random victim selection, deterministic: each policy (one
    per set) draws from its own ``Random(0)``."""

    def __init__(self, associativity: int) -> None:
        super().__init__(associativity)
        self._rng = random.Random(0)

    def on_access(self, way: int) -> None:
        pass

    def on_fill(self, way: int) -> None:
        pass

    def victim(self) -> int:
        return self._rng.randrange(self.associativity)


def make_policy(name: str, associativity: int) -> ReplacementPolicy:
    """Factory keyed by the :class:`~repro.common.config.CacheConfig` name."""
    if name == "lru":
        return LRUPolicy(associativity)
    if name == "fifo":
        return FIFOPolicy(associativity)
    if name == "random":
        return RandomPolicy(associativity)
    raise ValueError(f"unknown replacement policy {name!r}")
