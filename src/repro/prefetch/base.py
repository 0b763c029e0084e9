"""The prefetcher interface every engine (PIF and baselines) implements.

The trace simulator drives prefetchers through two hooks:

* :meth:`Prefetcher.on_demand_access` — every front-end L1-I request
  (correct- and wrong-path alike: hardware cannot tell them apart at
  fetch time), with the cache outcome.  Returns block addresses to
  prefetch *now*.
* :meth:`Prefetcher.on_retire` — every retired block-run record, with
  the PIF fetch-stage tag.  Only retire-order prefetchers (PIF) use it;
  the default is a no-op so fetch-side baselines ignore retirement.

The reference walks (:mod:`repro.sim.engine`, :mod:`repro.sim.timing`)
call exactly these two hooks, so an engine runs there as written.  The
native walks (``sim/_walk.c``) reproduce the exact types of the
in-repo engines in C instead; a subclass, which may change behaviour,
always takes the reference walk.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List


@dataclass(slots=True)
class PrefetchStats:
    """Issue-side counters (fill-side counters live in CacheStats)."""

    issued: int = 0
    triggers: int = 0
    stream_allocations: int = 0

    def describe(self) -> dict:
        """Flat dictionary view."""
        return {
            "issued": float(self.issued),
            "triggers": float(self.triggers),
            "stream_allocations": float(self.stream_allocations),
        }


class Prefetcher(ABC):
    """Base class for instruction prefetch engines."""

    #: Short display name used in result tables.
    name: str = "base"

    #: Set by a native walk (:mod:`repro.sim.native`), which writes the
    #: counters back but keeps the learned state in C; a later walk of
    #: this engine is refused until :meth:`reset`.
    walked_natively: bool = False

    def __init__(self) -> None:
        self.stats = PrefetchStats()

    @abstractmethod
    def on_demand_access(self, block: int, pc: int, trap_level: int,
                         hit: bool, was_prefetched: bool) -> List[int]:
        """Observe a demand access; return blocks to prefetch."""

    def on_retire(self, pc: int, trap_level: int, tagged: bool) -> None:
        """Observe a retired block-run record (default: ignore)."""

    def reset(self) -> None:
        """Drop learned state and counters (fresh engine)."""
        self.stats = PrefetchStats()
        self.walked_natively = False


class NullPrefetcher(Prefetcher):
    """The no-prefetch baseline every speedup is normalized against."""

    name = "none"

    def on_demand_access(self, block: int, pc: int, trap_level: int,
                         hit: bool, was_prefetched: bool) -> List[int]:
        return []
