"""The prefetcher interface every engine (PIF and baselines) implements.

The trace simulator drives prefetchers through two hooks:

* :meth:`Prefetcher.on_demand_access` — every front-end L1-I request
  (correct- and wrong-path alike: hardware cannot tell them apart at
  fetch time), with the cache outcome.  Returns block addresses to
  prefetch *now*.
* :meth:`Prefetcher.on_retire` — every retired block-run record, with
  the PIF fetch-stage tag.  Only retire-order prefetchers (PIF) use it;
  the default is a no-op so fetch-side baselines ignore retirement.

The simulation hot loops drive the *buffer-reuse* variant of the access
hook, :meth:`Prefetcher.on_demand_access_into`: candidates are appended
to a caller-owned scratch list and the count is returned, so a
steady-state access that produces no prefetches allocates nothing.
Every in-repo engine implements ``on_demand_access_into`` natively and
derives ``on_demand_access`` from it; external subclasses may keep
implementing only ``on_demand_access`` — the base class bridges it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, List


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

    def on_demand_access_into(self, block: int, pc: int, trap_level: int,
                              hit: bool, was_prefetched: bool,
                              out: List[int]) -> int:
        """Observe a demand access; append prefetch candidates to ``out``.

        Returns the number of candidates appended.  The default bridges
        to :meth:`on_demand_access` so externally defined engines keep
        working; in-repo engines override this natively (and derive the
        list-returning hook from it) so the steady-state simulation loop
        issues zero allocations per access.
        """
        candidates = self.on_demand_access(block, pc, trap_level, hit,
                                           was_prefetched)
        out.extend(candidates)
        return len(candidates)

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

    def on_demand_access_into(self, block: int, pc: int, trap_level: int,
                              hit: bool, was_prefetched: bool,
                              out: List[int]) -> int:
        return 0


def demand_access_hook(prefetcher: Prefetcher):
    """The buffer-reuse hook the simulation loops should drive
    ``prefetcher`` with, honouring the most-derived override.

    The in-repo engines implement ``on_demand_access_into`` natively, so
    a subclass that overrides only the list-returning
    ``on_demand_access`` (to filter or augment candidates, say) would be
    silently bypassed if the loops bound ``on_demand_access_into``
    directly — the inherited native hook never calls the override.
    This resolver compares where in the MRO each hook is defined: when
    the ``_into`` definition is at least as derived as the list-API
    definition it is authoritative and returned as-is; otherwise the
    subclass's list API wins and a bridging closure adapts it.
    """
    cls = type(prefetcher)

    def defining_class(name: str):
        for klass in cls.__mro__:
            if name in vars(klass):
                return klass
        return None

    list_owner = defining_class("on_demand_access")
    into_owner = defining_class("on_demand_access_into")
    if (into_owner is not None and list_owner is not None
            and issubclass(into_owner, list_owner)):
        return prefetcher.on_demand_access_into

    def bridge(block: int, pc: int, trap_level: int, hit: bool,
               was_prefetched: bool, out: List[int]) -> int:
        candidates = prefetcher.on_demand_access(block, pc, trap_level,
                                                 hit, was_prefetched)
        out.extend(candidates)
        return len(candidates)

    return bridge


def as_block_list(blocks: Iterable[int]) -> List[int]:
    """Deduplicate prefetch candidates preserving order.

    Engines frequently produce the same block twice in one response
    (e.g. a region's trigger block also appearing via next-line); the
    cache would filter it, but deduping here keeps issue counters
    meaningful.
    """
    seen = set()
    ordered: List[int] = []
    for block in blocks:
        if block not in seen:
            seen.add(block)
            ordered.append(block)
    return ordered
