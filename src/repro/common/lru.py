"""Recency-ordered containers used by several hardware models.

Three structures in the reproduced design are recency managed:

* the L1-I cache sets (LRU replacement, Table I),
* the temporal compactor (a tiny MRU list of recent region records,
  Section 4.1),
* the stream address buffers ("replacing the least-recently-used SAB",
  Section 4.3, footnote 2).

``OrderedDict`` gives O(1) promote/evict; this module wraps it with the
small, explicit API those models need, so their code reads like the
paper's prose.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, Iterator, Optional, Tuple, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

#: Internal miss sentinel so ``get`` costs one dict probe even for
#: caches that legitimately store ``None`` values.
_MISSING = object()


class LRUCache(Generic[K, V]):
    """A bounded mapping that evicts the least-recently-used entry.

    Reads and writes both count as uses.  ``capacity`` of zero is legal
    and produces a cache that stores nothing (useful for ablations that
    disable a structure entirely).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self._capacity = capacity
        self._entries: OrderedDict[K, V] = OrderedDict()

    @property
    def capacity(self) -> int:
        """Maximum number of entries."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def get(self, key: K) -> Optional[V]:
        """Return the value for ``key`` and promote it to MRU, or None."""
        entries = self._entries
        value = entries.get(key, _MISSING)
        if value is _MISSING:
            return None
        entries.move_to_end(key)
        return value  # type: ignore[return-value]

    def peek(self, key: K) -> Optional[V]:
        """Return the value for ``key`` without touching recency state."""
        return self._entries.get(key)

    def put(self, key: K, value: V) -> Optional[Tuple[K, V]]:
        """Insert/update ``key`` at MRU; return the evicted pair, if any."""
        if self._capacity == 0:
            return (key, value)
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            entries[key] = value
            return None
        evicted: Optional[Tuple[K, V]] = None
        if len(entries) >= self._capacity:
            evicted = entries.popitem(last=False)
        entries[key] = value
        return evicted

    def promote(self, key: K) -> bool:
        """Move ``key`` to MRU; return False if it is not present."""
        if key not in self._entries:
            return False
        self._entries.move_to_end(key)
        return True

    def discard(self, key: K) -> bool:
        """Remove ``key`` if present; return True if it was removed."""
        if key in self._entries:
            del self._entries[key]
            return True
        return False

    def lru_key(self) -> Optional[K]:
        """The key next in line for eviction, or None if empty."""
        if not self._entries:
            return None
        return next(iter(self._entries))

    def mru_key(self) -> Optional[K]:
        """The most recently used key, or None if empty."""
        if not self._entries:
            return None
        return next(reversed(self._entries))

    def items_mru_first(self) -> Iterator[Tuple[K, V]]:
        """Iterate entries from most- to least-recently used."""
        return iter(reversed(self._entries.items()))

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()
