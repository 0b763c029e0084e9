"""Saturating-counter tables, the building block of every predictor here."""

from __future__ import annotations

from typing import List


class CounterTable:
    """A direct-indexed table of 2-bit counters stored as a flat list.

    Storing raw ints (not one object per counter) keeps the
    predictor's inner loop allocation-free.
    """

    def __init__(self, entries: int, bits: int = 2, initial: int = 2) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError(f"entries must be a positive power of two, got {entries}")
        self.entries = entries
        self.maximum = (1 << bits) - 1
        if not 0 <= initial <= self.maximum:
            raise ValueError(f"initial value {initial} out of range")
        self._mask = entries - 1
        self._threshold = self.maximum // 2
        self._values: List[int] = [initial] * entries

    def index(self, key: int) -> int:
        """Table slot for ``key`` (low bits)."""
        return key & self._mask

    def predict(self, key: int) -> bool:
        """Predicted direction for ``key``."""
        return self._values[key & self._mask] > self._threshold

    def update(self, key: int, outcome: bool) -> None:
        """Train the counter selected by ``key`` toward ``outcome``."""
        slot = key & self._mask
        value = self._values[slot]
        if outcome:
            if value < self.maximum:
                self._values[slot] = value + 1
        elif value > 0:
            self._values[slot] = value - 1
