"""A small fixed-width bit vector.

Spatial-region records (Section 3.1) carry one bit per neighbouring
block.  The vector is deliberately tiny (seven bits for the paper's
8-block regions), so an ``int`` mask plus a width is the whole
representation; this module exists to give that representation a typed,
validated, well-tested API rather than scattering shift-and-mask code
through the compactors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True, slots=True)
class BitVector:
    """An immutable fixed-width bit vector.

    Bit 0 is the leftmost position in the paper's figures (the most
    distant *preceding* block); callers translate block offsets to bit
    positions via :class:`repro.common.addressing.RegionGeometry`.
    """

    width: int
    mask: int = 0

    def __post_init__(self) -> None:
        if self.width < 0:
            raise ValueError(f"width must be non-negative, got {self.width}")
        if self.mask < 0:
            raise ValueError(f"mask must be non-negative, got {self.mask}")
        if self.mask >> self.width:
            raise ValueError(
                f"mask {self.mask:#x} has bits beyond width {self.width}"
            )

    @classmethod
    def from_bits(cls, width: int, bits: Iterable[int]) -> BitVector:
        """Build a vector with the given bit positions set."""
        mask = 0
        for bit in bits:
            if not 0 <= bit < width:
                raise ValueError(f"bit {bit} out of range for width {width}")
            mask |= 1 << bit
        return cls(width, mask)

    @classmethod
    def from_string(cls, text: str) -> BitVector:
        """Parse a vector from the paper's figure notation, e.g. ``"101"``.

        The leftmost character is bit 0, matching how Figure 5 writes
        records like ``PCA(101)``.
        """
        if any(ch not in "01" for ch in text):
            raise ValueError(f"bit string may only contain 0/1, got {text!r}")
        mask = 0
        for position, ch in enumerate(text):
            if ch == "1":
                mask |= 1 << position
        return cls(len(text), mask)

    def set(self, bit: int) -> BitVector:
        """Return a copy with ``bit`` set."""
        if not 0 <= bit < self.width:
            raise ValueError(f"bit {bit} out of range for width {self.width}")
        return BitVector(self.width, self.mask | (1 << bit))

    def clear(self, bit: int) -> BitVector:
        """Return a copy with ``bit`` cleared."""
        if not 0 <= bit < self.width:
            raise ValueError(f"bit {bit} out of range for width {self.width}")
        return BitVector(self.width, self.mask & ~(1 << bit))

    def test(self, bit: int) -> bool:
        """True if ``bit`` is set."""
        if not 0 <= bit < self.width:
            raise ValueError(f"bit {bit} out of range for width {self.width}")
        return bool(self.mask >> bit & 1)

    def is_subset_of(self, other: BitVector) -> bool:
        """True if every set bit of ``self`` is also set in ``other``.

        This is the temporal compactor's discard test (Section 4.1): an
        incoming region record whose vector is a subset of an already
        tracked record carries no new information.
        """
        if other.width != self.width:
            raise ValueError("cannot compare vectors of different widths")
        return self.mask & ~other.mask == 0

    def union(self, other: BitVector) -> BitVector:
        """Bitwise OR of two equal-width vectors."""
        if other.width != self.width:
            raise ValueError("cannot combine vectors of different widths")
        return BitVector(self.width, self.mask | other.mask)

    def intersection(self, other: BitVector) -> BitVector:
        """Bitwise AND of two equal-width vectors."""
        if other.width != self.width:
            raise ValueError("cannot combine vectors of different widths")
        return BitVector(self.width, self.mask & other.mask)

    def popcount(self) -> int:
        """Number of set bits."""
        return self.mask.bit_count()

    def set_bits(self) -> Iterator[int]:
        """Yield the indices of set bits in ascending (left-to-right) order."""
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def is_empty(self) -> bool:
        """True if no bit is set."""
        return self.mask == 0

    def __len__(self) -> int:
        return self.width

    def __iter__(self) -> Iterator[bool]:
        for bit in range(self.width):
            yield self.test(bit)

    def __str__(self) -> str:
        return "".join("1" if self.test(bit) else "0" for bit in range(self.width))

    def __repr__(self) -> str:
        return f"BitVector({str(self)!r})"
