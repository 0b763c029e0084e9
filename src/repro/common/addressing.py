"""Instruction-address arithmetic shared by every subsystem.

The paper's hardware operates on three granularities:

* **PC** — the byte address of an individual instruction.
* **Block address** — the L1-I cache-block address, ``pc >> block_bits``.
  All prefetchers, the history buffer, and the coverage oracles work at
  this granularity.
* **Spatial region** — a window of adjacent blocks anchored at a
  *trigger* block (Section 3.1 of the paper).

Keeping the arithmetic here, in one well-tested module, prevents subtle
off-by-one bugs (the classic ``>>`` vs ``//`` confusion with negative
deltas) from leaking into the microarchitectural models.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Default L1-I block size used throughout the paper (Table I): 64 bytes.
DEFAULT_BLOCK_BYTES = 64

#: Fixed instruction width of the abstract ISA.  The paper models SPARC v9
#: (4-byte instructions); any constant width preserves the behaviour PIF
#: depends on, namely that consecutive PCs map to slowly-advancing blocks.
INSTRUCTION_BYTES = 4


def block_bits_for(block_bytes: int) -> int:
    """Return ``log2(block_bytes)``, validating the size is a power of two.

    >>> block_bits_for(64)
    6
    """
    if block_bytes <= 0 or block_bytes & (block_bytes - 1):
        raise ValueError(f"block size must be a positive power of two, got {block_bytes}")
    return block_bytes.bit_length() - 1


@dataclass(frozen=True, slots=True)
class RegionGeometry:
    """Shape of a spatial region around its trigger block.

    ``preceding`` blocks sit at negative offsets from the trigger,
    ``succeeding`` blocks at positive offsets; the trigger itself is offset
    zero.  The paper settles on ``preceding=2, succeeding=5`` — an
    8-block region skewed forward (Section 5.2, Figure 8).
    """

    preceding: int = 2
    succeeding: int = 5

    def __post_init__(self) -> None:
        if self.preceding < 0 or self.succeeding < 0:
            raise ValueError("region geometry cannot have negative extents")

    @property
    def total_blocks(self) -> int:
        """Region width in blocks including the trigger block."""
        return self.preceding + self.succeeding + 1

    def contains_offset(self, offset: int) -> bool:
        """True if a block at ``offset`` from the trigger is inside the region."""
        return -self.preceding <= offset <= self.succeeding

    def contains(self, block: int, trigger_block: int) -> bool:
        """True if ``block`` lies within the region anchored at ``trigger_block``."""
        return self.contains_offset(block - trigger_block)

    def bit_index(self, offset: int) -> int:
        """Index into the region bit vector for a block at ``offset``.

        The vector is laid out left-to-right as the paper draws it: the
        ``preceding`` blocks first (most distant first), then the
        succeeding blocks.  The trigger block is *not* encoded — it is
        implied by the record's trigger address.

        >>> RegionGeometry(2, 5).bit_index(-2)
        0
        >>> RegionGeometry(2, 5).bit_index(-1)
        1
        >>> RegionGeometry(2, 5).bit_index(1)
        2
        """
        if offset == 0:
            raise ValueError("the trigger block has no bit; it is implicit")
        if not self.contains_offset(offset):
            raise ValueError(f"offset {offset} outside region {self}")
        if offset < 0:
            return offset + self.preceding
        return self.preceding + offset - 1

    def offset_for_bit(self, index: int) -> int:
        """Inverse of :meth:`bit_index`."""
        if not 0 <= index < self.preceding + self.succeeding:
            raise ValueError(f"bit index {index} outside region {self}")
        if index < self.preceding:
            return index - self.preceding
        return index - self.preceding + 1

    def offsets(self):
        """All non-trigger offsets, in replay order (left to right).

        The paper replays bit vectors left to right because that
        "typically predicts the accesses in the order they will be issued
        by the core" (Section 4.3).
        """
        for index in range(self.preceding + self.succeeding):
            yield self.offset_for_bit(index)


#: The paper's chosen geometry: 8-block regions, 2 preceding + 5 succeeding.
PAPER_GEOMETRY = RegionGeometry(preceding=2, succeeding=5)
