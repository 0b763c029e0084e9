"""Static structure of a synthetic program: basic blocks, functions, CFG.

A program is a set of functions laid out in a flat instruction address
space, plus a distinguished dispatcher (the server's request loop),
per-transaction root functions, and interrupt handler routines placed in
a separate high address range (kernel text).  The executor walks this
structure dynamically; the fetch model additionally walks it *statically*
to generate wrong-path references beyond mispredicted branches.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..common.addressing import INSTRUCTION_BYTES


class BlockKind:
    """Terminator kinds of a basic block."""

    FALLTHROUGH = "fall"
    CONDITIONAL = "cond"
    LOOP = "loop"
    CALL = "call"
    JUMP = "jump"
    RETURN = "ret"

    ALL = (FALLTHROUGH, CONDITIONAL, LOOP, CALL, JUMP, RETURN)


@dataclass(slots=True)
class BasicBlock:
    """One straight-line run of instructions with a single terminator.

    Attributes:
        pc: address of the first instruction.
        instructions: instruction count (terminator included).
        kind: one of :class:`BlockKind`.
        target: control-transfer target PC (branch/loop/jump/call), or
            None for fallthrough/return.
        taken_probability: per-visit probability a CONDITIONAL branch is
            taken; stable branches sit near 0/1, data-dependent branches
            near 0.5.
        mean_iterations: for LOOP back-edges, the mean trip count the
            executor draws per loop entry.
    """

    pc: int
    instructions: int
    kind: str = BlockKind.FALLTHROUGH
    target: Optional[int] = None
    taken_probability: float = 0.0
    mean_iterations: float = 0.0

    @property
    def last_pc(self) -> int:
        """Address of the terminator instruction."""
        return self.pc + (self.instructions - 1) * INSTRUCTION_BYTES

    @property
    def end_pc(self) -> int:
        """Address one past the block (the fallthrough target)."""
        return self.pc + self.instructions * INSTRUCTION_BYTES

    def validate(self) -> None:
        """Raise ValueError on malformed blocks."""
        if self.instructions <= 0:
            raise ValueError(f"block at {self.pc:#x} has no instructions")
        if self.kind not in BlockKind.ALL:
            raise ValueError(f"unknown block kind {self.kind!r}")
        needs_target = self.kind in (
            BlockKind.CONDITIONAL, BlockKind.LOOP, BlockKind.CALL, BlockKind.JUMP
        )
        if needs_target and self.target is None:
            raise ValueError(f"{self.kind} block at {self.pc:#x} lacks a target")
        if self.kind == BlockKind.CONDITIONAL and not 0.0 <= self.taken_probability <= 1.0:
            raise ValueError("taken_probability must be a probability")
        if self.kind == BlockKind.LOOP and self.mean_iterations < 0:
            raise ValueError("mean_iterations cannot be negative")


@dataclass(slots=True)
class Function:
    """A contiguous sequence of basic blocks.

    ``blocks[0].pc`` is the entry point.  Blocks are laid out back to
    back: ``blocks[i].end_pc == blocks[i+1].pc``.
    """

    name: str
    blocks: List[BasicBlock] = field(default_factory=list)
    level: int = 0
    is_handler: bool = False

    @property
    def entry(self) -> int:
        """Entry PC."""
        return self.blocks[0].pc

    @property
    def end_pc(self) -> int:
        """One past the last instruction."""
        return self.blocks[-1].end_pc

    @property
    def size_bytes(self) -> int:
        """Code size in bytes."""
        return self.end_pc - self.entry

    def validate(self) -> None:
        """Raise ValueError when layout or terminators are inconsistent."""
        if not self.blocks:
            raise ValueError(f"function {self.name} has no blocks")
        for block in self.blocks:
            block.validate()
        for current, following in zip(self.blocks, self.blocks[1:]):
            if current.end_pc != following.pc:
                raise ValueError(
                    f"function {self.name} has a layout gap between blocks at "
                    f"{current.pc:#x} and {following.pc:#x}"
                )
        if self.blocks[-1].kind != BlockKind.RETURN:
            raise ValueError(f"function {self.name} does not end in a return")


@dataclass(slots=True)
class SyntheticProgram:
    """A complete generated program plus lookup indices."""

    name: str
    dispatcher: Function
    transactions: List[Function]
    transaction_weights: List[float]
    functions: List[Function]
    handlers: List[Function]
    handler_weights: List[float]
    #: Kernel helper routines callable from handlers (never dispatched
    #: directly; they model the OS code under an interrupt entry point).
    kernel_helpers: List[Function] = field(default_factory=list)
    _block_starts: List[int] = field(default_factory=list)
    _block_index: Dict[int, BasicBlock] = field(default_factory=dict)

    def all_functions(self) -> List[Function]:
        """Every function including dispatcher, handlers, kernel helpers."""
        return [self.dispatcher, *self.functions, *self.handlers,
                *self.kernel_helpers]

    def build_index(self) -> None:
        """(Re)build the PC-to-block lookup structures.

        Must be called after construction and after any block mutation;
        the generator calls it before returning the program.
        """
        self._block_index = {}
        for function in self.all_functions():
            for block in function.blocks:
                self._block_index[block.pc] = block
        self._block_starts = sorted(self._block_index)

    def block_at(self, pc: int) -> Optional[BasicBlock]:
        """The basic block whose instruction range contains ``pc``.

        Used by the wrong-path walker, which may land mid-block (e.g. a
        branch back into the body of a loop).  Returns None for PCs in
        layout gaps or outside the program.
        """
        if not self._block_starts:
            raise RuntimeError("build_index() has not been called")
        position = bisect.bisect_right(self._block_starts, pc) - 1
        if position < 0:
            return None
        block = self._block_index[self._block_starts[position]]
        if block.pc <= pc < block.end_pc:
            return block
        return None

    def block_starting_at(self, pc: int) -> Optional[BasicBlock]:
        """The basic block whose first instruction is ``pc``, if any."""
        return self._block_index.get(pc)

    def validate(self) -> None:
        """Validate every function and cross-function invariants."""
        seen_ranges: List[tuple] = []
        for function in self.all_functions():
            function.validate()
            seen_ranges.append((function.entry, function.end_pc, function.name))
        seen_ranges.sort()
        for (_, end_a, name_a), (start_b, _, name_b) in zip(
            seen_ranges, seen_ranges[1:]
        ):
            if start_b < end_a:
                raise ValueError(
                    f"functions {name_a} and {name_b} overlap in the layout"
                )
        if len(self.transactions) != len(self.transaction_weights):
            raise ValueError("transaction weights do not match transactions")
        if len(self.handlers) != len(self.handler_weights):
            raise ValueError("handler weights do not match handlers")
