"""Dynamic execution of a synthetic program.

The executor walks the program's CFG with a call stack, resolving every
branch outcome from its specified distribution, drawing loop trip counts
per entry, and injecting interrupt handlers at exponential intervals.
Its output is the *architectural* (correct-path, retire-order) control
stream: a sequence of :class:`ControlRecord`, one per executed basic
block.

This stream is the ground truth both downstream consumers build on:

* the retire-order trace is exactly this stream (Section 2.2's Retire
  view — it contains no wrong-path noise *by construction*);
* the fetch model (:mod:`repro.pipeline.frontend`) replays this stream
  through a branch predictor to synthesize the *access* stream with
  wrong-path noise.
"""

from __future__ import annotations

import random
from typing import Iterator, List, NamedTuple, Sequence, Tuple

from ..common.rng import make_rng
from ..trace.records import TL_APPLICATION, TL_INTERRUPT
from .program import BasicBlock, BlockKind, SyntheticProgram
from .spec import WorkloadSpec

#: Safety cap: once one transaction has retired this many instructions,
#: newly entered loops run a single trip so the transaction terminates.
MAX_TRANSACTION_INSTRUCTIONS = 250_000


class ControlRecord(NamedTuple):
    """One executed basic block and its resolved terminator.

    ``next_pc`` is where control actually went; ``taken_target`` is the
    static taken-direction target (what a predictor would speculate to),
    present for conditional/loop/call/jump terminators.
    """

    pc: int
    instructions: int
    trap_level: int
    kind: str
    branch_pc: int
    taken: bool
    next_pc: int
    taken_target: int


class _Frame(NamedTuple):
    return_pc: int
    frame_id: int


class ProgramExecutor:
    """Walks a :class:`SyntheticProgram`, yielding :class:`ControlRecord`s."""

    def __init__(self, program: SyntheticProgram, spec: WorkloadSpec,
                 seed: int, core: int = 0) -> None:
        self.program = program
        self.spec = spec
        self.core = core
        self._rng = make_rng(seed, "exec", spec.name, str(core))
        self._irq_rng = make_rng(seed, "irq", spec.name, str(core))
        self._dispatch_pc = program.dispatcher.blocks[0].pc
        self._transaction_total = sum(program.transaction_weights)
        self._handler_total = sum(program.handler_weights)
        #: The rate of the exponential interrupt intervals.
        self._irq_rate = 1.0 / spec.interrupt_interval
        #: Handlers are injected only when the program has any.
        self._irq_ready = bool(program.handlers)
        self._loop_state: dict = {}
        self._frame_counter = 0
        self._transaction_instructions = 0
        self.transactions_completed = 0
        self.interrupts_taken = 0

    # ------------------------------------------------------------------

    def run(self, n_instructions: int) -> Iterator[ControlRecord]:
        """Yield control records until ``n_instructions`` have retired."""
        if n_instructions <= 0:
            raise ValueError("n_instructions must be positive")
        retired = 0
        next_irq = self._draw_irq_interval()
        stack: List[_Frame] = []
        pc = self._dispatch_pc
        while retired < n_instructions:
            block = self.program.block_starting_at(pc)
            if block is None:
                raise RuntimeError(f"control reached a non-block PC {pc:#x}")
            record, pc = self._step(block, stack)
            retired += record.instructions
            self._transaction_instructions += record.instructions
            yield record
            if retired >= next_irq and self._irq_ready:
                for handler_record in self._run_handler():
                    retired += handler_record.instructions
                    yield handler_record
                    if retired >= n_instructions:
                        break
                next_irq = retired + self._draw_irq_interval()

    # ------------------------------------------------------------------

    def _step(self, block: BasicBlock, stack: List[_Frame]
              ) -> Tuple[ControlRecord, int]:
        kind = block.kind
        taken = False
        taken_target = block.target if block.target is not None else 0
        if kind == BlockKind.FALLTHROUGH:
            next_pc = block.end_pc
        elif kind == BlockKind.CONDITIONAL:
            taken = self._rng.random() < block.taken_probability
            next_pc = block.target if taken else block.end_pc
        elif kind == BlockKind.LOOP:
            taken = self._loop_take_backedge(block, stack)
            next_pc = block.target if taken else block.end_pc
        elif kind == BlockKind.JUMP:
            taken = True
            next_pc = block.target
        elif kind == BlockKind.CALL:
            taken = True
            callee = self._select_callee(block)
            taken_target = callee
            self._frame_counter += 1
            stack.append(_Frame(block.end_pc, self._frame_counter))
            next_pc = callee
        elif kind == BlockKind.RETURN:
            if stack:
                frame = stack.pop()
                next_pc = frame.return_pc
                taken_target = frame.return_pc
                if not stack:
                    self.transactions_completed += 1
                    self._transaction_instructions = 0
            else:
                # Returning with an empty stack restarts the dispatcher.
                next_pc = self._dispatch_pc
                taken_target = next_pc
            taken = True
        else:  # pragma: no cover - BlockKind.ALL is closed
            raise RuntimeError(f"unhandled block kind {kind!r}")
        record = ControlRecord(
            pc=block.pc,
            instructions=block.instructions,
            trap_level=TL_APPLICATION,
            kind=kind,
            branch_pc=block.last_pc,
            taken=taken,
            next_pc=next_pc,
            taken_target=taken_target,
        )
        return record, next_pc

    def _select_callee(self, block: BasicBlock) -> int:
        """Resolve the callee, choosing a transaction root at the
        dispatcher's dispatch site (the model's one indirect call)."""
        if block.pc == self._dispatch_pc:
            return self.program.transactions[_weighted_index(
                self._rng, self.program.transaction_weights,
                self._transaction_total)].entry
        assert block.target is not None
        return block.target

    def _loop_take_backedge(self, block: BasicBlock, stack: Sequence[_Frame]) -> bool:
        frame_id = stack[-1].frame_id if stack else 0
        key = (frame_id, block.pc)
        remaining = self._loop_state.get(key)
        if remaining is None:
            remaining = self._draw_trips(block.mean_iterations) - 1
        if remaining > 0:
            self._loop_state[key] = remaining - 1
            return True
        self._loop_state.pop(key, None)
        return False

    def _draw_trips(self, mean: float) -> int:
        """Trip count for one loop entry: the site's mean with mild jitter.

        Real scan/iteration loops process data whose cardinality recurs
        across visits (the same table, the same request size), so trip
        counts are *data-dependent but stable*.  High-variance draws
        (e.g. geometric) would make even the retire-order stream
        unpredictable at block granularity, which server workloads do
        not exhibit (the paper measures >99.5 % retire predictability).
        """
        if self._transaction_instructions > MAX_TRANSACTION_INSTRUCTIONS:
            return 1
        if mean <= 1.0:
            return 1
        jitter = self.spec.loop_trip_jitter
        return max(1, round(self._rng.gauss(mean, jitter * mean)))

    # ------------------------------------------------------------------
    # interrupts

    def _draw_irq_interval(self) -> int:
        return max(1, int(self._irq_rng.expovariate(self._irq_rate)))

    def _run_handler(self) -> Iterator[ControlRecord]:
        """Execute one interrupt handler to completion at trap level 1.

        Handler entry points call kernel helper routines, so the walk
        carries its own call stack; the handler completes when its
        outermost return executes.
        """
        self.interrupts_taken += 1
        handler = self.program.handlers[_weighted_index(
            self._irq_rng, self.program.handler_weights, self._handler_total)]
        self._frame_counter += 1
        root_frame = _Frame(0, self._frame_counter)
        stack: List[_Frame] = []
        pc = handler.entry
        while True:
            block = self.program.block_starting_at(pc)
            if block is None:
                raise RuntimeError(f"handler control reached bad PC {pc:#x}")
            kind = block.kind
            taken = False
            finished = False
            taken_target = block.target if block.target is not None else 0
            if kind == BlockKind.FALLTHROUGH:
                next_pc = block.end_pc
            elif kind == BlockKind.CONDITIONAL:
                taken = self._irq_rng.random() < block.taken_probability
                next_pc = block.target if taken else block.end_pc
            elif kind == BlockKind.LOOP:
                frames = stack if stack else [root_frame]
                taken = self._loop_take_backedge(block, frames)
                next_pc = block.target if taken else block.end_pc
            elif kind == BlockKind.JUMP:
                taken = True
                next_pc = block.target
            elif kind == BlockKind.CALL:
                taken = True
                self._frame_counter += 1
                stack.append(_Frame(block.end_pc, self._frame_counter))
                next_pc = block.target
            elif kind == BlockKind.RETURN:
                taken = True
                if stack:
                    frame = stack.pop()
                    next_pc = frame.return_pc
                    taken_target = frame.return_pc
                else:
                    next_pc = 0
                    finished = True
            else:  # pragma: no cover - BlockKind.ALL is closed
                raise RuntimeError(f"unexpected handler block kind {kind!r}")
            yield ControlRecord(
                pc=block.pc,
                instructions=block.instructions,
                trap_level=TL_INTERRUPT,
                kind=kind,
                branch_pc=block.last_pc,
                taken=taken,
                next_pc=next_pc,
                taken_target=taken_target,
            )
            if finished:
                return
            pc = next_pc


def _weighted_index(rng: random.Random, weights: Sequence[float],
                    total: float) -> int:
    """The index ``rng`` picks with probability proportional to its
    weight; ``total`` is ``sum(weights)``, computed once, not per draw."""
    point = rng.random() * total
    cumulative = 0.0
    for index, weight in enumerate(weights):
        cumulative += weight
        if point < cumulative:
            return index
    return len(weights) - 1
