"""Front-end fetch model: turns the architectural control stream into the
instruction-cache *access* stream, wrong-path noise included.

The executor (:mod:`repro.workloads.executor`) supplies ground-truth
control flow.  This model replays it through a branch predictor, BTB and
return-address stack.  Whenever the predictor disagrees with the actual
outcome, the model walks the *static* CFG along the predicted (wrong)
path for a bounded number of blocks — the squashed references a real
out-of-order core would have issued before resolving the misprediction
(Figure 1, right) — and injects them into the access stream flagged as
wrong-path.

Alignment invariant: the correct-path subsequence of the produced access
stream corresponds 1:1, in order, with the collapsed retire-order
records.  Coverage measurements rely on this to attribute each cache
outcome to its retire event without timestamps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from ..branch.btb import BranchTargetBuffer, ReturnAddressStack
from ..branch.predictors import HybridPredictor
from ..common.addressing import INSTRUCTION_BYTES, block_bits_for
from ..common.config import BranchPredictorConfig, PipelineConfig
from ..common.rng import make_rng
from ..trace.records import FetchAccess, RetiredInstruction
from ..workloads.executor import ControlRecord
from ..workloads.program import BlockKind, SyntheticProgram


@dataclass(slots=True)
class FrontEndStats:
    """Branch-prediction and noise accounting for one trace generation."""

    conditional_branches: int = 0
    mispredicted_conditionals: int = 0
    ras_mispredictions: int = 0
    btb_misses: int = 0
    indirect_mispredictions: int = 0
    wrong_path_accesses: int = 0
    correct_path_accesses: int = 0

    def conditional_accuracy(self) -> float:
        """Direction-prediction accuracy over conditional branches."""
        if self.conditional_branches == 0:
            return 1.0
        return 1.0 - self.mispredicted_conditionals / self.conditional_branches


class FetchModel:
    """Replays control records, producing aligned access/retire streams."""

    def __init__(
        self,
        program: SyntheticProgram,
        pipeline: Optional[PipelineConfig] = None,
        branch_config: Optional[BranchPredictorConfig] = None,
        block_bytes: int = 64,
        seed: int = 0,
    ) -> None:
        self.program = program
        self.pipeline = pipeline if pipeline is not None else PipelineConfig()
        self.branch_config = (branch_config if branch_config is not None
                              else BranchPredictorConfig())
        self.block_bytes = block_bytes
        self.seed = seed
        self.stats = FrontEndStats()
        self._block_bits = block_bits_for(block_bytes)
        self._predictor = HybridPredictor(self.branch_config)
        self._btb = BranchTargetBuffer(self.branch_config.btb_entries)
        self._ras = ReturnAddressStack(self.branch_config.ras_depth)
        self._rng: random.Random = make_rng(seed, "frontend", program.name)
        self._last_block: Optional[int] = None
        self._last_tl: Optional[int] = None

    # ------------------------------------------------------------------

    def process(self, records: Iterable[ControlRecord]
                ) -> Tuple[List[FetchAccess], List[RetiredInstruction], int]:
        """Consume the control stream; return (accesses, retires, instructions).

        ``retires`` is block-run collapsed (one record per change of
        cache block or trap level), matching what the PIF compactor sees.
        """
        accesses: List[FetchAccess] = []
        retires: List[RetiredInstruction] = []
        instructions = 0
        for record in records:
            instructions += record.instructions
            self._emit_correct_path(record, accesses, retires)
            wrong_path_start, wrong_path_blocks = self._resolve_terminator(record)
            if wrong_path_start is not None and wrong_path_blocks > 0:
                self._emit_wrong_path(record, wrong_path_start,
                                      wrong_path_blocks, accesses)
        return accesses, retires, instructions

    # ------------------------------------------------------------------

    def _emit_correct_path(self, record: ControlRecord,
                           accesses: List[FetchAccess],
                           retires: List[RetiredInstruction]) -> None:
        first_block = record.pc >> self._block_bits
        last_block = (
            record.pc + (record.instructions - 1) * INSTRUCTION_BYTES
        ) >> self._block_bits
        for block in range(first_block, last_block + 1):
            if block == self._last_block and record.trap_level == self._last_tl:
                continue
            pc = max(record.pc, block << self._block_bits)
            accesses.append(
                FetchAccess(block=block, pc=pc, trap_level=record.trap_level,
                            wrong_path=False))
            retires.append(RetiredInstruction(pc=pc, trap_level=record.trap_level))
            self.stats.correct_path_accesses += 1
            self._last_block = block
            self._last_tl = record.trap_level

    def _resolve_terminator(self, record: ControlRecord
                            ) -> Tuple[Optional[int], int]:
        """Run the predictors over the terminator; return the wrong-path
        start PC and length in blocks (or (None, 0) for correct
        prediction)."""
        kind = record.kind
        fallthrough = record.branch_pc + INSTRUCTION_BYTES
        if kind in (BlockKind.CONDITIONAL, BlockKind.LOOP):
            self.stats.conditional_branches += 1
            predicted_taken = self._predictor.predict(record.branch_pc)
            self._predictor.update(record.branch_pc, record.taken)
            if record.taken:
                self._btb.update(record.branch_pc, record.taken_target)
            if predicted_taken == record.taken:
                return None, 0
            self.stats.mispredicted_conditionals += 1
            start = record.taken_target if predicted_taken else fallthrough
            return start, self._draw_wrong_path_blocks()
        if kind == BlockKind.CALL:
            self._ras.push(fallthrough)
            predicted_target = self._btb.lookup(record.branch_pc)
            self._btb.update(record.branch_pc, record.next_pc)
            if predicted_target is None:
                self.stats.btb_misses += 1
                return fallthrough, 1
            if predicted_target != record.next_pc:
                self.stats.indirect_mispredictions += 1
                return predicted_target, self._draw_wrong_path_blocks()
            return None, 0
        if kind == BlockKind.JUMP:
            predicted_target = self._btb.lookup(record.branch_pc)
            self._btb.update(record.branch_pc, record.next_pc)
            if predicted_target is None:
                self.stats.btb_misses += 1
                return fallthrough, 1
            if predicted_target != record.next_pc:
                self.stats.indirect_mispredictions += 1
                return predicted_target, self._draw_wrong_path_blocks()
            return None, 0
        if kind == BlockKind.RETURN:
            predicted = self._ras.pop()
            if predicted == record.next_pc:
                return None, 0
            self.stats.ras_mispredictions += 1
            start = predicted if predicted is not None else fallthrough
            return start, self._draw_wrong_path_blocks()
        return None, 0

    def _draw_wrong_path_blocks(self) -> int:
        """Blocks fetched beyond a misprediction before the squash.

        The resolve latency is data-dependent and therefore arbitrary
        (Section 2.2); we draw it uniformly over the configured range
        and convert to blocks at roughly one block per four cycles of
        front-end run-ahead, bounded by the fetch queue.
        """
        latency = self._rng.randint(self.pipeline.min_resolve_latency,
                                    self.pipeline.max_resolve_latency)
        blocks = 1 + latency // 4
        return min(blocks, self.pipeline.fetch_queue_entries)

    def _emit_wrong_path(self, record: ControlRecord, start_pc: int,
                         n_blocks: int, accesses: List[FetchAccess]) -> None:
        """Walk the static CFG from ``start_pc`` along predicted paths."""
        emitted = 0
        pc = start_pc
        last_block: Optional[int] = None
        shadow_stack: List[int] = []
        guard = 0
        while emitted < n_blocks and guard < 4 * n_blocks + 16:
            guard += 1
            block_obj = self.program.block_at(pc)
            if block_obj is None:
                break
            first_block = pc >> self._block_bits
            remaining = block_obj.end_pc - pc
            last_pc = pc + remaining - INSTRUCTION_BYTES
            final_block = last_pc >> self._block_bits
            for block in range(first_block, final_block + 1):
                if block == last_block:
                    continue
                accesses.append(
                    FetchAccess(block=block,
                                pc=max(pc, block << self._block_bits),
                                trap_level=record.trap_level,
                                wrong_path=True))
                self.stats.wrong_path_accesses += 1
                last_block = block
                emitted += 1
                if emitted >= n_blocks:
                    return
            pc = self._speculative_successor(block_obj, shadow_stack)
            if pc is None:
                break

    def _speculative_successor(self, block_obj, shadow_stack: List[int]
                               ) -> Optional[int]:
        """Where the front-end would speculate next from ``block_obj``
        (predict-only: no predictor state is updated on the wrong path)."""
        kind = block_obj.kind
        if kind == BlockKind.FALLTHROUGH:
            return block_obj.end_pc
        if kind in (BlockKind.CONDITIONAL, BlockKind.LOOP):
            if self._predictor.predict(block_obj.last_pc):
                return block_obj.target
            return block_obj.end_pc
        if kind == BlockKind.JUMP:
            return block_obj.target
        if kind == BlockKind.CALL:
            shadow_stack.append(block_obj.end_pc)
            predicted = self._btb.lookup(block_obj.last_pc)
            return predicted if predicted is not None else block_obj.target
        if kind == BlockKind.RETURN:
            if shadow_stack:
                return shadow_stack.pop()
            # Speculating through a return beyond the misprediction
            # point: hardware would consume (and corrupt) the RAS.  Peek
            # the stale top — this is what sends wrong-path fetches into
            # *distant* code, the worst kind of access-stream noise.
            return self._ras.peek()
        return None
