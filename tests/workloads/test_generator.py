"""Synthetic program generation: structural invariants."""

import pytest

from repro.common.addressing import INSTRUCTION_BYTES
from repro.workloads.generator import (
    APPLICATION_TEXT_BASE,
    HANDLER_TEXT_BASE,
    build_program,
)
from repro.workloads.program import BlockKind
from repro.workloads.spec import PAPER_WORKLOADS, get_spec


class TestProgramStructure:
    def test_validates(self, small_program):
        small_program.validate()

    def test_functions_are_contiguous(self, small_program):
        for function in small_program.all_functions():
            for current, following in zip(function.blocks,
                                          function.blocks[1:]):
                assert current.end_pc == following.pc

    def test_every_function_returns(self, small_program):
        for function in small_program.all_functions():
            assert function.blocks[-1].kind == BlockKind.RETURN

    def test_handlers_in_separate_segment(self, small_program):
        for handler in (*small_program.handlers,
                        *small_program.kernel_helpers):
            assert handler.entry >= HANDLER_TEXT_BASE
        for function in (small_program.dispatcher, *small_program.functions):
            assert APPLICATION_TEXT_BASE <= function.entry < HANDLER_TEXT_BASE

    def test_transaction_roots_are_level_zero(self, small_program):
        spec = get_spec("web-zeus")
        assert len(small_program.transactions) == spec.transaction_types
        assert all(t.level == 0 for t in small_program.transactions)

    def test_calls_target_function_entries(self, small_program):
        entries = {f.entry for f in small_program.all_functions()}
        for function in small_program.all_functions():
            for block in function.blocks:
                if block.kind == BlockKind.CALL:
                    assert block.target in entries

    def test_calls_descend_levels(self, small_program):
        functions = small_program.functions
        by_entry = {f.entry: f for f in functions}
        for function in functions:
            for block in function.blocks:
                if block.kind == BlockKind.CALL:
                    callee = by_entry.get(block.target)
                    if callee is not None:
                        assert callee.level > function.level

    def test_handler_calls_target_kernel_helpers(self, small_program):
        helper_entries = {f.entry for f in small_program.kernel_helpers}
        saw_call = False
        for handler in small_program.handlers:
            for block in handler.blocks:
                if block.kind == BlockKind.CALL:
                    saw_call = True
                    assert block.target in helper_entries
        assert saw_call

    def test_kernel_helpers_are_leaf(self, small_program):
        for helper in small_program.kernel_helpers:
            assert all(b.kind != BlockKind.CALL for b in helper.blocks)

    def test_local_branches_stay_in_function(self, small_program):
        for function in small_program.all_functions():
            for block in function.blocks:
                if block.kind in (BlockKind.CONDITIONAL, BlockKind.LOOP):
                    assert function.entry <= block.target < function.end_pc

    def test_loops_jump_backward(self, small_program):
        for function in small_program.all_functions():
            for block in function.blocks:
                if block.kind == BlockKind.LOOP:
                    assert block.target <= block.pc

    def test_conditionals_jump_forward(self, small_program):
        for function in small_program.all_functions():
            for block in function.blocks:
                if block.kind == BlockKind.CONDITIONAL:
                    assert block.target > block.pc

    def test_block_lookup(self, small_program):
        function = small_program.functions[0]
        block = function.blocks[0]
        mid_pc = block.pc + INSTRUCTION_BYTES
        assert small_program.block_at(mid_pc) is block
        assert small_program.block_starting_at(block.pc) is block
        assert small_program.block_starting_at(mid_pc) is None

    def test_block_at_gap_returns_none(self, small_program):
        assert small_program.block_at(APPLICATION_TEXT_BASE - 64) is None


class TestDeterminismAndScale:
    def test_same_seed_same_program(self):
        spec = get_spec("dss-qry2")
        a = build_program(spec, seed=3)
        b = build_program(spec, seed=3)
        assert [f.entry for f in a.all_functions()] == [
            f.entry for f in b.all_functions()]

    def test_different_seed_different_layout(self):
        spec = get_spec("dss-qry2")
        a = build_program(spec, seed=3)
        b = build_program(spec, seed=4)
        assert [f.entry for f in a.functions[:32]] != [
            f.entry for f in b.functions[:32]]

    def test_footprint_near_spec(self):
        spec = get_spec("oltp-db2")
        program = build_program(spec, seed=1)
        footprint = sum(f.size_bytes for f in program.functions)
        assert footprint >= spec.code_footprint_kb * 1024 * 0.5

    @pytest.mark.parametrize("name", sorted(PAPER_WORKLOADS))
    def test_all_paper_workloads_generate(self, name):
        program = build_program(get_spec(name), seed=2)
        program.validate()
        assert program.transactions
        assert program.handlers

    def test_data_dependent_branches_skip_no_calls(self, small_program):
        # The generator's constraint: only stable branches may guard
        # call sites (docstring of _add_local_branches).
        for function in small_program.functions:
            blocks = function.blocks
            for index, block in enumerate(blocks):
                if block.kind != BlockKind.CONDITIONAL:
                    continue
                if not 0.25 <= block.taken_probability <= 0.75:
                    continue
                target_index = next(
                    i for i, b in enumerate(blocks) if b.pc == block.target)
                skipped = blocks[index + 1:target_index]
                assert all(b.kind != BlockKind.CALL for b in skipped)
