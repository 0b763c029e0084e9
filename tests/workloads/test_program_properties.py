"""Property-based tests over generated programs and executions.

These sweep (workload, seed) combinations to check invariants that the
example-based tests only probe at one point.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.addressing import INSTRUCTION_BYTES
from repro.workloads.executor import ProgramExecutor
from repro.workloads.generator import build_program
from repro.workloads.program import BlockKind
from repro.workloads.spec import WORKLOAD_NAMES, get_spec

# Specs with a tenth of the code footprint keep generation affordable
# under hypothesis.
_SPECS = {name: replace(get_spec(name),
                        code_footprint_kb=int(get_spec(name).code_footprint_kb
                                              * 0.1))
          for name in WORKLOAD_NAMES}


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(sorted(WORKLOAD_NAMES)),
       st.integers(min_value=0, max_value=1000))
def test_generated_programs_always_validate(name, seed):
    program = build_program(_SPECS[name], seed)
    program.validate()


@settings(max_examples=6, deadline=None)
@given(st.sampled_from(sorted(WORKLOAD_NAMES)),
       st.integers(min_value=0, max_value=100))
def test_execution_covers_budget_and_stays_in_text(name, seed):
    spec = _SPECS[name]
    program = build_program(spec, seed)
    executor = ProgramExecutor(program, spec, seed=seed)
    retired = 0
    for record in executor.run(8_000):
        retired += record.instructions
        block = program.block_starting_at(record.pc)
        assert block is not None
        assert record.branch_pc == (
            record.pc + (record.instructions - 1) * INSTRUCTION_BYTES)
    assert retired >= 8_000


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=0, max_value=50))
def test_call_return_balance(seed):
    """Every application call eventually returns to its fallthrough
    (checked by replaying the record stream with a shadow stack)."""
    spec = _SPECS["dss-qry17"]
    program = build_program(spec, seed)
    executor = ProgramExecutor(program, spec, seed=seed)
    shadow = []
    for record in executor.run(6_000):
        if record.trap_level != 0:
            continue
        if record.kind == BlockKind.CALL:
            shadow.append(record.branch_pc + INSTRUCTION_BYTES)
        elif record.kind == BlockKind.RETURN and shadow:
            expected = shadow.pop()
            assert record.next_pc == expected


@pytest.mark.parametrize("name", sorted(WORKLOAD_NAMES))
def test_handler_text_never_reached_at_tl0(name):
    spec = _SPECS[name]
    program = build_program(spec, seed=4)
    executor = ProgramExecutor(program, spec, seed=4)
    handler_base = min(f.entry for f in (*program.handlers,
                                         *program.kernel_helpers))
    for record in executor.run(10_000):
        if record.trap_level == 0:
            assert record.pc < handler_base
        else:
            assert record.pc >= handler_base
