"""Native trace replay: a differential lock against the reference replay.

The native replay (``pipeline/_tracewalk.c``) must produce, bit for bit,
what :class:`ProgramExecutor` run through :class:`FetchModel` produces:
the six trace columns, the retired instruction count, the front-end
statistics and the final states of the executor's, the interrupt
injector's and the front end's generators.  Hypothesis draws the paper
workloads and variants of them (other interrupt rates, handler counts,
loop jitter and branch mixes), seeds, cores and lengths from one
instruction up, so runs also end inside a handler or a loop, and front
ends smaller than the paper's, whose tables alias, whose BTB sets evict
(so the lookups' promotions decide the victims) and whose RAS overflows.
"""

from __future__ import annotations

from dataclasses import astuple, replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import BranchPredictorConfig, PipelineConfig
from repro.pipeline import tracegen
from repro.pipeline.frontend import FetchModel
from repro.sim import native
from repro.workloads.executor import ProgramExecutor
from repro.workloads.generator import build_program
from repro.workloads.program import BlockKind
from repro.workloads.spec import PAPER_WORKLOADS, WORKLOAD_NAMES


@pytest.fixture(scope="module")
def replay_library():
    library = native.load_replay()
    if library is None:
        pytest.skip("native trace replay unavailable (no working C "
                    "compiler); every trace comes from the reference replay")
    return library


@st.composite
def workloads(draw):
    """A paper spec, or a variant of one."""
    spec = PAPER_WORKLOADS[draw(st.sampled_from(WORKLOAD_NAMES))]
    if draw(st.booleans()):
        probability = st.floats(0.0, 1.0)
        spec = replace(
            spec,
            interrupt_interval=draw(st.integers(200, 5_000)),
            interrupt_handlers=draw(st.integers(0, 3)),
            loop_trip_jitter=draw(st.floats(0.0, 1.0)),
            local_branch_probability=draw(probability),
            data_dependent_fraction=draw(probability))
    return spec


def powers_of_two(low, high):
    return st.integers(low, high).map(lambda bits: 1 << bits)


@st.composite
def front_ends(draw):
    """The paper's front end (the one traces are generated with), or a
    smaller one."""
    if draw(st.booleans()):
        return BranchPredictorConfig(), PipelineConfig()
    branch = BranchPredictorConfig(
        gshare_entries=draw(powers_of_two(4, 14)),
        bimodal_entries=draw(powers_of_two(4, 14)),
        chooser_entries=draw(powers_of_two(4, 14)),
        history_bits=draw(st.integers(1, 14)),
        btb_entries=draw(powers_of_two(2, 12)),
        ras_depth=draw(st.integers(1, 16)))
    fastest = draw(st.integers(1, 40))
    pipeline = PipelineConfig(
        fetch_queue_entries=draw(st.integers(0, 32)),
        min_resolve_latency=fastest,
        max_resolve_latency=draw(st.integers(fastest, 64)))
    return branch, pipeline


@lru_cache(maxsize=2)
def program_for(spec, seed):
    """The program of ``spec`` at ``seed``, kept while Hypothesis varies
    the rest (the tracegen cache would keep 32 programs alive for the
    rest of the test run)."""
    return build_program(spec, seed)


def fresh(program, spec, seed, core, front_end=None):
    """The executor and fetch model :func:`generate_trace` starts from,
    or with the ``(branch, pipeline)`` configurations of ``front_end``."""
    branch, pipeline = front_end or (None, None)
    return (ProgramExecutor(program, spec, seed=seed, core=core),
            FetchModel(program, pipeline=pipeline, branch_config=branch,
                       seed=seed + core))


def edited(spec, seed, edit):
    """The program of ``spec`` at ``seed``, edited by ``edit``."""
    program = build_program(spec, seed)
    edit(program)
    program.build_index()
    return program


def states(executor, frontend):
    return [rng.getstate() for rng in (executor._rng, executor._irq_rng,
                                       frontend._rng)]


def assert_replays_identical(library, program, spec, seed, core,
                             instructions, front_end=None):
    native_executor, native_frontend = fresh(program, spec, seed, core,
                                             front_end)
    native_columns, native_retired = tracegen._replay_native(
        library, native_executor, native_frontend, instructions)
    executor, frontend = fresh(program, spec, seed, core, front_end)
    columns, retired = tracegen._replay_reference(executor, frontend,
                                                  instructions)
    assert native_retired == retired
    assert len(native_columns) == len(columns)
    for native_column, column in zip(native_columns, columns):
        assert native_column.dtype == column.dtype
        np.testing.assert_array_equal(native_column, column)
    assert astuple(native_frontend.stats) == astuple(frontend.stats)
    assert states(native_executor, native_frontend) == states(executor,
                                                              frontend)


@settings(max_examples=30, deadline=None)
@given(spec=workloads(), seed=st.integers(0, 2**16), core=st.integers(0, 3),
       instructions=st.integers(1, 40_000), front_end=front_ends())
def test_native_replay_matches_reference(replay_library, spec, seed, core,
                                         instructions, front_end):
    assert_replays_identical(replay_library, program_for(spec, seed), spec,
                             seed, core, instructions, front_end)


def test_long_replay_matches_reference(replay_library):
    """A quarter-million instructions: loops past their first trips,
    many handlers and a warm BTB."""
    spec = PAPER_WORKLOADS["web-zeus"]
    assert_replays_identical(replay_library, program_for(spec, 3), spec, 3,
                             1, 250_000)


def test_small_btb_matches_reference(replay_library):
    """A 16-entry BTB evicts all the time, so which entry a set evicts
    depends on every promotion, the wrong path's lookups included."""
    spec = PAPER_WORKLOADS["oltp-db2"]
    front_end = (BranchPredictorConfig(btb_entries=16, ras_depth=4),
                 PipelineConfig())
    assert_replays_identical(replay_library, program_for(spec, 2), spec, 2,
                             0, 40_000, front_end)


def test_half_integer_trip_counts_match_reference(replay_library):
    """Without jitter a loop runs round(mean) trips, and at half-integer
    means only rounding half to even gives the reference's."""
    spec = replace(PAPER_WORKLOADS["dss-qry2"], loop_trip_jitter=0.0)

    def half_integer_means(program):
        for function in program.all_functions():
            for block in function.blocks:
                if block.kind == BlockKind.LOOP:
                    block.mean_iterations = int(block.mean_iterations) + 1.5

    assert_replays_identical(replay_library,
                             edited(spec, 1, half_integer_means), spec, 1,
                             0, 40_000)


def raised(library, program, spec, instructions):
    errors = []
    for replay in (lambda ex, fe: tracegen._replay_native(library, ex, fe,
                                                          instructions),
                   lambda ex, fe: tracegen._replay_reference(ex, fe,
                                                             instructions)):
        with pytest.raises((RuntimeError, ValueError)) as caught:
            replay(*fresh(program, spec, 1, 0))
        errors.append((type(caught.value), str(caught.value)))
    assert errors[0] == errors[1]
    return errors[0]


def test_non_block_pc_raises_as_the_reference(replay_library):
    spec = PAPER_WORKLOADS["dss-qry2"]

    def jump_astray(program):
        # The dispatcher's jump back to its call site.
        program.dispatcher.blocks[1].target = 0x2

    error = raised(replay_library, edited(spec, 1, jump_astray), spec,
                    40_000)
    assert error == (RuntimeError, "control reached a non-block PC 0x2")


def test_non_block_pc_in_a_handler_raises_as_the_reference(replay_library):
    spec = PAPER_WORKLOADS["dss-qry2"]

    def handlers_astray(program):
        for handler in program.handlers:
            handler.blocks[0].kind = BlockKind.JUMP
            handler.blocks[0].target = 0x6

    error = raised(replay_library, edited(spec, 1, handlers_astray), spec,
                    40_000)
    assert error == (RuntimeError, "handler control reached bad PC 0x6")


def test_empty_budget_raises_as_the_reference(replay_library):
    spec = PAPER_WORKLOADS["dss-qry2"]
    error = raised(replay_library, program_for(spec, 1), spec, 0)
    assert error == (ValueError, "n_instructions must be positive")
