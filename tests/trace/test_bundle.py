"""Trace bundle invariants and derived views."""

import pytest

from repro.trace.bundle import TraceBundle
from repro.trace.records import FetchAccess, RetiredInstruction


def make_bundle():
    return TraceBundle(
        workload="unit",
        core=0,
        seed=1,
        retires=[
            RetiredInstruction(0, 0),
            RetiredInstruction(64, 0),
            RetiredInstruction(256, 1),
            RetiredInstruction(68, 0),
        ],
        accesses=[
            FetchAccess(0, 0, 0, False),
            FetchAccess(1, 64, 0, False),
            FetchAccess(7, 448, 0, True),
            FetchAccess(4, 256, 1, False),
            FetchAccess(1, 68, 0, False),
        ],
        instructions=40,
    )


class TestBundleViews:
    def test_retire_blocks(self):
        assert make_bundle().retire_block_array().tolist() == [0, 1, 4, 1]

    def test_correct_path_accesses(self):
        assert len(make_bundle().correct_path_accesses()) == 4

    def test_wrong_path_fraction(self):
        assert make_bundle().wrong_path_fraction() == pytest.approx(0.2)

    def test_footprint_blocks(self):
        assert make_bundle().footprint_blocks() == 3


class TestValidation:
    def test_valid_bundle_passes(self):
        make_bundle().validate()

    def test_instruction_undercount_rejected(self):
        bundle = make_bundle()
        bundle.instructions = 1
        with pytest.raises(ValueError):
            bundle.validate()

    def test_uncollapsed_retires_rejected(self):
        source = make_bundle()
        bundle = TraceBundle(
            workload=source.workload, core=0, seed=1,
            retires=source.retires + [RetiredInstruction(72, 0),
                                      RetiredInstruction(76, 0)],
            accesses=source.accesses, instructions=source.instructions)
        with pytest.raises(ValueError):
            bundle.validate()

    def test_negative_pc_rejected(self):
        bundle = TraceBundle(
            workload="unit", core=0, seed=1,
            retires=[RetiredInstruction(-64, 0)],
            accesses=[], instructions=4)
        with pytest.raises(ValueError):
            bundle.validate()

    def test_access_block_pc_mismatch_rejected(self):
        source = make_bundle()
        bundle = TraceBundle(
            workload=source.workload, core=0, seed=1,
            retires=source.retires,
            accesses=source.accesses + [FetchAccess(2, 64, 0, False)],
            instructions=source.instructions)
        with pytest.raises(ValueError):
            bundle.validate()

    def test_views_are_snapshots(self):
        """Mutating a materialized object view does not write back into
        the columns (the columnar arrays are authoritative)."""
        bundle = make_bundle()
        bundle.retires.append(RetiredInstruction(72, 0))
        assert len(bundle.retire_pc) == 4
        bundle.validate()


class TestGeneratedBundles:
    def test_generated_trace_validates(self, oltp_trace):
        oltp_trace.bundle.validate()

    def test_alignment_invariant(self, oltp_trace):
        bundle = oltp_trace.bundle
        correct = bundle.correct_path_accesses()
        assert len(correct) == len(bundle.retires)
        for access, retire in zip(correct, bundle.retires):
            assert access.pc == retire.pc
            assert access.trap_level == retire.trap_level

    def test_contains_interrupt_records(self, oltp_trace):
        levels = {r.trap_level for r in oltp_trace.bundle.retires}
        assert levels == {0, 1}
