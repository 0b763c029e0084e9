"""Address and region-geometry arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.common.addressing import (
    PAPER_GEOMETRY,
    RegionGeometry,
    block_bits_for,
)


class TestBlockMath:
    def test_block_bits_for_common_sizes(self):
        assert block_bits_for(64) == 6
        assert block_bits_for(32) == 5
        assert block_bits_for(128) == 7

    @pytest.mark.parametrize("bad", [0, -1, 3, 48, 65])
    def test_block_bits_rejects_non_powers(self, bad):
        with pytest.raises(ValueError):
            block_bits_for(bad)


class TestRegionGeometry:
    def test_paper_geometry_shape(self):
        assert PAPER_GEOMETRY.preceding == 2
        assert PAPER_GEOMETRY.succeeding == 5
        assert PAPER_GEOMETRY.total_blocks == 8

    def test_rejects_negative_extents(self):
        with pytest.raises(ValueError):
            RegionGeometry(preceding=-1)

    def test_contains_offset(self):
        geometry = RegionGeometry(2, 5)
        assert geometry.contains_offset(0)
        assert geometry.contains_offset(-2)
        assert geometry.contains_offset(5)
        assert not geometry.contains_offset(-3)
        assert not geometry.contains_offset(6)

    def test_contains_blocks(self):
        geometry = RegionGeometry(1, 2)
        assert geometry.contains(99, trigger_block=100)
        assert geometry.contains(102, trigger_block=100)
        assert not geometry.contains(98, trigger_block=100)

    def test_bit_index_layout_matches_paper(self):
        # Left part of the vector = preceding blocks, then succeeding.
        geometry = RegionGeometry(2, 5)
        assert geometry.bit_index(-2) == 0
        assert geometry.bit_index(-1) == 1
        assert geometry.bit_index(1) == 2
        assert geometry.bit_index(5) == 6

    def test_trigger_has_no_bit(self):
        with pytest.raises(ValueError):
            RegionGeometry(2, 5).bit_index(0)

    def test_bit_index_out_of_region(self):
        with pytest.raises(ValueError):
            RegionGeometry(2, 5).bit_index(6)

    @given(st.integers(min_value=0, max_value=6),
           st.integers(min_value=0, max_value=10))
    def test_bit_index_roundtrip(self, preceding, succeeding):
        geometry = RegionGeometry(preceding, succeeding)
        for index in range(preceding + succeeding):
            offset = geometry.offset_for_bit(index)
            assert geometry.bit_index(offset) == index
            assert offset != 0

    def test_offsets_replay_order(self):
        geometry = RegionGeometry(2, 3)
        assert list(geometry.offsets()) == [-2, -1, 1, 2, 3]

    def test_degenerate_single_block_region(self):
        geometry = RegionGeometry(0, 0)
        assert geometry.total_blocks == 1
        assert list(geometry.offsets()) == []
