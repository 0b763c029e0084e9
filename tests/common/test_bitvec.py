"""Bit-vector semantics, including the subset test the temporal
compactor relies on."""

import pytest
from hypothesis import given, strategies as st

from repro.common.bitvec import BitVector


def vectors(width=st.integers(min_value=0, max_value=16)):
    return width.flatmap(
        lambda w: st.integers(min_value=0, max_value=(1 << w) - 1 if w else 0)
        .map(lambda m: BitVector(w, m)))


class TestConstruction:
    def test_empty_and_full(self):
        assert BitVector(7, 0).popcount() == 0
        assert BitVector(7, 0b1111111).popcount() == 7

    def test_rejects_mask_beyond_width(self):
        with pytest.raises(ValueError):
            BitVector(3, 0b1000)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            BitVector(-1, 0)
        with pytest.raises(ValueError):
            BitVector(3, -1)

    def test_from_bits(self):
        vector = BitVector.from_bits(5, [0, 3])
        assert vector.test(0) and vector.test(3)
        assert not vector.test(1)

    def test_from_bits_out_of_range(self):
        with pytest.raises(ValueError):
            BitVector.from_bits(3, [3])

    def test_from_string_paper_notation(self):
        # Figure 5 writes PCA(101): leftmost char is bit 0.
        vector = BitVector.from_string("101")
        assert vector.test(0) and not vector.test(1) and vector.test(2)

    def test_from_string_rejects_junk(self):
        with pytest.raises(ValueError):
            BitVector.from_string("10x")

    def test_str_roundtrip(self):
        for text in ("", "0", "1", "10110", "0000001"):
            assert str(BitVector.from_string(text)) == text


class TestOperations:
    def test_set_clear_test(self):
        vector = BitVector(4, 0).set(2)
        assert vector.test(2)
        assert not vector.clear(2).test(2)

    def test_set_out_of_range(self):
        with pytest.raises(ValueError):
            BitVector(4, 0).set(4)

    def test_immutability(self):
        vector = BitVector(4, 0)
        vector.set(1)
        assert vector.is_empty()

    def test_subset(self):
        small = BitVector.from_string("100")
        big = BitVector.from_string("101")
        assert small.is_subset_of(big)
        assert not big.is_subset_of(small)
        assert big.is_subset_of(big)

    def test_subset_width_mismatch(self):
        with pytest.raises(ValueError):
            BitVector(3, 0).is_subset_of(BitVector(4, 0))

    def test_union_intersection(self):
        a = BitVector.from_string("110")
        b = BitVector.from_string("011")
        assert str(a.union(b)) == "111"
        assert str(a.intersection(b)) == "010"

    def test_set_bits_ascending(self):
        vector = BitVector.from_string("10101")
        assert list(vector.set_bits()) == [0, 2, 4]

    def test_iteration_matches_test(self):
        vector = BitVector.from_string("0110")
        assert list(vector) == [False, True, True, False]

    @given(vectors(), vectors())
    def test_union_is_superset_of_both(self, a, b):
        if a.width != b.width:
            return
        union = a.union(b)
        assert a.is_subset_of(union)
        assert b.is_subset_of(union)

    @given(vectors())
    def test_popcount_matches_set_bits(self, vector):
        assert vector.popcount() == len(list(vector.set_bits()))

    @given(vectors())
    def test_subset_reflexive(self, vector):
        assert vector.is_subset_of(vector)

    @given(vectors())
    def test_str_from_string_roundtrip(self, vector):
        assert BitVector.from_string(str(vector)) == vector
