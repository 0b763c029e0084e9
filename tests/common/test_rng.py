"""Deterministic RNG derivation."""

from hypothesis import given, strategies as st

from repro.common.rng import child_seed, make_rng


class TestChildSeed:
    def test_deterministic(self):
        assert child_seed(42, "a", "b") == child_seed(42, "a", "b")

    def test_name_sensitivity(self):
        assert child_seed(42, "a") != child_seed(42, "b")

    def test_root_sensitivity(self):
        assert child_seed(1, "a") != child_seed(2, "a")

    def test_path_structure_matters(self):
        # ("ab",) and ("a", "b") must not collide.
        assert child_seed(0, "ab") != child_seed(0, "a", "b")

    @given(st.integers(), st.text(max_size=20))
    def test_fits_64_bits(self, root, name):
        assert 0 <= child_seed(root, name) < 1 << 64


class TestMakeRng:
    def test_independent_streams(self):
        first = make_rng(7, "x")
        second = make_rng(7, "y")
        assert [first.random() for _ in range(4)] != [
            second.random() for _ in range(4)]

    def test_reproducible_streams(self):
        a = make_rng(7, "x")
        b = make_rng(7, "x")
        assert [a.random() for _ in range(8)] == [
            b.random() for _ in range(8)]
