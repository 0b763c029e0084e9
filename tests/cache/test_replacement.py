"""Replacement policy behaviour."""

import pytest

from repro.cache.replacement import (
    FIFOPolicy,
    LRUPolicy,
    RandomPolicy,
    make_policy,
)


class TestLRUPolicy:
    def test_initial_victim_is_way_zero(self):
        assert LRUPolicy(4).victim() == 0

    def test_access_promotes(self):
        policy = LRUPolicy(2)
        policy.on_access(0)
        assert policy.victim() == 1

    def test_fill_promotes(self):
        policy = LRUPolicy(3)
        policy.on_fill(0)
        policy.on_fill(1)
        policy.on_fill(2)
        assert policy.victim() == 0
        policy.on_access(0)
        assert policy.victim() == 1

    def test_invalidate_moves_to_lru(self):
        policy = LRUPolicy(3)
        for way in range(3):
            policy.on_fill(way)
        policy.on_invalidate(2)
        assert policy.victim() == 2

    def test_recency_order_exposed(self):
        policy = LRUPolicy(2)
        policy.on_access(1)
        assert policy.recency_order() == [0, 1]


class TestFIFOPolicy:
    def test_access_does_not_promote(self):
        policy = FIFOPolicy(2)
        policy.on_fill(0)
        policy.on_fill(1)
        policy.on_access(0)
        assert policy.victim() == 0

    def test_fill_order(self):
        policy = FIFOPolicy(2)
        policy.on_fill(1)
        policy.on_fill(0)
        assert policy.victim() == 1


class TestRandomPolicy:
    def test_deterministic_under_seed(self):
        a = RandomPolicy(4)
        b = RandomPolicy(4)
        assert [a.victim() for _ in range(16)] == [
            b.victim() for _ in range(16)]

    def test_victims_in_range(self):
        policy = RandomPolicy(4)
        assert all(0 <= policy.victim() < 4 for _ in range(64))


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("lru", LRUPolicy), ("fifo", FIFOPolicy), ("random", RandomPolicy)])
    def test_makes_each(self, name, cls):
        assert isinstance(make_policy(name, 2), cls)

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_policy("plru", 2)

    def test_rejects_bad_associativity(self):
        with pytest.raises(ValueError):
            LRUPolicy(0)
