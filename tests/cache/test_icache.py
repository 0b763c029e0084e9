"""Instruction-cache model: hits, misses, prefetch bits, LRU, and a
model-based property test against a reference implementation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.icache import InstructionCache
from repro.common.config import CacheConfig


def tiny_cache(sets=2, ways=2):
    return InstructionCache(CacheConfig(
        capacity_bytes=sets * ways * 64, associativity=ways))


class TestBasicBehaviour:
    def test_cold_miss_then_hit(self):
        cache = tiny_cache()
        assert not cache.access(5).hit
        assert cache.access(5).hit

    def test_set_mapping(self):
        cache = tiny_cache(sets=2)
        assert cache.set_index(0) == 0
        assert cache.set_index(1) == 1
        assert cache.set_index(2) == 0

    def test_lru_eviction_within_set(self):
        cache = tiny_cache(sets=1, ways=2)
        cache.access(0)
        cache.access(1)
        cache.access(0)      # 1 is now LRU
        cache.access(2)      # evicts 1
        assert cache.contains(0)
        assert not cache.contains(1)

    def test_miss_without_fill(self):
        cache = tiny_cache()
        result = cache.access(3, fill_on_miss=False)
        assert not result.hit
        assert not cache.contains(3)

    def test_invalidate(self):
        cache = tiny_cache()
        cache.access(3)
        assert cache.invalidate(3)
        assert not cache.contains(3)
        assert not cache.invalidate(3)

    def test_resident_blocks(self):
        cache = tiny_cache()
        cache.access(1)
        cache.access(2)
        assert sorted(cache.resident_blocks()) == [1, 2]


class TestPrefetchSemantics:
    def test_prefetch_installs(self):
        cache = tiny_cache()
        assert cache.prefetch(7)
        assert cache.contains(7)

    def test_prefetch_probe_filters_resident(self):
        cache = tiny_cache()
        cache.access(7)
        assert not cache.prefetch(7)
        assert cache.stats.prefetch_drops_present == 1

    def test_demand_hit_on_prefetch_sets_tag_semantics(self):
        cache = tiny_cache()
        cache.prefetch(7)
        first = cache.access(7)
        assert first.hit and first.was_prefetched
        assert not first.tagged
        second = cache.access(7)
        assert second.hit and not second.was_prefetched
        assert second.tagged

    def test_demand_miss_is_tagged(self):
        cache = tiny_cache()
        result = cache.access(9)
        assert result.tagged

    def test_useful_prefetch_counted_once(self):
        cache = tiny_cache()
        cache.prefetch(7)
        cache.access(7)
        cache.access(7)
        assert cache.stats.useful_prefetches == 1

    def test_evicted_unused_prefetch_counted(self):
        cache = tiny_cache(sets=1, ways=2)
        cache.prefetch(0)
        cache.access(1)
        cache.access(2)  # evicts prefetched-but-unused 0 (LRU)
        assert cache.stats.evicted_unused_prefetches == 1


class TestStats:
    def test_miss_rate(self):
        cache = tiny_cache()
        cache.access(0)
        cache.access(0)
        assert cache.stats.miss_rate() == pytest.approx(0.5)
        assert cache.stats.hit_rate() == pytest.approx(0.5)

    def test_mpki(self):
        cache = tiny_cache()
        cache.access(0)
        assert cache.stats.mpki(1000) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            cache.stats.mpki(0)

    def test_describe_serializable(self):
        import json

        cache = tiny_cache()
        cache.access(0)
        assert json.dumps(cache.stats.describe())


class _ReferenceCache:
    """Per-set LRU lists: the obviously-correct model."""

    def __init__(self, sets, ways):
        self.sets = [[] for _ in range(sets)]
        self.ways = ways
        self.n = sets

    def access(self, block):
        entries = self.sets[block % self.n]
        hit = block in entries
        if hit:
            entries.remove(block)
        elif len(entries) >= self.ways:
            entries.pop(0)
        entries.append(block)
        return hit


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=31), max_size=300),
       st.sampled_from([(1, 2), (2, 2), (4, 4), (2, 1)]))
def test_against_reference_model(blocks, geometry):
    sets, ways = geometry
    cache = tiny_cache(sets=sets, ways=ways)
    reference = _ReferenceCache(sets, ways)
    for block in blocks:
        assert cache.access(block).hit == reference.access(block)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=63), max_size=200))
def test_occupancy_never_exceeds_geometry(blocks):
    cache = tiny_cache(sets=2, ways=2)
    for block in blocks:
        cache.access(block)
        assert len(cache.resident_blocks()) <= 4
