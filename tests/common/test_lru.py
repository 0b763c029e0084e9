"""LRU container semantics, including a model-based property test."""

from collections import OrderedDict

from hypothesis import given, strategies as st

from repro.common.lru import LRUCache


class TestLRUCache:
    def test_put_get(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b") is None

    def test_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        evicted = cache.put("c", 3)
        assert evicted == ("a", 1)
        assert "a" not in cache

    def test_get_promotes(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        evicted = cache.put("c", 3)
        assert evicted == ("b", 2)

    def test_peek_does_not_promote(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.peek("a")
        evicted = cache.put("c", 3)
        assert evicted == ("a", 1)

    def test_update_existing_promotes(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.put("a", 10) is None
        assert cache.put("c", 3) == ("b", 2)
        assert cache.get("a") == 10

    def test_zero_capacity_stores_nothing(self):
        cache = LRUCache(0)
        assert cache.put("a", 1) == ("a", 1)
        assert len(cache) == 0

    def test_lru_mru_keys(self):
        cache = LRUCache(3)
        for key in "abc":
            cache.put(key, key)
        assert cache.lru_key() == "a"
        assert cache.mru_key() == "c"
        assert LRUCache(1).lru_key() is None

    def test_discard(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        assert cache.discard("a")
        assert not cache.discard("a")

    def test_items_mru_first(self):
        cache = LRUCache(3)
        for key in "abc":
            cache.put(key, key.upper())
        assert [k for k, _ in cache.items_mru_first()] == ["c", "b", "a"]

    @given(st.lists(st.tuples(st.sampled_from("abcdefg"),
                              st.booleans()), max_size=200),
           st.integers(min_value=1, max_value=4))
    def test_against_ordered_dict_model(self, operations, capacity):
        cache = LRUCache(capacity)
        model: OrderedDict = OrderedDict()
        for key, is_put in operations:
            if is_put:
                cache.put(key, key)
                if key in model:
                    model.move_to_end(key)
                model[key] = key
                while len(model) > capacity:
                    model.popitem(last=False)
            else:
                got = cache.get(key)
                if key in model:
                    model.move_to_end(key)
                    assert got == key
                else:
                    assert got is None
        assert list(model) == [
            k for k, _ in reversed(list(cache.items_mru_first()))]
