"""Baseline replay: bit-identical to the real cache model, through the
native walk and without it."""

import numpy as np
import pytest

from repro.cache.icache import InstructionCache
from repro.common.config import CacheConfig
from repro.sim import native
from repro.sim.baseline import (
    baseline_memo_key,
    count_measured_misses,
    replay_baseline,
)

#: lru, fifo and random at 1, 2 and 4 ways (2-way names are bare).
CONFIGS = {
    **{replacement: CacheConfig(capacity_bytes=16 * 1024, associativity=2,
                                replacement=replacement)
       for replacement in ("lru", "fifo", "random")},
    **{f"{replacement}-4way": CacheConfig(capacity_bytes=16 * 1024,
                                          associativity=4,
                                          replacement=replacement)
       for replacement in ("lru", "fifo", "random")},
    "direct-mapped": CacheConfig(capacity_bytes=16 * 1024, associativity=1,
                                 replacement="lru"),
    **{f"{replacement}-direct-mapped": CacheConfig(
        capacity_bytes=16 * 1024, associativity=1, replacement=replacement)
       for replacement in ("fifo", "random")},
}


def reference_replay(bundle, config):
    """Ground truth: drive the generic cache model access by access."""
    cache = InstructionCache(config)
    hits = np.zeros(len(bundle.access_block), dtype=np.bool_)
    for position, block in enumerate(bundle.access_block.tolist()):
        hits[position] = cache.access(block).hit
    return hits, cache.stats


def both_loaders(monkeypatch):
    """Yield True with the library loaded (when it builds), then False
    with the loader forced to None."""
    if native.load() is not None:
        yield True
    with monkeypatch.context() as patch:
        patch.setattr(native, "load", lambda: None)
        yield False


class TestReplayEquivalence:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_hit_flags_and_stats_match_cache_model(self, oltp_trace, name,
                                                   monkeypatch):
        config = CONFIGS[name]
        bundle = oltp_trace.bundle
        expected_hits, expected_stats = reference_replay(bundle, config)
        for _ in both_loaders(monkeypatch):
            replay = replay_baseline(bundle, config)
            assert replay.hits.dtype == np.bool_
            assert np.array_equal(replay.hits, expected_hits)
            assert replay.stats == expected_stats

    def test_second_workload_lru(self, web_trace, test_cache_config,
                                 monkeypatch):
        bundle = web_trace.bundle
        expected_hits, expected_stats = reference_replay(bundle,
                                                         test_cache_config)
        for _ in both_loaders(monkeypatch):
            replay = replay_baseline(bundle, test_cache_config)
            assert np.array_equal(replay.hits, expected_hits)
            assert replay.stats == expected_stats


def test_memo_key_covers_the_native_walk(tmp_path, monkeypatch):
    """A persisted baseline must not outlive the walk that replayed it:
    the memo key moves with the bytes of ``_walk.c``."""
    config = CONFIGS["lru"]
    key = baseline_memo_key("content", config, 0.25)
    same = tmp_path / "same.c"
    same.write_bytes(native.SOURCE.read_bytes())
    edited = tmp_path / "edited.c"
    edited.write_bytes(native.SOURCE.read_bytes() + b"/* edited */\n")
    monkeypatch.setattr(native, "SOURCE", same)
    assert baseline_memo_key("content", config, 0.25) == key
    monkeypatch.setattr(native, "SOURCE", edited)
    assert baseline_memo_key("content", config, 0.25) != key


class TestMeasuredMissCounting:
    def test_matches_scalar_accounting(self, oltp_trace, test_cache_config):
        """The vectorized window/path/level masks equal the per-access
        branch accounting the trace walk used to do."""
        bundle = oltp_trace.bundle
        replay = replay_baseline(bundle, test_cache_config)
        warmup_fraction = 0.4
        boundary = int(len(bundle.access_block) * warmup_fraction)
        expected_misses = 0
        expected_levels = {}
        for position, (hit, wrong_path, level) in enumerate(zip(
                replay.hits.tolist(), bundle.access_wrong_path.tolist(),
                bundle.access_trap.tolist())):
            if position >= boundary and not wrong_path and not hit:
                expected_misses += 1
                expected_levels[level] = expected_levels.get(level, 0) + 1
        misses, per_level = count_measured_misses(bundle, replay.hits,
                                                  warmup_fraction)
        assert misses == expected_misses
        assert per_level == expected_levels

    def test_zero_warmup_counts_everything(self, oltp_trace,
                                           test_cache_config):
        replay = replay_baseline(oltp_trace.bundle, test_cache_config)
        misses, per_level = count_measured_misses(oltp_trace.bundle,
                                                  replay.hits, 0.0)
        assert misses == sum(per_level.values())
        assert misses > 0
