"""Baseline prefetch engines."""

import pytest

from repro.prefetch import make_prefetcher
from repro.prefetch.base import NullPrefetcher
from repro.prefetch.discontinuity import DiscontinuityPrefetcher
from repro.prefetch.nextline import NextLinePrefetcher
from repro.prefetch.stride import StridePrefetcher
from repro.prefetch.tifs import TIFSPrefetcher


def demand(engine, block, hit=False, was_prefetched=False):
    return engine.on_demand_access(block, block * 64, 0, hit, was_prefetched)


class TestNull:
    def test_never_prefetches(self):
        engine = NullPrefetcher()
        assert demand(engine, 5) == []
        engine.on_retire(0, 0, True)  # must be a harmless no-op


class TestNextLine:
    def test_prefetches_next_degree_blocks(self):
        engine = NextLinePrefetcher(degree=3)
        assert demand(engine, 10) == [11, 12, 13]

    def test_miss_trigger_skips_hits(self):
        engine = NextLinePrefetcher(degree=2, trigger="miss")
        assert demand(engine, 10, hit=True) == []
        assert demand(engine, 10, hit=False) == [11, 12]

    def test_same_block_burst_absorbed(self):
        engine = NextLinePrefetcher(degree=2)
        demand(engine, 10)
        assert demand(engine, 10) == []
        assert demand(engine, 11) == [12, 13]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            NextLinePrefetcher(degree=0)
        with pytest.raises(ValueError):
            NextLinePrefetcher(trigger="sometimes")

    def test_reset(self):
        engine = NextLinePrefetcher(degree=1)
        demand(engine, 10)
        engine.reset()
        assert engine.stats.issued == 0
        assert demand(engine, 10) == [11]


class TestTIFS:
    def test_learns_and_replays_miss_stream(self):
        engine = TIFSPrefetcher(window_blocks=4)
        stream = [100, 250, 400, 550, 700]
        for block in stream:
            demand(engine, block, hit=False)
        # Revisit: the first miss triggers a replay of the recorded
        # successors.
        prefetches = demand(engine, stream[0], hit=False)
        assert set(stream[1:5]) <= set(prefetches)

    def test_would_be_miss_logging_keeps_history_alive(self):
        engine = TIFSPrefetcher(window_blocks=4)
        stream = [100, 250, 400]
        for block in stream:
            demand(engine, block, hit=False)
        # Second pass: hits on prefetched blocks must still be logged.
        collected = set(demand(engine, stream[0], hit=False))
        collected.update(demand(engine, stream[1], hit=True,
                                was_prefetched=True))
        collected.update(demand(engine, stream[2], hit=True,
                                was_prefetched=True))
        # Third pass still replays (the would-be misses kept the log
        # contiguous); cumulative prefetches cover the whole stream.
        collected.update(demand(engine, stream[0], hit=False))
        assert set(stream[1:]) <= collected

    def test_plain_hits_not_logged(self):
        engine = TIFSPrefetcher()
        demand(engine, 100, hit=True, was_prefetched=False)
        assert len(engine.history) == 0

    def test_no_replay_without_recurrence(self):
        engine = TIFSPrefetcher()
        assert demand(engine, 100, hit=False) == []
        assert demand(engine, 200, hit=False) == []

    def test_stream_advance_prefetches_deeper(self):
        engine = TIFSPrefetcher(window_blocks=2)
        stream = [100, 250, 400, 550]
        for block in stream:
            demand(engine, block, hit=False)
        first = demand(engine, stream[0], hit=False)
        assert 250 in first
        deeper = demand(engine, 250, hit=True, was_prefetched=True)
        assert 400 in deeper or 550 in deeper

    def test_reset(self):
        engine = TIFSPrefetcher()
        demand(engine, 100, hit=False)
        engine.reset()
        assert len(engine.history) == 0


class TestDiscontinuity:
    def test_learns_single_transition(self):
        engine = DiscontinuityPrefetcher(next_line_degree=0)
        demand(engine, 100, hit=False)
        demand(engine, 500, hit=False)  # learn 100 -> 500
        prefetches = demand(engine, 100, hit=True)
        assert 500 in prefetches

    def test_sequential_transition_not_learned(self):
        engine = DiscontinuityPrefetcher(next_line_degree=0)
        demand(engine, 100, hit=False)
        demand(engine, 101, hit=False)
        assert demand(engine, 100, hit=True) == []

    def test_next_line_assist(self):
        engine = DiscontinuityPrefetcher(next_line_degree=2)
        demand(engine, 100, hit=False)
        prefetches = demand(engine, 300, hit=False)
        assert {301, 302} <= set(prefetches)

    def test_one_transition_limit(self):
        # Only the most recent successor is kept per source block.
        engine = DiscontinuityPrefetcher(next_line_degree=0)
        demand(engine, 100, hit=False)
        demand(engine, 500, hit=False)
        demand(engine, 100, hit=False)
        demand(engine, 900, hit=False)
        prefetches = demand(engine, 100, hit=True)
        assert 900 in prefetches and 500 not in prefetches


class TestStride:
    def test_detects_confirmed_stride(self):
        engine = StridePrefetcher(degree=2)
        demand(engine, 10)
        demand(engine, 20)
        prefetches = demand(engine, 30)  # stride 10 confirmed
        assert prefetches == [40, 50]

    def test_unconfirmed_stride_is_silent(self):
        engine = StridePrefetcher()
        demand(engine, 10)
        assert demand(engine, 20) == []

    def test_broken_stride_resets(self):
        engine = StridePrefetcher(degree=1)
        demand(engine, 10)
        demand(engine, 20)
        demand(engine, 30)
        assert demand(engine, 99) == []


class TestFactory:
    @pytest.mark.parametrize("name", [
        "none", "next-line", "next-line-miss", "stride", "discontinuity",
        "tifs", "pif", "pif-no-tlsep"])
    def test_makes_each(self, name):
        engine = make_prefetcher(name)
        assert hasattr(engine, "on_demand_access")

    def test_pif_no_tlsep_flag(self):
        engine = make_prefetcher("pif-no-tlsep")
        assert not engine.separate_trap_levels

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_prefetcher("boomerang")
