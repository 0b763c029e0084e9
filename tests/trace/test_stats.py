"""Stream statistics."""

import pytest

from repro.trace.stats import analyze_block_stream, repetition_score


class TestAnalyzeBlockStream:
    def test_empty(self):
        stats = analyze_block_stream([])
        assert stats.length == 0
        assert stats.unique_blocks == 0

    def test_fully_sequential(self):
        stats = analyze_block_stream(list(range(10)))
        assert stats.sequential_fraction == 1.0
        assert stats.discontinuities == 0

    def test_fully_discontinuous(self):
        stats = analyze_block_stream([0, 10, 3, 99])
        assert stats.sequential_fraction == 0.0
        assert stats.discontinuities == 3

    def test_reuse_mean(self):
        stats = analyze_block_stream([1, 2, 1, 2])
        assert stats.reuse_mean == pytest.approx(2.0)

    def test_describe_keys(self):
        description = analyze_block_stream([1, 2]).describe()
        assert set(description) == {
            "length", "unique_blocks", "sequential_fraction",
            "discontinuities", "reuse_mean"}


class TestOverlapAndRepetition:
    def test_repetition_of_loop(self):
        stream = [1, 2, 3, 4] * 32
        assert repetition_score(stream) > 0.9

    def test_repetition_of_unique(self):
        assert repetition_score(list(range(64))) == 0.0

    def test_repetition_short_stream(self):
        assert repetition_score([1, 2]) == 0.0


class TestRealStreamProperties:
    def test_retire_stream_is_loopier_than_random(self, oltp_trace):
        blocks = oltp_trace.bundle.retire_block_array()
        assert repetition_score(blocks[:20000]) > 0.3

    def test_server_streams_have_discontinuities(self, web_trace):
        stats = analyze_block_stream(web_trace.bundle.retire_block_array())
        assert 0.0 < stats.sequential_fraction < 0.9
