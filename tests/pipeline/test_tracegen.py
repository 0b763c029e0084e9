"""High-level trace generation and caching."""

from dataclasses import replace

from repro.pipeline.tracegen import cached_trace, generate_trace, program_for
from repro.workloads.spec import get_spec


class TestGenerateTrace:
    def test_bundle_metadata(self, oltp_trace):
        bundle = oltp_trace.bundle
        assert bundle.workload == "oltp-db2"
        assert bundle.core == 0
        assert bundle.block_bytes == 64

    def test_accepts_spec_object(self):
        spec = replace(get_spec("web-zeus"), code_footprint_kb=320)
        trace = generate_trace(spec, instructions=20_000, seed=3)
        assert trace.bundle.workload == "web-zeus"
        trace.bundle.validate()

    def test_frontend_stats_attached(self, oltp_trace):
        assert oltp_trace.frontend_stats.conditional_branches > 0


class TestCaching:
    def test_cached_trace_identity(self):
        first = cached_trace("dss-qry17", 20_000, 5, 0)
        second = cached_trace("dss-qry17", 20_000, 5, 0)
        assert first is second

    def test_program_cached_per_workload(self):
        assert program_for("dss-qry17", 5) is program_for("dss-qry17", 5)

    def test_multi_core(self):
        traces = [cached_trace("dss-qry17", 20_000, 5, core)
                  for core in range(2)]
        assert [trace.bundle.core for trace in traces] == [0, 1]
        assert traces[0].bundle.retires != traces[1].bundle.retires
