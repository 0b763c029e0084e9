"""End-to-end integration: the whole pipeline from spec to speedup."""

from dataclasses import replace

from repro import (
    CacheConfig,
    PIFConfig,
    ProactiveInstructionFetch,
    SystemConfig,
    generate_trace,
    make_prefetcher,
)
from repro.sim import run_prefetch_simulation, speedup_comparison
from repro.sim.coverage import build_view_events, measure_pif_predictability

CACHE = CacheConfig(capacity_bytes=16 * 1024, associativity=2)


class TestEndToEnd:
    def test_full_pipeline_one_workload(self):
        """spec -> program -> execution -> streams -> PIF -> coverage
        and timing, in one pass, with every cross-layer invariant."""
        trace = generate_trace("dss-qry2", instructions=150_000, seed=31)
        bundle = trace.bundle
        bundle.validate()

        views = build_view_events(bundle, CACHE)
        oracle = measure_pif_predictability(bundle, cache_config=CACHE,
                                            view_events=views)
        assert oracle.coverage() > 0.5

        pif = ProactiveInstructionFetch(PIFConfig(sab_window_regions=3))
        sim = run_prefetch_simulation(bundle, pif, cache_config=CACHE,
                                      warmup_fraction=0.3)
        assert sim.coverage() > 0.5
        assert sim.cache_stats.prefetch_accuracy() > 0.4

        system = replace(SystemConfig(), l1i=CACHE)
        comparison = speedup_comparison(
            bundle, {"pif": ProactiveInstructionFetch(
                PIFConfig(sab_window_regions=3))}, system)
        assert comparison["perfect"] >= comparison["pif"] - 0.02
        assert comparison["pif"] >= 1.0 - 0.01

    def test_public_api_surface(self):
        """Everything the README quickstart uses must be importable from
        the package root."""
        import repro

        for name in ("generate_trace", "ProactiveInstructionFetch",
                     "make_prefetcher", "CacheConfig", "PIFConfig",
                     "SystemConfig", "TraceBundle", "WORKLOAD_NAMES",
                     "PAPER_WORKLOADS", "get_spec", "cached_trace",
                     "AccessOrderPIF", "__version__"):
            assert hasattr(repro, name), name

    def test_all_engines_run_on_all_suites(self):
        """Every engine must survive every workload suite without
        violating the alignment or accounting invariants."""
        for workload in ("oltp-oracle", "web-zeus"):
            bundle = generate_trace(workload, instructions=60_000,
                                    seed=17).bundle
            for engine_name in ("none", "next-line", "stride",
                                "discontinuity", "tifs", "pif"):
                engine = make_prefetcher(engine_name)
                result = run_prefetch_simulation(bundle, engine,
                                                 cache_config=CACHE)
                # Coverage is signed (unbounded below for a polluting
                # engine); a prefetcher can at best eliminate every
                # baseline miss.
                assert result.coverage() <= 1.0, (workload, engine_name)
