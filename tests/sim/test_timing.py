"""Timing model: UIPC, stalls, speedups."""

import pytest

from repro.common.config import CacheConfig, SystemConfig
from repro.core.pif import ProactiveInstructionFetch
from repro.prefetch import make_prefetcher
from repro.prefetch.base import NullPrefetcher
from repro.sim.timing import run_timing_simulation, speedup_comparison
from tests.sim.test_tracesim import THRASH, TINY, looping_bundle


def tiny_system():
    from dataclasses import replace

    return replace(SystemConfig(), l1i=TINY)


class TestTimingBasics:
    def test_perfect_cache_has_no_stalls(self):
        bundle = looping_bundle(THRASH, repeats=6)
        result = run_timing_simulation(bundle, None, tiny_system(),
                                       perfect_cache=True)
        assert result.stall_cycles == 0.0
        assert result.prefetcher == "perfect"

    def test_baseline_stalls_on_thrash(self):
        bundle = looping_bundle(THRASH, repeats=6)
        result = run_timing_simulation(bundle, NullPrefetcher(),
                                       tiny_system())
        assert result.stall_cycles > 0
        assert result.uipc() < 3.0

    def test_uipc_bounded_by_width(self, oltp_trace, test_cache_config):
        from dataclasses import replace

        system = replace(SystemConfig(), l1i=test_cache_config)
        result = run_timing_simulation(oltp_trace.bundle, NullPrefetcher(),
                                       system)
        assert 0.0 < result.uipc() <= system.pipeline.retire_width

    def test_stall_fraction_consistent(self):
        bundle = looping_bundle(THRASH, repeats=6)
        result = run_timing_simulation(bundle, NullPrefetcher(),
                                       tiny_system())
        assert 0.0 <= result.stall_fraction() < 1.0

    def test_rejects_bad_warmup(self):
        bundle = looping_bundle(THRASH, repeats=2)
        with pytest.raises(ValueError):
            run_timing_simulation(bundle, None, warmup_fraction=-0.1)

    def test_rejects_empty_trace(self):
        from repro.trace.bundle import TraceBundle

        with pytest.raises(ValueError):
            run_timing_simulation(
                TraceBundle(workload="e", core=0, seed=0), None)


class TestOrdering:
    def test_prefetching_improves_uipc_on_thrash(self):
        bundle = looping_bundle(THRASH, repeats=6)
        baseline = run_timing_simulation(bundle, NullPrefetcher(),
                                         tiny_system())
        prefetched = run_timing_simulation(
            bundle, ProactiveInstructionFetch(), tiny_system())
        assert prefetched.uipc() > baseline.uipc()

    def test_speedup_comparison_structure(self):
        bundle = looping_bundle(THRASH, repeats=6)
        comparison = speedup_comparison(
            bundle, {"pif": ProactiveInstructionFetch()}, tiny_system())
        assert comparison["baseline"] == 1.0
        assert "perfect" in comparison
        assert comparison["pif"] > 1.0
        assert comparison["perfect"] >= comparison["pif"] - 0.05

    def test_paper_shape_on_server_trace(self):
        """The Figure 10 ordering on a steady-state server trace:
        baseline < next-line < PIF <= perfect, with PIF close to
        perfect.  Needs a longer trace than the shared fixtures — at
        short lengths cold (first-visit) misses dominate, which no
        history-based prefetcher can cover.
        """
        from dataclasses import replace

        from repro.common.config import PIFConfig
        from repro.pipeline.tracegen import cached_trace

        bundle = cached_trace("web-apache", 400_000, 11).bundle
        system = replace(SystemConfig(),
                         l1i=CacheConfig(capacity_bytes=16 * 1024))
        comparison = speedup_comparison(
            bundle,
            {"next-line": make_prefetcher("next-line"),
             "pif": ProactiveInstructionFetch(
                 PIFConfig(sab_window_regions=3))},
            system, warmup_fraction=0.4)
        assert comparison["perfect"] > 1.0
        assert comparison["pif"] > 1.0
        assert comparison["perfect"] >= comparison["pif"] - 0.02
        assert comparison["pif"] > comparison["next-line"]


class TestKernelEquivalence:
    """The fast timing walk — native where it applies, the reference
    loop otherwise — vs the object-model loop: every TimingResult field
    must be identical (the floats are computed by the same arithmetic
    in the same order, so exact equality holds).  Each test runs the
    fast kernel twice: with the native library loaded and with the
    loader forced to None.
    """

    def mk(self, name):
        if name == "pif":
            from repro.common.config import PIFConfig

            return ProactiveInstructionFetch(PIFConfig(sab_window_regions=3))
        if name == "none":
            return None
        return make_prefetcher(name)

    @staticmethod
    def both_loaders(monkeypatch):
        """Yield True with the library loaded (when it builds), then
        False with the loader forced to None."""
        from repro.sim import native

        if native.load() is not None:
            yield True
        with monkeypatch.context() as patch:
            patch.setattr(native, "load", lambda: None)
            yield False

    @pytest.mark.parametrize("engine_name",
                             ["pif", "next-line", "stride", "discontinuity",
                              "tifs", "none"])
    def test_fast_matches_reference(self, web_trace, test_cache_config,
                                    engine_name, monkeypatch):
        from dataclasses import replace

        system = replace(SystemConfig(), l1i=test_cache_config)
        reference = run_timing_simulation(
            web_trace.bundle, self.mk(engine_name), system,
            warmup_fraction=0.4, kernel="reference")
        for loaded in self.both_loaders(monkeypatch):
            engine = self.mk(engine_name)
            fast = run_timing_simulation(
                web_trace.bundle, engine, system,
                warmup_fraction=0.4, kernel="fast")
            assert reference == fast
            if engine is not None:
                assert engine.walked_natively == loaded

    @pytest.mark.parametrize("kernel", ["fast", "reference"])
    def test_perfect_cache_identical_across_kernels(self, web_trace,
                                                    test_cache_config,
                                                    kernel, monkeypatch):
        from dataclasses import replace

        system = replace(SystemConfig(), l1i=test_cache_config)
        for _ in self.both_loaders(monkeypatch):
            results = [run_timing_simulation(web_trace.bundle, None, system,
                                             perfect_cache=True, kernel=k)
                       for k in ("fast", "reference")]
            assert results[0] == results[1]
            assert results[0].stall_cycles == 0.0

    def test_rejects_unknown_kernel(self, web_trace):
        with pytest.raises(ValueError):
            run_timing_simulation(web_trace.bundle, None, kernel="warp")


class TestPerfectCacheInvariants:
    """speedup_comparison's contract under perfect_cache=True."""

    def test_ratio_keys_present_and_ordered(self, web_trace,
                                            test_cache_config):
        from dataclasses import replace

        system = replace(SystemConfig(), l1i=test_cache_config)
        comparison = speedup_comparison(
            web_trace.bundle,
            {"next-line": make_prefetcher("next-line")},
            system, warmup_fraction=0.4)
        assert set(comparison) == {"baseline", "next-line", "perfect"}
        assert comparison["baseline"] == 1.0
        # A perfect L1-I never stalls, so it can never lose to the
        # stall-prone baseline.
        assert comparison["perfect"] >= comparison["baseline"]
        assert all(value > 0.0 for value in comparison.values())
