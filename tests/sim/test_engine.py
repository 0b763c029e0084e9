"""Single-pass multi-prefetcher engine: equivalence and lane isolation.

The contract of :func:`repro.sim.engine.run_multi_prefetch_simulation`
is that one shared trace walk produces, for every lane, *exactly* the
result a standalone :func:`run_prefetch_simulation` call would have —
same misses, same per-level counts, same coverage, same issue counts.
"""

import pytest

from repro.common.config import CacheConfig, PIFConfig
from repro.core.pif import ProactiveInstructionFetch
from repro.prefetch import make_prefetcher
from repro.sim.engine import run_multi_prefetch_simulation
from repro.sim.tracesim import run_prefetch_simulation

#: Engines compared in the shared walk (the competitive set + stride).
ENGINE_SET = ("pif", "next-line", "stride", "tifs")

CACHE = CacheConfig(capacity_bytes=16 * 1024, associativity=2)


def build_engine(name: str):
    if name == "pif":
        return ProactiveInstructionFetch(PIFConfig(sab_window_regions=3))
    return make_prefetcher(name)


def assert_results_identical(single, multi):
    assert single.prefetcher == multi.prefetcher
    assert single.baseline_misses == multi.baseline_misses
    assert single.remaining_misses == multi.remaining_misses
    assert single.per_level_baseline == multi.per_level_baseline
    assert single.per_level_remaining == multi.per_level_remaining
    assert single.prefetches_issued == multi.prefetches_issued
    assert single.coverage() == multi.coverage()
    assert single.cache_stats.demand_misses == \
        multi.cache_stats.demand_misses
    assert single.cache_stats.prefetch_requests == \
        multi.cache_stats.prefetch_requests
    assert single.cache_stats.useful_prefetches == \
        multi.cache_stats.useful_prefetches


class TestEquivalence:
    def test_matches_sequential_runs_per_engine(self, oltp_trace):
        """One shared walk == N sequential walks, bit for bit."""
        bundle = oltp_trace.bundle
        multi = run_multi_prefetch_simulation(
            bundle, [build_engine(name) for name in ENGINE_SET],
            cache_config=CACHE, warmup_fraction=0.4)
        assert [r.prefetcher for r in multi] == \
            [build_engine(n).name for n in ENGINE_SET]
        for name, multi_result in zip(ENGINE_SET, multi):
            single = run_prefetch_simulation(
                bundle, build_engine(name), cache_config=CACHE,
                warmup_fraction=0.4)
            assert_results_identical(single, multi_result)

    def test_lanes_share_one_baseline(self, oltp_trace):
        """Lanes with the same cache configuration report the same
        baseline, computed once."""
        results = run_multi_prefetch_simulation(
            oltp_trace.bundle,
            [build_engine("pif"), build_engine("next-line")],
            cache_config=CACHE, warmup_fraction=0.4)
        assert results[0].baseline_misses == results[1].baseline_misses
        assert results[0].baseline_stats is results[1].baseline_stats

    def test_per_lane_cache_configs(self, oltp_trace):
        """Per-lane cache overrides give each lane its own baseline,
        equal to what a sequential run at that configuration reports."""
        small = CacheConfig(capacity_bytes=8 * 1024, associativity=2)
        results = run_multi_prefetch_simulation(
            oltp_trace.bundle,
            [build_engine("next-line"), build_engine("next-line")],
            cache_config=CACHE, cache_configs=[None, small],
            warmup_fraction=0.4)
        assert results[1].baseline_misses > results[0].baseline_misses
        single = run_prefetch_simulation(
            oltp_trace.bundle, build_engine("next-line"),
            cache_config=small, warmup_fraction=0.4)
        assert_results_identical(single, results[1])


class TestValidation:
    def test_rejects_bad_warmup(self, oltp_trace):
        with pytest.raises(ValueError):
            run_multi_prefetch_simulation(
                oltp_trace.bundle, [build_engine("next-line")],
                warmup_fraction=1.0)

    def test_rejects_mismatched_cache_configs(self, oltp_trace):
        with pytest.raises(ValueError):
            run_multi_prefetch_simulation(
                oltp_trace.bundle, [build_engine("next-line")],
                cache_configs=[CACHE, CACHE])

    def test_empty_engine_list_is_a_noop(self, oltp_trace):
        assert run_multi_prefetch_simulation(oltp_trace.bundle, []) == []


# ----------------------------------------------------------------------
# Kernel differential locks: fast (the native walk where it applies)
# vs reference (object-model cache + list protocol) must be
# bit-identical for every prefetcher and replacement policy.

from repro.core.pif import AccessOrderPIF  # noqa: E402
from repro.sim.engine import resolve_kernel  # noqa: E402

#: Every engine type of the native walk: none, both next-line
#: triggers, stride, discontinuity, tifs, pif with and without
#: trap-level separation, and the fetch-order pif.
ALL_ENGINES = ("pif", "pif-no-tlsep", "next-line", "next-line-miss",
               "stride", "discontinuity", "tifs", "none")


def build_matrix_engines():
    engines = [build_engine("pif")
               if name == "pif" else make_prefetcher(name)
               for name in ALL_ENGINES]
    engines.append(AccessOrderPIF(PIFConfig(sab_window_regions=3)))
    return engines


def assert_full_lane_identity(ref, fast):
    assert ref.prefetcher == fast.prefetcher
    assert ref.baseline_misses == fast.baseline_misses
    assert ref.remaining_misses == fast.remaining_misses, ref.prefetcher
    assert ref.per_level_baseline == fast.per_level_baseline
    assert ref.per_level_remaining == fast.per_level_remaining, ref.prefetcher
    assert ref.prefetches_issued == fast.prefetches_issued, ref.prefetcher
    assert ref.cache_stats == fast.cache_stats, ref.prefetcher
    assert ref.baseline_stats == fast.baseline_stats


class TestKernelEquivalence:
    @pytest.mark.parametrize("replacement", ["lru", "fifo", "random"])
    def test_every_prefetcher_every_policy(self, oltp_trace, replacement):
        """The full engine matrix, fast vs reference, one policy at a
        time — per-lane results and prefetcher counters bit-identical."""
        config = CacheConfig(capacity_bytes=16 * 1024, associativity=2,
                             replacement=replacement)
        ref_engines = build_matrix_engines()
        fast_engines = build_matrix_engines()
        ref = run_multi_prefetch_simulation(
            oltp_trace.bundle, ref_engines, cache_config=config,
            warmup_fraction=0.4, kernel="reference")
        fast = run_multi_prefetch_simulation(
            oltp_trace.bundle, fast_engines, cache_config=config,
            warmup_fraction=0.4, kernel="fast")
        for ref_result, fast_result in zip(ref, fast):
            assert_full_lane_identity(ref_result, fast_result)
        for ref_engine, fast_engine in zip(ref_engines, fast_engines):
            assert ref_engine.stats == fast_engine.stats, ref_engine.name

    @pytest.mark.parametrize("native_walk", ["native", "python"])
    @pytest.mark.parametrize("replacement", ["lru", "fifo", "random"])
    def test_pif_lanes_with_and_without_native(self, oltp_trace,
                                               monkeypatch, replacement,
                                               native_walk):
        """PIF lanes, retire-order and fetch-order, vs the reference,
        once through the native lane walk and once with the loader
        returning None (the reference walk): lane results, prefetch
        stats, channel stats and the compactor, index and SAB-file
        counters all bit-identical."""
        from repro.sim import native

        if native_walk == "python":
            monkeypatch.setattr(native, "load", lambda: None)
        elif native.load() is None:
            pytest.skip("native walk unavailable (no working C compiler)")
        config = CacheConfig(capacity_bytes=16 * 1024, associativity=2,
                             replacement=replacement)

        def engines():
            return [build_engine("pif"), make_prefetcher("pif-no-tlsep"),
                    ProactiveInstructionFetch(unbounded_index=True),
                    ProactiveInstructionFetch(PIFConfig(
                        sab_count=1, history_entries=256, index_entries=64,
                        temporal_compactor_entries=0)),
                    AccessOrderPIF(PIFConfig(sab_window_regions=3))]

        def state(engine):
            return (engine.stats, [
                (key, channel.stats, channel.spatial.regions_emitted,
                 channel.temporal.passed, channel.temporal.discarded,
                 channel.index.insertions, channel.index.hits,
                 channel.index.misses, channel.sabs.allocations)
                for key, channel in engine._channels.items()])

        ref_engines, fast_engines = engines(), engines()
        ref = run_multi_prefetch_simulation(
            oltp_trace.bundle, ref_engines, cache_config=config,
            warmup_fraction=0.4, kernel="reference")
        fast = run_multi_prefetch_simulation(
            oltp_trace.bundle, fast_engines, cache_config=config,
            warmup_fraction=0.4, kernel="fast")
        for ref_result, fast_result in zip(ref, fast):
            assert_full_lane_identity(ref_result, fast_result)
        for ref_engine, fast_engine in zip(ref_engines, fast_engines):
            assert state(ref_engine) == state(fast_engine)
            assert fast_engine.walked_natively == (native_walk == "native")

    @pytest.mark.parametrize("associativity,capacity",
                             [(1, 8 * 1024), (4, 16 * 1024)])
    def test_generic_walker_geometries(self, oltp_trace, associativity,
                                       capacity):
        """Non-2-way geometries walk natively too (when the library
        loads) and must still match the reference exactly."""
        from repro.sim import native

        config = CacheConfig(capacity_bytes=capacity,
                             associativity=associativity)
        ref = run_multi_prefetch_simulation(
            oltp_trace.bundle, build_matrix_engines(), cache_config=config,
            warmup_fraction=0.4, kernel="reference")
        fast_engines = build_matrix_engines()
        fast = run_multi_prefetch_simulation(
            oltp_trace.bundle, fast_engines, cache_config=config,
            warmup_fraction=0.4, kernel="fast")
        for ref_result, fast_result in zip(ref, fast):
            assert_full_lane_identity(ref_result, fast_result)
        if native.load() is not None:
            for engine in fast_engines:
                assert engine.walked_natively == (engine.name != "none"), \
                    engine.name

    def test_kernel_resolution(self):
        assert resolve_kernel(None) == "fast"
        assert resolve_kernel("fast") == "fast"
        assert resolve_kernel("reference") == "reference"
        with pytest.raises(ValueError):
            resolve_kernel("vectorized")

    def test_rejects_unknown_kernel(self, oltp_trace):
        with pytest.raises(ValueError):
            run_multi_prefetch_simulation(
                oltp_trace.bundle, [build_engine("next-line")],
                kernel="sideways")


class TestWalkerSelection:
    """The fast kernel walks natively every exact type of the native
    table, on every geometry and policy, and nothing else."""

    def test_fused_and_fallback_selection(self, oltp_trace, monkeypatch):
        from repro.prefetch.nextline import NextLinePrefetcher
        from repro.sim import native
        from repro.sim.engine import _NATIVE_ENGINES, _native_inputs

        if native.load() is None:
            pytest.skip("native walk unavailable (no working C compiler)")
        monkeypatch.setenv("REPRO_TRACE_STORE", "off")
        bundle = oltp_trace.bundle
        engines = build_matrix_engines()
        assert {type(engine) for engine in engines} == set(_NATIVE_ENGINES)
        for config in (CACHE,
                       CacheConfig(capacity_bytes=16 * 1024,
                                   associativity=4),
                       CacheConfig(capacity_bytes=16 * 1024,
                                   associativity=2, replacement="random"),
                       CacheConfig(capacity_bytes=8 * 1024,
                                   associativity=1, replacement="fifo")):
            for engine in engines:
                assert _native_inputs(engine, config, bundle, 0) \
                    is not None, (engine.name, config)

        # A subclass may change behaviour: it takes the reference walk.
        class Renamed(NextLinePrefetcher):
            pass

        assert Renamed not in _NATIVE_ENGINES
        assert _native_inputs(Renamed(), CACHE, bundle, 0) is None


class TestListApiOverrides:
    """A subclass that overrides the hook of a native engine type must
    be honored by the fast kernel (it takes the reference walk instead
    of the native walk of its base type)."""

    def test_subclass_filter_is_honored(self, oltp_trace):
        from repro.prefetch.nextline import NextLinePrefetcher

        class EvenOnlyNextLine(NextLinePrefetcher):
            name = "next-line-even"

            def on_demand_access(self, block, pc, trap_level, hit,
                                 was_prefetched):
                candidates = super().on_demand_access(
                    block, pc, trap_level, hit, was_prefetched)
                return [b for b in candidates if b % 2 == 0]

        fast = run_prefetch_simulation(
            oltp_trace.bundle, EvenOnlyNextLine(), cache_config=CACHE,
            warmup_fraction=0.4)
        reference = run_multi_prefetch_simulation(
            oltp_trace.bundle, [EvenOnlyNextLine()], cache_config=CACHE,
            warmup_fraction=0.4, kernel="reference")[0]
        plain = run_prefetch_simulation(
            oltp_trace.bundle, make_prefetcher("next-line"),
            cache_config=CACHE, warmup_fraction=0.4)
        # Identical across kernels, and visibly different from the
        # unfiltered engine (the filter actually ran).
        assert fast.prefetches_issued == reference.prefetches_issued
        assert fast.remaining_misses == reference.remaining_misses
        assert fast.cache_stats == reference.cache_stats
        assert fast.prefetches_issued < plain.prefetches_issued
