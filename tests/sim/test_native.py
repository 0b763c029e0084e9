"""Native PIF lane walk: differential lock against the reference kernel
on paths the trace fixtures never reach, the engine-state contract, and
the loader (build on first use, fallback, cache key, self-heal,
concurrent builds)."""

import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.addressing import RegionGeometry
from repro.common.config import CacheConfig, PIFConfig
from repro.core.pif import ProactiveInstructionFetch
from repro.sim import native
from repro.sim.engine import run_multi_prefetch_simulation
from repro.sim.timing import run_timing_simulation
from repro.sim.trainplan import PIFTrainPlan, train_plan_for
from repro.trace.bundle import TraceBundle

SRC = Path(__file__).resolve().parents[2] / "src"

CACHE = CacheConfig(capacity_bytes=16 * 1024, associativity=2)


@pytest.fixture()
def fresh_loader():
    """Forget this process's load outcome before and after the test."""
    native.load.cache_clear()
    yield
    native.load.cache_clear()


@pytest.fixture(scope="module")
def native_library():
    library = native.load()
    if library is None:
        pytest.skip("native PIF lane walk unavailable (no working C "
                    "compiler); the hook walker covers PIF lanes")
    return library


def engine_state(engine):
    """Everything a PIF walk writes back: prefetch stats, and per
    channel (in creation order) the channel stats plus the compactor,
    index and SAB-file counters."""
    return (engine.stats, [
        (key, channel.stats, channel.spatial.regions_emitted,
         channel.temporal.passed, channel.temporal.discarded,
         channel.index.insertions, channel.index.hits, channel.index.misses,
         channel.sabs.allocations)
        for key, channel in engine._channels.items()])


def assert_walks_identical(ref_results, ref_engines, fast_results,
                           fast_engines):
    for ref, fast in zip(ref_results, fast_results):
        assert ref.remaining_misses == fast.remaining_misses
        assert list(ref.per_level_remaining.items()) == \
            list(fast.per_level_remaining.items())
        assert ref.prefetches_issued == fast.prefetches_issued
        assert ref.cache_stats == fast.cache_stats
        assert ref.baseline_misses == fast.baseline_misses
    for ref, fast in zip(ref_engines, fast_engines):
        assert engine_state(ref) == engine_state(fast)
        assert ref.channel_stats() == fast.channel_stats()


def walk_both(bundle, make_engines, config=CACHE, warmup=0.4):
    ref_engines, fast_engines = make_engines(), make_engines()
    ref = run_multi_prefetch_simulation(bundle, ref_engines,
                                        cache_config=config,
                                        warmup_fraction=warmup,
                                        kernel="reference")
    fast = run_multi_prefetch_simulation(bundle, fast_engines,
                                         cache_config=config,
                                         warmup_fraction=warmup,
                                         kernel="fast")
    assert_walks_identical(ref, ref_engines, fast, fast_engines)
    return fast_engines


# ----------------------------------------------------------------------
# Hypothesis differential: small synthetic traces that wrap a 64-entry
# history (SAB pointers overwritten), evict from a 2-8-entry index, and
# cover the unbounded index, merged trap levels, no temporal compaction,
# region geometries from (0, 0) to 62 bits, and 1 or 8 SABs of 1 or 7
# regions.

@st.composite
def synthetic_bundles(draw):
    """Paths of blocks replayed in a drawn order (so streams recur), at
    trap levels mostly 0, with wrong-path fetches between them."""
    paths = draw(st.lists(
        st.tuples(st.lists(st.integers(0, 400), min_size=2, max_size=14),
                  st.sampled_from((0, 0, 0, 1, 2))),
        min_size=2, max_size=6))
    order = draw(st.lists(st.integers(0, len(paths) - 1), min_size=10,
                          max_size=120))
    noise = draw(st.lists(st.integers(0, 400), max_size=40))
    blocks, traps, wrongs, retire_pcs, retire_traps = [], [], [], [], []
    previous = None
    for step, which in enumerate(order):
        path, trap = paths[which]
        for block in path:
            if block == previous:
                continue  # the retire stream is block-run collapsed
            previous = block
            pc = block * 64 + 4 * (block % 16)
            blocks.append(block)
            traps.append(trap)
            wrongs.append(False)
            retire_pcs.append(pc)
            retire_traps.append(trap)
        if noise and step % 3 == 0:
            blocks.append(noise[step % len(noise)])
            traps.append(trap)
            wrongs.append(True)
    access_block = np.asarray(blocks, dtype=np.int64)
    access_pc = access_block * 64 + 4 * (access_block % 16)
    return TraceBundle.from_columns(
        workload="synthetic", core=0, seed=0, block_bytes=64,
        retire_pc=np.asarray(retire_pcs, dtype=np.int64),
        retire_trap=np.asarray(retire_traps, dtype=np.uint8),
        access_block=access_block, access_pc=access_pc,
        access_trap=np.asarray(traps, dtype=np.uint8),
        access_wrong_path=np.asarray(wrongs, dtype=np.bool_),
        instructions=len(retire_pcs))


_geometries = st.one_of(
    st.sampled_from([(0, 0), (2, 5), (7, 0), (0, 7), (31, 31), (1, 61)]),
    st.integers(0, 62).flatmap(
        lambda preceding: st.tuples(st.just(preceding),
                                    st.integers(0, 62 - preceding))))

_indexes = st.sampled_from([(2, 1), (2, 2), (4, 2), (4, 4), (6, 2),
                            (8, 2), (8, 8)])


@settings(max_examples=120, deadline=None)
@given(bundle=synthetic_bundles(), geometry=_geometries, index=_indexes,
       sab_count=st.sampled_from([1, 8]),
       window=st.sampled_from([1, 7]),
       temporal=st.sampled_from([0, 4]),
       separate=st.booleans(), unbounded=st.booleans(),
       replacement=st.sampled_from(["lru", "fifo"]),
       capacity=st.sampled_from([1024, 2048, 32768]),
       warmup=st.sampled_from([0.0, 0.3]))
def test_native_matches_reference(native_library, bundle, geometry, index,
                                  sab_count, window, temporal, separate,
                                  unbounded, replacement, capacity, warmup):
    config = PIFConfig(
        geometry=RegionGeometry(*geometry), history_entries=64,
        index_entries=index[0], index_associativity=index[1],
        sab_count=sab_count, sab_window_regions=window,
        temporal_compactor_entries=temporal)

    def make_engines():
        return [ProactiveInstructionFetch(
            config, separate_trap_levels=separate,
            unbounded_index=unbounded)]

    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_TRACE_STORE", "off")
        fast_engines = walk_both(
            bundle, make_engines, warmup=warmup,
            config=CacheConfig(capacity_bytes=capacity, associativity=2,
                               replacement=replacement))
    assert fast_engines[0].walked_natively


# ----------------------------------------------------------------------
# Engine-state contract.

def pif_engines():
    return [ProactiveInstructionFetch(PIFConfig(sab_window_regions=3))]


def test_second_walk_is_refused(native_library, oltp_trace):
    engine = pif_engines()[0]
    run_multi_prefetch_simulation(oltp_trace.bundle, [engine],
                                  cache_config=CACHE)
    assert engine.walked_natively
    for kernel in ("fast", "reference"):
        with pytest.raises(RuntimeError, match="native PIF lane walk"):
            run_multi_prefetch_simulation(oltp_trace.bundle, [engine],
                                          cache_config=CACHE, kernel=kernel)
    with pytest.raises(RuntimeError, match="native PIF lane walk"):
        run_timing_simulation(oltp_trace.bundle, engine)
    engine.reset()
    assert not engine.walked_natively
    run_multi_prefetch_simulation(oltp_trace.bundle, [engine],
                                  cache_config=CACHE)


def test_walked_engine_continues_on_the_hook_walker(native_library,
                                                    oltp_trace, web_trace):
    """An engine with state takes the hook walker, which continues from
    that state exactly as the reference does."""
    engines = {kernel: pif_engines() for kernel in ("fast", "reference")}
    for walked in engines.values():
        run_multi_prefetch_simulation(web_trace.bundle, walked,
                                      cache_config=CACHE,
                                      kernel="reference")
    ref = run_multi_prefetch_simulation(
        oltp_trace.bundle, engines["reference"], cache_config=CACHE,
        kernel="reference")
    fast = run_multi_prefetch_simulation(
        oltp_trace.bundle, engines["fast"], cache_config=CACHE,
        kernel="fast")
    assert not engines["fast"][0].walked_natively
    assert_walks_identical(ref, engines["reference"], fast, engines["fast"])


def _corrupt(plan: PIFTrainPlan, how: str) -> PIFTrainPlan:
    columns = plan._asdict()
    if how == "key":
        columns["key"] = columns["key"].copy()
        columns["key"][-1] = 256
    elif how == "order":
        columns["at"] = columns["at"][::-1].copy()
    elif how == "beyond":
        columns["at"] = columns["at"] + 10 ** 9
    elif how == "bits":
        columns["bits"] = columns["bits"] | (1 << 40)
    elif how == "dtype":
        columns["trigger"] = columns["trigger"].astype(np.int32)
    elif how == "length":
        columns["bits"] = columns["bits"][:-1]
    return PIFTrainPlan(**columns)


@pytest.mark.parametrize("how", ["key", "order", "beyond", "bits", "dtype",
                                 "length"])
def test_plan_failing_a_check_takes_the_hook_walker(native_library,
                                                    monkeypatch, oltp_trace,
                                                    how):
    monkeypatch.setattr("repro.sim.engine.train_plan_for",
                        lambda *args: _corrupt(train_plan_for(*args), how))
    engines = walk_both(oltp_trace.bundle, pif_engines)
    assert not engines[0].walked_natively


def test_columns_failing_a_check_take_the_hook_walker(native_library,
                                                      oltp_trace):
    """A non-contiguous access column (equal values) is declined."""
    bundle = oltp_trace.bundle
    strided = TraceBundle.from_columns(
        workload=bundle.workload, core=bundle.core, seed=bundle.seed,
        block_bytes=bundle.block_bytes, retire_pc=bundle.retire_pc,
        retire_trap=bundle.retire_trap,
        access_block=np.repeat(bundle.access_block, 2)[::2],
        access_pc=bundle.access_pc, access_trap=bundle.access_trap,
        access_wrong_path=bundle.access_wrong_path,
        instructions=bundle.instructions)
    engines = walk_both(strided, pif_engines)
    assert not engines[0].walked_natively


# ----------------------------------------------------------------------
# Loader.

def test_failing_compiler_warns_once_and_falls_back(fresh_loader,
                                                    monkeypatch, tmp_path,
                                                    oltp_trace):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setenv("CC", "false")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(2):
            engines = walk_both(oltp_trace.bundle, pif_engines)
            assert not engines[0].walked_natively
    warned = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(warned) == 1
    assert "native PIF lane walk unavailable" in str(warned[0].message)
    assert not list(tmp_path.glob("repro/native/*"))


def test_truncated_library_is_rebuilt(fresh_loader, monkeypatch, tmp_path):
    """A damaged library left in the cache (built, never loaded here:
    truncating a loaded library under a live process is not survivable
    for any shared object) is deleted and rebuilt."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.delenv("CC", raising=False)
    path = native.library_path()
    native.build(path, native.compiler())
    assert native.verified(path)
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:size // 2])
    assert not native.verified(path)
    assert native.load() is not None
    assert native.verified(path) and path.stat().st_size == size


def test_cache_key_covers_source_and_compiler(tmp_path):
    edited = tmp_path / "_pifwalk.c"
    edited.write_text(native.SOURCE.read_text() + "/* edited */\n")
    path = native.library_path(command=["cc"])
    assert native.library_path(edited, ["cc"]) != path
    assert native.library_path(command=["clang"]) != path
    assert native.library_path(command=["cc"]) == path


def _python(code: str, cache: Path):
    """Start ``code`` in a fresh interpreter with its own cache root and
    the default compiler."""
    env = {name: value for name, value in os.environ.items()
           if name != "CC"}
    env.update(PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(cache),
               REPRO_TRACE_STORE="off")
    return subprocess.Popen([sys.executable, "-c", textwrap.dedent(code)],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def test_importing_the_engine_builds_nothing(tmp_path):
    """What perfbench's set-up imports (its time is ``setup_s``) must not
    trigger a build; only a native walk does."""
    child = _python("""
        import repro.sim.engine
        from repro.core.pif import ProactiveInstructionFetch
        from repro.pipeline.tracegen import cached_trace
        from repro.scenarios.engines import build_engine
        from repro.scenarios.spec import load_spec
        from repro.sim.trainplan import train_plan_for
    """, tmp_path)
    _, err = child.communicate(timeout=300)
    assert child.returncode == 0, err
    assert not (tmp_path / "repro").exists()


def test_concurrent_builds_load_complete_libraries(tmp_path):
    code = """
        from repro.sim import native
        assert native.load() is not None
        print(native.verified(native.library_path()))
    """
    builders = [_python(code, tmp_path) for _ in range(2)]
    for builder in builders:
        out, err = builder.communicate(timeout=300)
        assert builder.returncode == 0, err
        assert out.strip() == "True"
    published = list((tmp_path / "repro" / "native").iterdir())
    assert len(published) == 1 and published[0].suffix == ".so"
