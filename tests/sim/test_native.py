"""Native lane and timing walks: differential lock against the
reference kernel on paths the trace fixtures never reach, the
engine-state contract, and the loader (build on first use, fallback,
cache key, self-heal, concurrent builds)."""

import itertools
import os
import subprocess
import sys
import textwrap
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.addressing import RegionGeometry
from repro.common.config import CacheConfig, PIFConfig, SystemConfig
from repro.core.pif import ProactiveInstructionFetch
from repro.prefetch.base import NullPrefetcher
from repro.prefetch.discontinuity import DiscontinuityPrefetcher
from repro.prefetch.nextline import NextLinePrefetcher
from repro.prefetch.stride import StridePrefetcher
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
        pytest.skip("native walk unavailable (no working C compiler); "
                    "the hook walkers cover every lane and timing")
    return library


def engine_state(engine):
    """Everything a native walk writes back: prefetch stats, and for PIF
    per channel (in creation order) the channel stats plus the
    compactor, index and SAB-file counters."""
    return (engine.stats, [
        (key, channel.stats, channel.spatial.regions_emitted,
         channel.temporal.passed, channel.temporal.discarded,
         channel.index.insertions, channel.index.hits, channel.index.misses,
         channel.sabs.allocations)
        for key, channel in getattr(engine, "_channels", {}).items()])


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


def time_both(bundle, make_engine, config=CACHE, warmup=0.4,
              perfect=False):
    """Timing results and engine counters, reference vs fast kernel:
    every ``TimingResult`` field equal, floats exactly."""
    system = replace(SystemConfig(), l1i=config)
    ref_engine, fast_engine = make_engine(), make_engine()
    ref = run_timing_simulation(bundle, ref_engine, system, warmup,
                                perfect_cache=perfect, kernel="reference")
    fast = run_timing_simulation(bundle, fast_engine, system, warmup,
                                 perfect_cache=perfect, kernel="fast")
    assert ref == fast
    assert engine_state(ref_engine) == engine_state(fast_engine)
    return fast_engine


# ----------------------------------------------------------------------
# Hypothesis differential: every native engine in the lane walk, the
# timing walk and the timing walk with a perfect L1-I, under LRU and
# FIFO.  The small synthetic traces drive stride candidates below block
# 0 and through every set, and fill and evict 1-64-entry discontinuity
# tables.  For PIF they wrap a 64-entry history (SAB pointers
# overwritten), evict from a 2-8-entry index, and cover the unbounded
# index, merged trap levels, no temporal compaction, region geometries
# from (0, 0) to 62 bits, and 1 or 8 SABs of 1 or 7 regions.

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


@st.composite
def engine_makers(draw):
    """A maker of fresh engines of one drawn type and configuration."""
    kind = draw(st.sampled_from(["none", "next-line", "stride",
                                 "discontinuity", "pif"]))
    if kind == "none":
        return NullPrefetcher
    if kind == "next-line":
        degree = draw(st.integers(1, 8))
        trigger = draw(st.sampled_from(["access", "miss"]))
        return lambda: NextLinePrefetcher(degree, trigger)
    if kind == "stride":
        degree = draw(st.integers(1, 4))
        return lambda: StridePrefetcher(degree)
    if kind == "discontinuity":
        entries = draw(st.integers(1, 64))
        next_lines = draw(st.integers(0, 3))
        return lambda: DiscontinuityPrefetcher(entries, next_lines)
    index = draw(_indexes)
    config = PIFConfig(
        geometry=RegionGeometry(*draw(_geometries)), history_entries=64,
        index_entries=index[0], index_associativity=index[1],
        sab_count=draw(st.sampled_from([1, 8])),
        sab_window_regions=draw(st.sampled_from([1, 7])),
        temporal_compactor_entries=draw(st.sampled_from([0, 4])))
    separate, unbounded = draw(st.booleans()), draw(st.booleans())
    return lambda: ProactiveInstructionFetch(
        config, separate_trap_levels=separate, unbounded_index=unbounded)


@settings(max_examples=300, deadline=None)
@given(bundle=synthetic_bundles(), make_engine=engine_makers(),
       mode=st.sampled_from(["lane", "timing", "perfect"]),
       replacement=st.sampled_from(["lru", "fifo"]),
       capacity=st.sampled_from([1024, 2048, 32768]),
       warmup=st.sampled_from([0.0, 0.3]))
def test_native_matches_reference(native_library, bundle, make_engine, mode,
                                  replacement, capacity, warmup):
    config = CacheConfig(capacity_bytes=capacity, associativity=2,
                         replacement=replacement)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_TRACE_STORE", "off")
        if mode == "lane":
            engine, = walk_both(bundle, lambda: [make_engine()],
                                config=config, warmup=warmup)
        else:
            engine = time_both(bundle, make_engine, config=config,
                               warmup=warmup, perfect=mode == "perfect")
    assert engine.walked_natively == (type(engine) is not NullPrefetcher)


# ----------------------------------------------------------------------
# Engine-state contract.

def pif_engines():
    return [ProactiveInstructionFetch(PIFConfig(sab_window_regions=3))]


#: Makers of every native engine type that learns state.
STATEFUL = (lambda: pif_engines()[0], NextLinePrefetcher, StridePrefetcher,
            DiscontinuityPrefetcher)


def test_second_walk_is_refused(native_library, oltp_trace):
    for make, timing in itertools.product(STATEFUL, (False, True)):
        engine = make()
        if timing:
            run_timing_simulation(oltp_trace.bundle, engine)
        else:
            run_multi_prefetch_simulation(oltp_trace.bundle, [engine],
                                          cache_config=CACHE)
        assert engine.walked_natively
        for kernel in ("fast", "reference"):
            with pytest.raises(RuntimeError, match="native walk"):
                run_multi_prefetch_simulation(oltp_trace.bundle, [engine],
                                              cache_config=CACHE,
                                              kernel=kernel)
            with pytest.raises(RuntimeError, match="native walk"):
                run_timing_simulation(oltp_trace.bundle, engine,
                                      kernel=kernel)
        engine.reset()
        assert not engine.walked_natively
        run_multi_prefetch_simulation(oltp_trace.bundle, [engine],
                                      cache_config=CACHE)
    # No learned state, nothing to refuse.
    engine = NullPrefetcher()
    for _ in range(2):
        run_multi_prefetch_simulation(oltp_trace.bundle, [engine],
                                      cache_config=CACHE)
        run_timing_simulation(oltp_trace.bundle, engine)
    assert not engine.walked_natively


def test_walked_engine_continues_on_the_hook_walker(native_library,
                                                    oltp_trace, web_trace):
    """An engine with state takes the hook walkers, lane and timing,
    which continue from that state exactly as the reference does."""
    system = replace(SystemConfig(), l1i=CACHE)
    for make in STATEFUL:
        engines = {kernel: [make()] for kernel in ("fast", "reference")}
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
        assert_walks_identical(ref, engines["reference"], fast,
                               engines["fast"])
        ref_engine, fast_engine = engines["reference"][0], engines["fast"][0]
        assert run_timing_simulation(oltp_trace.bundle, ref_engine, system,
                                     kernel="reference") == \
            run_timing_simulation(oltp_trace.bundle, fast_engine, system)
        assert not fast_engine.walked_natively
        assert engine_state(ref_engine) == engine_state(fast_engine)


def _huge_bundle(blocks):
    """A correct-path-only bundle over ``blocks`` with small PCs."""
    blocks = np.asarray(blocks, dtype=np.int64)
    pcs = np.arange(len(blocks), dtype=np.int64) * 4
    traps = np.zeros(len(blocks), dtype=np.uint8)
    return TraceBundle.from_columns(
        workload="synthetic", core=0, seed=0, block_bytes=64,
        retire_pc=pcs, retire_trap=traps, access_block=blocks,
        access_pc=pcs, access_trap=traps,
        access_wrong_path=np.zeros(len(blocks), dtype=np.bool_),
        instructions=len(blocks))


def test_candidates_that_could_leave_int64_take_the_hook_walker(
        native_library, monkeypatch):
    """Blocks up to 2**61: stride candidates of degree 3 could reach
    2**63 and are declined, degree 2 fits.  Blocks up to 2**63 - 3:
    next-line candidates of degree 3 could pass int64 and are declined,
    degree 2 fits.  Python ints never overflow, so either way the lanes
    equal the reference's."""
    monkeypatch.setenv("REPRO_TRACE_STORE", "off")
    top = 2 ** 61
    strided = _huge_bundle([0, top // 2, top, 7, top // 2, 0, top // 2,
                            top, 3])
    for degree, walks_natively in ((2, True), (3, False)):
        engine, = walk_both(strided, lambda: [StridePrefetcher(degree)])
        assert engine.walked_natively == walks_natively
    top = 2 ** 63 - 3
    sequential = _huge_bundle([top - 9, top - 2, top, 5, top - 1, top])
    for degree, walks_natively in ((2, True), (3, False)):
        engine, = walk_both(sequential,
                            lambda: [NextLinePrefetcher(degree)])
        assert engine.walked_natively == walks_natively


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
    assert "native walk unavailable" in str(warned[0].message)
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
    edited = tmp_path / "_walk.c"
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
