"""Lane-walk kernel benchmark: flat-array fast path vs what it replaced.

Times the same multi-prefetcher lane walk through three planes:

* ``legacy``    — the pre-kernel (PR 2) machinery, frozen verbatim in
  :mod:`legacy_engine`: object-model cache, list-returning prefetcher
  protocol, LRUCache-keyed SAB/TIFS structures.  This is the "current
  engine" the ≥3x acceptance target is measured against.
* ``reference`` — the in-repo reference kernel (object-model cache and
  walk, but sharing the optimized prefetcher internals).
* ``fast``      — the flat-array kernel (inlined 2-way cache walkers,
  result codes, buffer-reuse hooks).

All three must produce bit-identical per-lane results before any
timing is trusted.  The measurements, together with a timing-simulator
comparison and a quick-scale figure-10 rerun under both kernels, are
written to ``$REPRO_BENCH_OUT`` when it is set (the CI job publishes
that file) and otherwise to pytest's temp dir, so a test run never
rewrites the committed ``BENCH_3.json``.
"""

import json
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path

from legacy_engine import (
    LegacyPIF,
    LegacyTIFS,
    run_legacy_multi_prefetch_simulation,
)
from repro.common.config import SystemConfig
from repro.experiments.common import (
    EXPERIMENT_CACHE,
    EXPERIMENT_PIF,
    QUICK_CONFIG,
)
from repro.experiments.fig10 import run_fig10
from repro.pipeline.tracegen import cached_trace
from repro.prefetch import make_prefetcher
from repro.sim.engine import run_multi_prefetch_simulation
from repro.sim.timing import run_timing_simulation

#: The competitive engine line-up the figures replay.
ENGINE_NAMES = ("pif", "next-line", "stride", "discontinuity", "tifs")

WORKLOAD = "web-apache"
WARMUP = 0.25
ROUNDS = 2


def _engines(plane: str):
    """A fresh, stateless-equivalent engine set for one timed round."""
    if plane == "legacy":
        return [LegacyPIF(EXPERIMENT_PIF),
                make_prefetcher("next-line"),
                make_prefetcher("stride"),
                make_prefetcher("discontinuity"),
                LegacyTIFS()]
    return [make_prefetcher("pif", pif_config=EXPERIMENT_PIF)
            if name == "pif" else make_prefetcher(name)
            for name in ENGINE_NAMES]


def _time_plane(plane: str, bundle):
    """Best-of-ROUNDS wall-clock and the last run's results."""
    best = float("inf")
    results = None
    for _ in range(ROUNDS):
        engines = _engines(plane)
        started = time.perf_counter()
        if plane == "legacy":
            results = run_legacy_multi_prefetch_simulation(
                bundle, engines, cache_config=EXPERIMENT_CACHE,
                warmup_fraction=WARMUP)
        else:
            results = run_multi_prefetch_simulation(
                bundle, engines, cache_config=EXPERIMENT_CACHE,
                warmup_fraction=WARMUP, kernel=plane)
        best = min(best, time.perf_counter() - started)
    return best, results


def _assert_identical(expected, actual, label: str) -> None:
    for want, got in zip(expected, actual):
        assert want.prefetcher == got.prefetcher, label
        assert want.baseline_misses == got.baseline_misses, label
        assert want.remaining_misses == got.remaining_misses, \
            (label, want.prefetcher)
        assert want.per_level_baseline == got.per_level_baseline, label
        assert want.per_level_remaining == got.per_level_remaining, \
            (label, want.prefetcher)
        assert want.prefetches_issued == got.prefetches_issued, \
            (label, want.prefetcher)
        assert want.cache_stats == got.cache_stats, (label, want.prefetcher)


def _bench_out_path(tmp_path: Path) -> Path:
    import os

    override = os.environ.get("REPRO_BENCH_OUT")
    if override:
        path = Path(override)
        path.parent.mkdir(parents=True, exist_ok=True)
        return path
    return tmp_path / "BENCH_3.json"


def test_lane_walk_kernel_speedup(bench_config, tmp_path):
    bundle = cached_trace(WORKLOAD, bench_config.instructions,
                          bench_config.seed).bundle

    legacy_seconds, legacy = _time_plane("legacy", bundle)
    reference_seconds, reference = _time_plane("reference", bundle)
    fast_seconds, fast = _time_plane("fast", bundle)

    # Bit-identical results across all three planes, or the timing is
    # meaningless.
    _assert_identical(legacy, reference, "legacy vs reference")
    _assert_identical(legacy, fast, "legacy vs fast")

    speedup_vs_legacy = legacy_seconds / fast_seconds
    speedup_vs_reference = reference_seconds / fast_seconds

    # Timing-simulator comparison (fig10 right panel machinery).
    system = replace(SystemConfig(), l1i=EXPERIMENT_CACHE)
    timing = {}
    for kernel in ("reference", "fast"):
        best = float("inf")
        for _ in range(ROUNDS):
            engine = make_prefetcher("pif", pif_config=EXPERIMENT_PIF)
            started = time.perf_counter()
            result = run_timing_simulation(bundle, engine, system, WARMUP,
                                           kernel=kernel)
            best = min(best, time.perf_counter() - started)
        timing[kernel] = {"seconds": best, "uipc": result.uipc()}
    assert abs(timing["reference"]["uipc"] - timing["fast"]["uipc"]) < 1e-12

    # One engine-heavy figure at quick scale under each kernel — the
    # end-to-end wall-clock view of the same win.
    quick = replace(QUICK_CONFIG, workloads=(WORKLOAD,))
    figure = {}
    import os

    saved_kernel = os.environ.get("REPRO_SIM_KERNEL")
    try:
        for kernel in ("reference", "fast"):
            os.environ["REPRO_SIM_KERNEL"] = kernel
            started = time.perf_counter()
            run_fig10(quick)
            figure[kernel] = time.perf_counter() - started
    finally:
        if saved_kernel is None:
            os.environ.pop("REPRO_SIM_KERNEL", None)
        else:
            os.environ["REPRO_SIM_KERNEL"] = saved_kernel

    record = {
        "benchmark": "lane-walk kernel (flat-array fast path)",
        "workload": WORKLOAD,
        "instructions": bench_config.instructions,
        "accesses": int(len(bundle.access_block)),
        "engines": list(ENGINE_NAMES),
        "cache": {
            "capacity_bytes": EXPERIMENT_CACHE.capacity_bytes,
            "associativity": EXPERIMENT_CACHE.associativity,
            "replacement": EXPERIMENT_CACHE.replacement,
        },
        "lane_walk": {
            "legacy_pr2_seconds": round(legacy_seconds, 4),
            "reference_kernel_seconds": round(reference_seconds, 4),
            "fast_kernel_seconds": round(fast_seconds, 4),
            "speedup_vs_legacy": round(speedup_vs_legacy, 2),
            "speedup_vs_reference": round(speedup_vs_reference, 2),
        },
        "timing_sim_pif": {
            "reference_seconds": round(timing["reference"]["seconds"], 4),
            "fast_seconds": round(timing["fast"]["seconds"], 4),
            "speedup": round(timing["reference"]["seconds"]
                             / timing["fast"]["seconds"], 2),
        },
        "fig10_quick_one_workload": {
            "reference_kernel_seconds": round(figure["reference"], 4),
            "fast_kernel_seconds": round(figure["fast"], 4),
            "speedup": round(figure["reference"] / figure["fast"], 2),
        },
        "host": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
    }
    _bench_out_path(tmp_path).write_text(json.dumps(record, indent=2) + "\n")

    print(f"\nlane walk: legacy {legacy_seconds:.3f}s | reference "
          f"{reference_seconds:.3f}s | fast {fast_seconds:.3f}s | "
          f"{speedup_vs_legacy:.2f}x vs legacy, "
          f"{speedup_vs_reference:.2f}x vs reference")

    # The acceptance target is >= 3x on the recorded (quiet-machine)
    # measurement committed in BENCH_3.json; the in-test floor is a
    # loose regression tripwire only, because shared-CI runners swing
    # wall-clock ratios by tens of percent between the timed phases.
    assert speedup_vs_legacy >= 1.5, record["lane_walk"]