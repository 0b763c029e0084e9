#!/usr/bin/env python
"""Interrupt study: why trap-level separation matters (Section 2.3).

Sweeps the interrupt rate of a Web workload and measures, per rate:

* the *predictability* gain of separating trap levels (the paper's
  Figure 2 Retire-vs-RetireSep delta, via the stream oracle) — this is
  where handler fragmentation shows up cleanly;
* end-to-end PIF miss coverage with and without separated channels
  (at this reproduction's scale the end-to-end delta is small: the
  merged design trades fragmentation for a larger shared history).
"""

from dataclasses import replace

from repro import CacheConfig, PIFConfig, ProactiveInstructionFetch, generate_trace
from repro.sim import run_prefetch_simulation
from repro.sim.coverage import build_view_events, measure_stream_predictability
from repro.trace.records import StreamKind
from repro.workloads.spec import get_spec

CACHE = CacheConfig(capacity_bytes=32 * 1024, associativity=2)
PIF = PIFConfig(sab_window_regions=3)

def main() -> None:
    base_spec = get_spec("web-apache")
    print(f"{'irq interval':>14s} {'tl1 share':>10s} "
          f"{'oracle sep-gain':>16s} {'pif':>8s} {'pif-no-sep':>11s}")
    for interval in (16_000, 8_000, 4_000, 2_000):
        spec = replace(base_spec, interrupt_interval=interval)
        bundle = generate_trace(spec, instructions=400_000, seed=7).bundle
        tl1 = sum(1 for r in bundle.retires if r.trap_level == 1)
        share = tl1 / len(bundle.retires)

        views = build_view_events(bundle, CACHE)
        retire = measure_stream_predictability(
            bundle, StreamKind.RETIRE, cache_config=CACHE,
            view_events=views).coverage()
        retire_sep = measure_stream_predictability(
            bundle, StreamKind.RETIRE_SEP, cache_config=CACHE,
            view_events=views).coverage()

        separated = run_prefetch_simulation(
            bundle, ProactiveInstructionFetch(PIF), cache_config=CACHE,
            warmup_fraction=0.4)
        merged = run_prefetch_simulation(
            bundle,
            ProactiveInstructionFetch(PIF, separate_trap_levels=False),
            cache_config=CACHE, warmup_fraction=0.4)
        print(f"{interval:>14,d} {share:>10.1%} "
              f"{retire_sep - retire:>+16.2%} "
              f"{separated.coverage():>8.1%} {merged.coverage():>11.1%}")
    print()
    print("TL1 coverage of the separated design (handler streams replay")
    print("from their own history):")
    spec = replace(base_spec, interrupt_interval=4_000)
    bundle = generate_trace(spec, instructions=400_000, seed=7).bundle
    engine = ProactiveInstructionFetch(PIF)
    result = run_prefetch_simulation(bundle, engine, cache_config=CACHE,
                                     warmup_fraction=0.4)
    for level in sorted(result.per_level_baseline):
        print(f"  TL{level}: coverage {result.level_coverage(level):.1%} "
              f"({result.per_level_baseline[level]} baseline misses)")

if __name__ == "__main__":
    main()
