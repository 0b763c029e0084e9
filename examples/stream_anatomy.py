#!/usr/bin/env python
"""Stream anatomy: see the microarchitectural noise the paper describes.

Dissects one OLTP trace the way Section 2 does: compares the statistics
of the miss / access / retire streams, shows spatial-region structure,
and prints a small annotated excerpt of the access stream with its
wrong-path noise — Figure 1 (right), live from the model.
"""

from repro import CacheConfig, generate_trace
from repro.sim.coverage import build_view_events, measure_stream_predictability
from repro.sim.regionstats import density_distribution, trigger_offset_profile
from repro.trace.records import StreamKind
from repro.trace.stats import analyze_block_stream, repetition_score

CACHE = CacheConfig(capacity_bytes=32 * 1024, associativity=2)

def main() -> None:
    bundle = generate_trace("oltp-db2", instructions=400_000, seed=3).bundle
    views = build_view_events(bundle, CACHE)

    print("== stream statistics ==")
    streams = {
        "miss": [e.key for e in views.miss],
        "access": [e.key for e in views.access],
        "retire": [e.key for e in views.retire],
    }
    for name, blocks in streams.items():
        stats = analyze_block_stream(blocks)
        print(f"{name:>7s}: length={stats.length:>7,d} "
              f"unique={stats.unique_blocks:>5,d} "
              f"sequential={stats.sequential_fraction:.1%} "
              f"4-gram repetition={repetition_score(blocks):.1%}")

    print()
    print("== predictability (Figure 2 methodology) ==")
    for kind in StreamKind.ALL:
        oracle = measure_stream_predictability(
            bundle, kind, cache_config=CACHE, view_events=views)
        print(f"{kind:>11s}: {oracle.coverage():.1%} of correct-path misses "
              "predicted")

    print()
    print("== spatial-region structure (Section 3) ==")
    density = density_distribution(bundle.retires)
    print("blocks/region:", "  ".join(
        f"{label}:{value:.0%}" for label, value in density.items()))
    profile = trigger_offset_profile(bundle.retires)
    top = sorted(profile.items(), key=lambda kv: -kv[1])[:5]
    print("hottest trigger offsets:", "  ".join(
        f"{offset:+d}:{value:.1%}" for offset, value in top))

    print()
    print("== access-stream excerpt with wrong-path noise ==")
    shown = 0
    for index, access in enumerate(bundle.accesses):
        if access.wrong_path and index > 50:
            for peek in bundle.accesses[index - 3:index + 4]:
                marker = "WRONG PATH" if peek.wrong_path else ""
                tl = f"TL{peek.trap_level}"
                print(f"  block {peek.block:#8x}  {tl}  {marker}")
            break
        shown += 1

if __name__ == "__main__":
    main()
