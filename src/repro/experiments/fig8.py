"""Figure 8: accesses around the trigger block (left) and spatial-region
size sensitivity split by trap level (right).

The left panel justifies the skewed region shape (dense immediately
after the trigger, a real tail before it); the right panel shows
coverage rising with region size, strongly for the compact trap-level-1
handler code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..common.addressing import RegionGeometry
from ..sim.coverage import build_view_events, measure_pif_predictability
from ..sim.regionstats import (
    OFFSET_GEOMETRY,
    merge_distributions,
    trigger_offset_profile,
)
from .common import (
    ExperimentConfig,
    format_table,
    mean,
    percent,
    traces_for,
)
from .parallel import run_workload_grid

#: Region sizes the paper sweeps (total blocks including the trigger).
REGION_SIZES: Tuple[int, ...] = (1, 2, 4, 6, 8)


def geometry_for_size(total_blocks: int) -> RegionGeometry:
    """The paper's geometry at each swept size.

    Regions keep up to two preceding blocks (the Figure 8 left
    conclusion) and give the rest to succeeding blocks.
    """
    if total_blocks <= 0:
        raise ValueError("region size must be positive")
    preceding = min(2, total_blocks - 1)
    succeeding = total_blocks - 1 - preceding
    return RegionGeometry(preceding=preceding, succeeding=succeeding)


@dataclass(slots=True)
class Fig8Result:
    """Offset profile per workload and size-sweep coverage per trap level."""

    config: ExperimentConfig
    #: {workload: {offset: fraction of region references}}
    offset_profile: Dict[str, Dict[int, float]] = field(default_factory=dict)
    #: {workload: {region size: (TL0 coverage, TL1 coverage)}}
    size_coverage: Dict[str, Dict[int, Tuple[float, float]]] = field(
        default_factory=dict)

    def to_table(self) -> str:
        """Both panels as ASCII tables."""
        offsets = sorted(next(iter(self.offset_profile.values())).keys())
        headers = ["workload"] + [f"{o:+d}" for o in offsets]
        rows = [
            [workload] + [f"{100 * profile.get(o, 0.0):4.1f}" for o in offsets]
            for workload, profile in self.offset_profile.items()
        ]
        left = format_table(
            headers, rows,
            title="Figure 8 (left): references by offset from trigger (%)")

        headers2 = ["workload", "level"] + [str(s) for s in REGION_SIZES]
        rows2: List[List[str]] = []
        for workload, by_size in self.size_coverage.items():
            rows2.append([workload, "TL0"] + [
                percent(by_size[size][0]) for size in REGION_SIZES])
            rows2.append([workload, "TL1"] + [
                percent(by_size[size][1]) for size in REGION_SIZES])
        right = format_table(
            headers2, rows2,
            title="Figure 8 (right): coverage vs region size")
        return left + "\n\n" + right


def _fig8_workload(config: ExperimentConfig, workload: str) -> Tuple[
        Dict[int, float], Dict[int, Tuple[float, float]]]:
    """One workload's (offset profile, size-sweep coverage) pair."""
    traces = traces_for(config, workload)
    profiles = [trigger_offset_profile(t.bundle.retires, OFFSET_GEOMETRY)
                for t in traces]
    offset_profile = merge_distributions(profiles)

    by_size: Dict[int, Tuple[float, float]] = {}
    views = [build_view_events(t.bundle, config.cache) for t in traces]
    for size in REGION_SIZES:
        geometry = geometry_for_size(size)
        tl0: List[float] = []
        tl1: List[float] = []
        for trace, view in zip(traces, views):
            oracle = measure_pif_predictability(
                trace.bundle, geometry=geometry,
                cache_config=config.cache, view_events=view,
                warmup_fraction=config.warmup_fraction)
            tl0.append(oracle.level_coverage(0))
            tl1.append(oracle.level_coverage(1))
        by_size[size] = (mean(tl0), mean(tl1))
    return offset_profile, by_size


def run_fig8(config: ExperimentConfig,
             jobs: int = 1) -> Fig8Result:
    """Run both Figure 8 panels."""
    result = Fig8Result(config=config)
    for workload, (profile, by_size) in run_workload_grid(
            _fig8_workload, config, jobs):
        result.offset_profile[workload] = profile
        result.size_coverage[workload] = by_size
    return result
