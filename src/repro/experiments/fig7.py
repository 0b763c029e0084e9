"""Figure 7: jump distance in history, weighted by correct predictions.

Shows why the history buffer must be deep: streams re-entered from far
back in the history contribute as many correct predictions as recent
ones, so a short history would forfeit much of the coverage.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

from ..sim.coverage import build_view_events, measure_pif_predictability
from .common import (
    ExperimentConfig,
    cumulative,
    format_table,
    normalize_histogram,
    traces_for,
)
from .parallel import run_workload_grid


@dataclass(slots=True)
class Fig7Result:
    """Per-workload weighted jump-distance CDF over log2 bins."""

    config: ExperimentConfig
    #: {workload: {log2 bin: cumulative weighted fraction}}
    cdf: Dict[str, Dict[int, float]] = field(default_factory=dict)

    def deep_fraction(self, workload: str, threshold_bin: int = 10) -> float:
        """Weighted fraction of predictions from jumps >= 2^threshold."""
        cdf = self.cdf[workload]
        below = 0.0
        for bin_, value in sorted(cdf.items()):
            if bin_ >= threshold_bin:
                break
            below = value
        return 1.0 - below

    def to_table(self) -> str:
        """The CDF as an ASCII table over log2 bins."""
        bins = sorted({b for cdf in self.cdf.values() for b in cdf})
        headers = ["workload"] + [f"2^{b}" for b in bins]
        rows: List[List[str]] = []
        for workload, cdf in self.cdf.items():
            row = [workload]
            running = 0.0
            for bin_ in bins:
                if bin_ in cdf:
                    running = cdf[bin_]
                row.append(f"{100 * running:4.0f}%")
            rows.append(row)
        return format_table(
            headers, rows,
            title="Figure 7: weighted jump distance in history (CDF)")


def _fig7_workload(config: ExperimentConfig, workload: str
                   ) -> Dict[int, float]:
    """One workload's weighted jump-distance CDF."""
    merged: Counter = Counter()
    for trace in traces_for(config, workload):
        views = build_view_events(trace.bundle, config.cache)
        oracle = measure_pif_predictability(
            trace.bundle, history_entries=1 << 22,
            cache_config=config.cache, view_events=views,
            warmup_fraction=config.warmup_fraction)
        merged.update(oracle.jump_histogram)
    return cumulative(normalize_histogram(dict(merged)))


def run_fig7(config: ExperimentConfig,
             jobs: int = 1) -> Fig7Result:
    """Run the jump-distance study (region-granularity history)."""
    result = Fig7Result(config=config)
    for workload, cdf in run_workload_grid(_fig7_workload, config, jobs):
        result.cdf[workload] = cdf
    return result
