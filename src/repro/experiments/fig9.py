"""Figure 9: temporal stream length contribution (left) and history-size
sensitivity (right).

Left: correct predictions come disproportionately from medium and long
streams — temporal correlation needs long repetitive sequences.
Right: predictor coverage grows monotonically with history capacity and
knees; the paper picks 32 K regions as the engineering trade-off.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..sim.coverage import build_view_events, measure_pif_predictability
from .common import (
    ExperimentConfig,
    cumulative,
    format_table,
    mean,
    normalize_histogram,
    percent,
    traces_for,
)
from .parallel import run_workload_grid

#: History sizes swept, in region records (the paper's axis is
#: log2 of K-regions; ours starts smaller because the synthetic
#: footprints are scaled down with the cache).
HISTORY_SIZES: Tuple[int, ...] = (256, 512, 1024, 2048, 4096, 8192,
                                  16384, 32768, 65536)


@dataclass(slots=True)
class Fig9Result:
    """Stream-length CDF and history-size coverage per workload."""

    config: ExperimentConfig
    #: {workload: {log2(stream length) bin: cumulative fraction of
    #: correct predictions}}
    length_cdf: Dict[str, Dict[int, float]] = field(default_factory=dict)
    #: {workload: {history entries: coverage}}
    history_coverage: Dict[str, Dict[int, float]] = field(default_factory=dict)

    def coverage_monotone(self, workload: str, tolerance: float = 0.02) -> bool:
        """True if coverage never drops more than ``tolerance`` as the
        history grows (sampling noise allowance)."""
        series = [self.history_coverage[workload][size]
                  for size in HISTORY_SIZES]
        return all(later >= earlier - tolerance
                   for earlier, later in zip(series, series[1:]))

    def to_table(self) -> str:
        """Both panels as ASCII tables."""
        bins = sorted({b for cdf in self.length_cdf.values() for b in cdf})
        headers = ["workload"] + [f"2^{b}" for b in bins]
        rows: List[List[str]] = []
        for workload, cdf in self.length_cdf.items():
            row = [workload]
            running = 0.0
            for bin_ in bins:
                if bin_ in cdf:
                    running = cdf[bin_]
                row.append(f"{100 * running:4.0f}%")
            rows.append(row)
        left = format_table(
            headers, rows,
            title="Figure 9 (left): correct predictions by stream length (CDF)")

        headers2 = ["workload"] + [str(s) for s in HISTORY_SIZES]
        rows2 = [
            [workload] + [percent(coverage[size]) for size in HISTORY_SIZES]
            for workload, coverage in self.history_coverage.items()
        ]
        right = format_table(
            headers2, rows2,
            title="Figure 9 (right): coverage vs history size (regions)")
        return left + "\n\n" + right


def _fig9_workload(config: ExperimentConfig, workload: str
                   ) -> Tuple[Dict[int, float], Dict[int, float]]:
    """One workload's (stream-length CDF, history sweep) pair."""
    traces = traces_for(config, workload)
    views = [build_view_events(t.bundle, config.cache) for t in traces]

    lengths: Counter = Counter()
    for trace, view in zip(traces, views):
        oracle = measure_pif_predictability(
            trace.bundle, history_entries=1 << 22,
            cache_config=config.cache, view_events=view,
            warmup_fraction=config.warmup_fraction)
        for length, correct in oracle.stream_lengths:
            if length <= 0:
                continue
            bin_ = length.bit_length() - 1
            lengths[bin_] += correct
    length_cdf = cumulative(normalize_histogram(dict(lengths)))

    by_size: Dict[int, float] = {}
    for size in HISTORY_SIZES:
        coverages: List[float] = []
        for trace, view in zip(traces, views):
            oracle = measure_pif_predictability(
                trace.bundle, history_entries=size,
                cache_config=config.cache, view_events=view,
                warmup_fraction=config.warmup_fraction)
            coverages.append(oracle.coverage())
        by_size[size] = mean(coverages)
    return length_cdf, by_size


def run_fig9(config: ExperimentConfig,
             jobs: int = 1) -> Fig9Result:
    """Run both Figure 9 panels."""
    result = Fig9Result(config=config)
    for workload, (length_cdf, by_size) in run_workload_grid(
            _fig9_workload, config, jobs):
        result.length_cdf[workload] = length_cdf
        result.history_coverage[workload] = by_size
    return result
