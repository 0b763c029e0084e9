"""Figure 2: percentage of correctly predicted correct-path L1-I misses
when recording temporal streams at four observation points.

The paper's headline motivation: predictability climbs monotonically as
microarchitectural noise sources are removed — Miss (cache-filtered) <
Access (wrong-path noise) < Retire (clean) < RetireSep (trap levels
separated).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..sim.coverage import build_view_events, measure_stream_predictability
from ..trace.records import StreamKind
from .common import (
    ExperimentConfig,
    format_table,
    mean,
    percent,
    traces_for,
)
from .parallel import run_workload_grid


@dataclass(slots=True)
class Fig2Result:
    """Coverage per workload per observation point."""

    config: ExperimentConfig
    #: {workload: {stream kind: coverage}}
    coverage: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def ordering_holds(self, workload: str, tolerance: float = 0.0) -> bool:
        """True if Miss <= Access <= Retire <= RetireSep (within tolerance)."""
        row = self.coverage[workload]
        chain = [row[StreamKind.MISS], row[StreamKind.ACCESS],
                 row[StreamKind.RETIRE], row[StreamKind.RETIRE_SEP]]
        return all(later >= earlier - tolerance
                   for earlier, later in zip(chain, chain[1:]))

    def to_table(self) -> str:
        """The figure as an ASCII table."""
        headers = ["workload", "Miss", "Access", "Retire", "RetireSep"]
        rows: List[List[str]] = []
        for workload, row in self.coverage.items():
            rows.append([
                workload,
                percent(row[StreamKind.MISS]),
                percent(row[StreamKind.ACCESS]),
                percent(row[StreamKind.RETIRE]),
                percent(row[StreamKind.RETIRE_SEP]),
            ])
        return format_table(
            headers, rows,
            title="Figure 2: correctly predicted correct-path L1-I misses")


def _fig2_workload(config: ExperimentConfig, workload: str
                   ) -> Dict[str, float]:
    """One workload's Figure 2 row (the per-workload parallel slice)."""
    per_kind: Dict[str, List[float]] = {kind: [] for kind in StreamKind.ALL}
    for trace in traces_for(config, workload):
        views = build_view_events(trace.bundle, config.cache)
        for kind in StreamKind.ALL:
            oracle = measure_stream_predictability(
                trace.bundle, kind, cache_config=config.cache,
                view_events=views,
                warmup_fraction=config.warmup_fraction)
            per_kind[kind].append(oracle.coverage())
    return {kind: mean(values) for kind, values in per_kind.items()}


def run_fig2(config: ExperimentConfig,
             jobs: int = 1) -> Fig2Result:
    """Run the Figure 2 study over the configured workloads and cores."""
    result = Fig2Result(config=config)
    for workload, row in run_workload_grid(_fig2_workload, config, jobs):
        result.coverage[workload] = row
    return result
