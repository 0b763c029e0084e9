"""Figure 3: spatial-region density (left) and discontinuous accesses
within regions (right).

These two distributions justify the PIF record format: >50 % of regions
touch more than one block (compaction pays), and roughly a fifth are
internally discontinuous (a bit vector is needed, plain next-N-lines
over-fetches).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..sim.regionstats import (
    DENSITY_BUCKETS,
    GROUP_BUCKETS,
    density_distribution,
    discontinuity_distribution,
    merge_distributions,
)
from .common import ExperimentConfig, format_table, percent, traces_for
from .parallel import run_workload_grid


@dataclass(slots=True)
class Fig3Result:
    """Per-workload density and discontinuity bucket distributions."""

    config: ExperimentConfig
    density: Dict[str, Dict[str, float]] = field(default_factory=dict)
    discontinuity: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def multi_block_fraction(self, workload: str) -> float:
        """Fraction of regions with more than one accessed block."""
        return 1.0 - self.density[workload].get("1", 0.0)

    def discontinuous_fraction(self, workload: str) -> float:
        """Fraction of regions with more than one contiguous group."""
        return 1.0 - self.discontinuity[workload].get("1", 0.0)

    def to_table(self) -> str:
        """Both panels as ASCII tables."""
        density_headers = ["workload"] + [b[0] for b in DENSITY_BUCKETS]
        density_rows = [
            [workload] + [percent(self.density[workload].get(b[0], 0.0))
                          for b in DENSITY_BUCKETS]
            for workload in self.density
        ]
        group_headers = ["workload"] + [b[0] for b in GROUP_BUCKETS]
        group_rows = [
            [workload] + [percent(self.discontinuity[workload].get(b[0], 0.0))
                          for b in GROUP_BUCKETS]
            for workload in self.discontinuity
        ]
        left = format_table(density_headers, density_rows,
                            title="Figure 3 (left): blocks accessed per spatial region")
        right = format_table(group_headers, group_rows,
                             title="Figure 3 (right): contiguous groups per spatial region")
        return left + "\n\n" + right


def _fig3_workload(config: ExperimentConfig, workload: str
                   ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """One workload's (density, discontinuity) distributions."""
    densities: List[Dict[str, float]] = []
    groups: List[Dict[str, float]] = []
    for trace in traces_for(config, workload):
        retires = trace.bundle.retires
        densities.append(density_distribution(retires))
        groups.append(discontinuity_distribution(retires))
    return merge_distributions(densities), merge_distributions(groups)


def run_fig3(config: ExperimentConfig,
             jobs: int = 1) -> Fig3Result:
    """Run the Figure 3 characterization over the configured workloads."""
    result = Fig3Result(config=config)
    for workload, (density, groups) in run_workload_grid(
            _fig3_workload, config, jobs):
        result.density[workload] = density
        result.discontinuity[workload] = groups
    return result
