"""Figure 10: competitive comparison — miss coverage (left) and speedup
(right) for Next-line, TIFS, PIF, and a perfect L1-I.

The paper's bottom line: PIF's coverage is near-perfect where TIFS
reaches 65-90 %, and its speedup converges to the perfect cache's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from .common import ExperimentConfig, format_table, mean, percent, run_spec

#: Engines compared, in the paper's presentation order.
ENGINES: Tuple[str, ...] = ("next-line", "tifs", "pif")


@dataclass(slots=True)
class Fig10Result:
    """Coverage and speedup per workload per engine."""

    config: ExperimentConfig
    #: {workload: {engine: miss coverage}}
    coverage: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: {workload: {engine or 'perfect': speedup}}
    speedup: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def mean_speedup(self, engine: str) -> float:
        """Geometric-mean-free average speedup across workloads (the
        paper reports an arithmetic average)."""
        return mean(self.speedup[w][engine] for w in self.speedup)

    def pif_wins_everywhere(self) -> bool:
        """True if PIF's coverage beats both baselines on every workload."""
        return all(
            row["pif"] >= row["tifs"] and row["pif"] >= row["next-line"]
            for row in self.coverage.values()
        )

    def to_table(self) -> str:
        """Both panels as ASCII tables."""
        headers = ["workload"] + list(ENGINES)
        rows = [
            [workload] + [percent(row[e]) for e in ENGINES]
            for workload, row in self.coverage.items()
        ]
        left = format_table(headers, rows,
                            title="Figure 10 (left): L1 miss coverage")

        headers2 = ["workload"] + list(ENGINES) + ["perfect"]
        rows2 = [
            [workload] + [f"{row[e]:.3f}" for e in (*ENGINES, "perfect")]
            for workload, row in self.speedup.items()
        ]
        right = format_table(headers2, rows2,
                             title="Figure 10 (right): speedup over no-prefetch")
        return left + "\n\n" + right


def run_fig10(config: ExperimentConfig, jobs: int = 1,
              out: Optional[Union[str, Path]] = None) -> Fig10Result:
    """Run both Figure 10 panels over the configured workloads: the
    ``fig10`` spec through the sweep runner, its store under
    ``out/fig10`` (see :func:`~repro.experiments.common.run_spec`)."""
    coverage, speedup = run_spec("fig10", config, jobs, out,
                                 ("coverage", "speedup"))
    return Fig10Result(
        config=config,
        coverage={workload: {engine: row[engine] for engine in ENGINES}
                  for workload, row in coverage.items()},
        speedup=speedup)
