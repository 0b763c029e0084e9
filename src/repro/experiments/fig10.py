"""Figure 10: competitive comparison — miss coverage (left) and speedup
(right) for Next-line, TIFS, PIF, and a perfect L1-I.

The paper's bottom line: PIF's coverage is near-perfect where TIFS
reaches 65-90 %, and its speedup converges to the perfect cache's.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

from ..common.config import SystemConfig
from ..core.pif import ProactiveInstructionFetch
from ..prefetch import make_prefetcher
from ..prefetch.base import Prefetcher
from ..sim.engine import run_multi_prefetch_simulation
from ..sim.timing import speedup_comparison
from .common import ExperimentConfig, format_table, mean, percent, traces_for
from .parallel import run_workload_grid

#: Engines compared, in the paper's presentation order.
ENGINES: Tuple[str, ...] = ("next-line", "tifs", "pif")


def _engine(name: str, config: ExperimentConfig) -> Prefetcher:
    if name == "pif":
        return ProactiveInstructionFetch(
            config.pif, block_bytes=config.cache.block_bytes)
    return make_prefetcher(name)


@dataclass(slots=True)
class Fig10Result:
    """Coverage and speedup per workload per engine."""

    config: ExperimentConfig
    #: {workload: {engine: miss coverage}}
    coverage: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: {workload: {engine or 'perfect'/'baseline': speedup}}
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


def _fig10_workload(config: ExperimentConfig, workload: str) -> Tuple[
        Dict[str, float], Dict[str, float]]:
    """One workload's (coverage row, speedup row).

    The coverage panel replays each trace once against every engine via
    the single-pass multi-prefetcher engine; the timing panel keeps
    per-engine walks because each engine evolves its own clock.
    """
    system = replace(SystemConfig(), l1i=config.cache)
    traces = traces_for(config, workload)
    coverage: Dict[str, List[float]] = {e: [] for e in ENGINES}
    speedups: Dict[str, List[float]] = {}
    for trace in traces:
        sims = run_multi_prefetch_simulation(
            trace.bundle, [_engine(name, config) for name in ENGINES],
            cache_config=config.cache,
            warmup_fraction=config.warmup_fraction)
        for engine_name, sim in zip(ENGINES, sims):
            coverage[engine_name].append(sim.coverage())
        engines = {name: _engine(name, config) for name in ENGINES}
        comparison = speedup_comparison(
            trace.bundle, engines, system=system,
            warmup_fraction=config.warmup_fraction)
        for name, value in comparison.items():
            speedups.setdefault(name, []).append(value)
    return (
        {name: mean(values) for name, values in coverage.items()},
        {name: mean(values) for name, values in speedups.items()},
    )


def run_fig10(config: ExperimentConfig,
              jobs: int = 1) -> Fig10Result:
    """Run both Figure 10 panels over the configured workloads."""
    result = Fig10Result(config=config)
    for workload, (coverage, speedup) in run_workload_grid(
            _fig10_workload, config, jobs):
        result.coverage[workload] = coverage
        result.speedup[workload] = speedup
    return result
