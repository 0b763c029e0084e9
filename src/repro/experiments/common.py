"""Shared configuration and helpers for the figure experiments.

Scale note (also in DESIGN.md): the paper simulates 64 KB L1-I caches
against multi-megabyte commercial binaries with billion-instruction
traces.  The reproduction runs the same regime at roughly half scale —
a 32 KB L1-I against synthetic workloads with a few-hundred-KB touched
footprint and million-instruction traces — preserving the
footprint-to-cache ratio that produces server-like miss behaviour while
staying laptop-fast in pure Python.  The SAB window is re-tuned to this
cache scale (3 regions; the paper's empirical optimum for its scale was
7 — see the ablation bench, which reproduces that tuning curve).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from ..common.config import CacheConfig, PIFConfig
from ..pipeline.tracegen import GeneratedTrace, cached_trace
from ..workloads.spec import WORKLOAD_NAMES

#: The half-scale experiment cache (see module docstring).
EXPERIMENT_CACHE = CacheConfig(capacity_bytes=32 * 1024, associativity=2,
                               block_bytes=64)

#: PIF operating point at experiment scale: paper parameters except the
#: SAB window, re-tuned for the smaller cache.
EXPERIMENT_PIF = PIFConfig(sab_count=4, sab_window_regions=3)


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Everything an experiment needs to be reproducible."""

    instructions: int = 1_600_000
    seed: int = 42
    cores: int = 2
    warmup_fraction: float = 0.4
    workloads: Tuple[str, ...] = WORKLOAD_NAMES
    cache: CacheConfig = field(default_factory=lambda: EXPERIMENT_CACHE)
    pif: PIFConfig = field(default_factory=lambda: EXPERIMENT_PIF)


#: A configuration small enough for CI smoke runs of every experiment.
QUICK_CONFIG = ExperimentConfig(instructions=300_000, cores=1)


def traces_for(config: ExperimentConfig, workload: str
               ) -> List[GeneratedTrace]:
    """The per-core traces of one workload under ``config``.

    Backed by the trace-bundle cache
    (:func:`repro.pipeline.tracegen.cached_trace`): each
    (workload, instructions, seed, core) tuple is generated once per
    process and shared by every figure and sweep point that replays it.
    Under ``jobs > 1`` the persistent worker pool
    (:func:`repro.experiments.parallel.shared_pool`) keeps its processes
    across experiments, so the same reuse holds there — a worker
    regenerates a trace at most once, no matter how many figures it
    serves.
    """
    return [cached_trace(workload, config.instructions, config.seed, core)
            for core in range(config.cores)]


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean (0.0 for an empty sequence)."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]],
                 title: str = "") -> str:
    """Render an aligned ASCII table, the experiments' output format."""
    widths = [len(h) for h in headers]
    for row in rows:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def percent(value: float) -> str:
    """Format a fraction as a percentage cell."""
    return f"{100.0 * value:5.1f}%"


def normalize_histogram(histogram: Dict[int, int]) -> Dict[int, float]:
    """Scale integer bins to fractions of the total."""
    total = sum(histogram.values())
    if total == 0:
        return {bin_: 0.0 for bin_ in histogram}
    return {bin_: count / total for bin_, count in histogram.items()}


def cumulative(histogram: Dict[int, float]) -> Dict[int, float]:
    """Running sum over sorted bins (CDF form used by Figures 7 and 9)."""
    running = 0.0
    result: Dict[int, float] = {}
    for bin_ in sorted(histogram):
        running += histogram[bin_]
        result[bin_] = running
    return result
