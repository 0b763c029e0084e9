"""Shared configuration and helpers for the figure experiments.

Scale note (also in DESIGN.md): the paper simulates 64 KB L1-I caches
against multi-megabyte commercial binaries with billion-instruction
traces.  The reproduction runs the same regime at roughly half scale —
a 32 KB L1-I against synthetic workloads with a few-hundred-KB touched
footprint and million-instruction traces — preserving the
footprint-to-cache ratio that produces server-like miss behaviour while
staying laptop-fast in pure Python.  The SAB window is re-tuned to this
cache scale (3 regions; the paper's empirical optimum for its scale was
7 — see the SAB ablation, which reproduces that tuning curve).  Figure
10 and the ablations state that PIF point, the cache and the warmup in
their specs (:data:`SPEC_DIR`).
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..common.config import CacheConfig
from ..pipeline.tracegen import GeneratedTrace, cached_trace
from ..workloads.spec import WORKLOAD_NAMES

#: The half-scale experiment cache (see module docstring).
EXPERIMENT_CACHE = CacheConfig(capacity_bytes=32 * 1024, associativity=2,
                               block_bytes=64)

#: The checked-in scenario specs Figure 10 and the ablations run.
SPEC_DIR = Path(__file__).with_name("specs")


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Everything an experiment needs to be reproducible."""

    instructions: int = 1_600_000
    seed: int = 42
    cores: int = 2
    warmup_fraction: float = 0.4
    workloads: Tuple[str, ...] = WORKLOAD_NAMES
    cache: CacheConfig = field(default_factory=lambda: EXPERIMENT_CACHE)


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


def run_spec(name: str, config: ExperimentConfig, jobs: int,
             out: Optional[Union[str, Path]], metrics: Sequence[str]
             ) -> List[Dict[str, Dict[str, float]]]:
    """Run the spec ``SPEC_DIR/<name>.yaml`` through the sweep runner
    and return one ``{workload: {column: per-core mean}}`` matrix per
    metric (:func:`repro.scenarios.report.coverage_matrix`).

    ``config`` sets the workloads, instructions, cores and seed; the
    spec states the cache, the warmup and the engines, at
    ``ExperimentConfig()``'s values, so a ``config`` whose ``cache`` or
    ``warmup_fraction`` differs from those raises ValueError naming the
    field.  The results store is ``out/<name>``, so a rerun with the
    same ``out`` resumes and recomputes nothing; with ``out=None`` it is
    a temporary directory, removed on return.  A sweep that ends with
    quarantined or missing points raises RuntimeError naming the
    quarantined groups and their errors, so no table with gaps is
    rendered.
    """
    from ..scenarios import (ResultsStore, coverage_matrix, load_spec,
                             point_hash, run_sweep)

    stated = ExperimentConfig()
    for field_name in ("cache", "warmup_fraction"):
        if getattr(config, field_name) != getattr(stated, field_name):
            raise ValueError(
                f"ExperimentConfig.{field_name} is "
                f"{getattr(config, field_name)!r}, but spec {name!r} "
                f"states {getattr(stated, field_name)!r}; it runs at its "
                f"spec's {field_name}")
    spec = load_spec(SPEC_DIR / f"{name}.yaml", sweep_overrides={
        "workloads": list(config.workloads),
        "instructions": config.instructions,
        "cores": config.cores,
        "seeds": [config.seed],
    })
    with tempfile.TemporaryDirectory(prefix="repro-figures-") as scratch:
        store_dir = Path(out if out is not None else scratch) / spec.name
        summary = run_sweep(spec, store_dir, jobs=jobs)
        store = ResultsStore(store_dir)
        if summary.failed or not summary.complete():
            hashes = {point_hash(point) for point in spec.points()}
            errors = sorted({
                record["failed"]["error"]
                for digest, record in store.load_current().items()
                if digest in hashes and "failed" in record})
            raise RuntimeError(
                f"sweep {spec.name!r} ended with {summary.failed} points "
                f"quarantined in {list(summary.quarantined)} and "
                f"{summary.remaining} missing; errors: {errors}")
        return [coverage_matrix(spec, store, metric) for metric in metrics]


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
