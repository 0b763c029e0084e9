"""Ablation studies beyond the paper's headline figures.

Each ablation varies exactly one design decision DESIGN.md calls out:

* ``temporal``   — temporal compactor size 0/1/2/4/8 (0 disables it);
* ``sab``        — SAB count x window-depth grid (the paper's footnote 2
                   empirically tuned these; we reproduce the tuning curve);
* ``index``      — bounded index-table capacity sweep;
* ``source``     — the same PIF hardware fed retire-order vs fetch-order
                   streams (the paper's central claim, isolated);
* ``replacement``— L1 replacement policy interaction (LRU/FIFO/random).

Every sweep batches all of its settings into one single-pass
multi-prefetcher walk per trace (see :mod:`repro.sim.engine`), and every
ablation takes ``jobs`` to fan its per-workload slices out over the
persistent worker pool
(:func:`~repro.experiments.parallel.run_workload_grid`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..common.config import CacheConfig
from ..core.pif import AccessOrderPIF, ProactiveInstructionFetch
from ..prefetch.base import Prefetcher
from ..sim.engine import run_multi_prefetch_simulation
from .common import ExperimentConfig, format_table, mean, percent, traces_for
from .parallel import run_workload_grid

#: Temporal compactor sizes swept.
TEMPORAL_SIZES: Tuple[int, ...] = (0, 1, 2, 4, 8)

#: (SAB count, window regions) grid.
SAB_GRID: Tuple[Tuple[int, int], ...] = ((1, 3), (2, 3), (4, 3), (4, 5),
                                         (4, 7), (8, 3))

#: Index capacities swept (entries).
INDEX_SIZES: Tuple[int, ...] = (256, 1024, 4096, 16384)

#: L1 replacement policies compared.
REPLACEMENT_POLICIES: Tuple[str, ...] = ("lru", "fifo", "random")


@dataclass(slots=True)
class AblationResult:
    """One named sweep: {workload: {setting label: coverage}}."""

    name: str
    config: ExperimentConfig
    coverage: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def to_table(self) -> str:
        """The sweep as an ASCII table."""
        settings = list(next(iter(self.coverage.values())).keys())
        headers = ["workload"] + settings
        rows = [
            [workload] + [percent(row[s]) for s in settings]
            for workload, row in self.coverage.items()
        ]
        return format_table(headers, rows, title=f"Ablation: {self.name}")


def _sweep(config: ExperimentConfig, workload: str,
           make_engines: Callable[[], Sequence[Tuple[str, Prefetcher]]],
           cache_configs: Optional[Sequence[Optional[CacheConfig]]] = None,
           ) -> Dict[str, float]:
    """Mean coverage per setting label, one shared walk per trace.

    ``make_engines`` builds a fresh ``[(label, engine), ...]`` list per
    trace (engines carry state and must not leak between cores).
    """
    per_label: Dict[str, List[float]] = {}
    for trace in traces_for(config, workload):
        labeled = list(make_engines())
        sims = run_multi_prefetch_simulation(
            trace.bundle, [engine for _, engine in labeled],
            cache_config=config.cache,
            warmup_fraction=config.warmup_fraction,
            cache_configs=cache_configs)
        for (label, _), sim in zip(labeled, sims):
            per_label.setdefault(label, []).append(sim.coverage())
    return {label: mean(values) for label, values in per_label.items()}


def _pif(config: ExperimentConfig, **overrides) -> ProactiveInstructionFetch:
    pif_config = replace(config.pif, **overrides) if overrides else config.pif
    return ProactiveInstructionFetch(pif_config,
                                     block_bytes=config.cache.block_bytes)


def _temporal_workload(config: ExperimentConfig, workload: str
                       ) -> Dict[str, float]:
    return _sweep(config, workload, lambda: [
        (str(size), _pif(config, temporal_compactor_entries=size))
        for size in TEMPORAL_SIZES
    ])


def _sab_workload(config: ExperimentConfig, workload: str) -> Dict[str, float]:
    return _sweep(config, workload, lambda: [
        (f"{count}x{window}",
         _pif(config, sab_count=count, sab_window_regions=window))
        for count, window in SAB_GRID
    ])


def _index_workload(config: ExperimentConfig, workload: str
                    ) -> Dict[str, float]:
    def make_engines() -> List[Tuple[str, Prefetcher]]:
        labeled: List[Tuple[str, Prefetcher]] = [
            (str(entries), _pif(config, index_entries=entries))
            for entries in INDEX_SIZES
        ]
        labeled.append(("unbounded", ProactiveInstructionFetch(
            config.pif, block_bytes=config.cache.block_bytes,
            unbounded_index=True)))
        return labeled

    return _sweep(config, workload, make_engines)


def _source_workload(config: ExperimentConfig, workload: str
                     ) -> Dict[str, float]:
    return _sweep(config, workload, lambda: [
        ("retire", _pif(config)),
        ("fetch", AccessOrderPIF(config.pif,
                                 block_bytes=config.cache.block_bytes)),
    ])


def _replacement_workload(config: ExperimentConfig, workload: str
                          ) -> Dict[str, float]:
    cache_configs = [replace(config.cache, replacement=policy)
                     for policy in REPLACEMENT_POLICIES]
    return _sweep(
        config, workload,
        lambda: [(policy, _pif(config)) for policy in REPLACEMENT_POLICIES],
        cache_configs=cache_configs)


def _run_ablation(name: str, slice_func, config: ExperimentConfig,
                  jobs: int = 1) -> AblationResult:
    result = AblationResult(name, config)
    for workload, row in run_workload_grid(slice_func, config, jobs):
        result.coverage[workload] = row
    return result


def run_temporal_ablation(config: ExperimentConfig,
                          jobs: int = 1) -> AblationResult:
    """Temporal compactor size sweep (0 = spatial-only compaction)."""
    return _run_ablation("temporal compactor entries", _temporal_workload,
                         config, jobs)


def run_sab_ablation(config: ExperimentConfig,
                     jobs: int = 1) -> AblationResult:
    """SAB count x window grid (reproduces the footnote 2 tuning)."""
    return _run_ablation("SAB count x window", _sab_workload, config, jobs)


def run_index_ablation(config: ExperimentConfig,
                       jobs: int = 1) -> AblationResult:
    """Bounded index capacity sweep plus the unbounded reference."""
    return _run_ablation("index table entries", _index_workload, config, jobs)


def run_source_ablation(config: ExperimentConfig,
                        jobs: int = 1) -> AblationResult:
    """Retire-order vs fetch-order input to identical PIF hardware."""
    return _run_ablation("record source (retire vs fetch order)",
                         _source_workload, config, jobs)


def run_replacement_ablation(config: ExperimentConfig,
                             jobs: int = 1) -> AblationResult:
    """PIF coverage under different L1 replacement policies."""
    return _run_ablation("L1 replacement policy", _replacement_workload,
                         config, jobs)


def run_all_ablations(config: ExperimentConfig,
                      jobs: int = 1) -> List[AblationResult]:
    """Every ablation, in DESIGN.md order."""
    return [
        run_temporal_ablation(config, jobs),
        run_sab_ablation(config, jobs),
        run_index_ablation(config, jobs),
        run_source_ablation(config, jobs),
        run_replacement_ablation(config, jobs),
    ]
