"""Ablation studies beyond the paper's headline figures.

Each ablation varies exactly one design decision DESIGN.md calls out,
and each is a checked-in spec (``specs/ablation-<name>.yaml``) run
through the sweep runner (:func:`~repro.experiments.common.run_spec`):

* ``temporal``   — temporal compactor size 0/1/2/4/8 (0 disables it);
* ``sab``        — SAB count x window-depth grid (the paper's footnote 2
                   empirically tuned these; we reproduce the tuning curve);
* ``index``      — bounded index-table capacity sweep;
* ``source``     — the same PIF hardware fed retire-order vs fetch-order
                   streams (the paper's central claim, isolated);
* ``replacement``— L1 replacement policy interaction (LRU/FIFO/random).

The runner batches every setting of one trace into one single-pass
multi-prefetcher walk (see :mod:`repro.sim.engine`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

from .common import ExperimentConfig, format_table, percent, run_spec

#: Ablation name -> table title, in DESIGN.md order.
ABLATIONS: Dict[str, str] = {
    "temporal": "temporal compactor entries",
    "sab": "SAB count x window",
    "index": "index table entries",
    "source": "record source (retire vs fetch order)",
    "replacement": "L1 replacement policy",
}


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


def run_ablation(name: str, config: ExperimentConfig, jobs: int = 1,
                 out: Optional[Union[str, Path]] = None) -> AblationResult:
    """Run the ablation ``name`` (a key of :data:`ABLATIONS`): the spec
    ``ablation-<name>`` through the sweep runner, its store under
    ``out/ablation-<name>``."""
    coverage, = run_spec(f"ablation-{name}", config, jobs, out,
                         ("coverage",))
    return AblationResult(ABLATIONS[name], config, coverage)


def run_temporal_ablation(config: ExperimentConfig,
                          jobs: int = 1) -> AblationResult:
    """Temporal compactor size sweep (0 = spatial-only compaction)."""
    return run_ablation("temporal", config, jobs)


def run_sab_ablation(config: ExperimentConfig,
                     jobs: int = 1) -> AblationResult:
    """SAB count x window grid (reproduces the footnote 2 tuning)."""
    return run_ablation("sab", config, jobs)


def run_index_ablation(config: ExperimentConfig,
                       jobs: int = 1) -> AblationResult:
    """Bounded index capacity sweep plus the unbounded reference."""
    return run_ablation("index", config, jobs)


def run_source_ablation(config: ExperimentConfig,
                        jobs: int = 1) -> AblationResult:
    """Retire-order vs fetch-order input to identical PIF hardware."""
    return run_ablation("source", config, jobs)


def run_replacement_ablation(config: ExperimentConfig,
                             jobs: int = 1) -> AblationResult:
    """PIF coverage under different L1 replacement policies."""
    return run_ablation("replacement", config, jobs)
