"""Golden tables lock: Figure 10 and the five ablations at a small scale.

The printed tables round to 0.1 %, so the lock pins the ``repr`` of
every coverage and speedup float a table shows as well as the table
text.  Any change that moves one of these numbers fails here.  A change
that moves them on purpose (a simulator fix) regenerates the file with
``PYTHONPATH=src python tests/experiments/test_golden_tables.py`` and
records the move in CHANGES.md.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.experiments.ablations import (
    run_index_ablation,
    run_replacement_ablation,
    run_sab_ablation,
    run_source_ablation,
    run_temporal_ablation,
)
from repro.experiments.common import ExperimentConfig
from repro.experiments.fig10 import ENGINES, run_fig10

GOLDEN = Path(__file__).with_name("golden_tables.json")

#: Two workloads, two cores, short traces: the whole lock runs in seconds.
CONFIG = ExperimentConfig(instructions=30_000, cores=2, seed=3,
                          workloads=("dss-qry2", "web-zeus"))

RUNNERS = {
    "fig10": run_fig10,
    "temporal": run_temporal_ablation,
    "sab": run_sab_ablation,
    "index": run_index_ablation,
    "source": run_source_ablation,
    "replacement": run_replacement_ablation,
}

#: The columns each Figure 10 panel shows.
FIG10_COLUMNS = {"coverage": ENGINES, "speedup": (*ENGINES, "perfect")}


def _reprs(matrix: Dict[str, Dict[str, float]], columns=None
           ) -> Dict[str, Dict[str, str]]:
    return {
        workload: {column: repr(row[column]) for column in (columns or row)}
        for workload, row in matrix.items()
    }


def render(name: str) -> Dict[str, Any]:
    """One runner's table lines and the reprs of the floats it shows."""
    result = RUNNERS[name](CONFIG)
    rendered: Dict[str, Any] = {"table": result.to_table().splitlines()}
    if name == "fig10":
        for panel, columns in FIG10_COLUMNS.items():
            rendered[panel] = _reprs(getattr(result, panel), columns)
    else:
        rendered["coverage"] = _reprs(result.coverage)
    return rendered


@pytest.mark.parametrize("name", list(RUNNERS))
def test_golden_tables(name):
    assert render(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: render(name) for name in RUNNERS},
                                 indent=1) + "\n")
