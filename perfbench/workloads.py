"""The benchmark's named workloads.

Each one is a checked-in scenario under ``examples/scenarios`` rescaled
through ``load_spec(..., sweep_overrides=...)`` (no example file is
edited).  Why each workload exists, and which layers it loads and
bypasses, is in ``perfbench/README.md``.

Every workload's trace seed is derived from the benchmark's ``--seed``.
The seed picks the synthetic program, and the PIF lane-walk cost per
access of one program differs from another's by up to 5x, so on the
PIF-heavy serial workloads a run on the ``--seed`` programs alone would
measure the draw more than the code.  Those workloads also run the
checked-in scenarios' own seed: the fixed half halves that spread while
every ``--seed`` still brings new traces.  The competitive workloads
walk little PIF and already average 6 programs; a second seed would
double their set-up (program builds dominate it), so they run 2 cores
of the ``--seed`` programs instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

#: The checked-in scenarios' trace seed, the fixed half of an anchored
#: workload's inputs.
ANCHOR_SEED = 42

#: The PIF operating point of the half-scale experiments (and of every
#: checked-in scenario's ``pif`` lane).
PIF_POINT = {"sab_count": 4, "sab_window_regions": 3}

#: Single-lane engines the fused-walker calibration times: the four
#: engines with a fused walker, then TIFS, which has none.
CALIBRATED_ENGINES: List[Tuple[str, Dict[str, Any]]] = [
    ("pif", PIF_POINT), ("next-line", {}), ("stride", {}),
    ("discontinuity", {}), ("tifs", {})]


def derived_seed(seed: int) -> int:
    """The trace seed ``--seed`` stands for (never the anchor)."""
    return ANCHOR_SEED + 1 + seed


@dataclass(frozen=True)
class Workload:
    name: str
    example: str
    #: ``sweep_overrides`` at benchmark scale (seeds are added per run).
    axes: Dict[str, Any]
    #: ``repro sweep run`` arguments after ``--spec``/``--out``.
    fan_out: Tuple[str, ...] = ()
    #: Whether set-up fills the trace store (otherwise every sweep
    #: starts from an empty store).
    warm: bool = True
    #: Whether the inputs also include the anchor seed's programs.
    anchored: bool = True
    #: Overrides applied on top of ``axes`` for the self-test's tiny
    #: inputs.
    smoke: Dict[str, Any] = field(default_factory=dict)

    def overrides(self, seed: int, smoke: bool) -> Dict[str, Any]:
        """The ``sweep_overrides`` for this workload and ``--seed``."""
        seeds = [derived_seed(seed)]
        if self.anchored:
            seeds.insert(0, ANCHOR_SEED)
        return {**self.axes, "seeds": seeds,
                **(self.smoke if smoke else {})}

    @property
    def serial(self) -> bool:
        return not self.fan_out


_COMPETITIVE = {
    "workloads": ["oltp-db2", "oltp-oracle", "dss-qry2", "dss-qry17",
                  "web-apache", "web-zeus"],
    "instructions": 60_000, "cores": 2, "cache": {"kb": 16, "assoc": 2},
    "engines": ["next-line", "stride", "discontinuity", "tifs",
                {"name": "pif", "label": "pif", "params": PIF_POINT}],
    "timing": True,
}
_COMPETITIVE_SMOKE = {"instructions": 10_000}

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("pif-warm", "examples/scenarios/sab-ablation.yaml",
                 {"workloads": ["oltp-db2", "web-apache"],
                  "instructions": 250_000, "cores": 1},
                 smoke={"instructions": 20_000}),
        Workload("trace-cold", "examples/scenarios/sab-ablation.yaml",
                 {"workloads": ["dss-qry2", "web-zeus"],
                  "instructions": 250_000, "cores": 1,
                  "engines": ["next-line", {"name": "pif", "label": "pif",
                                            "params": PIF_POINT}]},
                 warm=False, smoke={"instructions": 20_000}),
        Workload("competitive-jobs2", "examples/scenarios/geometry.yaml",
                 _COMPETITIVE, fan_out=("--jobs", "2"), anchored=False,
                 smoke=_COMPETITIVE_SMOKE),
        Workload("competitive-fleet", "examples/scenarios/geometry.yaml",
                 _COMPETITIVE,
                 fan_out=("--transport", "local", "--workers", "2"),
                 anchored=False, smoke=_COMPETITIVE_SMOKE),
    )
}
