"""Simulation layer: trace-driven prefetch sim and timing.

The figure-only oracles (:mod:`repro.sim.coverage`,
:mod:`repro.sim.regionstats`) are imported from their own modules, so
sweeps and their workers never load them.
"""

from .engine import run_multi_prefetch_simulation
from .timing import TimingResult, run_timing_simulation, speedup_comparison
from .tracesim import PrefetchSimResult, run_prefetch_simulation

__all__ = [
    "TimingResult",
    "run_timing_simulation",
    "speedup_comparison",
    "PrefetchSimResult",
    "run_multi_prefetch_simulation",
    "run_prefetch_simulation",
]
