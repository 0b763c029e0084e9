"""Trace-driven prefetch-into-cache simulation.

Replays a trace bundle's access stream against two caches at once: a
no-prefetch *baseline* and the *test* cache served by a prefetch engine.
Because both see the identical request sequence, the difference in
correct-path demand misses is exactly the prefetcher's effect — the
cache-miss *coverage* of Section 5.5 (Figure 10 left).

The retire stream is threaded through in its aligned order so
retire-side engines (PIF) observe retirement with the fetch-stage tag of
each instruction, as the hardware would.

:func:`run_prefetch_simulation` is the single-engine entry point; it is
a thin wrapper over :func:`repro.sim.engine.run_multi_prefetch_simulation`,
which replays one trace against N engines in a single walk.  Call the
multi-engine form directly when comparing engines or sweeping settings
over the same trace — it produces bit-identical results at a fraction
of the cost.  The no-prefetch baseline half of each result is computed
by the vectorized columnar replay in :mod:`repro.sim.baseline`, not by
a second cache walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..cache.stats import CacheStats
from ..common.config import CacheConfig
from ..prefetch.base import Prefetcher
from ..trace.bundle import TraceBundle


@dataclass(slots=True)
class PrefetchSimResult:
    """Outcome of one (trace, prefetcher) simulation.

    Counter windows: the miss counters (``baseline_misses``,
    ``remaining_misses`` and the per-level dictionaries) cover only the
    post-warmup measurement window; ``prefetches_issued``,
    ``cache_stats`` and ``baseline_stats`` cover the whole trace, warmup
    included, so accuracy ratios computed between them are consistent.
    """

    workload: str
    prefetcher: str
    instructions: int
    #: Correct-path demand misses in the measurement window, no prefetch.
    baseline_misses: int
    #: Correct-path demand misses in the measurement window with prefetch.
    remaining_misses: int
    #: Per-trap-level baseline / remaining miss counts.
    per_level_baseline: Dict[int, int] = field(default_factory=dict)
    per_level_remaining: Dict[int, int] = field(default_factory=dict)
    #: Prefetch requests issued over the whole trace (same window as
    #: ``cache_stats``; useful-prefetch counts live there).
    prefetches_issued: int = 0
    #: Test-cache counters for the whole trace (fills, useful prefetches).
    cache_stats: Optional[CacheStats] = None
    #: Baseline-cache counters for the whole trace.
    baseline_stats: Optional[CacheStats] = None

    def coverage(self) -> float:
        """Fraction of baseline correct-path misses eliminated.

        The value is *signed*: a polluting prefetcher that inflicts more
        misses than it removes reports negative coverage rather than a
        silently clamped 0.0.
        """
        if self.baseline_misses == 0:
            return 0.0
        eliminated = self.baseline_misses - self.remaining_misses
        return eliminated / self.baseline_misses

    def level_coverage(self, trap_level: int) -> float:
        """Coverage restricted to one trap level (signed, like
        :meth:`coverage`)."""
        baseline = self.per_level_baseline.get(trap_level, 0)
        if baseline == 0:
            return 0.0
        remaining = self.per_level_remaining.get(trap_level, 0)
        return (baseline - remaining) / baseline

    def baseline_mpki(self) -> float:
        """Baseline misses per kilo-instruction over the whole trace
        (instructions are not windowed, so treat as indicative)."""
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.baseline_misses / self.instructions

    def describe(self) -> Dict[str, float]:
        """Flat summary for result tables.

        ``prefetches_issued`` here is the whole-trace count (the
        ``cache_stats`` window); the miss counts and ``coverage`` are
        measurement-window values.
        """
        return {
            "baseline_misses": float(self.baseline_misses),
            "remaining_misses": float(self.remaining_misses),
            "coverage": self.coverage(),
            "prefetches_issued": float(self.prefetches_issued),
        }


def run_prefetch_simulation(
    bundle: TraceBundle,
    prefetcher: Prefetcher,
    cache_config: Optional[CacheConfig] = None,
    warmup_fraction: float = 0.25,
) -> PrefetchSimResult:
    """Simulate ``prefetcher`` over ``bundle``; measure after warmup.

    The warmup window lets caches, history buffers and predictor state
    reach steady state before counting, mirroring the paper's warmed
    checkpoints (Section 5).  This is a compatibility wrapper over the
    single-pass multi-engine simulator; see :mod:`repro.sim.engine`.
    """
    from .engine import run_multi_prefetch_simulation

    return run_multi_prefetch_simulation(
        bundle, [prefetcher], cache_config=cache_config,
        warmup_fraction=warmup_fraction)[0]
