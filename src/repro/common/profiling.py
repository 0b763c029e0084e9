"""Lightweight wall-clock stage profiling for the simulation pipeline.

The experiment runner's ``--profile`` flag needs to attribute a
figure's wall-clock to its coarse stages — trace load, trace
generation, baseline replay, lane walk, timing walk — without a
profiler's overhead distorting the very hot loops it is measuring.
This module provides named stage timers that the pipeline brackets its
stages with; they are inert
(a ``None`` check) unless a collector is installed, so the hooks stay
in the production code paths permanently.

Stages nest (the lane walk runs inside a figure's experiment): each
stage records its *own* wall-clock, so a parent stage's time includes
its children.  Collection is process-local — with ``--jobs N > 1`` the
worker processes' stages are invisible to the parent's collector; the
runner prints a caveat in that case.

Usage::

    with collecting() as profile:
        run_fig3(config)
    print(profile.format_table())
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

#: Stage names used by the simulation pipeline (importers reference
#: these constants so the runner and the hooks cannot drift apart).
STAGE_TRACE_LOAD = "trace-load"
STAGE_TRACE_GENERATE = "trace-generate"
STAGE_BASELINE = "baseline"
STAGE_LANE_WALK = "lane-walk"
STAGE_TIMING_WALK = "timing-walk"


class StageProfile:
    """Accumulated seconds and call counts per stage name."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    def add(self, stage_name: str, seconds: float) -> None:
        """Fold one timed stage execution into the totals."""
        self.seconds[stage_name] = self.seconds.get(stage_name, 0.0) + seconds
        self.calls[stage_name] = self.calls.get(stage_name, 0) + 1

    def format_table(self, indent: str = "  ") -> str:
        """Stage totals, widest first, as printable lines."""
        if not self.seconds:
            return f"{indent}(no stages recorded)"
        width = max(len(name) for name in self.seconds)
        lines = []
        for name, total in sorted(self.seconds.items(),
                                  key=lambda item: -item[1]):
            lines.append(f"{indent}{name:<{width}}  {total:8.3f}s  "
                         f"x{self.calls[name]}")
        return "\n".join(lines)


#: The installed collector; None keeps every stage() hook inert.
_COLLECTOR: Optional[StageProfile] = None


@contextmanager
def stage(name: str) -> Iterator[None]:
    """Time the enclosed block under ``name`` when collection is on."""
    collector = _COLLECTOR
    if collector is None:
        yield
        return
    started = time.perf_counter()
    try:
        yield
    finally:
        collector.add(name, time.perf_counter() - started)


@contextmanager
def collecting() -> Iterator[StageProfile]:
    """Install a fresh collector for the enclosed block and yield it.

    Re-entrant use replaces the outer collector for the inner block and
    restores it afterwards (the inner block's stages are then invisible
    to the outer profile — matching the "each flag owns its figure"
    semantics of the runner).
    """
    global _COLLECTOR
    previous = _COLLECTOR
    profile = StageProfile()
    _COLLECTOR = profile
    try:
        yield profile
    finally:
        _COLLECTOR = previous
