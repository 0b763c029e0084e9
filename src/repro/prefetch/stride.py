"""Stride prefetching on the instruction block stream.

Included as a deliberately-poor instruction baseline: the paper observes
that temporal instruction streams "exhibit no simple patterns such as
strides" (Section 3), and this engine quantifies exactly that claim in
the ablation benchmarks.
"""

from __future__ import annotations

from typing import List, Optional

from .base import Prefetcher


class StridePrefetcher(Prefetcher):
    """Classic two-delta confirmation stride detector over block addresses."""

    def __init__(self, degree: int = 2) -> None:
        super().__init__()
        if degree <= 0:
            raise ValueError("degree must be positive")
        self.name = f"stride(d={degree})"
        self.degree = degree
        self._last_block: Optional[int] = None
        self._last_stride: Optional[int] = None
        self._confirmed: bool = False

    def on_demand_access(self, block: int, pc: int, trap_level: int,
                         hit: bool, was_prefetched: bool) -> List[int]:
        last_block = self._last_block
        if last_block == block:
            return []
        out: List[int] = []
        if last_block is not None:
            stride = block - last_block
            if stride == self._last_stride and stride != 0:
                self._confirmed = True
            elif self._last_stride is not None:
                self._confirmed = False
            self._last_stride = stride
            if self._confirmed:
                self.stats.triggers += 1
                out = [block + stride * step
                       for step in range(1, self.degree + 1)]
                self.stats.issued += self.degree
        self._last_block = block
        return out

    def reset(self) -> None:
        super().reset()
        self._last_block = None
        self._last_stride = None
        self._confirmed = False
