"""Descriptive statistics over block streams.

These are the measurements Section 2 and Section 3 of the paper report
when characterizing stream quality: footprint, repetition and
discontinuity structure.  ``repro trace`` and the examples print them
so a reader can check the synthetic workloads exhibit the properties
the paper attributes to real server workloads.

Every function accepts either a plain Python sequence or a numpy array
(the columnar views of :class:`~repro.trace.bundle.TraceBundle` feed in
directly) and computes with vectorized numpy passes — unique counts,
diff-based transition analysis, sliding-window n-grams — instead of
per-element Python loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Union

import numpy as np

#: Input type every stream statistic accepts.
BlockStream = Union[Sequence[int], np.ndarray]


@dataclass(frozen=True, slots=True)
class StreamStats:
    """Summary statistics of one block stream."""

    length: int
    unique_blocks: int
    sequential_fraction: float
    discontinuities: int
    reuse_mean: float

    def describe(self) -> Dict[str, float]:
        """Dictionary view for experiment logs."""
        return {
            "length": float(self.length),
            "unique_blocks": float(self.unique_blocks),
            "sequential_fraction": self.sequential_fraction,
            "discontinuities": float(self.discontinuities),
            "reuse_mean": self.reuse_mean,
        }


def _as_array(blocks: BlockStream) -> np.ndarray:
    return np.asarray(blocks, dtype=np.int64)


def analyze_block_stream(blocks: BlockStream) -> StreamStats:
    """Compute :class:`StreamStats` for a block stream.

    A transition is *sequential* when the next block is the current
    block + 1 (the case next-line prefetchers capture); anything else is
    a discontinuity (the case that motivates temporal streaming).
    """
    array = _as_array(blocks)
    length = int(array.size)
    if length == 0:
        return StreamStats(0, 0, 0.0, 0, 0.0)
    unique = int(np.unique(array).size)
    steps = np.diff(array)
    sequential = int(np.count_nonzero(steps == 1))
    transitions = length - 1
    discontinuities = transitions - sequential
    sequential_fraction = sequential / transitions if transitions else 0.0
    return StreamStats(
        length=length,
        unique_blocks=unique,
        sequential_fraction=sequential_fraction,
        discontinuities=discontinuities,
        reuse_mean=length / unique,
    )


def repetition_score(blocks: BlockStream, window: int = 4096) -> float:
    """Fraction of windowed block n-grams (n=4) that recur in the stream.

    A cheap proxy for "how learnable is this stream by temporal
    correlation": near 1.0 for retire-order streams of loopy server
    code, visibly lower for miss streams of the same execution.

    Vectorized: n-grams become rows of a sliding-window view, duplicate
    rows are found with one ``np.unique`` over the raw row bytes (exact
    matching, no hashing collisions), and a gram counts as a repeat when
    an identical gram started at any earlier position.
    """
    n = 4
    array = _as_array(blocks)
    if array.size < 2 * n:
        return 0.0
    limit = min(array.size - n + 1, window * 16)
    grams = np.lib.stride_tricks.sliding_window_view(
        array[:limit + n - 1], n)
    rows = np.ascontiguousarray(grams).view(
        np.dtype((np.void, grams.dtype.itemsize * n))).ravel()
    _, first_position = np.unique(rows, return_index=True)
    total = int(rows.size)
    repeats = total - int(first_position.size)
    return repeats / total if total else 0.0
