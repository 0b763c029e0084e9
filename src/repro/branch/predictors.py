"""Direction predictors: bimodal, gshare, and the paper's hybrid.

Table I specifies a "hybrid branch predictor, 16K gShare & 16K bimodal".
The hybrid uses a chooser table trained on which component was correct,
the classic McFarling tournament arrangement.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..common.config import BranchPredictorConfig
from .counters import CounterTable


class DirectionPredictor(ABC):
    """Predicts taken/not-taken for a conditional branch at ``pc``."""

    @abstractmethod
    def predict(self, pc: int) -> bool:
        """Predicted direction (no state change)."""

    @abstractmethod
    def update(self, pc: int, outcome: bool) -> None:
        """Train on the resolved ``outcome`` and advance any history."""


class BimodalPredictor(DirectionPredictor):
    """PC-indexed table of 2-bit counters."""

    def __init__(self, entries: int = 16 * 1024) -> None:
        self._table = CounterTable(entries)

    def predict(self, pc: int) -> bool:
        return self._table.predict(pc >> 2)

    def update(self, pc: int, outcome: bool) -> None:
        self._table.update(pc >> 2, outcome)


class GSharePredictor(DirectionPredictor):
    """Global-history-XOR-PC indexed table of 2-bit counters."""

    def __init__(self, entries: int = 16 * 1024, history_bits: int = 14) -> None:
        if history_bits <= 0:
            raise ValueError("history_bits must be positive")
        self._table = CounterTable(entries)
        self._history_mask = (1 << history_bits) - 1
        self._history = 0

    @property
    def history(self) -> int:
        """Current global history register value (for tests)."""
        return self._history

    def _index(self, pc: int) -> int:
        return (pc >> 2) ^ self._history

    def predict(self, pc: int) -> bool:
        return self._table.predict(self._index(pc))

    def update(self, pc: int, outcome: bool) -> None:
        self._table.update(self._index(pc), outcome)
        self._history = ((self._history << 1) | int(outcome)) & self._history_mask


class HybridPredictor(DirectionPredictor):
    """Tournament of gshare and bimodal with a chooser table.

    The chooser counter, indexed by PC, moves toward gshare when gshare
    alone was correct and toward bimodal when bimodal alone was correct;
    ties leave it untouched.
    """

    def __init__(self, config: BranchPredictorConfig | None = None) -> None:
        cfg = config if config is not None else BranchPredictorConfig()
        self.gshare = GSharePredictor(cfg.gshare_entries, cfg.history_bits)
        self.bimodal = BimodalPredictor(cfg.bimodal_entries)
        self._chooser = CounterTable(cfg.chooser_entries)

    def predict(self, pc: int) -> bool:
        if self._chooser.predict(pc >> 2):
            return self.gshare.predict(pc)
        return self.bimodal.predict(pc)

    def update(self, pc: int, outcome: bool) -> None:
        gshare_correct = self.gshare.predict(pc) == outcome
        bimodal_correct = self.bimodal.predict(pc) == outcome
        if gshare_correct != bimodal_correct:
            self._chooser.update(pc >> 2, gshare_correct)
        self.gshare.update(pc, outcome)
        self.bimodal.update(pc, outcome)
