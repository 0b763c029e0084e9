"""Branch target buffer and return-address stack.

The fetch engine needs targets, not just directions: the BTB supplies
predicted targets for taken branches/calls and the RAS supplies return
targets.  A RAS misprediction (overflow/corruption) is one more source
of the wrong-path noise the paper eliminates by observing retirement.
"""

from __future__ import annotations

from typing import List, Optional

from ..common.lru import LRUCache


class BranchTargetBuffer:
    """A set-associative mapping from branch PC to predicted target.

    Modeled as an LRU cache per set; a miss means the front-end cannot
    redirect until decode, which the pipeline model treats as a
    single-block fetch bubble.
    """

    def __init__(self, entries: int = 4 * 1024, associativity: int = 4) -> None:
        if entries <= 0 or entries % associativity:
            raise ValueError("entries must be a positive multiple of associativity")
        self.associativity = associativity
        self.n_sets = entries // associativity
        self._sets: List[LRUCache[int, int]] = [
            LRUCache(associativity) for _ in range(self.n_sets)
        ]
        self.hits = 0
        self.misses = 0

    def _set_for(self, pc: int) -> LRUCache[int, int]:
        return self._sets[(pc >> 2) % self.n_sets]

    def lookup(self, pc: int) -> Optional[int]:
        """Predicted target for the branch at ``pc``, or None on BTB miss."""
        target = self._set_for(pc).get(pc)
        if target is None:
            self.misses += 1
        else:
            self.hits += 1
        return target

    def update(self, pc: int, target: int) -> None:
        """Install/refresh the resolved target for ``pc``."""
        self._set_for(pc).put(pc, target)


class ReturnAddressStack:
    """A bounded return-address stack.

    Overflow discards the oldest entry (hardware behaviour), so deeply
    recursive call chains mispredict their outermost returns — a real
    noise source the retire-order stream is immune to.
    """

    def __init__(self, depth: int = 16) -> None:
        if depth <= 0:
            raise ValueError("RAS depth must be positive")
        self.depth = depth
        self._stack: List[int] = []
        self.overflows = 0
        self.underflows = 0

    def push(self, return_pc: int) -> None:
        """Record the return address of a call."""
        if len(self._stack) >= self.depth:
            self._stack.pop(0)
            self.overflows += 1
        self._stack.append(return_pc)

    def pop(self) -> Optional[int]:
        """Predicted return target, or None when the stack is empty."""
        if not self._stack:
            self.underflows += 1
            return None
        return self._stack.pop()

    def peek(self) -> Optional[int]:
        """The current top of stack without consuming it (used by the
        wrong-path walker, which must not corrupt real RAS state)."""
        if not self._stack:
            return None
        return self._stack[-1]

    def __len__(self) -> int:
        return len(self._stack)
