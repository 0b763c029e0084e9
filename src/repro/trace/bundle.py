"""A trace bundle: everything one simulated core produced.

Experiments consume traces, not live pipelines, so that (a) the same
trace can be replayed against many prefetcher configurations — the
paper's own methodology ("the processor behavior is undisturbed by the
experiment", Section 2.1) — and (b) trace generation cost is paid once
per workload.

Storage is *columnar*: the two record streams live as parallel numpy
arrays (one per field), a few bytes per record instead of Python-object
overhead, ready to be saved/loaded as ``.npz`` archives
(:mod:`repro.trace.serialize`) and replayed with vectorized passes
(:mod:`repro.sim.baseline`, :mod:`repro.trace.stats`).  The classic
object views — ``bundle.retires`` / ``bundle.accesses`` as lists of
:class:`RetiredInstruction` / :class:`FetchAccess` — are materialized
lazily on first use and cached, so consumers that walk records keep
working unchanged.  The views are snapshots of the columns: mutating a
materialized list does not write back into the arrays.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..common.addressing import DEFAULT_BLOCK_BYTES, block_bits_for
from .records import (
    FetchAccess,
    RetiredInstruction,
    access_columns,
    accesses_from_columns,
    retire_columns,
    retires_from_columns,
)


class TraceBundle:
    """The paired access/retire streams of one core plus provenance.

    Attributes:
        workload: name of the generating workload model.
        core: index of the simulated core (0-based).
        seed: root RNG seed the trace was generated from.
        block_bytes: cache-block size the access stream was produced at.
        instructions: number of *instructions* retired (pre-collapse),
            kept for UIPC computation.
        retire_pc / retire_trap: retire-stream columns (block-run
            collapsed), ``int64`` / ``uint8``.
        access_block / access_pc / access_trap / access_wrong_path:
            access-stream columns including wrong-path noise,
            ``int64`` / ``int64`` / ``uint8`` / ``bool``.
    """

    __slots__ = ("workload", "core", "seed", "block_bytes", "instructions",
                 "retire_pc", "retire_trap",
                 "access_block", "access_pc", "access_trap",
                 "access_wrong_path", "_retires_view", "_accesses_view",
                 "_derived")

    def __init__(self, workload: str, core: int, seed: int,
                 block_bytes: int = DEFAULT_BLOCK_BYTES,
                 retires: Sequence[RetiredInstruction] = (),
                 accesses: Sequence[FetchAccess] = (),
                 instructions: int = 0) -> None:
        self.workload = workload
        self.core = core
        self.seed = seed
        self.block_bytes = block_bytes
        self.instructions = instructions
        self.retire_pc, self.retire_trap = retire_columns(retires)
        (self.access_block, self.access_pc, self.access_trap,
         self.access_wrong_path) = access_columns(accesses)
        self._retires_view: Optional[List[RetiredInstruction]] = None
        self._accesses_view: Optional[List[FetchAccess]] = None
        self._derived: Dict[Any, Any] = {}

    @classmethod
    def from_columns(cls, workload: str, core: int, seed: int,
                     block_bytes: int,
                     retire_pc: np.ndarray, retire_trap: np.ndarray,
                     access_block: np.ndarray, access_pc: np.ndarray,
                     access_trap: np.ndarray, access_wrong_path: np.ndarray,
                     instructions: int = 0) -> TraceBundle:
        """Build a bundle directly from its columns (no record objects)."""
        bundle = cls(workload=workload, core=core, seed=seed,
                     block_bytes=block_bytes, instructions=instructions)
        bundle.retire_pc = np.asarray(retire_pc, dtype=np.int64)
        bundle.retire_trap = np.asarray(retire_trap, dtype=np.uint8)
        bundle.access_block = np.asarray(access_block, dtype=np.int64)
        bundle.access_pc = np.asarray(access_pc, dtype=np.int64)
        bundle.access_trap = np.asarray(access_trap, dtype=np.uint8)
        bundle.access_wrong_path = np.asarray(access_wrong_path,
                                              dtype=np.bool_)
        return bundle

    def __repr__(self) -> str:
        return (f"TraceBundle(workload={self.workload!r}, core={self.core}, "
                f"seed={self.seed}, block_bytes={self.block_bytes}, "
                f"retires={len(self.retire_pc)}, "
                f"accesses={len(self.access_block)}, "
                f"instructions={self.instructions})")

    # ------------------------------------------------------------------
    # Lazy object views (compatibility surface for record-walking code).

    @property
    def retires(self) -> List[RetiredInstruction]:
        """Correct-path retire-order records (block-run collapsed)."""
        if self._retires_view is None:
            self._retires_view = retires_from_columns(self.retire_pc,
                                                      self.retire_trap)
        return self._retires_view

    @property
    def accesses(self) -> List[FetchAccess]:
        """Front-end access stream including wrong-path noise."""
        if self._accesses_view is None:
            self._accesses_view = accesses_from_columns(
                self.access_block, self.access_pc, self.access_trap,
                self.access_wrong_path)
        return self._accesses_view

    # ------------------------------------------------------------------
    # Derived-value cache (sweep-scale execution engine support).

    def derived_cache(self) -> Dict[Any, Any]:
        """Per-bundle cache for values derived purely from the columns.

        Consumers (the simulation engine's decoded columns, the PIF
        train plan, the baseline memo key) store expensive pure
        derivations here so that lane shards and sweep points replaying
        the same bundle inside one process compute them once.  Keys are
        namespaced tuples; the cache lives and dies with the bundle (the
        trace-generation ``lru_cache`` bounds how many stay resident).
        """
        return self._derived

    def decoded_columns(self) -> Tuple[List[int], List[int], List[int],
                                       List[bool], List[int], List[int]]:
        """The six columns decoded to plain Python lists, cached.

        Order: (access blocks, access PCs, access trap levels, access
        wrong-path flags, retire PCs, retire trap levels) — exactly what
        the lane-walk kernels iterate.  Decoding a few-hundred-thousand
        element column set costs tens of milliseconds; lane shards of
        one trace group re-walk the same bundle many times, so the
        decode is paid once per process.
        """
        decoded = self._derived.get("decoded")
        if decoded is None:
            decoded = (self.access_block.tolist(), self.access_pc.tolist(),
                       self.access_trap.tolist(),
                       self.access_wrong_path.tolist(),
                       self.retire_pc.tolist(), self.retire_trap.tolist())
            self._derived["decoded"] = decoded
        return decoded

    def content_hash(self) -> str:
        """SHA-256 hex digest over the raw column bytes plus identity.

        This is the *trace content* part of cross-point memoization keys
        (the baseline-replay memo): two bundles with equal columns and
        block size hash identically regardless of how they were loaded,
        so sidecar entries survive process and run boundaries.
        """
        digest = self._derived.get("content_hash")
        if digest is None:
            hasher = hashlib.sha256()
            hasher.update(f"block_bytes={self.block_bytes};"
                          f"instructions={self.instructions};".encode())
            for column in (self.retire_pc, self.retire_trap,
                           self.access_block, self.access_pc,
                           self.access_trap, self.access_wrong_path):
                hasher.update(np.ascontiguousarray(column).tobytes())
                hasher.update(b"|")
            digest = hasher.hexdigest()
            self._derived["content_hash"] = digest
        return digest

    # ------------------------------------------------------------------
    # Derived views (vectorized over the columns).

    @property
    def _block_bits(self) -> int:
        return block_bits_for(self.block_bytes)

    def retire_block_array(self) -> np.ndarray:
        """Block addresses of the retire stream, in order (``int64``)."""
        return self.retire_pc >> self._block_bits

    def correct_path_accesses(self) -> List[FetchAccess]:
        """The access stream with wrong-path requests removed."""
        keep = ~self.access_wrong_path
        return accesses_from_columns(
            self.access_block[keep], self.access_pc[keep],
            self.access_trap[keep], self.access_wrong_path[keep])

    def wrong_path_fraction(self) -> float:
        """Fraction of front-end accesses that were wrong-path."""
        total = len(self.access_wrong_path)
        if not total:
            return 0.0
        return int(np.count_nonzero(self.access_wrong_path)) / total

    def footprint_blocks(self) -> int:
        """Number of distinct correct-path instruction blocks touched."""
        return int(np.unique(self.retire_block_array()).size)

    def validate(self) -> None:
        """Raise ValueError if the bundle violates basic invariants."""
        if self.instructions < len(self.retire_pc):
            raise ValueError(
                "instruction count cannot be below the collapsed retire count: "
                f"{self.instructions} < {len(self.retire_pc)}"
            )
        if len(self.retire_pc) and int(self.retire_pc.min()) < 0:
            offender = int(self.retire_pc[self.retire_pc < 0][0])
            raise ValueError(f"negative PC in retire stream: pc={offender}")
        blocks = self.retire_block_array()
        repeats = np.flatnonzero(blocks[1:] == blocks[:-1])
        if repeats.size:
            pc = int(self.retire_pc[repeats[0] + 1])
            raise ValueError(
                f"retire stream is not block-run collapsed at pc={pc:#x}")
        mismatches = np.flatnonzero(
            self.access_block != (self.access_pc >> self._block_bits))
        if mismatches.size:
            index = int(mismatches[0])
            raise ValueError(
                f"access block/pc mismatch: block={int(self.access_block[index])} "
                f"pc={int(self.access_pc[index]):#x} with "
                f"block_bytes={self.block_bytes}"
            )
