"""Prefetch engines: the common interface and the baseline prefetchers.

PIF itself lives in :mod:`repro.core`; it implements the same
:class:`Prefetcher` interface and is registered here for convenience.
"""

from .base import NullPrefetcher, PrefetchStats, Prefetcher
from .discontinuity import DiscontinuityPrefetcher
from .nextline import NextLinePrefetcher
from .stride import StridePrefetcher
from .tifs import TIFSPrefetcher


def __getattr__(name: str):
    # PIF lives in repro.core (it is the paper's contribution, not a
    # baseline) but is re-exported here.  The import is lazy to break
    # the core -> prefetch.base -> prefetch -> core cycle.
    if name == "ProactiveInstructionFetch":
        from ..core.pif import ProactiveInstructionFetch

        return ProactiveInstructionFetch
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: Every name :func:`make_prefetcher` accepts, in presentation order —
#: the single source of truth the CLI's engine list and the scenario
#: registry are checked against (``tests/scenarios``).
PREFETCHER_NAMES = ("none", "next-line", "next-line-miss", "stride",
                    "discontinuity", "tifs", "pif", "pif-no-tlsep",
                    "pif-access-order")


def make_prefetcher(name: str, block_bytes: int = 64) -> Prefetcher:
    """Factory over every engine the experiments compare.

    Names (:data:`PREFETCHER_NAMES`): ``none``, ``next-line``,
    ``next-line-miss``, ``stride``, ``discontinuity``, ``tifs``,
    ``pif``, ``pif-no-tlsep`` (PIF without trap-level separation, for
    the RetireSep ablation), ``pif-access-order`` (PIF trained on the
    fetch-order stream, for the record-source ablation).  Every PIF
    name uses the paper's :class:`~repro.common.config.PIFConfig`.
    """
    if name == "none":
        return NullPrefetcher()
    if name == "next-line":
        return NextLinePrefetcher(degree=4, trigger="access")
    if name == "next-line-miss":
        return NextLinePrefetcher(degree=4, trigger="miss")
    if name == "stride":
        return StridePrefetcher()
    if name == "discontinuity":
        return DiscontinuityPrefetcher()
    if name == "tifs":
        return TIFSPrefetcher()
    if name == "pif":
        from ..core.pif import ProactiveInstructionFetch

        return ProactiveInstructionFetch(block_bytes=block_bytes)
    if name == "pif-no-tlsep":
        from ..core.pif import ProactiveInstructionFetch

        return ProactiveInstructionFetch(block_bytes=block_bytes,
                                         separate_trap_levels=False)
    if name == "pif-access-order":
        from ..core.pif import AccessOrderPIF

        return AccessOrderPIF(block_bytes=block_bytes)
    raise ValueError(f"unknown prefetcher {name!r}")


__all__ = [
    "NullPrefetcher",
    "PREFETCHER_NAMES",
    "PrefetchStats",
    "Prefetcher",
    "DiscontinuityPrefetcher",
    "NextLinePrefetcher",
    "StridePrefetcher",
    "TIFSPrefetcher",
    "ProactiveInstructionFetch",
    "make_prefetcher",
]
