"""Engine construction for scenario sweeps.

Maps the CLI/experiment engine names onto parameterized constructors so
a scenario can sweep any knob an engine exposes.  Two jobs:

* :func:`validate_engine_params` — spec-time check that every parameter
  name a scenario mentions is one the engine accepts (misspellings fail
  at parse time, naming the key, not mid-sweep);
* :func:`build_engine` — build a fresh, unshared engine instance for one
  :class:`~repro.scenarios.spec.SweepPoint` (engines carry learned
  state, so every simulation point gets its own).

Parameter defaults are :func:`repro.prefetch.make_prefetcher`'s: a
scenario that names an engine with no params simulates the engine
``repro compare`` and the experiments run, except for PIF.  PIF
parameters are the :class:`~repro.common.config.PIFConfig` fields
(counts of hardware entries, not bytes) plus ``unbounded_index``, and a
bare ``pif`` is the *paper's* operating point (``PIFConfig()``, a
7-region SAB window), while ``repro compare`` and the figures run the
half-scale experiment point (a 3-region window,
``sab_count: 4, sab_window_regions: 3``); a scenario that wants the
latter sets it explicitly, as the checked-in scenarios and the figure
specs (``repro/experiments/specs/``) do.

The registry is the factory's names
(:data:`repro.prefetch.PREFETCHER_NAMES`) plus ``perfect``, the
paper's perfect L1-I.  That is a cache model, not a prefetcher: its
lane walks with no prefetcher, so its coverage metrics are the
no-prefetch cache's (0 coverage, baseline misses remaining), and with
``timing: true`` — which a spec naming it must set — its ``speedup``
times every fetch at hit latency.
"""

from __future__ import annotations

from dataclasses import fields, replace
from typing import Any, Iterable, Mapping

from ..common.config import PIFConfig
from ..prefetch import make_prefetcher
from ..prefetch.base import Prefetcher
from ..prefetch.discontinuity import DiscontinuityPrefetcher
from ..prefetch.nextline import NextLinePrefetcher
from ..prefetch.stride import StridePrefetcher
from ..prefetch.tifs import TIFSPrefetcher

#: PIFConfig fields a scenario may sweep (``geometry`` is a structured
#: value, not a scalar knob) plus the constructor's index-bound switch.
_PIF_PARAMS = frozenset(
    f.name for f in fields(PIFConfig) if f.name != "geometry"
) | {"unbounded_index"}

#: Engine name -> parameter names a scenario may set.
ENGINE_PARAMS = {
    "none": frozenset(),
    "next-line": frozenset({"degree"}),
    "next-line-miss": frozenset({"degree"}),
    "stride": frozenset({"degree"}),
    "discontinuity": frozenset({"table_entries", "next_line_degree"}),
    "tifs": frozenset({"history_blocks", "index_entries", "streams",
                       "window_blocks"}),
    "pif": _PIF_PARAMS,
    "pif-no-tlsep": _PIF_PARAMS,
    "pif-access-order": _PIF_PARAMS,
    "perfect": frozenset(),
}

#: Engine names scenarios accept, in presentation order.
ENGINE_NAMES = tuple(ENGINE_PARAMS)


def validate_engine_params(engine: str, names: Iterable[str],
                           path: str) -> None:
    """Spec-time validation; raises SpecError naming the bad key."""
    from .spec import SpecError

    allowed = ENGINE_PARAMS.get(engine)
    if allowed is None:
        raise SpecError(f"{path}: unknown engine {engine!r}; choose from "
                        f"{sorted(ENGINE_PARAMS)}")
    for name in names:
        if name not in allowed:
            raise SpecError(
                f"{path}.{name}: engine {engine!r} has no parameter "
                f"{name!r}; allowed: {sorted(allowed) or '(none)'}")


def _build_pif(params: Mapping[str, Any], block_bytes: int,
               separate_trap_levels: bool = True,
               access_order: bool = False) -> Prefetcher:
    from ..core.pif import AccessOrderPIF, ProactiveInstructionFetch

    params = dict(params)
    unbounded = params.pop("unbounded_index", False)
    config = replace(PIFConfig(), **params) if params else PIFConfig()
    engine_class = AccessOrderPIF if access_order else ProactiveInstructionFetch
    return engine_class(
        config, block_bytes=block_bytes,
        separate_trap_levels=separate_trap_levels,
        unbounded_index=bool(unbounded))


def build_engine(engine: str, params: Mapping[str, Any],
                 block_bytes: int) -> Prefetcher:
    """A fresh engine instance for one sweep point.

    ``params`` must already have passed :func:`validate_engine_params`;
    value errors (negative sizes, bad trigger strings) surface as the
    constructors' own ValueErrors.  ``block_bytes`` is the point's cache
    line size — PIF's region decoding depends on it.

    A parameterless entry delegates to
    :func:`repro.prefetch.make_prefetcher` (``perfect`` walks as its
    ``none``; module docstring), so a bare engine name
    simulates the operating point ``repro compare`` and the experiments
    run for every engine but PIF: a bare ``pif`` is ``PIFConfig()``
    (7-region SAB window), theirs is the 3-region experiment point
    (module docstring).  Only parameterized variants go through the
    explicit constructors below.
    """
    params = dict(params)
    if not params:
        if engine == "perfect":
            return make_prefetcher("none")
        return make_prefetcher(engine, block_bytes=block_bytes)
    if engine == "next-line":
        return NextLinePrefetcher(degree=params.get("degree", 4),
                                  trigger="access")
    if engine == "next-line-miss":
        return NextLinePrefetcher(degree=params.get("degree", 4),
                                  trigger="miss")
    if engine == "stride":
        return StridePrefetcher(**params)
    if engine == "discontinuity":
        return DiscontinuityPrefetcher(**params)
    if engine == "tifs":
        return TIFSPrefetcher(**params)
    if engine == "pif":
        return _build_pif(params, block_bytes)
    if engine == "pif-no-tlsep":
        return _build_pif(params, block_bytes, separate_trap_levels=False)
    if engine == "pif-access-order":
        return _build_pif(params, block_bytes, access_order=True)
    raise ValueError(f"unknown engine {engine!r}")
