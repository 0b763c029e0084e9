"""Precomputed PIF training schedule, shared across lanes of one trace.

PIF's training side runs the collapsed retire stream through a spatial
compactor and a temporal compactor before anything reaches the history
buffer (:mod:`repro.core.spatial`, :mod:`repro.core.temporal`).  The key
observation this module exploits: *every decision on that path is
independent of the lane*.  Region boundaries depend only on the retire
PC sequence, channel routing only on the retire trap levels, and the
temporal compactor's discard test only on (trigger PC, bit vector) —
never on the ``tagged`` flag, which is the single lane-dependent input
(it records whether the lane's cache covered the trigger fetch, and
decides index insertion plus the flag stored in the history record).

A sweep group replays one trace against N PIF lanes; recomputing the
compaction pipeline N times is therefore pure waste.  The *train plan*
runs that pipeline **once per (bundle, training configuration)** and
records, per retire index, what the training side will do there:

* ``open`` — a new spatial region opens; the lane must capture its
  current tagged flag for the eventual record;
* ``emit`` — the previously open region closes with a known
  (trigger PC, bit vector); the temporal verdict (record vs. discard)
  is precomputed, and the lane only has to append the record (with its
  captured tagged flag) to the history and, when tagged, insert the
  index entry.

The native lane and timing walks (``_walk.c``, driven by
:func:`repro.sim.engine._walk_lane_native` and
:func:`repro.sim.timing._run_timing_native`) replay the plan's five
columns with a cursor, so per retire record the training side costs one
integer comparison.  Bit-identity with the reference ``on_retire`` path
is locked by ``tests/sim/test_engine.py`` (PIF rides the standard
kernel-differential matrix), the Hypothesis differential in
``tests/sim/test_native.py`` and ``tests/sim/test_trainplan.py``.

Plans are memoized in the bundle's :meth:`TraceBundle.derived_cache`
keyed by the training configuration, so shards and sweep points sharing
a trace inside one worker process build the plan once.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

import numpy as np

from ..common.addressing import RegionGeometry
from ..trace.bundle import TraceBundle


class PIFTrainPlan(NamedTuple):
    """The lane-independent training schedule of one retire stream.

    Five parallel numpy columns, one entry per retire index at which
    the training side acts (sorted ascending by ``at``; at most one
    event per retire index, since one retire record feeds one channel):

    * ``at`` (int64) — retire index the event fires at;
    * ``key`` (int64) — channel key (trap level, or 0 without
      separation);
    * ``trigger`` (int64) — closing region's trigger PC, or -1 for a
      pure *open* event (the first retire record a channel ever sees);
    * ``survives`` (bool) — temporal-compactor verdict for the closing
      region (always False for opens);
    * ``bits`` (int64) — closing region's bit vector (0 for opens).

    Every emit event implicitly re-opens a region at the same retire
    index (mirroring ``SpatialCompactor.feed``), so the replaying walker
    refreshes the channel's pending tagged flag on *every* event.
    """

    at: np.ndarray
    key: np.ndarray
    trigger: np.ndarray
    survives: np.ndarray
    bits: np.ndarray


#: Column dtypes of a :class:`PIFTrainPlan`, in field order.
PLAN_DTYPES = (np.int64, np.int64, np.int64, np.bool_, np.int64)


def build_train_plan(retire_pcs: List[int], retire_traps: List[int],
                     geometry: RegionGeometry, block_bytes: int,
                     separate_trap_levels: bool,
                     temporal_entries: int) -> PIFTrainPlan:
    """Run the spatial/temporal compaction pipeline once, recording the
    schedule (see module docstring).  ``tagged`` is fed as a constant
    because no decision on this path reads it.

    The compactor fast paths (:meth:`SpatialCompactor.feed`'s three-int
    geometry test, :meth:`TemporalCompactor.feed`'s peek/subset/promote)
    are inlined over per-channel local state — this builder runs once
    per (trace, training configuration) but still walks a couple of
    hundred thousand retire records; its output is locked against the
    real compactor objects by ``tests/sim/test_trainplan.py``.
    """
    from ..common.addressing import block_bits_for
    from ..common.lru import LRUCache

    block_bits = block_bits_for(block_bytes)
    preceding = geometry.preceding
    succeeding = geometry.succeeding
    #: channel key -> [trigger_pc, trigger_block, bits, LRU of recent
    #: trigger -> bits] (the spatial compactor's open region + temporal
    #: state).
    channels: Dict[int, List] = {}
    at: List[int] = []
    key: List[int] = []
    trigger: List[int] = []
    survives: List[bool] = []
    bits: List[int] = []
    at_append = at.append
    key_append = key.append
    trigger_append = trigger.append
    survives_append = survives.append
    bits_append = bits.append
    index = -1
    for pc, trap_level in zip(retire_pcs, retire_traps):
        index += 1
        channel_key = trap_level if separate_trap_levels else 0
        state = channels.get(channel_key)
        if state is None:
            # First retire record of the channel: open-only event.
            channels[channel_key] = [pc, pc >> block_bits, 0,
                                     LRUCache(temporal_entries)]
            at_append(index)
            key_append(channel_key)
            trigger_append(-1)
            survives_append(False)
            bits_append(0)
            continue
        block = pc >> block_bits
        offset = block - state[1]
        if offset == 0:
            continue
        if -preceding <= offset <= succeeding:
            if offset > 0:
                offset -= 1
            state[2] |= 1 << (offset + preceding)
            continue
        # Region closes: emit (temporal verdict inlined), then re-open.
        region_pc, region_bits = state[0], state[2]
        recent = state[3]
        if temporal_entries == 0:
            survived = True
        else:
            tracked = recent.peek(region_pc)
            if tracked is not None and region_bits & ~tracked == 0:
                recent.promote(region_pc)
                survived = False
            else:
                recent.put(region_pc, region_bits)
                survived = True
        at_append(index)
        key_append(channel_key)
        trigger_append(region_pc)
        survives_append(survived)
        bits_append(region_bits)
        state[0] = pc
        state[1] = block
        state[2] = 0
    return PIFTrainPlan(*(np.asarray(column, dtype=dtype) for column, dtype
                          in zip((at, key, trigger, survives, bits),
                                 PLAN_DTYPES)))


def train_plan_for(bundle: TraceBundle, geometry: RegionGeometry,
                   block_bytes: int, separate_trap_levels: bool,
                   temporal_entries: int) -> PIFTrainPlan:
    """The (memoized) train plan of ``bundle`` for one training
    configuration.

    Lookup order: the bundle's derived-value cache (all lanes, shards,
    and sweep points replaying this trace in one process share a single
    compaction pass), then the trace store's plan sidecar (warm sweeps
    across processes and runs skip the pass entirely), then a fresh
    build — which is persisted back to the sidecar.
    """
    params = (geometry.preceding, geometry.succeeding, block_bytes,
              separate_trap_levels, temporal_entries)
    cache_key = ("pif-train-plan",) + params
    derived = bundle.derived_cache()
    plan = derived.get(cache_key)
    if plan is None:
        plan = _load_sidecar(bundle, params)
    if plan is None:
        _, _, _, _, retire_pcs, retire_traps = bundle.decoded_columns()
        plan = build_train_plan(retire_pcs, retire_traps, geometry,
                                block_bytes, separate_trap_levels,
                                temporal_entries)
        _save_sidecar(bundle, params, plan)
    derived[cache_key] = plan
    return plan


# ---------------------------------------------------------------------------
# On-disk plan sidecar (under the trace store's ``plans/`` directory).
#
# Plans are pure derivations of the retire columns, so they are keyed by
# the bundle's *content hash* plus the training parameters — no
# generator-version stamp is needed (a regenerated trace has a new
# content hash, and identical content yields an identical plan).  The
# five columns are persisted as a compressed ``.npz`` and loaded as
# they are; any unreadable or shape-inconsistent sidecar is deleted and
# treated as a miss.
# ``repro traces gc --all`` clears the directory (see trace/store.py).

#: Subdirectory of the trace store root holding plan sidecars.
PLANS_DIR = "plans"

_derivation_hash_cache: Optional[str] = None


def plan_derivation_hash() -> str:
    """Short digest over the sources that define the training schedule
    (the two compactors and this module).  Folded into every sidecar
    filename so a persisted plan can never outlive the compaction
    algorithm that derived it — editing those files makes old sidecars
    silently stop matching, like the trace store's generator hash."""
    global _derivation_hash_cache
    if _derivation_hash_cache is None:
        import hashlib
        from pathlib import Path

        here = Path(__file__).resolve()
        core = here.parent.parent / "core"
        digest = hashlib.sha256()
        for source in (core / "spatial.py", core / "temporal.py", here):
            digest.update(source.read_bytes())
            digest.update(b"\x00")
        _derivation_hash_cache = digest.hexdigest()[:8]
    return _derivation_hash_cache


def _plan_path(bundle: TraceBundle, params: tuple):
    """Sidecar path (a ``pathlib.Path``) for (bundle, params), or None
    when the trace store is disabled or the region shape cannot be
    packed (``bits`` must fit an int64)."""
    from ..trace.store import TraceStore

    preceding, succeeding = params[0], params[1]
    if preceding + succeeding > 62:
        return None
    store = TraceStore.from_env()
    if store is None:
        return None
    digest = ("-".join(str(part) for part in params)).replace(" ", "")
    return (store.root / PLANS_DIR
            / (f"{bundle.content_hash()[:24]}__{digest}"
               f"__d{plan_derivation_hash()}.npz"))


def _save_sidecar(bundle: TraceBundle, params: tuple,
                  plan: PIFTrainPlan) -> None:
    """Persist ``plan`` (atomic rename; best-effort — failures only
    cost the next process a rebuild)."""
    import os

    path = _plan_path(bundle, params)
    if path is None:
        return
    scratch = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(scratch, "wb") as handle:
            np.savez_compressed(handle, **plan._asdict())
        os.replace(scratch, path)
    except OSError:
        return
    finally:
        scratch.unlink(missing_ok=True)


def _load_sidecar(bundle: TraceBundle,
                  params: tuple) -> Optional[PIFTrainPlan]:
    """Load a persisted plan's columns; unreadable or inconsistent
    sidecars are removed and reported as misses."""
    path = _plan_path(bundle, params)
    if path is None or not path.exists():
        return None
    from ..faults import fire

    fault = fire("plans.load", path.name)
    if fault is not None and fault.action == "corrupt":
        # Damage the cached plan in place: the load below must treat it
        # as a miss and the rebuild must overwrite it (self-heal).
        path.write_bytes(b"corrupted-by-fault-plan")
    try:
        with np.load(path) as archive:
            plan = PIFTrainPlan(*(archive[name]
                                  for name in PIFTrainPlan._fields))
    except Exception:
        path.unlink(missing_ok=True)
        return None
    if (len({len(column) for column in plan}) != 1
            or any(column.ndim != 1 or column.dtype != dtype
                   for column, dtype in zip(plan, PLAN_DTYPES))):
        path.unlink(missing_ok=True)
        return None
    return plan
