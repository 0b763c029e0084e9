"""Walker census: the checked-in lanes that still walk in Python.

Every point of the figure and ablation specs
(``src/repro/experiments/specs``) and of the checked-in scenarios
(``examples/scenarios``) is built as the sweep runner builds it, engine
and L1-I.  With the native library loaded, the lanes that take a
Python walker must be exactly the known ones: a lane ``_select_walker``
sends to the hook walkers, or one the native walk would decline
(``_native_inputs``).  The timing walk decides on the same engine and
cache, so the census covers timed points too.  An engine or geometry
that drops off the native walks fails here; one that joins them
shrinks the expected set.
"""

from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.cache.icache import InstructionCache
from repro.experiments.common import SPEC_DIR
from repro.scenarios.engines import build_engine
from repro.scenarios.runner import _cache_config
from repro.scenarios.spec import load_spec
from repro.sim import native
from repro.sim.engine import (
    _Lane,
    _native_inputs,
    _select_walker,
    _walk_lane_native,
)
from repro.trace.bundle import TraceBundle

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "scenarios"

#: (spec, engine, ways, replacement) -> lanes that walk in Python:
#: the record-source ablation's fetch-order PIF (a subclass), the
#: replacement ablation's random policy, and the geometry study's
#: 4-way caches.
PYTHON_LANES = Counter({
    ("ablation-source", "pif-access-order", 2, "lru"): 12,
    ("ablation-replacement", "pif", 2, "random"): 12,
    **{("geometry", engine, 4, "lru"): 9
       for engine in ("next-line", "stride", "discontinuity", "tifs",
                      "pif")},
})


def _bundle():
    """A small correct-path bundle: repeated block runs, so every
    engine's set-up (PIF's train plan included) sees real work."""
    blocks = np.tile(np.arange(40, dtype=np.int64), 5)
    pcs = blocks * 64
    traps = np.zeros(len(blocks), dtype=np.uint8)
    return TraceBundle.from_columns(
        workload="census", core=0, seed=0, block_bytes=64,
        retire_pc=pcs, retire_trap=traps, access_block=blocks,
        access_pc=pcs, access_trap=traps,
        access_wrong_path=np.zeros(len(blocks), dtype=np.bool_),
        instructions=len(blocks))


def test_only_known_lanes_walk_in_python(monkeypatch):
    if native.load() is None:
        pytest.skip("native walk unavailable (no working C compiler)")
    monkeypatch.setenv("REPRO_TRACE_STORE", "off")
    bundle = _bundle()
    paths = sorted(SPEC_DIR.glob("*.yaml")) + sorted(EXAMPLES.glob("*.yaml"))
    python_lanes, lanes = Counter(), 0
    for path in paths:
        spec = load_spec(path)
        for point in spec.points():
            engine = build_engine(point.engine, dict(point.params),
                                  point.block_bytes)
            cache = InstructionCache(_cache_config(point))
            lanes += 1
            if (_select_walker(_Lane(engine, cache, None))
                    is not _walk_lane_native
                    or _native_inputs(engine, cache, bundle, 0) is None):
                python_lanes[spec.name, point.engine, point.associativity,
                             point.replacement] += 1
    assert {path.stem for path in paths} >= {
        "fig10", "ablation-source", "ablation-replacement", "geometry",
        "seed-sensitivity"}
    assert python_lanes == PYTHON_LANES
    assert lanes > sum(PYTHON_LANES.values())
