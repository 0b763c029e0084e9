"""Walker census: the checked-in lanes and timings that the native walk
declines.

Every point of the figure and ablation specs
(``src/repro/experiments/specs``) and of the checked-in scenarios
(``examples/scenarios``) is built as the sweep runner builds it, engine
and L1-I.  With the native library loaded, the walks the native walk
declines (``_native_inputs`` returns None, so the reference walk runs
them) must be exactly the known ones: the lane walk of every point,
and for a timed point the engine's timing walk and the no-prefetch
timing it is divided by.  An engine or geometry that drops off the
native walk fails here.
"""

from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.common import SPEC_DIR
from repro.prefetch.base import NullPrefetcher
from repro.scenarios.engines import build_engine
from repro.scenarios.runner import _cache_config
from repro.scenarios.spec import load_spec
from repro.sim import native
from repro.sim.engine import _native_inputs
from repro.trace.bundle import TraceBundle

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "scenarios"

#: (spec, engine, ways, replacement, walk) -> walks the reference walk
#: runs while the library is loaded: none.
PYTHON_LANES: Counter = Counter()


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
    declined, walks = Counter(), 0
    for path in paths:
        spec = load_spec(path)
        for point in spec.points():
            config = _cache_config(point)

            def engine():
                return build_engine(point.engine, dict(point.params),
                                    point.block_bytes)

            checks = [("lane", engine(), False)]
            if point.timing:
                checks += [("timing", engine(), point.engine == "perfect"),
                           ("timing", NullPrefetcher(), False)]
            for walk, prefetcher, perfect in checks:
                walks += 1
                if _native_inputs(prefetcher, config, bundle, 0,
                                  perfect) is None:
                    declined[spec.name, point.engine, point.associativity,
                             point.replacement, walk] += 1
    assert {path.stem for path in paths} >= {
        "fig10", "ablation-source", "ablation-replacement", "geometry",
        "seed-sensitivity"}
    assert declined == PYTHON_LANES
    assert walks > sum(PYTHON_LANES.values())
