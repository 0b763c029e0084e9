"""Native PIF lane walk vs the hook walker once the real history wraps.

``tests/sim/test_native.py`` reaches history overwrites only through a
64-entry history on small synthetic traces, and the fast suite's
traces are too short to fill the paper's 32K-entry history.  Here the
checked-in SAB ablation (six PIF lanes, seed 42) runs on web-apache at
800k instructions, where the main channel records more spatial regions
than its history holds, so SAB pointers into overwritten entries are
live.  The sweep runs twice — through the native walk and with the
loader returning None, which sends PIF lanes to the hook-driven
walker — and every point must record equal metrics.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.common.config import CacheConfig
from repro.pipeline.tracegen import cached_trace
from repro.scenarios.engines import build_engine
from repro.scenarios.results import ResultsStore
from repro.scenarios.runner import run_sweep
from repro.scenarios.spec import load_spec
from repro.sim import native
from repro.sim.engine import run_multi_prefetch_simulation

SPEC = (Path(__file__).resolve().parent.parent / "examples" / "scenarios"
        / "sab-ablation.yaml")

#: web-apache at 800k instructions records ~40k regions in the main
#: channel against 32,768 history entries (oltp-db2 at this length
#: records ~20k and does not wrap).
OVERRIDES = {"workloads": ["web-apache"], "instructions": 800_000,
             "cores": 1}


def _metrics(out: Path) -> dict:
    """Point hash -> metrics; a quarantined point (a ``failed`` record
    has no ``metrics``) fails the test here."""
    return {digest: record["metrics"]
            for digest, record in ResultsStore(out).load().items()}


def test_native_walk_matches_hook_walker_when_history_wraps(tmp_path,
                                                             monkeypatch):
    if native.load() is None:
        pytest.skip("native PIF lane walk unavailable (no working C "
                    "compiler)")
    spec = load_spec(SPEC, sweep_overrides=OVERRIDES)
    points = spec.points()
    assert len(points) == 6

    # The premise: one direct walk shows the main channel's history
    # wrapping at this scale.
    point = points[0]
    bundle = cached_trace(point.workload, point.instructions, point.seed,
                          point.core).bundle
    engine = build_engine(point.engine, dict(point.params),
                          point.block_bytes)
    config = CacheConfig(capacity_bytes=point.capacity_bytes,
                         associativity=point.associativity,
                         block_bytes=point.block_bytes,
                         replacement=point.replacement)
    run_multi_prefetch_simulation(bundle, [engine], cache_config=config,
                                  warmup_fraction=point.warmup)
    assert engine.walked_natively
    history_entries, _ = engine.channel_sizes(0)
    assert engine.channel_stats()[0].regions_recorded > history_entries

    quiet = {"log": lambda line: None}
    run_sweep(spec, tmp_path / "native", **quiet)
    monkeypatch.setattr(native, "load", lambda: None)
    run_sweep(spec, tmp_path / "hook", **quiet)

    walked_natively = _metrics(tmp_path / "native")
    walked_by_hooks = _metrics(tmp_path / "hook")
    assert len(walked_natively) == len(points)
    assert walked_natively == walked_by_hooks
