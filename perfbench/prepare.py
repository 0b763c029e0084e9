"""Prepare one workload's inputs: the scenario file and the trace store.

Run as a subprocess by ``perfbench/run.py``; its wall-clock is the
benchmark's ``setup_s``::

    python3 perfbench/prepare.py --example examples/scenarios/X.yaml \
        --overrides '{...}' --spec-out spec.json [--warm]

The scenario is derived from a checked-in one through
``load_spec(..., sweep_overrides=...)`` and written as JSON for
``repro sweep run --spec``.  With ``--warm`` every trace the sweep
reads is generated into ``$REPRO_TRACE_STORE``, with the train-plan
sidecar of every fused-PIF lane, exactly as a first sweep would leave
them.  Without it the store stays empty.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    from repro.core.pif import ProactiveInstructionFetch
    from repro.pipeline.tracegen import cached_trace
    from repro.scenarios.engines import build_engine
    from repro.scenarios.spec import load_spec
    from repro.sim.trainplan import train_plan_for

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--example", required=True)
    parser.add_argument("--overrides", required=True)
    parser.add_argument("--spec-out", required=True)
    parser.add_argument("--warm", action="store_true")
    args = parser.parse_args()

    spec = load_spec(args.example, sweep_overrides=json.loads(args.overrides))
    Path(args.spec_out).write_text(json.dumps(spec.source, indent=2))
    if not args.warm:
        return 0
    planned = set()
    for point in spec.points():
        bundle = cached_trace(point.workload, point.instructions, point.seed,
                              point.core).bundle
        engine = build_engine(point.engine, dict(point.params),
                              point.block_bytes)
        if type(engine) is not ProactiveInstructionFetch:
            continue
        params = (engine.config.geometry, engine.block_bytes,
                  engine.separate_trap_levels,
                  engine.config.temporal_compactor_entries)
        if (bundle.content_hash(), params) not in planned:
            planned.add((bundle.content_hash(), params))
            train_plan_for(bundle, *params)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
