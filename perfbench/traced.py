"""One in-process ``repro sweep run``, traced or not, plus calibration.

Run as a subprocess by ``perfbench/run.py`` (so every run starts with
cold in-process caches, like the real CLI)::

    python3 perfbench/traced.py --argv '["sweep", "run", ...]' \
        --result out.json [--trace] [--calibrate '{...}']

The result file holds the sweep's wall-clock (the ``repro.cli.main``
call only: interpreter start and imports are excluded on both the
traced and the untraced side), its exit code, the layer spans when
``--trace`` is given, and the fused-walker calibration when
``--calibrate`` is given.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

#: Timed rounds per engine in the calibration (after one warm-up round
#: that fills the baseline memo and the train plan).
CALIBRATION_ROUNDS = 7


def run_sweep(argv, trace: bool):
    from repro.cli import main

    import tracer as tracing

    spans = None
    recorder = tracing.Tracer()
    if trace:
        tracing.install(recorder)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            recorder.origin = start = time.perf_counter()
            code = main(argv)
            wall = time.perf_counter() - start
    finally:
        recorder.uninstall()
    if trace:
        spans = recorder.report()
    return wall, code, spans


def calibrate(job):
    """Fused walker vs the hook-driven 2-way walker, one lane at a time.

    ``_select_walker`` picks a fused walker by *exact* engine type, so
    an engine re-classed to a subclass that adds nothing takes
    ``_walk_lane_inline2`` with identical state and outputs.  TIFS has
    no fused walker: both of its sides take the same walker, which
    makes its ratio the noise control.
    """
    from repro.common.config import CacheConfig
    from repro.pipeline.tracegen import cached_trace
    from repro.scenarios.engines import build_engine
    from repro.sim.engine import run_multi_prefetch_simulation

    bundle = cached_trace(job["workload"], job["instructions"], job["seed"],
                          0).bundle
    config = CacheConfig(capacity_bytes=job["capacity_bytes"],
                         associativity=job["associativity"])
    accesses = len(bundle.access_block)

    def walk(name, params, fused):
        engine = build_engine(name, params, config.block_bytes)
        if not fused:
            engine.__class__ = type("Unfused" + type(engine).__name__,
                                    (type(engine),), {})
        start = time.perf_counter()
        sim, = run_multi_prefetch_simulation(
            bundle, [engine], cache_config=config,
            warmup_fraction=job["warmup"])
        return (time.perf_counter() - start,
                (sim.remaining_misses, sim.prefetches_issued))

    result = {"accesses": accesses}
    for name, params in job["engines"]:
        outputs = {walk(name, params, fused)[1] for fused in (True, False)}
        if len(outputs) != 1:
            raise SystemExit(f"calibration: {name} fused and unfused "
                             f"walkers disagree: {sorted(outputs)}")
        fused_s, unfused_s = [], []
        for round_ in range(CALIBRATION_ROUNDS):
            # Alternate which side goes first so drift hits both.
            order = (True, False) if round_ % 2 == 0 else (False, True)
            for fused in order:
                seconds, output = walk(name, params, fused)
                if output not in outputs:
                    raise SystemExit(f"calibration: {name} output moved")
                (fused_s if fused else unfused_s).append(seconds)
        gains = [slow / fast for fast, slow in zip(fused_s, unfused_s)]
        quartiles = statistics.quantiles(gains, n=4)
        median_gain = statistics.median(gains)
        result[name] = {
            "ns_per_access": statistics.median(fused_s) / accesses * 1e9,
            "fused_gain": median_gain,
            "fused_gain_spread": (quartiles[2] - quartiles[0]) / median_gain,
        }
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--argv", required=True,
                        help="repro CLI arguments as a JSON list")
    parser.add_argument("--result", required=True,
                        help="file the JSON result is written to")
    parser.add_argument("--trace", action="store_true",
                        help="record layer spans around the sweep")
    parser.add_argument("--calibrate", default=None,
                        help="calibration job as JSON (see calibrate())")
    args = parser.parse_args()
    wall, code, spans = run_sweep(json.loads(args.argv), args.trace)
    result = {"wall_s": wall, "exit_code": code, "spans": spans}
    if args.calibrate and code == 0:
        result["calibration"] = calibrate(json.loads(args.calibrate))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
