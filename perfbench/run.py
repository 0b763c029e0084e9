"""The repository's benchmark: ``repro sweep run`` on named workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pif-warm --seed 1 --seconds 10 \
        --trace 0

With ``--trace 0`` it sets the workload up (several times, reporting
the median), then runs one sweep at a time as a subprocess of the real
entry point for ``--seconds`` seconds, checks the stored results, and
prints the end-to-end metrics.  With ``--trace 1`` it runs the sweep
in-process with spans around each layer's public functions and prints
the per-layer metrics instead.  The last line of standard output is
the JSON result; the line before it is the run's provenance.  Metric
definitions, the workloads and the predictions they test are in
``perfbench/README.md``.

Everything the benchmark writes goes to a temporary directory under
``.perfbench-work/`` in the checkout, which is removed on exit.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    CALIBRATED_ENGINES, PIF_POINT, WORKLOADS, derived_seed)

#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 3
#: Fewest timed sweeps per run, however long they take.
MIN_SWEEPS = 3
#: Points a serial ``--limit`` sweep recomputes to cross-check a
#: fanned-out run (two trace groups of the competitive workloads).
SERIAL_CHECK_POINTS = 10

END_TO_END_UNITS = {
    "wall_s": "s", "sim_minst_per_s": "Minst/s", "cpu_s": "s",
    "peak_rss_mb": "MB", "setup_s": "s", "completed_frac": "frac",
    "pif_coverage": "frac", "pif_speedup": "ratio",
}


@dataclass
class Sample:
    """One timed subprocess."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


class BenchError(Exception):
    """The run could not produce a result (a sweep or a check failed)."""


def host_fingerprint() -> Dict[str, Any]:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "cpu": cpu}


def run_timed(argv: Sequence[str], env: Dict[str, str], log: Path) -> Sample:
    """Run ``argv`` to completion; wall-clock, CPU and peak RSS of it
    and every descendant it reaped."""
    with open(log, "ab") as handle:
        start = time.perf_counter()
        child = subprocess.Popen(list(argv), env=env, cwd=ROOT,
                                 stdout=handle, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                  peak_rss_mb=usage.ru_maxrss / 1024,
                  exit_code=child.returncode)


def quiet_cli(argv: List[str]) -> tuple:
    """``repro`` CLI in-process; (exit code, captured stdout)."""
    from repro.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


class Bench:
    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        self.workload = WORKLOADS[args.workload]
        self.seed = args.seed
        self.seconds = args.seconds
        self.smoke = args.smoke
        self.work = work
        self.spec_path = work / "spec.json"
        self.log = work / "log.txt"
        self.stores = 0
        self.in_process_runs = 0
        self.records: List[Dict[str, Any]] = []
        self.problems: List[str] = []
        self.notes: List[str] = []
        (work / "tmp").mkdir()

    # -- environment -------------------------------------------------

    def env(self, store: Path) -> Dict[str, str]:
        env = dict(os.environ)
        for name in ("REPRO_FAULT_PLAN", "REPRO_SIM_KERNEL"):
            env.pop(name, None)
        env.update(PYTHONPATH=str(ROOT / "src"),
                   REPRO_TRACE_STORE=str(store),
                   TMPDIR=str(self.work / "tmp"),
                   XDG_CACHE_HOME=str(self.work / "cache"))
        return env

    def new_store(self) -> Path:
        self.stores += 1
        return self.work / f"store{self.stores}"

    # -- set-up ------------------------------------------------------

    def setup(self) -> Sample:
        """Derive the scenario and (warm workloads) fill a new store."""
        store = self.new_store()
        argv = [sys.executable, str(HERE / "prepare.py"),
                "--example", str(ROOT / self.workload.example),
                "--overrides",
                json.dumps(self.workload.overrides(self.seed, self.smoke)),
                "--spec-out", str(self.spec_path)]
        if self.workload.warm:
            argv.append("--warm")
        sample = run_timed(argv, self.env(store), self.log)
        if sample.exit_code != 0:
            raise BenchError(f"set-up exited {sample.exit_code}; see "
                             "its log above")
        self.store = store
        return sample

    def sweep_store(self) -> Path:
        """The store a sweep runs against: the set-up's, or a new empty
        one for cold workloads."""
        return self.store if self.workload.warm else self.new_store()

    def sweep_argv(self, out: Path, fan_out: Sequence[str]) -> List[str]:
        return ["sweep", "run", "--spec", str(self.spec_path),
                "--out", str(out), *fan_out]

    # -- correctness gate ------------------------------------------

    def gate(self, runs: List[tuple]) -> Dict[str, Any]:
        """Canonicalise each (out, store) run, hash it, and check that
        every run stored the same complete, failure-free results."""
        digests, failed = {}, 0
        for out, store in runs:
            os.environ["REPRO_TRACE_STORE"] = str(store)
            # Status before repair: the repair drops quarantined records.
            _, text = quiet_cli(["sweep", "status", "--format", "json",
                                 "--spec", str(self.spec_path),
                                 "--out", str(out)])
            status = json.loads(text)
            failed += status["failed"]
            if not status["complete"]:
                self.problems.append(f"{out.name}: incomplete {status}")
            code, _ = quiet_cli(["sweep", "verify", "--repair",
                                 "--out", str(out)])
            if code != 0:
                self.problems.append(f"{out.name}: verify exited {code}")
            data = (out / "results.jsonl").read_bytes()
            digests[out.name] = hashlib.sha256(data).hexdigest()
            self.records = [json.loads(line) for line in data.splitlines()]
        if len(set(digests.values())) != 1:
            self.problems.append(f"results differ across runs: {digests}")
        return {"digest": next(iter(digests.values())), "failed": failed,
                "points": len(self.spec().points())}

    def spec(self):
        from repro.scenarios.spec import parse_spec

        return parse_spec(json.loads(self.spec_path.read_text()))

    def science(self) -> Dict[str, float]:
        """The simulated end-to-end metrics of the gated records."""
        pif = [record["metrics"] for record in self.records
               if record["point"]["engine"] == "pif"]
        spec = self.spec()
        if spec.timing:
            speedup = statistics.fmean(m["speedup"] for m in pif)
        else:
            speedup = self.timed_pif_speedup(spec)
        return {"pif_coverage": statistics.fmean(m["coverage"] for m in pif),
                "pif_speedup": speedup}

    def timed_pif_speedup(self, spec) -> float:
        """Timing-model speedup of the PIF operating point over no
        prefetching, averaged over the workload's traces, for
        scenarios that do not run the timing model themselves."""
        from dataclasses import replace

        from repro.common.config import CacheConfig, SystemConfig
        from repro.pipeline.tracegen import cached_trace
        from repro.scenarios.engines import build_engine
        from repro.sim.timing import run_timing_simulation

        speedups = []
        traces = sorted({(p.workload, p.instructions, p.seed, p.core,
                          p.warmup, p.capacity_bytes, p.associativity)
                         for p in spec.points()})
        for workload, instructions, seed, core, warmup, size, ways in traces:
            bundle = cached_trace(workload, instructions, seed, core).bundle
            system = replace(SystemConfig(), l1i=CacheConfig(
                capacity_bytes=size, associativity=ways))
            base = run_timing_simulation(bundle, None, system, warmup).uipc()
            engine = build_engine("pif", PIF_POINT, system.l1i.block_bytes)
            timed = run_timing_simulation(bundle, engine, system, warmup)
            speedups.append(timed.uipc() / base)
        return statistics.fmean(speedups)

    def serial_check(self, reference: Path) -> None:
        """Recompute the first points serially and compare them, record
        for record, with a fanned-out run's canonical store."""
        out, store = self.work / "serial-check", self.store
        sample = run_timed(
            [sys.executable, "-m", "repro",
             *self.sweep_argv(out, ("--limit", str(SERIAL_CHECK_POINTS)))],
            self.env(store), self.log)
        if sample.exit_code not in (0, 1):  # 1: incomplete, as limited
            raise BenchError(f"serial check sweep exited {sample.exit_code}")
        expected = {}
        for line in (reference / "results.jsonl").read_text().splitlines():
            record = json.loads(line)
            expected[record["hash"]] = record
        checked = 0
        for line in (out / "results.jsonl").read_text().splitlines():
            record = json.loads(line)
            checked += 1
            if expected.get(record["hash"]) != record:
                self.problems.append(
                    f"serial record {record['hash'][:12]} differs from "
                    f"the {self.workload.name} run")
        if checked != SERIAL_CHECK_POINTS:
            self.problems.append(f"serial check stored {checked} points")

    # -- --trace 0 ---------------------------------------------------

    def run_timed_sweeps(self) -> Dict[str, Any]:
        setups = [self.setup() for _ in range(1 if self.smoke else SETUPS)]
        samples: List[Sample] = []
        runs = []
        minimum = 1 if self.smoke else MIN_SWEEPS
        start = time.perf_counter()
        while True:
            out, store = self.work / f"out{len(samples)}", self.sweep_store()
            sample = run_timed(
                [sys.executable, "-m", "repro",
                 *self.sweep_argv(out, self.workload.fan_out)],
                self.env(store), self.log)
            if sample.exit_code != 0:
                raise BenchError(f"sweep exited {sample.exit_code}")
            samples.append(sample)
            runs.append((out, store))
            elapsed = time.perf_counter() - start
            median_wall = statistics.median(s.wall_s for s in samples)
            if len(samples) >= minimum and (
                    elapsed + median_wall > self.seconds):
                break
        checked = self.gate(runs)
        if not self.workload.serial:
            self.serial_check(runs[0][0])
        attempted = checked["points"] * len(samples)
        wall = statistics.median(s.wall_s for s in samples)
        instructions = self.workload.overrides(self.seed, self.smoke)[
            "instructions"]
        science = self.science()
        values = {
            "wall_s": wall,
            "sim_minst_per_s": checked["points"] * instructions / wall / 1e6,
            "cpu_s": statistics.median(s.cpu_s for s in samples),
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
            "setup_s": statistics.median(s.wall_s for s in setups),
            "completed_frac": (attempted - checked["failed"]) / attempted,
            "pif_coverage": science["pif_coverage"],
            "pif_speedup": science["pif_speedup"],
        }
        self.record = {"sweeps": [asdict(s) for s in samples],
                       "setups": [asdict(s) for s in setups],
                       "digest": checked["digest"]}
        return self.result(attempted, checked["failed"], {
            name: (values[name], unit)
            for name, unit in END_TO_END_UNITS.items()})

    # -- --trace 1 ---------------------------------------------------

    def in_process(self, fan_out: Sequence[str], trace: bool,
                   calibrate: bool = False) -> Dict[str, Any]:
        index = self.in_process_runs
        self.in_process_runs += 1
        out, store = self.work / f"inproc{index}", self.sweep_store()
        result_path = self.work / f"inproc{index}.json"
        argv = [sys.executable, str(HERE / "traced.py"),
                "--argv", json.dumps(self.sweep_argv(out, fan_out)),
                "--result", str(result_path)]
        if trace:
            argv.append("--trace")
        if calibrate:
            # The first trace of the --seed programs, core 0.
            point = next(point for point in self.spec().points()
                         if point.seed == derived_seed(self.seed))
            argv += ["--calibrate", json.dumps({
                "workload": point.workload,
                "instructions": point.instructions, "seed": point.seed,
                "warmup": point.warmup,
                "capacity_bytes": point.capacity_bytes,
                "associativity": point.associativity,
                "engines": CALIBRATED_ENGINES})]
        sample = run_timed(argv, self.env(store), self.log)
        if sample.exit_code != 0:
            raise BenchError(f"in-process sweep exited {sample.exit_code}")
        result = json.loads(result_path.read_text())
        if result["exit_code"] != 0:
            raise BenchError(f"in-process sweep returned "
                             f"{result['exit_code']}")
        result["run"] = (out, store)
        return result

    def run_traced_sweeps(self) -> Dict[str, Any]:
        self.setup()
        fan_out = self.workload.fan_out
        serial = self.workload.serial
        plain = [self.in_process(fan_out, trace=False)]
        traced = self.in_process(fan_out, trace=True, calibrate=serial)
        plain.append(self.in_process(fan_out, trace=False))
        worker = traced
        if not serial:
            worker = self.in_process((), trace=True, calibrate=True)
            self.notes.append(
                "worker-side layers (pipeline, trace, trainplan, "
                "baseline, engine, timing) come from a serial traced run "
                "of the same inputs: the fan-out's workers cannot be "
                "seen from outside")
        everything = plain + [traced] + ([] if serial else [worker])
        checked = self.gate([result["run"] for result in everything])
        metrics = layer_metrics(worker, traced)
        metrics["trace_overhead_frac"] = (
            traced["wall_s"] / statistics.median(
                result["wall_s"] for result in plain) - 1, "frac")
        self.record = {"in_process_walls": {
            "untraced": [result["wall_s"] for result in plain],
            "traced": traced["wall_s"], "serial_traced": worker["wall_s"]},
            "digest": checked["digest"]}
        attempted = checked["points"] * len(everything)
        return self.result(attempted, checked["failed"], metrics)

    # ----------------------------------------------------------------

    def result(self, attempted: int, failed: int,
               metrics: Dict[str, tuple]) -> Dict[str, Any]:
        """The result line; ``metrics`` maps name to (value, unit)."""
        if failed:
            self.problems.append(f"{failed} points failed")
        return {"correct": not self.problems, "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in metrics.items()}}

    def provenance(self) -> Dict[str, Any]:
        overrides = self.workload.overrides(self.seed, self.smoke)
        spec = self.spec()
        return {
            "workload": self.workload.name, "seed": self.seed,
            "trace_seeds": overrides["seeds"],
            "scale": {"points": len(spec.points()),
                      "instructions": overrides["instructions"],
                      "lanes": len(spec.variants),
                      "trace_groups": len({(p.workload, p.seed, p.core)
                                           for p in spec.points()}),
                      "fan_out": list(self.workload.fan_out),
                      "smoke": self.smoke},
            "host": host_fingerprint(), "notes": self.notes,
            "problems": self.problems, **self.record,
        }


def layer_metrics(worker: Dict[str, Any], parent: Dict[str, Any]
                  ) -> Dict[str, tuple]:
    """Per-layer metrics: worker-side layers from ``worker``'s spans,
    fan-out layers from ``parent``'s (the same run when serial)."""
    # Counters read 0 for a boundary the run never crossed.
    self_s, calls, counters = (Counter(worker["spans"][table]) for table in
                               ("self_s", "calls", "counters"))
    top = {table: Counter(values)
           for table, values in parent["spans"].items()}

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    generate_s = self_s["pipeline.generate"]
    walk_s = self_s["engine.walk"]
    timing_s = self_s["timing.walk"]
    replays = calls["baseline.replay"]
    metrics = {
        "pipeline.generate_s": (generate_s, "s"),
        "pipeline.generate_calls": (calls["pipeline.generate"],
                                    "count"),
        "pipeline.minst_per_s": (ratio(counters["pipeline.instructions"],
                                       generate_s) / 1e6, "Minst/s"),
        "trace.get_s": (self_s["trace.get"], "s"),
        "trace.put_s": (self_s["trace.put"], "s"),
        "trace.hit_ratio": (ratio(counters["trace.hits"],
                                  counters["trace.gets"]), "ratio"),
        "trainplan.s": (self_s["trainplan.lookup"]
                        + self_s["trainplan.build"], "s"),
        "trainplan.builds": (calls["trainplan.build"], "count"),
        "baseline.s": (self_s["baseline.measured"]
                       + self_s["baseline.replay"], "s"),
        "baseline.replays": (replays, "count"),
        "baseline.memo_hit_ratio": (
            1 - ratio(replays, calls["baseline.measured"])
            if calls["baseline.measured"] else 0.0, "ratio"),
        "engine.walk_s": (walk_s, "s"),
        "engine.ns_per_lane_access": (
            ratio(walk_s, counters["engine.lane_accesses"]) * 1e9,
            "ns"),
    }
    calibration = worker["calibration"]
    for name, _ in CALIBRATED_ENGINES:
        metrics[f"engine.ns_per_access.{name}"] = (
            calibration[name]["ns_per_access"], "ns")
        metrics[f"engine.fused_gain.{name}"] = (
            calibration[name]["fused_gain"], "ratio")
        metrics[f"engine.fused_gain_spread.{name}"] = (
            calibration[name]["fused_gain_spread"], "frac")
    metrics.update({
        "timing.s": (timing_s, "s"),
        "timing.calls": (calls["timing.walk"], "count"),
        "timing.ns_per_access": (
            ratio(timing_s, counters["timing.accesses"]) * 1e9, "ns"),
        "scenarios.prepare_s": (top["self_s"]["scenarios.prepare"],
                                "s"),
        "scenarios.append_s": (top["self_s"]["scenarios.append"], "s"),
        "parallel.first_result_s": (top["firsts"]["parallel.result"],
                                    "s"),
        "parallel.tasks": (top["counters"]["parallel.tasks"], "count"),
        "parallel.failures": (top["counters"]["parallel.failures"],
                              "count"),
        "dist.first_lease_s": (top["firsts"]["dist.lease"], "s"),
        "dist.lease_hit_ratio": (
            ratio(top["counters"]["dist.granted"],
                  top["counters"]["dist.requested"]), "ratio"),
        "dist.submit_s": (top["self_s"]["dist.submit"], "s"),
        "dist.requeues": (top["counters"]["dist.granted"]
                          - top["calls"]["dist.submit"], "count"),
        "traced.named_share": (ratio(sum(self_s.values()),
                                     worker["wall_s"]), "frac"),
    })
    return metrics


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Benchmark repro sweep run on a named workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="trace seed of every scenario point")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to keep starting timed sweeps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced in-process run, per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one set-up (the self-test)")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    needed = [ROOT / "src" / "repro" / "cli.py",
              ROOT / WORKLOADS[args.workload].example]
    missing = [path for path in needed if not path.is_file()]
    if missing:
        print(f"perfbench: {missing[0].relative_to(ROOT)} is missing; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be non-negative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    bench = Bench(args, work)
    try:
        result = (bench.run_traced_sweeps() if args.trace
                  else bench.run_timed_sweeps())
        provenance = bench.provenance()
    except BenchError as error:
        sys.stderr.write((work / "log.txt").read_text(errors="replace")
                         if (work / "log.txt").exists() else "")
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run's directory is still there
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
