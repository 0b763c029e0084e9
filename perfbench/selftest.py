"""Smoke-scale test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` on tiny inputs (``--smoke``),
traced and untraced, and checks the result line: its exact keys, every
named metric with its unit, and a passing correctness gate.  Then shows
the gate tripping on doctored stores, and the benchmark refusing to run
in a directory that holds only itself.  Exits 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as perfbench  # noqa: E402
from workloads import derived_seed  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def run_benchmark(workload: str, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "5", "--seconds", "1", "--trace", str(trace),
               "--smoke"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    check(done.returncode == 0, f"{workload} --trace {trace} exited "
          f"{done.returncode}:\n{done.stderr[-3000:]}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    provenance = json.loads(lines[-2])["provenance"]
    check(set(result) == RESULT_KEYS, f"result keys {sorted(result)}")
    check(result["correct"] is True, f"{workload}: gate failed "
          f"{provenance['problems']}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1
          and isinstance(result["failed"], int), "attempted/failed counts")
    check(provenance["trace_seeds"][-1] == derived_seed(5),
          "trace seeds derive from --seed")
    return result


def check_metrics(result: dict, declared: list, label: str) -> None:
    metrics = result["metrics"]
    names = [entry["name"] for entry in declared]
    check(sorted(metrics) == sorted(names),
          f"{label}: metric names differ from BENCHMARK.json: "
          f"{sorted(set(metrics) ^ set(names))}")
    for entry in declared:
        reported = metrics[entry["name"]]
        check(set(reported) == {"value", "unit"}, f"{label}: {reported}")
        check(reported["unit"] == entry["unit"],
              f"{label}: {entry['name']} unit {reported['unit']!r}")
        check(isinstance(reported["value"], (int, float)),
              f"{label}: {entry['name']} value {reported['value']!r}")


def check_gate_trips() -> None:
    """Two identical sweeps pass the gate; doctoring one fails it."""
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        args = perfbench.parse_args(["--workload", "pif-warm", "--seed", "5",
                                     "--seconds", "1", "--smoke"])
        sys.path.insert(0, str(ROOT / "src"))
        bench = perfbench.Bench(args, work)
        bench.setup()
        runs = []
        for index in range(2):
            out = work / f"out{index}"
            sample = perfbench.run_timed(
                [sys.executable, "-m", "repro",
                 *bench.sweep_argv(out, ())], bench.env(bench.store),
                bench.log)
            check(sample.exit_code == 0, "doctor sweep failed")
            runs.append((out, bench.store))
        bench.gate(runs)
        check(not bench.problems, f"clean stores tripped {bench.problems}")

        results = runs[1][0] / "results.jsonl"
        pristine = results.read_text()
        records = [json.loads(line) for line in pristine.splitlines()]
        records[3]["metrics"]["remaining_misses"] += 1
        results.write_text("".join(json.dumps(record) + "\n"
                                   for record in records))
        bench.gate(runs)
        check(any("differ" in problem for problem in bench.problems),
              f"a doctored metric passed the gate: {bench.problems}")

        bench.problems.clear()
        records = [json.loads(line) for line in pristine.splitlines()]
        failed = dict(records[0])
        failed.pop("metrics")
        failed["failed"] = {"attempts": 3, "kind": "error",
                            "error": "doctored"}
        results.write_text(pristine + json.dumps(failed) + "\n")
        checked = bench.gate(runs)
        check(bench.problems and checked["failed"] == 1,
              f"a quarantined point passed the gate: {bench.problems}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


def check_refuses_bare_directory() -> None:
    """With only BENCHMARK.json and perfbench/ there is nothing to run."""
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "pif-warm",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        check(done.returncode != 0 and not done.stdout.strip(),
              "a bare directory produced a result")
    try:
        scratch.rmdir()
    except OSError:
        pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in declared["workloads"]:
        name = entry["name"]
        result = run_benchmark(name, 0)
        check_metrics(result, declared["end_to_end"], f"{name} --trace 0")
        print(f"    {name}: " + ", ".join(
            f"{metric} = {reading['value']:.4g} {reading['unit']}"
            for metric, reading in result["metrics"].items()))
        check_metrics(run_benchmark(name, 1), declared["per_layer"],
                      f"{name} --trace 1")
        print(f"ok  {name}")
    check_gate_trips()
    print("ok  gate trips on doctored stores")
    check_refuses_bare_directory()
    print("ok  bare directory refused")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
