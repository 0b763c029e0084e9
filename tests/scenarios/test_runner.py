"""Sweep execution: equivalence with the hand-written sweeps, resume
semantics, batching, and determinism across job counts.

The two acceptance locks of the scenario subsystem live here:

* the checked-in ``sab-ablation.yaml`` scenario reproduces
  :func:`repro.experiments.ablations.run_sab_ablation` **bit-identically**
  (same floats, not approximately);
* an interrupted sweep resumed from its results store recomputes
  nothing and ends with output identical to an uninterrupted run.
"""

import json

import pytest

from repro.experiments.ablations import run_sab_ablation
from repro.experiments.common import ExperimentConfig
from repro.scenarios import (ResultsStore, coverage_matrix, load_spec,
                             parse_spec, run_sweep, summarize)
from repro.scenarios import runner as runner_module

#: Small scale shared by the runner tests (trace generation dominates).
SMALL = {"workloads": ["dss-qry2"], "instructions": 30_000, "seeds": 3,
         "cores": 2}


def small_spec(**sweep_overrides):
    sweep = {
        **SMALL,
        "cache": {"kb": 16},
        "engines": ["next-line",
                    {"name": "pif", "params": {"sab_count": 4,
                                               "sab_window_regions": 3}}],
    }
    sweep.update(sweep_overrides)
    return parse_spec({"name": "small", "sweep": sweep})


quiet = {"log": lambda line: None}


class TestEquivalence:
    def test_sab_scenario_matches_handwritten_ablation(self, repo_root,
                                                       tmp_path):
        """The ported scenario file reproduces run_sab_ablation exactly.

        The checked-in spec is experiment scale; the test rescales it
        through sweep_overrides (same mechanism users get) and runs the
        hand-written sweep at the matching ExperimentConfig.  Coverage
        must be bit-identical — both paths feed identical request
        sequences through the same single-pass engine.
        """
        spec = load_spec(
            repo_root / "examples" / "scenarios" / "sab-ablation.yaml",
            sweep_overrides={"workloads": ["dss-qry2"],
                             "instructions": 30_000, "cores": 2})
        summary = run_sweep(spec, tmp_path / "out", **quiet)
        assert summary.complete()
        matrix = coverage_matrix(spec, ResultsStore(tmp_path / "out"))

        config = ExperimentConfig(instructions=30_000, cores=2,
                                  workloads=("dss-qry2",))
        ablation = run_sab_ablation(config)
        assert matrix == ablation.coverage  # bit-identical, not approx

    def test_checked_in_grid_matches_sab_grid(self, repo_root):
        """The scenario's zipped param grid is exactly ablations.SAB_GRID."""
        from repro.experiments.ablations import SAB_GRID

        spec = load_spec(
            repo_root / "examples" / "scenarios" / "sab-ablation.yaml")
        grids = [
            (dict(v.params)["sab_count"], dict(v.params)["sab_window_regions"])
            for v in spec.variants
        ]
        assert tuple(grids) == SAB_GRID
        assert spec.labels() == [f"{c}x{w}" for c, w in SAB_GRID]


class TestResume:
    def test_interrupted_sweep_resumes_bit_identical(self, tmp_path,
                                                     monkeypatch):
        """Kill mid-sweep (via --limit), rerun, assert no recomputation
        and byte-identical results to an uninterrupted run."""
        spec = small_spec()
        total = len(spec.points())
        assert total == 4

        # Uninterrupted reference run.
        ref_dir = tmp_path / "ref"
        assert run_sweep(spec, ref_dir, **quiet).computed == total

        # Interrupted run: only the first trace group (2 of 4 points).
        out = tmp_path / "out"
        first = run_sweep(spec, out, limit=2, **quiet)
        assert (first.computed, first.remaining) == (2, 2)
        after_interrupt = ResultsStore(out).records_path.read_text()

        # Resume, counting simulation calls: the stored points must not
        # be re-simulated.
        calls = []
        real = runner_module.run_multi_prefetch_simulation

        def counting(bundle, prefetchers, *args, **kwargs):
            calls.append(len(prefetchers))
            return real(bundle, prefetchers, *args, **kwargs)

        monkeypatch.setattr(runner_module, "run_multi_prefetch_simulation",
                            counting)
        second = run_sweep(spec, out, **quiet)
        assert (second.skipped, second.computed) == (2, 2)
        assert second.complete()
        assert sum(calls) == 2  # exactly the missing lanes, one walk

        # The first run's records were appended to, never rewritten.
        final = ResultsStore(out).records_path.read_text()
        assert final.startswith(after_interrupt)

        # And the resumed store equals the uninterrupted one record for
        # record (serial runs: identical bytes, identical order).
        assert final == ResultsStore(ref_dir).records_path.read_text()

    def test_rerun_of_complete_sweep_is_noop(self, tmp_path):
        spec = small_spec()
        run_sweep(spec, tmp_path, **quiet)
        before = ResultsStore(tmp_path).records_path.read_text()
        again = run_sweep(spec, tmp_path, **quiet)
        assert (again.computed, again.skipped) == (0, len(spec.points()))
        assert ResultsStore(tmp_path).records_path.read_text() == before

    def test_truncated_tail_recomputed_only(self, tmp_path):
        """A record lost to a mid-write kill is recomputed; intact ones
        are not."""
        spec = small_spec()
        run_sweep(spec, tmp_path, **quiet)
        store = ResultsStore(tmp_path)
        lines = store.records_path.read_text().splitlines()
        store.records_path.write_text(
            "\n".join(lines[:-1]) + "\n" + lines[-1][:20])
        pending, skipped = runner_module.missing_points(spec, store)
        assert (len(pending), skipped) == (1, len(spec.points()) - 1)
        resumed = run_sweep(spec, tmp_path, **quiet)
        assert (resumed.computed, resumed.skipped) == (
            1, len(spec.points()) - 1)
        assert resumed.complete()

    def test_stale_generator_records_recomputed(self, tmp_path):
        spec = small_spec()
        run_sweep(spec, tmp_path, **quiet)
        store = ResultsStore(tmp_path)
        doctored = []
        for line in store.records_path.read_text().splitlines():
            record = json.loads(line)
            record["generator"] = "0" * 12
            doctored.append(json.dumps(record))
        store.records_path.write_text("\n".join(doctored) + "\n")
        again = run_sweep(spec, tmp_path, **quiet)
        assert again.computed == len(spec.points())
        assert again.skipped == 0


class TestCooperativeStop:
    def test_stop_before_start_computes_nothing(self, tmp_path):
        spec = small_spec()
        summary = run_sweep(spec, tmp_path, should_stop=lambda: True,
                            **quiet)
        assert (summary.computed, summary.skipped) == (0, 0)
        assert summary.remaining == len(spec.points())

    def test_stop_between_groups_checkpoints_then_resumes(self, tmp_path):
        """`should_stop` raised after the first trace group (what the
        serve daemon's SIGTERM path does): that group's records are on
        disk, the rest is left for a resume that ends byte-identical to
        an uninterrupted run."""
        spec = small_spec()
        ref_dir = tmp_path / "ref"
        run_sweep(spec, ref_dir, **quiet)

        stop = {"requested": False}

        def watch(line):
            if "[1/" in line:
                stop["requested"] = True

        out = tmp_path / "out"
        first = run_sweep(spec, out, log=watch,
                          should_stop=lambda: stop["requested"])
        assert (first.computed, first.remaining) == (2, 2)

        resumed = run_sweep(spec, out, **quiet)
        assert (resumed.skipped, resumed.computed) == (2, 2)
        assert resumed.complete()
        assert ResultsStore(out).records_path.read_bytes() \
            == ResultsStore(ref_dir).records_path.read_bytes()

    def test_pooled_stop_checkpoints_then_resumes(self, tmp_path):
        """The same stop under ``jobs=2``: the task still running on the
        other worker slot is cancelled, not charged as a failure, and a
        resume repairs to the bytes of an uninterrupted run."""
        from repro.experiments.parallel import shutdown_shared_pool
        from repro.scenarios import verify_store

        spec = small_spec()
        ref_dir = tmp_path / "ref"
        run_sweep(spec, ref_dir, **quiet)

        stop = {"requested": False}

        def watch(line):
            if "[1/" in line:
                stop["requested"] = True

        out = tmp_path / "out"
        try:
            first = run_sweep(spec, out, jobs=2, log=watch,
                              should_stop=lambda: stop["requested"])
            assert first.remaining > 0
            assert not [record for record
                        in ResultsStore(out).load().values()
                        if "failed" in record]

            resumed = run_sweep(spec, out, jobs=2, **quiet)
        finally:
            shutdown_shared_pool()
        assert resumed.complete() and not resumed.degraded()
        assert resumed.skipped == len(spec.points()) - first.remaining
        verify_store(spec, ref_dir, repair=True)
        verify_store(spec, out, repair=True)
        assert ResultsStore(out).records_path.read_bytes() \
            == ResultsStore(ref_dir).records_path.read_bytes()


class TestExecution:
    def test_jobs_do_not_change_records(self, tmp_path):
        """Parallel fan-out yields the same record *set* (arrival order
        may differ, content must not)."""
        spec = small_spec()
        run_sweep(spec, tmp_path / "serial", **quiet)
        run_sweep(spec, tmp_path / "par", jobs=2, **quiet)
        serial = sorted(
            ResultsStore(tmp_path / "serial").records_path.read_text()
            .splitlines())
        parallel = sorted(
            ResultsStore(tmp_path / "par").records_path.read_text()
            .splitlines())
        assert serial == parallel

    def test_lanes_batch_into_one_walk_per_trace(self, tmp_path,
                                                 monkeypatch):
        spec = small_spec()  # 2 engines x 2 cores -> 2 groups of 2 lanes
        walks = []
        real = runner_module.run_multi_prefetch_simulation

        def counting(bundle, prefetchers, *args, **kwargs):
            walks.append(len(prefetchers))
            return real(bundle, prefetchers, *args, **kwargs)

        monkeypatch.setattr(runner_module, "run_multi_prefetch_simulation",
                            counting)
        run_sweep(spec, tmp_path, **quiet)
        assert walks == [2, 2]

    def test_timing_records_speedup(self, tmp_path):
        spec = small_spec(cores=1, timing=True)
        run_sweep(spec, tmp_path, **quiet)
        summary = summarize(spec, ResultsStore(tmp_path))
        assert summary.has_timing
        for _, cells in summary.rows:
            for cell in cells.values():
                assert cell is not None and cell.speedup is not None
                assert cell.speedup > 0.0

    def test_bad_limit_and_jobs_rejected(self, tmp_path):
        spec = small_spec()
        with pytest.raises(ValueError):
            run_sweep(spec, tmp_path, jobs=0, **quiet)
        with pytest.raises(ValueError):
            run_sweep(spec, tmp_path, limit=-1, **quiet)


class TestSharding:
    """Lane sharding: wide trace groups split under jobs > 1, records
    stay bit-identical, scheduling is deterministic largest-first."""

    def wide_spec(self):
        # One trace group of 8 lanes (4 geometries x 2 engines).
        return small_spec(cores=1, cache={"kb": [8, 16, 32, 64]})

    def test_shard_tasks_split_and_order(self):
        from repro.scenarios.runner import _group_tasks, _shard_tasks

        spec = self.wide_spec()
        pending = [(f"h{i}", point) for i, point in enumerate(spec.points())]
        groups = _group_tasks(pending)
        assert len(groups) == 1 and len(groups[0].lanes) == 8
        sharded = _shard_tasks(groups, jobs=2)
        assert len(sharded) == 4  # jobs * oversubscription
        assert sorted(len(task.lanes) for task in sharded) == [2, 2, 2, 2]
        # Deterministic: same input -> same shard list.
        assert sharded == _shard_tasks(_group_tasks(pending), jobs=2)
        # Largest-estimated-cost first.
        costs = [task.cost() for task in sharded]
        assert costs == sorted(costs, reverse=True)
        # All lanes survive exactly once, serial path untouched.
        shard_lanes = [lane for task in sharded for lane in task.lanes]
        assert sorted(digest for digest, _ in shard_lanes) == \
            sorted(digest for digest, _ in pending)
        assert _shard_tasks(groups, jobs=1) is groups

    def test_single_lane_tasks_stop_splitting(self):
        from repro.scenarios.runner import _group_tasks, _shard_tasks

        spec = small_spec(cores=1)  # 1 group x 2 lanes
        pending = [(f"h{i}", point) for i, point in enumerate(spec.points())]
        sharded = _shard_tasks(_group_tasks(pending), jobs=8)
        assert len(sharded) == 2  # cannot split below one lane

    def test_sharded_run_matches_serial_records(self, tmp_path):
        spec = self.wide_spec()
        run_sweep(spec, tmp_path / "serial", **quiet)
        run_sweep(spec, tmp_path / "sharded", jobs=3, **quiet)
        serial = sorted(
            ResultsStore(tmp_path / "serial").records_path.read_text()
            .splitlines())
        sharded = sorted(
            ResultsStore(tmp_path / "sharded").records_path.read_text()
            .splitlines())
        assert serial == sharded


class TestBaselineSidecar:
    def test_sidecar_written_and_reused(self, tmp_path, monkeypatch):
        """The first run persists baselines; a rerun (resume no-op
        aside) and a same-directory re-sweep replay zero baselines."""
        from repro.scenarios import BaselineSidecar
        from repro.sim import baseline as baseline_module

        spec = small_spec(cores=1)
        baseline_module.clear_baseline_memo()
        run_sweep(spec, tmp_path, **quiet)
        sidecar = BaselineSidecar(tmp_path)
        entries = sidecar.load_all()[0]
        assert entries  # one per (trace, geometry, warmup)
        for payload in entries.values():
            assert payload["misses"] >= 0

        # Doctor the store empty so every point recomputes, clear the
        # in-process memo, and count real replays on the second run.
        ResultsStore(tmp_path).records_path.unlink()
        baseline_module.clear_baseline_memo()
        calls = []
        real = baseline_module.replay_baseline

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(baseline_module, "replay_baseline", counting)
        run_sweep(spec, tmp_path, **quiet)
        assert not calls  # every baseline came from the sidecar

    def test_corrupt_sidecar_lines_are_skipped(self, tmp_path):
        from repro.scenarios import BaselineSidecar

        spec = small_spec(cores=1)
        run_sweep(spec, tmp_path, **quiet)
        sidecar = BaselineSidecar(tmp_path)
        good = sidecar.load_all()[0]
        with open(sidecar.path, "a") as handle:
            handle.write("{truncated\n[]\n")
        assert sidecar.load_all()[0] == good


class TestReporting:
    def test_report_rows_expose_varying_axes(self, tmp_path):
        spec = small_spec(seeds=[3, 4], cores=1)
        run_sweep(spec, tmp_path, **quiet)
        summary = summarize(spec, ResultsStore(tmp_path))
        assert summary.row_fields == ("workload", "seed")
        assert [key for key, _ in summary.rows] == [
            ("dss-qry2", 3), ("dss-qry2", 4)]

    def test_incomplete_sweep_reports_gaps(self, tmp_path):
        from repro.scenarios import format_markdown, format_status

        spec = small_spec()
        run_sweep(spec, tmp_path, limit=2, **quiet)
        summary = summarize(spec, ResultsStore(tmp_path))
        assert summary.computed == 2 and summary.total == 4
        rendered = format_markdown(summary)
        assert "incomplete" in rendered
        assert "—" in rendered  # the missing cells
        status = format_status(spec, ResultsStore(tmp_path))
        assert "missing    2" in status
        with pytest.raises(ValueError, match="incomplete"):
            coverage_matrix(spec, ResultsStore(tmp_path))

    def test_csv_round_trips_fraction_values(self, tmp_path):
        import csv
        import io

        from repro.scenarios import format_csv

        spec = small_spec(cores=1)
        run_sweep(spec, tmp_path, **quiet)
        summary = summarize(spec, ResultsStore(tmp_path))
        rows = list(csv.DictReader(io.StringIO(format_csv(summary))))
        assert len(rows) == 2
        for row in rows:
            coverage = float(row["coverage"])  # fraction, not percent
            assert -1.0 <= coverage <= 1.0
            assert int(row["points"]) == 1
