"""Parallel experiment fan-out: ordering, determinism, equivalence."""

from dataclasses import replace

import pytest

from repro.experiments.ablations import run_ablation
from repro.experiments.common import QUICK_CONFIG
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig10 import run_fig10
from repro.experiments.parallel import (
    WORKER_DIED,
    TaskFailure,
    WorkerCrashError,
    parallel_imap,
    parallel_map,
    resolve_jobs,
    run_workload_grid,
    shared_pool,
    shutdown_shared_pool,
)

#: Tiny configuration so the process-pool tests stay fast.
TINY = replace(QUICK_CONFIG, instructions=60_000,
               workloads=("oltp-db2", "dss-qry2"))


def _workload_tag(config, workload):
    """Module-level slice function (must be picklable for the pool)."""
    return f"{workload}@{config.instructions}"


def _double(value):
    return 2 * value


class TestJobsResolution:
    def test_integers_pass_through(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs("2") == 2

    def test_auto_derives_from_cpu_count(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_jobs("auto") == 7
        assert resolve_jobs(None) == 7
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert resolve_jobs("auto") == 1
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_jobs("AUTO") == 1

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)
        with pytest.raises(ValueError):
            resolve_jobs(-2)
        with pytest.raises(ValueError):
            resolve_jobs("many")


class TestSharedPool:
    def test_pool_persists_across_calls(self):
        try:
            first = shared_pool(2)
            again = shared_pool(2)
            assert first is again
            # Both generic maps draw from the same persistent pool.
            assert parallel_map(_double, [1, 2, 3], jobs=2) == [2, 4, 6]
            assert sorted(parallel_imap(_double, [1, 2, 3], jobs=2)) == [
                (0, 2), (1, 4), (2, 6)]
            assert shared_pool(2) is first
        finally:
            shutdown_shared_pool()

    def test_resize_recreates(self):
        try:
            first = shared_pool(2)
            resized = shared_pool(3)
            assert resized is not first
        finally:
            shutdown_shared_pool()

    def test_rejects_serial(self):
        with pytest.raises(ValueError):
            shared_pool(1)

    def test_workers_attach_to_the_trace_store(self, monkeypatch,
                                               tmp_path):
        from repro.trace.store import STORE_ENV

        monkeypatch.setenv(STORE_ENV, str(tmp_path / "attached"))
        try:
            shutdown_shared_pool()
            results = parallel_map(_read_store_env, [0, 1], jobs=2)
            assert set(results) == {str(tmp_path / "attached")}
        finally:
            shutdown_shared_pool()

    def test_repointed_store_recreates_the_pool(self, monkeypatch,
                                                tmp_path):
        """Re-pointing REPRO_TRACE_STORE mid-process must never leave
        workers attached to the old store."""
        from repro.trace.store import STORE_ENV

        try:
            monkeypatch.setenv(STORE_ENV, str(tmp_path / "first"))
            first_pool = shared_pool(2)
            assert set(parallel_map(_read_store_env, [0, 1], jobs=2)) == \
                {str(tmp_path / "first")}
            monkeypatch.setenv(STORE_ENV, str(tmp_path / "second"))
            assert shared_pool(2) is not first_pool
            assert set(parallel_map(_read_store_env, [0, 1], jobs=2)) == \
                {str(tmp_path / "second")}
        finally:
            shutdown_shared_pool()


def _read_store_env(_):
    import os

    from repro.trace.store import STORE_ENV

    return os.environ.get(STORE_ENV)


class TestPlumbing:
    def test_serial_grid_preserves_workload_order(self):
        pairs = run_workload_grid(_workload_tag, TINY)
        assert [w for w, _ in pairs] == list(TINY.workloads)
        assert pairs[0][1] == "oltp-db2@60000"

    def test_pool_grid_matches_serial(self):
        serial = run_workload_grid(_workload_tag, TINY)
        try:
            fanned = run_workload_grid(_workload_tag, TINY, jobs=2)
        finally:
            shutdown_shared_pool()
        assert fanned == serial

    def test_parallel_map_is_ordered(self):
        items = list(range(7))
        assert parallel_map(_double, items, jobs=2) == \
            [2 * item for item in items]
        assert parallel_map(_double, items, jobs=1) == \
            [2 * item for item in items]

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            run_workload_grid(_workload_tag, TINY, jobs=0)
        with pytest.raises(ValueError):
            parallel_map(_double, [1], jobs=0)


def _die_on_three(value):
    """Module-level poison task: value 3 exits the worker like a
    segfault (no exception, no cleanup); everything else doubles."""
    if value == 3:
        import os

        os._exit(99)
    return 2 * value


def _die_on_dss(config, workload):
    """Module-level poison slice: the DSS workload's worker exits like a
    segfault."""
    if workload == "dss-qry2":
        import os

        os._exit(99)
    return workload


def _worker_pid(_):
    import os

    return os.getpid()


def _raise_on_three(value):
    if value == 3:
        raise RuntimeError("task three is broken")
    return 2 * value


class TestWorkerDeath:
    """The pool-survival contract: a dead worker costs one task slot,
    never the batch, and never a hang."""

    def teardown_method(self):
        shutdown_shared_pool()

    def test_yield_mode_converts_death_to_task_failure(self):
        results = dict(parallel_imap(_die_on_three, [1, 2, 3, 4, 5],
                                     jobs=2, task_errors="yield"))
        assert results[2] == TaskFailure("worker-died", WORKER_DIED)
        for index, value in enumerate([1, 2, 3, 4, 5]):
            if index != 2:
                assert results[index] == 2 * value

    def test_raise_mode_raises_worker_crash_error(self):
        with pytest.raises(WorkerCrashError, match="killed its worker"):
            list(parallel_imap(_die_on_three, [1, 2, 3, 4, 5], jobs=2))

    def test_yield_mode_converts_exceptions_deterministically(self):
        for jobs in (1, 2):
            results = dict(parallel_imap(_raise_on_three, [1, 2, 3, 4],
                                         jobs=jobs, task_errors="yield"))
            assert results[2] == TaskFailure(
                "error", "RuntimeError: task three is broken")
            assert results[0] == 2 and results[3] == 8

    def test_raise_mode_propagates_exceptions(self):
        with pytest.raises(RuntimeError, match="task three is broken"):
            list(parallel_imap(_raise_on_three, [1, 2, 3, 4], jobs=2))

    def test_workload_grid_raises_worker_crash_error(self):
        """The figure runners' fan-out shares the contract: a slice
        that kills its worker raises instead of hanging the run."""
        with pytest.raises(WorkerCrashError, match="killed its worker"):
            run_workload_grid(_die_on_dss, TINY, jobs=2)

    def test_worker_killed_while_idle_is_replaced(self):
        """A worker that dies between calls (an OOM kill while idle)
        costs no task: the next call runs on a fresh slot."""
        import os
        import signal
        import time

        # One task per slot: each item runs on its own slot's worker.
        pids = set(parallel_map(_worker_pid, [0, 1], jobs=2))
        executors = list(shared_pool(2).executors)
        for pid in sorted(pids):
            os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 30
        while not all(executor._broken for executor in executors):
            assert time.monotonic() < deadline, "no slot saw its death"
            time.sleep(0.01)
        assert parallel_map(_double, [1, 2, 3], jobs=2) == [2, 4, 6]
        assert not pids & set(parallel_map(_worker_pid, [0, 1], jobs=2))

    def test_bad_task_errors_value_rejected(self):
        with pytest.raises(ValueError, match="task_errors"):
            list(parallel_imap(_double, [1], task_errors="ignore"))


class TestBitIdenticalResults:
    """The acceptance bar: fanned-out tables == sequential tables."""

    def teardown_method(self):
        shutdown_shared_pool()

    def test_fig3_tables_identical(self):
        sequential = run_fig3(TINY)
        fanned = run_fig3(TINY, jobs=2)
        assert fanned.to_table() == sequential.to_table()
        assert fanned.density == sequential.density
        assert fanned.discontinuity == sequential.discontinuity

    def test_fig10_tables_identical(self, tmp_path):
        # Each side gets its own store: with a shared one the pooled
        # run would resume from the serial run and compare nothing.
        sequential = run_fig10(TINY, out=tmp_path / "serial")
        fanned = run_fig10(TINY, jobs=2, out=tmp_path / "pooled")
        assert fanned.to_table() == sequential.to_table()
        assert fanned.coverage == sequential.coverage
        assert fanned.speedup == sequential.speedup

    def test_ablation_tables_identical(self, tmp_path):
        sequential = run_ablation("source", TINY, out=tmp_path / "serial")
        fanned = run_ablation("source", TINY, jobs=2,
                              out=tmp_path / "pooled")
        assert fanned.to_table() == sequential.to_table()
        assert fanned.coverage == sequential.coverage
