"""Chaos over the wire: dist.* fault sites → expiry, requeue, converge.

Extends the PR 8 chaos locks across the distributed tier, using the
same acceptance properties: a fault-injected ``--transport local`` run
never wedges — transient worker deaths are requeued to success,
poisoned groups quarantine with the exact inline-runner record payload
— and after ``verify --repair`` the faulted store is byte-identical to
a clean run's.

Sites exercised (all keyed like ``worker.task``):

* ``dist.worker`` — fires in the worker just before the group walk; a
  ``kill`` here is a worker dying mid-task (the lease-expiry path);
* ``dist.result`` — fires after the walk, before the report is sent; a
  ``kill`` here loses *finished* work, which must be recomputed
  identically by the requeued attempt;
* ``dist.lease`` — fires in the coordinator on every lease request; a
  ``raise`` here exercises the worker's transport-retry path against a
  500ing coordinator.
"""

import json

import pytest

from repro.experiments.parallel import WORKER_DIED, shutdown_shared_pool
from repro.faults import FAULT_PLAN_ENV
from repro.faults import plan as plan_module
from repro.scenarios import (ResultsStore, parse_spec, run_sweep,
                             status_summary, verify_store)

#: Same scale as tests/faults/test_chaos.py (shared cached traces):
#: two trace groups (cores 0 and 1) x two engine lanes = 4 points.
SMALL = {
    "name": "dist-chaos",
    "sweep": {
        "workloads": ["dss-qry2"], "instructions": 30_000, "seeds": 3,
        "cores": 2, "cache": {"kb": 16},
        "engines": ["next-line",
                    {"name": "pif", "params": {"sab_count": 4,
                                               "sab_window_regions": 3}}],
    },
}

quiet = {"log": lambda line: None}


@pytest.fixture(autouse=True)
def pristine_faults():
    plan_module.reset()
    yield
    plan_module.reset()
    shutdown_shared_pool()


def spec():
    return parse_spec(SMALL)


def arm_env(monkeypatch, *faults):
    """Arm a plan through the environment — the coordinator process AND
    every spawned worker subprocess read it (fresh counters each), like
    real chaos runs."""
    monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps({"faults": list(faults)}))
    plan_module.reset()


def disarm(monkeypatch):
    monkeypatch.delenv(FAULT_PLAN_ENV)
    plan_module.reset()


def run_distributed(out, **kwargs):
    from repro.dist.coordinator import run_distributed_sweep

    kwargs.setdefault("workers", 2)
    kwargs.setdefault("lease_timeout", 30.0)
    return run_distributed_sweep(spec(), out, **quiet, **kwargs)


class TestTransientWorkerDeath:
    def test_kill_mid_group_requeues_and_converges_to_clean_bytes(
            self, tmp_path, monkeypatch):
        """The satellite lock: a ``dist.worker`` kill plan murders every
        first attempt mid-group; the coordinator observes the deaths,
        expires the leases, requeues on respawned workers, and the
        final store is byte-identical to a fault-free run after
        ``verify --repair``."""
        clean = tmp_path / "clean"
        fault = tmp_path / "fault"
        run_sweep(spec(), clean, **quiet)

        arm_env(monkeypatch, {"site": "dist.worker", "action": "kill",
                              "match": "attempt=0", "times": None})
        summary = run_distributed(fault)
        assert summary.complete() and not summary.degraded()
        assert (summary.computed, summary.failed) == (4, 0)

        disarm(monkeypatch)
        verify_store(spec(), fault, repair=True)
        verify_store(spec(), clean, repair=True)
        assert (fault / "results.jsonl").read_bytes() \
            == (clean / "results.jsonl").read_bytes()

    def test_kill_after_walk_recomputes_identical_records(
            self, tmp_path, monkeypatch):
        """``dist.result`` kills the worker *after* the walk but before
        the report — finished work is lost, and the requeued attempt
        must recompute records identical to a clean run's."""
        clean = tmp_path / "clean"
        fault = tmp_path / "fault"
        run_sweep(spec(), clean, **quiet)

        arm_env(monkeypatch, {"site": "dist.result", "action": "kill",
                              "match": "attempt=0", "times": None})
        summary = run_distributed(fault)
        assert summary.complete() and not summary.degraded()
        assert summary.computed == 4

        disarm(monkeypatch)
        verify_store(spec(), fault, repair=True)
        verify_store(spec(), clean, repair=True)
        assert (fault / "results.jsonl").read_bytes() \
            == (clean / "results.jsonl").read_bytes()


class TestDistQuarantine:
    def test_poison_group_quarantines_with_worker_died(self, tmp_path,
                                                       monkeypatch):
        """A group that kills every worker it is leased to quarantines
        with the deterministic worker-died payload (the inline pool's
        exact record shape) while the healthy group completes."""
        out = tmp_path / "out"
        arm_env(monkeypatch, {"site": "dist.worker", "action": "kill",
                              "match": "c0:", "times": None})
        summary = run_distributed(out, max_retries=1)
        assert summary.complete() and summary.degraded()
        assert (summary.computed, summary.failed) == (2, 2)
        assert summary.quarantined == ("dss-qry2/i30000/s3/c0",)

        records = ResultsStore(out).load_current()
        failed = [record for record in records.values()
                  if "failed" in record]
        assert len(failed) == 2
        for record in failed:
            assert record["failed"]["attempts"] == 2
            assert record["failed"]["kind"] == "worker-died"
            assert record["failed"]["error"] == WORKER_DIED

        # Status accounting sees the quarantine distinctly.
        accounting = status_summary(spec(), ResultsStore(out))
        assert accounting["failed"] == 2
        assert accounting["computed"] == 2
        assert not accounting["complete"]

        # The fault-free rerun (any mode) retries exactly that set.
        disarm(monkeypatch)
        rerun = run_distributed(out)
        assert (rerun.skipped, rerun.computed) == (2, 2)
        assert rerun.complete() and not rerun.degraded()

    def test_raising_group_quarantines_with_inline_error_format(
            self, tmp_path, monkeypatch):
        """A ``raise`` fault inside the worker's walk becomes a
        structured task-failed report whose error text matches the
        inline pool's ``TypeName: message`` format exactly — so the
        quarantine records are mode-independent.  The inline reference
        runs with ``jobs=2`` so both modes shard the groups
        identically (the injected-fault text embeds the task key,
        which includes the lane count)."""
        dist_out = tmp_path / "dist"
        inline_out = tmp_path / "inline"
        plan = {"site": "worker.task", "action": "raise", "match": "c0:",
                "times": None}
        arm_env(monkeypatch, plan)
        summary = run_distributed(dist_out, max_retries=1)
        assert summary.degraded()
        run_sweep(spec(), inline_out, jobs=2, max_retries=1, **quiet)
        disarm(monkeypatch)

        def failures(out):
            return {digest: record["failed"]
                    for digest, record
                    in ResultsStore(out).load_current().items()
                    if "failed" in record}

        dist_failures = failures(dist_out)
        assert dist_failures == failures(inline_out)
        for payload in dist_failures.values():
            assert payload["kind"] == "error"
            assert payload["error"].startswith("InjectedFault: ")


class TestCoordinatorFaults:
    def test_lease_endpoint_raising_is_survived_by_workers(
            self, tmp_path, monkeypatch):
        """``dist.lease`` raises on the first two lease requests (the
        coordinator answers 500); workers back off, retry, and the
        sweep still completes cleanly."""
        out = tmp_path / "out"
        arm_env(monkeypatch, {"site": "dist.lease", "action": "raise",
                              "times": 2})
        summary = run_distributed(out)
        assert summary.complete() and not summary.degraded()
        assert summary.computed == 4
