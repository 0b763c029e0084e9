"""Chaos over trace replication: cold stores + damaged transfers.

The PR's headline lock: two ``--transport local`` workers started with
*empty* trace stores, under injected mid-transfer truncation and
corruption (``replicate.fetch`` / ``replicate.chunk``), must converge
to a ``results.jsonl`` byte-identical (after ``verify --repair``) to an
inline run's — and every archive admitted into the replica store must
re-hash to the coordinator-advertised SHA-256.  Persistent corruption
must quarantine with a structured ``task-failed`` (never a hang, never
a silently-wrong trace).
"""

import json
import os

import pytest

from repro.experiments.parallel import shutdown_shared_pool
from repro.faults import FAULT_PLAN_ENV
from repro.faults import plan as plan_module
from repro.scenarios import (ResultsStore, parse_spec, run_sweep,
                             verify_store)
from repro.trace.replicate import CHUNK_ENV, TraceExport
from repro.trace.serialize import archive_sha256
from repro.trace.store import TraceStore

SMALL = {
    "name": "replicate-chaos",
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


class TestReplicationChaos:
    def test_cold_workers_survive_damaged_transfers_byte_identically(
            self, tmp_path, monkeypatch):
        """The headline lock.  Every fetch's first attempt dies before
        transfer, the second loses half a chunk mid-flight (forcing a
        resume), the third is corrupted in flight (forcing the
        hash-mismatch restart) — and the cold-store run still converges
        to the inline run's bytes, admitting only verified archives."""
        clean = tmp_path / "clean"
        fault = tmp_path / "fault"
        replica = tmp_path / "replica"
        run_sweep(spec(), clean, **quiet)

        monkeypatch.setenv(CHUNK_ENV, "8192")   # force multi-chunk
        arm_env(
            monkeypatch,
            {"site": "replicate.fetch", "action": "raise",
             "match": "attempt=0", "times": None},
            {"site": "replicate.chunk", "action": "truncate",
             "match": "attempt=1", "times": None},
            {"site": "replicate.chunk", "action": "corrupt",
             "match": "attempt=2", "times": None},
        )
        summary = run_distributed(fault, worker_store=replica)
        assert summary.complete() and not summary.degraded()
        assert (summary.computed, summary.failed) == (4, 0)

        disarm(monkeypatch)
        verify_store(spec(), fault, repair=True)
        verify_store(spec(), clean, repair=True)
        assert (fault / "results.jsonl").read_bytes() \
            == (clean / "results.jsonl").read_bytes()

        # No unverified archive was ever admitted: every replica entry
        # re-hashes to the coordinator's advertised transfer hash, and
        # no partial leftovers survive a completed run's fetches.
        ads = {ad["key"]: ad["sha256"]
               for ad in TraceExport(TraceStore.from_env().root).listing()}
        admitted = list(replica.glob("*.npz"))
        assert len(admitted) >= 2
        for path in admitted:
            assert archive_sha256(path) == ads[path.name]

        # Resume recomputes nothing: the sweep is already complete.
        rerun = run_distributed(fault, worker_store=replica)
        assert (rerun.skipped, rerun.computed) == (4, 0)

    def test_persistent_corruption_quarantines_structurally(
            self, tmp_path, monkeypatch):
        """Corrupting every chunk of every attempt exhausts the fetch
        retry budget; the task fails with a structured ReplicationError
        report and quarantines — proving the worker fetch path is live
        (without it these faults would never fire) and that a wrong
        trace is never silently computed.  The fault-free rerun heals
        over the same replica store."""
        out = tmp_path / "out"
        replica = tmp_path / "replica"
        arm_env(monkeypatch, {"site": "replicate.chunk",
                              "action": "corrupt", "times": None})
        summary = run_distributed(out, worker_store=replica,
                                  max_retries=1)
        assert summary.complete() and summary.degraded()
        assert (summary.computed, summary.failed) == (0, 4)

        records = ResultsStore(out).load_current()
        failed = [record["failed"] for record in records.values()
                  if "failed" in record]
        assert len(failed) == 4
        for payload in failed:
            assert payload["kind"] == "error"
            assert payload["error"].startswith(
                "ReplicationError: could not replicate")

        # Nothing unverified was admitted along the way.
        assert list(replica.glob("*.npz")) == []

        disarm(monkeypatch)
        rerun = run_distributed(out, worker_store=replica)
        assert rerun.complete() and not rerun.degraded()
        assert rerun.computed == 4
