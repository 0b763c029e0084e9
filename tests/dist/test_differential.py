"""The differential matrix: serial == --jobs 2 == --transport local.

The PR's headline lock (ISSUE 9 acceptance criteria): the
``sab-ablation.yaml`` scenario — rescaled to test size, 12 points over
2 trace groups of 6 engine lanes — is run serially, through the
process pool, and through the distributed tier with two real worker
subprocesses, and all three ``results.jsonl`` stores must be
**byte-for-byte identical** after ``verify --repair``
canonicalization.  A fourth run repeats the local transport under a
worker-kill fault plan (every first attempt dies mid-group) and must
converge to the same bytes.

Serial runs additionally lock the *raw* (pre-repair) bytes of the
parallel/distributed stores' record set: repair only reorders into
spec expansion order, so equal repaired bytes + equal record multisets
pin the whole contract.
"""

import json

import pytest

from repro.experiments.parallel import shutdown_shared_pool
from repro.faults import FAULT_PLAN_ENV
from repro.faults import plan as plan_module
from repro.scenarios import (ResultsStore, load_spec, run_sweep,
                             verify_store)

quiet = {"log": lambda line: None}

#: Test-scale override of the checked-in ablation scenario: one
#: workload, two cores -> 2 trace groups x 6 PIF geometry lanes.
RESCALE = {"workloads": ["dss-qry2"], "instructions": 30_000, "cores": 2}


@pytest.fixture(autouse=True)
def pristine(monkeypatch):
    """No armed fault plan and no pooled workers leak across tests."""
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    plan_module.reset()
    yield
    plan_module.reset()
    shutdown_shared_pool()


@pytest.fixture(scope="module")
def spec(repo_root):
    return load_spec(repo_root / "examples" / "scenarios"
                     / "sab-ablation.yaml", sweep_overrides=RESCALE)


def canonical_bytes(spec, out):
    """Repair-canonicalize a store and return its bytes (asserting the
    fsck comes back clean)."""
    verify_store(spec, out, repair=True)
    assert verify_store(spec, out).clean()
    return (out / "results.jsonl").read_bytes()


def run_distributed(spec, out, **kwargs):
    from repro.dist.coordinator import run_distributed_sweep

    kwargs.setdefault("workers", 2)
    return run_distributed_sweep(spec, out, **quiet, **kwargs)


class TestDifferentialMatrix:
    def test_serial_jobs2_and_local_transport_are_byte_identical(
            self, tmp_path, spec):
        serial = tmp_path / "serial"
        pooled = tmp_path / "pooled"
        dist = tmp_path / "dist"

        summary_serial = run_sweep(spec, serial, **quiet)
        summary_pooled = run_sweep(spec, pooled, jobs=2, **quiet)
        shutdown_shared_pool()
        summary_dist = run_distributed(spec, dist)

        for summary in (summary_serial, summary_pooled, summary_dist):
            assert summary.complete() and not summary.degraded()
            assert summary.computed == 12

        # Identical record sets even before canonicalization…
        reference = ResultsStore(serial).load_current()
        assert ResultsStore(pooled).load_current() == reference
        assert ResultsStore(dist).load_current() == reference

        # …and identical bytes after it.
        reference_bytes = canonical_bytes(spec, serial)
        assert canonical_bytes(spec, pooled) == reference_bytes
        assert canonical_bytes(spec, dist) == reference_bytes

    def test_local_transport_under_worker_kill_converges(
            self, tmp_path, spec, monkeypatch):
        """Every first-attempt task kills its worker mid-group
        (``dist.worker`` fires before the walk).  Lease expiry is
        observed via child exit, the tasks are requeued on respawned
        workers at attempt 1, and the final store still matches a
        fault-free serial run byte-for-byte."""
        serial = tmp_path / "serial"
        fault = tmp_path / "fault"
        run_sweep(spec, serial, **quiet)

        monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps({"faults": [
            {"site": "dist.worker", "action": "kill",
             "match": "attempt=0", "times": None}]}))
        plan_module.reset()
        summary = run_distributed(spec, fault)
        assert summary.complete() and not summary.degraded()
        assert summary.computed == 12

        monkeypatch.delenv(FAULT_PLAN_ENV)
        plan_module.reset()
        assert canonical_bytes(spec, fault) \
            == canonical_bytes(spec, serial)

    def test_distributed_run_is_mutually_resumable_with_inline(
            self, tmp_path, spec):
        """A store half-filled by the distributed tier is finished by
        the inline runner (and vice versa) with zero recomputation —
        the mutual-resume half of the identity contract."""
        out = tmp_path / "out"
        first = run_distributed(spec, out, limit=6)
        assert (first.computed, first.remaining) == (6, 6)

        finish = run_sweep(spec, out, **quiet)
        assert finish.complete()
        assert (finish.skipped, finish.computed) == (6, 6)

        serial = tmp_path / "serial"
        run_sweep(spec, serial, **quiet)
        assert canonical_bytes(spec, out) == canonical_bytes(spec, serial)

        # And the other direction: inline starts, distributed finishes.
        other = tmp_path / "other"
        run_sweep(spec, other, limit=6, **quiet)
        second = run_distributed(spec, other)
        assert second.complete()
        assert (second.skipped, second.computed) == (6, 6)
        assert canonical_bytes(spec, other) \
            == canonical_bytes(spec, serial)
