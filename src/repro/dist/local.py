"""``--transport local``: subprocess workers over a loopback socket.

The CI-testable face of the distributed tier: :func:`run_local_workers`
spawns N ``python -m repro worker`` subprocesses pointed at the
coordinator's loopback URL and supervises them until the lease board
drains.  The workers are *real* separate processes speaking the *real*
wire protocol — nothing is shimmed — so everything the differential
harness proves about this transport (byte-identical stores, lease
expiry, requeue, quarantine) transfers to ``--transport http`` workers
on other hosts, which run the exact same loop.

Supervision model: a child that exits with work outstanding had its
death *observed* (no need to wait out the heartbeat timeout — the
local transport's one shortcut), so :meth:`LeaseBoard.expire_worker`
charges the death to the lease it held and a replacement is spawned,
up to a respawn budget sized so every task can fail its full retry
allowance and still leave headroom.  A worker runs one lease at a
time, so — exactly like a pool slot in
:mod:`repro.experiments.parallel` — a death costs the one task it
interrupted, and the board decides retry versus quarantine.  If the
budget empties with no live workers, the remaining tasks are
quarantined rather than wedging the sweep.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Union

from ..trace.store import STORE_ENV
from .coordinator import LeaseBoard

#: Seconds between supervision polls (child liveness + lease expiry).
_POLL_PERIOD = 0.05

#: Seconds a worker is given to exit after the board drains before the
#: supervisor terminates it.
_DRAIN_GRACE = 10.0

#: Poll interval handed to local workers — aggressive, they share the
#: coordinator's host and the CI sweeps are seconds long.
_WORKER_POLL_INTERVAL = "0.05"


def _worker_env(worker_store: Optional[Union[str, Path]] = None
                ) -> Dict[str, str]:
    """The child environment: the parent's, with this repro package
    importable.  An armed fault plan rides along in it — worker
    subprocesses re-read REPRO_FAULT_PLAN with fresh counters, exactly
    like the persistent pool's initializer snapshot.  ``worker_store``
    repoints the children's trace store at a (possibly cold) replica
    directory, distinct from the coordinator's."""
    env = dict(os.environ)  # reprolint: disable=RL004 - parent-side snapshot handed to worker subprocesses (the dist analogue of parallel._initargs)
    package_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (package_root if not existing
                         else os.pathsep.join([package_root, existing]))
    if worker_store is not None:
        env[STORE_ENV] = str(worker_store)
    return env


def _spawn(url: str, worker_id: str, env: Dict[str, str],
           fetch_traces: bool = False) -> "subprocess.Popen[bytes]":
    command = [sys.executable, "-m", "repro", "worker",
               "--coordinator", url, "--worker-id", worker_id,
               "--poll-interval", _WORKER_POLL_INTERVAL]
    if fetch_traces:
        command.append("--fetch-traces")
    return subprocess.Popen(
        command, env=env, stdout=subprocess.DEVNULL, stderr=None)


def run_local_workers(url: str, board: LeaseBoard, workers: int,
                      emit: Callable[[str], None], *,
                      worker_store: Optional[Union[str, Path]] = None
                      ) -> None:
    """Spawn and supervise ``workers`` local subprocesses until the
    board drains (or everything left is quarantined).  With
    ``worker_store`` set, children run against that replica trace
    store with ``--fetch-traces`` — archives they lack are replicated
    from this coordinator over loopback HTTP."""
    env = _worker_env(worker_store)
    fetch = worker_store is not None
    # Enough respawns for every task to burn its full retry allowance
    # on a dying worker, plus the initial fleet.
    budget = workers + board.task_count() * (board.max_retries + 1)
    generation = 0
    fleet: Dict[str, "subprocess.Popen[bytes]"] = {}
    for slot in range(workers):
        worker_id = f"w{slot}"
        fleet[worker_id] = _spawn(url, worker_id, env, fetch)
        budget -= 1
    try:
        while not board.done():
            board.expire_stale()
            for worker_id, child in list(fleet.items()):
                if child.poll() is None:
                    continue
                del fleet[worker_id]
                requeued = board.expire_worker(worker_id)
                if board.done():
                    break
                if requeued:
                    emit(f"  worker {worker_id} exited "
                         f"(code {child.returncode}) holding {requeued} "
                         "lease(s); requeued")
                if budget > 0:
                    generation += 1
                    slot = worker_id.split("r")[0]
                    replacement = f"{slot}r{generation}"
                    fleet[replacement] = _spawn(url, replacement, env,
                                                fetch)
                    budget -= 1
            if not fleet and not board.done():
                if budget > 0:
                    generation += 1
                    worker_id = f"w0r{generation}"
                    fleet[worker_id] = _spawn(url, worker_id, env, fetch)
                    budget -= 1
                else:
                    drained = board.fail_outstanding()
                    emit(f"  no workers left and the respawn budget is "
                         f"spent; quarantined the remaining {drained} "
                         "task(s)")
            time.sleep(_POLL_PERIOD)
    finally:
        deadline = time.monotonic() + _DRAIN_GRACE
        for worker_id, child in fleet.items():
            try:
                child.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                child.terminate()
                try:
                    child.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    child.kill()
                    child.wait()
