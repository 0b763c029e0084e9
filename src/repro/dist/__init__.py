"""Distributed sweep execution: a coordinator/worker tier.

The scenario engine's next order of magnitude (ROADMAP open item 1):
shard trace groups across worker processes — on this host or others —
that stream point records back into the same content-hash-keyed
results store the serial runner writes.

Layering (one-way imports, mirroring :mod:`repro.service`):

* :mod:`repro.dist.protocol` — the typed wire documents (task-lease,
  point-records, task-failed, heartbeat), canonical JSON encoding, and
  the strict decoder that turns any malformed frame into a
  :class:`~repro.dist.protocol.ProtocolError`;
* :mod:`repro.dist.coordinator` — :class:`LeaseBoard` (the lease state
  machine: pending → leased → done / requeued / quarantined) and
  :func:`run_distributed_sweep`, the drop-in sibling of
  :func:`repro.scenarios.runner.run_sweep`;
* the coordinator's loopback HTTP server is :mod:`repro.service.http`
  (the ``repro serve`` server, in its coordinator role), serving the
  ``/v1/dist/*`` routes documented in ``docs/api.md``;
* :mod:`repro.dist.local` — the ``--transport local`` supervisor:
  worker *subprocesses* speaking the exact same wire protocol over a
  loopback socket, so the whole tier runs in CI;
* :mod:`repro.dist.worker` — the pull-based worker loop behind
  ``repro worker``.

The identity contract: workers run each task through the same
:func:`repro.scenarios.runner._run_group` path the inline runner uses,
so every record is bit-identical whichever transport computed it, and
serial, ``--jobs N``, and distributed stores converge to the same
canonical bytes under ``repro sweep verify --repair``
(``tests/dist/test_differential.py`` locks this).
"""

from .coordinator import (DEFAULT_LEASE_TIMEOUT, LeaseBoard,
                          run_distributed_sweep)
from .protocol import (Heartbeat, ProtocolError, TaskFailed, TaskLease,
                       TaskResult, decode, decode_document, encode)
from .worker import CoordinatorClient, TransportError, run_worker

__all__ = [
    "DEFAULT_LEASE_TIMEOUT",
    "LeaseBoard",
    "run_distributed_sweep",
    "Heartbeat",
    "ProtocolError",
    "TaskFailed",
    "TaskLease",
    "TaskResult",
    "decode",
    "decode_document",
    "encode",
    "CoordinatorClient",
    "TransportError",
    "run_worker",
]
