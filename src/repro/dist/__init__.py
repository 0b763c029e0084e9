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
* :mod:`repro.dist.coordinator` — :class:`LeaseBoard` (the wire face
  of the sweep's one retry/quarantine state machine,
  :class:`repro.scenarios.runner.SweepBoard`) and
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

The package re-exports nothing: import the submodule you need, so that
loading the wire documents (what ``repro serve`` does through
:mod:`repro.service.http`) does not load the coordinator, the worker
and its HTTP client.
"""
