"""``repro serve``: the resumable sweep-service daemon.

A long-running HTTP service that turns the scenario-sweep engine into
an operable evaluation service: submit a YAML/JSON scenario spec over
HTTP, get a job id, poll status, fetch the markdown/CSV report — while
a background worker drains the queue through the same resumable runner
(:func:`repro.scenarios.runner.run_sweep`) and persistent worker pool
the CLI uses, so a job's results store is byte-identical to the same
sweep run with ``repro sweep run``.

Layering (stdlib only — no new dependencies):

* :mod:`repro.service.schemas` — the HTTP contract: route table and
  response schemas, validated against ``docs/api.md`` by tier-1;
* :mod:`repro.service.jobs` — job model + on-disk persistence (one
  JSON file per job, sweep output in the PR 4/5 resumable store);
* :mod:`repro.service.service` — bounded queue, background worker,
  graceful shutdown, crash recovery;
* :mod:`repro.service.http` — the one ``ThreadingHTTPServer``:
  routing, body limits, error mapping, structured request logging.
  The same server is the sweep coordinator of :mod:`repro.dist` when a
  lease board is attached instead of a service.

The complete API reference (routes, payloads, state machine, error
codes, curl walkthrough) is ``docs/api.md``; design rationale is in
DESIGN.md ("Sweep service").
"""

from .http import SweepRequestHandler, SweepServer, build_server
from .jobs import Job, JobStore, JobStoreError
from .schemas import (ROUTES, RESPONSE_SCHEMAS, Route, SchemaError,
                      match_route, validate_payload)
from .service import (JobConflictError, QueueFullError, ServiceConfig,
                      SweepService, UnknownJobError)

__all__ = [
    "Job",
    "JobConflictError",
    "JobStore",
    "JobStoreError",
    "QueueFullError",
    "RESPONSE_SCHEMAS",
    "ROUTES",
    "Route",
    "SchemaError",
    "ServiceConfig",
    "SweepRequestHandler",
    "SweepServer",
    "SweepService",
    "UnknownJobError",
    "build_server",
    "match_route",
    "validate_payload",
]
