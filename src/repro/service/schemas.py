"""The sweep service's HTTP contract: route table and response schemas.

This module is the single source of truth the rest of the repo checks
itself against:

* :data:`ROUTES` — every (method, path pattern) the daemon or a sweep
  coordinator serves.  ``docs/api.md`` documents exactly these routes,
  and ``tests/test_docs.py`` asserts the two sets are equal, so a route
  added (or renamed) in code without a docs update fails tier-1 — the
  same parse-the-docs rigor the README command test applies.
* :data:`RESPONSE_SCHEMAS` — the exact top-level key set of every JSON
  payload the daemon emits, by schema name.  Handlers build payloads
  through the ``payload_*`` helpers here (so they cannot drift from the
  schema), service tests validate live responses with
  :func:`validate_payload`, and the docs test validates every JSON
  example in ``docs/api.md`` against the same schemas — giving the
  transitive guarantee *documented example ⇔ schema ⇔ live response*.

Path patterns use ``{id}`` placeholders; :func:`match_route` resolves a
concrete request path against the table.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

#: Characters a job id may contain (what :func:`repro.service.jobs`
#: generates); the route regex refuses anything else so traversal-ish
#: paths (``/v1/sweeps/../x``) fall through to 404.
_ID_PATTERN = r"[A-Za-z0-9][A-Za-z0-9_.-]*"


class Route(NamedTuple):
    """One service endpoint: HTTP method, documented path pattern, and
    the :class:`~repro.service.http` handler method name."""

    method: str
    pattern: str     #: e.g. ``/v1/sweeps/{id}/report``
    handler: str     #: handler method name on the HTTP layer
    schema: str      #: RESPONSE_SCHEMAS name of the success payload

    def regex(self) -> "re.Pattern[str]":
        parts = []
        for piece in re.split(r"(\{[a-z]+\})", self.pattern):
            if piece.startswith("{") and piece.endswith("}"):
                parts.append(f"(?P<{piece[1:-1]}>{_ID_PATTERN})")
            else:
                parts.append(re.escape(piece))
        return re.compile("^" + "".join(parts) + "$")


#: The complete route table, in documentation order.  The ``/v1/dist/*``
#: rows are the distributed-sweep coordinator's routes (served by
#: :mod:`repro.service.http` in its coordinator role, which ``repro
#: sweep run --transport local|http`` binds; the daemon answers them
#: with 409, and a coordinator answers the job routes with 404); they
#: live in this table so the docs/schema/test coupling covers the whole
#: wire surface.
ROUTES: Tuple[Route, ...] = (
    Route("GET", "/v1/healthz", "handle_healthz", "health"),
    Route("GET", "/v1/jobs", "handle_jobs", "jobs"),
    Route("POST", "/v1/sweeps", "handle_submit", "job"),
    Route("GET", "/v1/sweeps/{id}", "handle_job_detail", "job"),
    Route("GET", "/v1/sweeps/{id}/report", "handle_job_report", "report"),
    Route("DELETE", "/v1/sweeps/{id}", "handle_cancel", "job"),
    Route("POST", "/v1/dist/lease", "handle_dist_lease", "lease"),
    Route("POST", "/v1/dist/records", "handle_dist_records", "ack"),
    Route("POST", "/v1/dist/heartbeat", "handle_dist_heartbeat", "ack"),
    Route("GET", "/v1/dist/traces", "handle_dist_traces", "traces"),
    Route("GET", "/v1/dist/traces/{key}", "handle_dist_trace_fetch",
          "trace-archive"),
)


def match_route(method: str, path: str
                ) -> Tuple[Optional[Route], Dict[str, str], bool]:
    """Resolve a request against :data:`ROUTES`.

    Returns ``(route, path_params, path_known)``: ``route`` is None when
    nothing matches; ``path_known`` is True when the *path* matches some
    route but the method does not (the 405 case, as opposed to 404).
    """
    path_known = False
    for route in ROUTES:
        found = route.regex().match(path)
        if found is None:
            continue
        path_known = True
        if route.method == method:
            return route, found.groupdict(), True
    return None, {}, path_known


# ---------------------------------------------------------------------------
# response schemas

#: Per-state job counts embedded in health and job payloads.
JOB_STATE_KEYS = frozenset({"queued", "running", "done", "degraded",
                            "failed", "cancelled"})

#: Key set of the nested ``sweep`` object of a job payload — exactly
#: the fields of :func:`repro.scenarios.report.status_summary` (the
#: ``repro sweep status --format json`` document).
SWEEP_SUMMARY_KEYS = frozenset({
    "scenario", "store", "points", "cores", "engine_variants",
    "computed", "failed", "missing", "stale", "foreign", "complete",
})

#: Exact top-level key set of every JSON document the daemon emits.
RESPONSE_SCHEMAS: Dict[str, frozenset] = {
    # one job: POST /v1/sweeps (202), GET/DELETE /v1/sweeps/{id}
    "job": frozenset({"id", "scenario", "state", "seq", "jobs", "error",
                      "failed_points", "sweep"}),
    # GET /v1/jobs
    "jobs": frozenset({"jobs", "count"}),
    # GET /v1/healthz
    "health": frozenset({"status", "version", "generator", "jobs",
                         "queue"}),
    # expected non-2xx bodies (validation, 404/405/409, bad JSON)
    "error": frozenset({"error"}),
    # unexpected handler exceptions (500): the structured last-resort
    # document, paired with a ``request-error`` service event
    "internal_error": frozenset({"error", "detail"}),
    # POST /v1/dist/lease — the coordinator's answer to a worker's
    # lease request ("granted" carries a task-lease wire document)
    "lease": frozenset({"state", "lease"}),
    # POST /v1/dist/records, POST /v1/dist/heartbeat — the
    # coordinator's acknowledgement ("stale" means the lease expired
    # and the task was requeued; the worker drops its copy)
    "ack": frozenset({"status", "lease"}),
    # GET /v1/dist/traces — the coordinator's trace-store listing
    # (every advertised archive's transfer identity, so a replica can
    # be audited against it).  GET /v1/dist/traces/{key} returns the
    # archive *bytes* (the "trace-archive" schema), which — like the
    # text "report" route — is deliberately not a JSON schema here.
    "traces": frozenset({"traces", "count", "generator"}),
}

#: Values of the "lease" document's ``state`` field: a task was leased,
#: nothing is available right now (poll again), or the sweep is over.
LEASE_STATES = frozenset({"granted", "idle", "drained"})

#: Values of the "ack" document's ``status`` field.
ACK_STATUSES = frozenset({"ok", "stale"})

#: Key set of the nested task-lease wire document of a granted "lease"
#: payload (:mod:`repro.dist.protocol` validates its interior).
LEASE_DOCUMENT_KEYS = frozenset({"type", "lease", "generator", "task"})

#: Key set of one entry of the ``jobs`` list in the "jobs" schema.
JOB_LIST_ENTRY_KEYS = frozenset({"id", "scenario", "state", "seq"})

#: Key set of one entry of the ``traces`` list in the "traces" schema:
#: the archive's store filename, byte size, and transfer SHA-256
#: (validated against :mod:`repro.dist.protocol`'s TraceAd decoder by
#: the fetch client).
TRACE_AD_KEYS = frozenset({"key", "size", "sha256"})

#: Key set of the ``queue`` object in the "health" schema.
QUEUE_KEYS = frozenset({"capacity", "available"})


class SchemaError(ValueError):
    """A payload does not match its declared response schema."""


def _require_keys(label: str, payload: Any, keys: frozenset) -> None:
    if not isinstance(payload, dict):
        raise SchemaError(f"{label} must be an object, got "
                          f"{type(payload).__name__}")
    actual = frozenset(payload)
    if actual != keys:
        missing = sorted(keys - actual)
        extra = sorted(actual - keys)
        raise SchemaError(f"{label} keys mismatch: missing {missing}, "
                          f"unexpected {extra}")


def validate_payload(schema: str, payload: Any) -> None:
    """Assert ``payload`` matches ``RESPONSE_SCHEMAS[schema]`` exactly
    (top-level keys, plus the documented nested objects).  Raises
    :class:`SchemaError` naming the divergence.  The "report" schema is
    text and "trace-archive" is raw archive bytes, not JSON —
    validating either here is a usage error.
    """
    if schema == "report":
        raise SchemaError("the report endpoint returns text, not JSON")
    if schema == "trace-archive":
        raise SchemaError("the trace-archive endpoint returns archive "
                          "bytes, not JSON")
    try:
        keys = RESPONSE_SCHEMAS[schema]
    except KeyError:
        raise SchemaError(f"unknown schema {schema!r}; known: "
                          f"{sorted(RESPONSE_SCHEMAS)}") from None
    _require_keys(schema, payload, keys)
    if schema == "job":
        if payload["sweep"] is not None:
            _require_keys("job.sweep", payload["sweep"], SWEEP_SUMMARY_KEYS)
        if payload["state"] not in JOB_STATE_KEYS:
            raise SchemaError(f"job.state {payload['state']!r} is not one "
                              f"of {sorted(JOB_STATE_KEYS)}")
    elif schema == "jobs":
        for index, entry in enumerate(payload["jobs"]):
            _require_keys(f"jobs[{index}]", entry, JOB_LIST_ENTRY_KEYS)
    elif schema == "health":
        _require_keys("health.jobs", payload["jobs"], JOB_STATE_KEYS)
        _require_keys("health.queue", payload["queue"], QUEUE_KEYS)
    elif schema == "lease":
        if payload["state"] not in LEASE_STATES:
            raise SchemaError(f"lease.state {payload['state']!r} is not "
                              f"one of {sorted(LEASE_STATES)}")
        if payload["state"] == "granted":
            _require_keys("lease.lease", payload["lease"],
                          LEASE_DOCUMENT_KEYS)
        elif payload["lease"] is not None:
            raise SchemaError("lease.lease must be null unless granted")
    elif schema == "ack":
        if payload["status"] not in ACK_STATUSES:
            raise SchemaError(f"ack.status {payload['status']!r} is not "
                              f"one of {sorted(ACK_STATUSES)}")
        if not isinstance(payload["lease"], str):
            raise SchemaError("ack.lease must be a lease-id string")
    elif schema == "traces":
        entries = payload["traces"]
        if not isinstance(entries, list):
            raise SchemaError("traces.traces must be a list")
        for index, entry in enumerate(entries):
            _require_keys(f"traces[{index}]", entry, TRACE_AD_KEYS)
        if payload["count"] != len(entries):
            raise SchemaError(f"traces.count {payload['count']!r} does "
                              f"not match the {len(entries)} entries")
        if not isinstance(payload["generator"], str):
            raise SchemaError("traces.generator must be the "
                              "coordinator's 12-char generator prefix")


# ---------------------------------------------------------------------------
# payload builders (handlers go through these, so they cannot drift)


def payload_error(message: str) -> Dict[str, Any]:
    return {"error": message}


def payload_internal_error(error: BaseException) -> Dict[str, Any]:
    """The "internal_error" document for an unexpected handler
    exception: a stable marker plus the exception type and message (no
    traceback — that goes to the server log, not the wire)."""
    return {
        "error": "internal server error",
        "detail": f"{type(error).__name__}: {error}",
    }


def payload_job(job: Any, sweep: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """The "job" document for one :class:`repro.service.jobs.Job`."""
    return {
        "id": job.id,
        "scenario": job.scenario,
        "state": job.state,
        "seq": job.seq,
        "jobs": job.jobs,
        "error": job.error,
        "failed_points": job.failed_points,
        "sweep": sweep,
    }


def payload_jobs(jobs: List[Any]) -> Dict[str, Any]:
    """The "jobs" document over a seq-ordered job list."""
    return {
        "jobs": [
            {"id": job.id, "scenario": job.scenario, "state": job.state,
             "seq": job.seq}
            for job in jobs
        ],
        "count": len(jobs),
    }


def payload_lease(state: str, lease: Optional[Dict[str, Any]]
                  ) -> Dict[str, Any]:
    """The "lease" document: ``state`` ∈ :data:`LEASE_STATES`, with the
    task-lease wire document nested when granted."""
    return {"state": state, "lease": lease}


def payload_ack(status: str, lease: str) -> Dict[str, Any]:
    """The "ack" document: ``status`` ∈ :data:`ACK_STATUSES` for the
    named lease."""
    return {"status": status, "lease": lease}


def payload_traces(ads: List[Dict[str, Any]],
                   generator: str) -> Dict[str, Any]:
    """The "traces" document: every advertised archive's transfer
    identity (:data:`TRACE_AD_KEYS` entries) plus the coordinator's
    generator prefix."""
    return {"traces": ads, "count": len(ads), "generator": generator}


def payload_health(version: str, generator: str, counts: Dict[str, int],
                   capacity: int, available: int) -> Dict[str, Any]:
    """The "health" document."""
    return {
        "status": "ok",
        "version": version,
        "generator": generator,
        "jobs": {state: counts.get(state, 0)
                 for state in sorted(JOB_STATE_KEYS)},
        "queue": {"capacity": capacity, "available": available},
    }
