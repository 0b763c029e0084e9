"""The one HTTP server: the ``repro serve`` daemon and the sweep coordinator.

A deliberately thin stdlib layer (``http.server.ThreadingHTTPServer``,
one thread per connection, no new dependencies) that takes its role
from what is attached to it:

* with a :class:`~repro.service.service.SweepService` it is the
  **daemon** behind ``repro serve``: the six job routes are served and
  every ``/v1/dist/*`` route answers 409, pointing at a coordinator;
* otherwise it is a **sweep coordinator** (``repro sweep run
  --transport local|http``) over a
  :class:`~repro.dist.coordinator.LeaseBoard` and an optional
  :class:`~repro.trace.replicate.TraceExport`: the five dist routes are
  served, every job route answers 404, and the trace routes answer 404
  when there is no trace store to export.

Both roles share everything else:

* resolution against the documented route table
  (:data:`repro.service.schemas.ROUTES`) — 404 for unknown paths, 405
  (with ``Allow``) for known paths with the wrong method;
* one body reader that checks the limit *before* reading: 411 without a
  ``Content-Length``, 400 for a bad one, 413 over the limit (the
  daemon's ``--max-body-kb``, a coordinator's :data:`MAX_FRAME_BYTES`).
  Any response that leaves a request body unread — those three, and a
  404, 405 or 409 refusal of a POST — carries ``Connection: close``
  and ends the keep-alive connection, so the unread bytes are never
  parsed as a next request;
* one exception-to-status mapping: ``ProtocolError``, ``SpecError`` and
  an undecodable JSON/YAML body give 400, ``UnknownJobError`` 404,
  ``JobConflictError`` 409, ``QueueFullError`` 429, and anything else
  the structured ``internal_error`` document (500) — never a raw
  traceback on the socket;
* one JSON encoder (sorted keys, indented, trailing newline) and one
  response writer.

Every JSON response is built through the ``payload_*`` helpers in
:mod:`repro.service.schemas`, so responses cannot drift from the
documented schemas tier-1 validates.  The daemon also emits one
structured log event per request (method, path, status, response
bytes, wall-clock milliseconds) and a ``request-error`` event with
every 500; a coordinator's board narrates progress instead.
"""

from __future__ import annotations

import json
import re
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, TYPE_CHECKING, Tuple
from urllib.parse import parse_qs, urlsplit

from .. import __version__
from ..dist.protocol import (Heartbeat, ProtocolError, TaskFailed,
                             TaskResult, decode)
from ..scenarios import (ResultsStore, SpecError, format_csv,
                         format_markdown, parse_spec, summarize)
from ..scenarios.results import current_generator
from ..trace.replicate import SHA_HEADER, SIZE_HEADER, TraceExport
from .schemas import (ROUTES, match_route, payload_error, payload_health,
                      payload_internal_error, payload_job, payload_jobs,
                      payload_traces)
from .service import (JobConflictError, QueueFullError, SweepService,
                      UnknownJobError)

if TYPE_CHECKING:
    from ..dist.coordinator import LeaseBoard

#: A coordinator's request-body limit (a point-records frame for a wide
#: group stays far below this).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: The one Range form the fetch client sends: ``bytes=start-end``
#: (``end`` optional).  Anything else is a 400.
_RANGE_PATTERN = re.compile(r"^bytes=(\d+)-(\d*)$")

#: (status, body bytes, headers) — a prepared response.  ``headers``
#: always includes Content-Type.
_Prepared = Tuple[int, bytes, Dict[str, str]]


class SweepServer(ThreadingHTTPServer):
    """The daemon's server when ``service`` is attached, otherwise a
    coordinator's over ``board`` and ``export``."""

    #: Connection threads die with the process; shutdown() is driven by
    #: the owner's lifecycle, not by per-connection joins.
    daemon_threads = True

    def __init__(self, address: Tuple[str, int],
                 service: Optional[SweepService] = None,
                 board: Optional[LeaseBoard] = None,
                 export: Optional[TraceExport] = None) -> None:
        super().__init__(address, SweepRequestHandler)
        self.service = service
        self.board = board
        self.export = export
        self.max_body_bytes = (MAX_FRAME_BYTES if service is None
                               else service.config.max_body_bytes)

    def log_event(self, kind: str, **fields: Any) -> None:
        """Log through the daemon; a coordinator's board narrates
        progress instead."""
        if self.service is not None:
            self.service.log_event(kind, **fields)


def build_server(host: str, port: int,
                 service: Optional[SweepService] = None, *,
                 board: Optional[LeaseBoard] = None,
                 export: Optional[TraceExport] = None) -> SweepServer:
    """Bind the server (port 0 picks a free port — the local transport
    and the tests): the daemon with ``service``, otherwise a
    coordinator (``export`` None answers the trace routes 404)."""
    return SweepServer((host, port), service, board, export)


def _json_response(status: int, payload: Dict[str, Any],
                   headers: Optional[Dict[str, str]] = None) -> _Prepared:
    """The one JSON encoding: sorted keys, indented, trailing newline."""
    body = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    return status, body, {"Content-Type": "application/json",
                          **(headers or {})}


class _Refused(Exception):
    """A request refused before its handler could finish: carries the
    prepared error response."""

    def __init__(self, prepared: _Prepared) -> None:
        super().__init__(prepared[0])
        self.prepared = prepared


class SweepRequestHandler(BaseHTTPRequestHandler):
    """Dispatches requests through the documented route table."""

    server: SweepServer
    #: Keep-alive responses; every send sets Content-Length explicitly.
    protocol_version = "HTTP/1.1"

    # -------------------------------------------------------------- verbs

    def do_GET(self) -> None:           # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:          # noqa: N802 - http.server API
        self._dispatch("POST")

    def do_DELETE(self) -> None:        # noqa: N802 - http.server API
        self._dispatch("DELETE")

    # -------------------------------------------------------- dispatching

    def _dispatch(self, method: str) -> None:
        started = time.monotonic()
        split = urlsplit(self.path)
        self._query = parse_qs(split.query)
        self._body_read = False
        route, params, path_known = match_route(method, split.path)
        daemon = self.server.service is not None
        try:
            if route is None and path_known:
                allowed = ", ".join(sorted({
                    known.method for known in ROUTES
                    if known.regex().match(split.path)}))
                prepared = _json_response(405, payload_error(
                    f"method {method} not allowed here; allowed: "
                    f"{allowed}"), {"Allow": allowed})
            elif route is None:
                prepared = _json_response(
                    404, payload_error(f"no route for {split.path}"))
            elif daemon and route.pattern.startswith("/v1/dist/"):
                prepared = _json_response(409, payload_error(
                    "distributed-sweep endpoints are served by a sweep "
                    "coordinator (repro sweep run --transport "
                    "local|http), not by this daemon"))
            elif not daemon and not route.pattern.startswith("/v1/dist/"):
                prepared = _json_response(404, payload_error(
                    f"{split.path} is not served by the sweep coordinator; "
                    "its routes are POST /v1/dist/{lease,records,"
                    "heartbeat} and GET /v1/dist/traces[/{key}]"))
            else:
                prepared = getattr(self, route.handler)(params)
        except _Refused as refused:
            prepared = refused.prepared
        except ProtocolError as error:
            prepared = _json_response(
                400, payload_error(f"malformed frame: {error}"))
        except SpecError as error:  # reprolint: disable=RL007 - HTTP boundary: surfaced to the client as a 400 with the validator's message
            prepared = _json_response(
                400, payload_error(f"invalid scenario: {error}"))
        except UnknownJobError as error:
            prepared = _json_response(
                404, payload_error(f"unknown job {error.args[0]!r}"))
        except JobConflictError as error:
            prepared = _json_response(409, payload_error(str(error)))
        except QueueFullError as error:
            prepared = _json_response(429, payload_error(str(error)))
        except Exception as error:  # reprolint: disable=RL009 - last-resort HTTP boundary: an unexpected handler bug becomes a structured 500 plus a request-error event instead of a raw traceback on the socket
            prepared = _json_response(
                500, payload_internal_error(error))
            self.server.log_event(
                "request-error", method=method, path=split.path,
                error=f"{type(error).__name__}: {error}")
        status, body, headers = prepared
        if not self._body_read and (
                method == "POST"
                or self.headers.get("Content-Length", "0") != "0"):
            # Answered without reading the body: on a keep-alive
            # connection the unread bytes would be parsed as the next
            # request, so this response ends the connection.
            self.close_connection = True
            headers = {**headers, "Connection": "close"}
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        elapsed_ms = (time.monotonic() - started) * 1000.0
        self.server.log_event(
            "request", method=method, path=split.path, status=status,
            bytes=len(body), ms=round(elapsed_ms, 3))

    # ------------------------------------------------- daemon: job routes

    def handle_healthz(self, params: Dict[str, str]) -> _Prepared:
        service = self.server.service
        return _json_response(200, payload_health(
            version=__version__, generator=current_generator(),
            counts=service.counts(),
            capacity=service.config.queue_depth,
            available=service.queue_available()))

    def handle_jobs(self, params: Dict[str, str]) -> _Prepared:
        return _json_response(
            200, payload_jobs(self.server.service.jobs()))

    def handle_submit(self, params: Dict[str, str]) -> _Prepared:
        job = self.server.service.submit(self._read_spec())
        return _json_response(
            202, payload_job(job, self.server.service.sweep_summary(job)))

    def handle_job_detail(self, params: Dict[str, str]) -> _Prepared:
        service = self.server.service
        job = service.get(params["id"])
        return _json_response(
            200, payload_job(job, service.sweep_summary(job)))

    def handle_job_report(self, params: Dict[str, str]) -> _Prepared:
        service = self.server.service
        job = service.get(params["id"])
        form = self._query.get("format", ["markdown"])[-1]
        if form not in ("markdown", "csv"):
            return _json_response(400, payload_error(
                f"unknown report format {form!r}; "
                "use 'markdown' or 'csv'"))
        spec = parse_spec(job.raw_spec)
        summary = summarize(spec, ResultsStore(service.store.sweep_dir(
            job.id)))
        if form == "csv":
            return 200, format_csv(summary).encode(), {
                "Content-Type": "text/csv"}
        return 200, format_markdown(summary).encode(), {
            "Content-Type": "text/markdown; charset=utf-8"}

    def handle_cancel(self, params: Dict[str, str]) -> _Prepared:
        service = self.server.service
        job = service.cancel(params["id"])
        return _json_response(
            200, payload_job(job, service.sweep_summary(job)))

    # ------------------------------------------- coordinator: dist routes

    def handle_dist_lease(self, params: Dict[str, str]) -> _Prepared:
        try:
            request = json.loads(self._read_body().decode("utf-8",
                                                          "replace"))
        except json.JSONDecodeError as error:
            raise ProtocolError(f"body is not valid JSON: {error}") \
                from error
        if (not isinstance(request, dict) or set(request) != {"worker"}
                or not isinstance(request["worker"], str)):
            raise ProtocolError(
                'a lease request body must be exactly {"worker": "<id>"}')
        return _json_response(
            200, self.server.board.request_lease(request["worker"]))

    def handle_dist_records(self, params: Dict[str, str]) -> _Prepared:
        report = decode(self._read_body())
        if not isinstance(report, (TaskResult, TaskFailed)):
            raise ProtocolError(
                f"/v1/dist/records takes point-records or task-failed "
                f"frames, not {report.TYPE!r}")
        return _json_response(200, self.server.board.submit(report))

    def handle_dist_heartbeat(self, params: Dict[str, str]) -> _Prepared:
        beat = decode(self._read_body())
        if not isinstance(beat, Heartbeat):
            raise ProtocolError(f"/v1/dist/heartbeat takes heartbeat "
                                f"frames, not {beat.TYPE!r}")
        return _json_response(200, self.server.board.heartbeat(beat))

    def handle_dist_traces(self, params: Dict[str, str]) -> _Prepared:
        return _json_response(200, payload_traces(
            self._export().listing(), current_generator()))

    def handle_dist_trace_fetch(self, params: Dict[str, str]) -> _Prepared:
        export = self._export()
        name = params["key"]
        entry = export.open_entry(name)
        if entry is None:
            return _json_response(404, payload_error(
                f"no archive {name!r} in the coordinator's trace store"))
        path, size, sha256 = entry
        headers = {"Content-Type": "application/octet-stream",
                   SIZE_HEADER: str(size), SHA_HEADER: sha256}
        window = self._parse_range(size)
        if window is None:
            return 200, export.read_range(path, 0, size), headers
        start, length = window
        return 206, export.read_range(path, start, length), headers

    def _export(self) -> TraceExport:
        if self.server.export is None:
            raise _Refused(_json_response(404, payload_error(
                "this coordinator has no trace store to export "
                "(REPRO_TRACE_STORE is disabled)")))
        return self.server.export

    def _parse_range(self, size: int) -> Optional[Tuple[int, int]]:
        """Decode the request's Range header into ``(start, length)``,
        clamped to the archive (a start at/past EOF yields an empty
        window rather than 416 — the fetch client's resume probe).
        None means no Range: serve the whole file at 200."""
        header = self.headers.get("Range")
        if header is None:
            return None
        found = _RANGE_PATTERN.match(header.strip())
        if found is None:
            raise ProtocolError(
                f"unsupported Range {header!r}; use bytes=start-end")
        start = int(found.group(1))
        end = int(found.group(2)) if found.group(2) else size - 1
        if end < start:
            raise ProtocolError(
                f"unsatisfiable Range {header!r} (end before start)")
        start = min(start, size)
        return start, min(end + 1, size) - start

    # ------------------------------------------------------------ plumbing

    def _read_body(self) -> bytes:
        """The request body, refused before reading when it has no
        length, a bad one, or one over the server's limit."""
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            raise _Refused(_json_response(411, payload_error(
                "Content-Length required")))
        try:
            length = int(length_header)
        except ValueError:
            raise _Refused(_json_response(400, payload_error(
                f"bad Content-Length {length_header!r}"))) from None
        limit = self.server.max_body_bytes
        if length > limit:
            raise _Refused(_json_response(413, payload_error(
                f"request body of {length} bytes exceeds the "
                f"{limit}-byte limit")))
        body = self.rfile.read(length)
        self._body_read = True
        return body

    def _read_spec(self) -> Dict[str, Any]:
        """The submitted scenario mapping, decoded from YAML when the
        ``Content-Type`` says so and from JSON otherwise."""
        text = self._read_body().decode("utf-8", "replace")
        if "yaml" in (self.headers.get("Content-Type") or "").lower():
            try:
                import yaml
            except ImportError:
                raise _Refused(_json_response(400, payload_error(
                    "YAML specs need pyyaml on the server; "
                    "submit JSON instead"))) from None
            try:
                raw = yaml.safe_load(text)
            except yaml.YAMLError as error:
                raise _Refused(_json_response(400, payload_error(
                    f"body is not valid YAML: {error}"))) from None
        else:
            try:
                raw = json.loads(text)
            except json.JSONDecodeError as error:
                raise _Refused(_json_response(400, payload_error(
                    f"body is not valid JSON: {error}"))) from None
        if not isinstance(raw, dict):
            raise _Refused(_json_response(400, payload_error(
                "spec body must decode to an object (the scenario "
                "mapping)")))
        return raw

    def log_message(self, format: str, *args: Any) -> None:
        """Silence BaseHTTPRequestHandler's per-request stderr lines;
        the structured ``request`` event in ``_dispatch`` replaces
        them."""
