"""HTTP layer: routing, limits, live schema conformance, concurrency.

Every JSON response the daemon emits is validated here with
:func:`repro.service.schemas.validate_payload` — the same checker
``tests/test_docs.py`` runs over the examples in ``docs/api.md`` — so
the documented contract and the live wire format cannot diverge.

The concurrent-client test is the ISSUE's acceptance lock: N threads
submit distinct sweeps against one daemon and every resulting store
*and* report is byte-identical to a plain CLI run of the same spec.
"""

import http.client
import json
import re
import socket
import threading
import time
from contextlib import contextmanager

import pytest

from repro.scenarios import (ResultsStore, format_csv, format_markdown,
                             parse_spec, run_sweep, summarize)
from repro.service import ServiceConfig, SweepService, build_server
from repro.service.schemas import ROUTES, validate_payload

quiet = {"log": lambda event: None}


def make_spec(seed, cores=1):
    return {
        "name": f"http-{seed}",
        "sweep": {"workloads": ["dss-qry2"], "instructions": 20_000,
                  "seeds": seed, "cores": cores, "cache": {"kb": 16},
                  "engines": ["next-line"]},
    }


@contextmanager
def serve(tmp_path, start=True, **config):
    """A live daemon on a free port; ``start=False`` leaves the worker
    thread off so submitted jobs stay queued (backpressure/cancel
    tests)."""
    service = SweepService(
        ServiceConfig(data_dir=str(tmp_path / "data"), **config), **quiet)
    server = build_server("127.0.0.1", 0, service)
    if start:
        service.start()
    listener = threading.Thread(target=server.serve_forever, daemon=True)
    listener.start()
    try:
        yield server.server_address[1], service
    finally:
        server.shutdown()
        listener.join(timeout=10)
        service.stop()
        server.server_close()


def request(port, method, path, body=None, headers=None):
    """One request on a fresh connection → (status, headers, body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def request_json(port, method, path, body=None, headers=None):
    status, _, data = request(port, method, path, body=body, headers=headers)
    return status, json.loads(data)


def submit(port, raw_spec):
    return request_json(port, "POST", "/v1/sweeps", body=json.dumps(raw_spec))


def raw_request(port, text):
    """Hand-rolled request bytes (for frames http.client refuses to
    send, like a POST with no Content-Length) → the status code."""
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        sock.sendall(text.encode())
        reply = sock.makefile("rb").readline().decode()
    return int(reply.split()[1])


def poll_done(port, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, payload = request_json(port, "GET", f"/v1/sweeps/{job_id}")
        assert status == 200
        if payload["state"] in ("done", "failed"):
            return payload
        time.sleep(0.05)
    pytest.fail(f"job {job_id} did not finish within {timeout}s")


class TestRoutingAndSchemas:
    def test_healthz_conforms(self, tmp_path):
        with serve(tmp_path, queue_depth=7) as (port, _):
            status, payload = request_json(port, "GET", "/v1/healthz")
        assert status == 200
        validate_payload("health", payload)
        assert payload["status"] == "ok"
        assert payload["queue"] == {"capacity": 7, "available": 7}

    def test_submit_detail_and_listing_conform(self, tmp_path):
        with serve(tmp_path, start=False) as (port, _):
            status, payload = submit(port, make_spec(3))
            assert status == 202
            validate_payload("job", payload)
            assert payload["state"] == "queued"
            assert payload["sweep"]["points"] == 1
            job_id = payload["id"]

            status, detail = request_json(port, "GET",
                                          f"/v1/sweeps/{job_id}")
            assert status == 200
            validate_payload("job", detail)

            status, listing = request_json(port, "GET", "/v1/jobs")
            assert status == 200
            validate_payload("jobs", listing)
            assert listing["count"] == 1
            assert listing["jobs"][0]["id"] == job_id

    def test_error_status_matrix(self, tmp_path):
        with serve(tmp_path, start=False, max_body_bytes=512) as (port, _):
            cases = [
                request_json(port, "GET", "/v1/nope"),            # 404
                request_json(port, "GET",
                             "/v1/sweeps/job-000009-deadbeef"),   # 404
                request_json(port, "POST", "/v1/healthz",
                             body="{}"),                          # 405
                request_json(port, "POST", "/v1/sweeps",
                             body="{not json"),                   # 400
                request_json(port, "POST", "/v1/sweeps",
                             body='["not", "an", "object"]'),     # 400
                request_json(port, "POST", "/v1/sweeps",
                             body=json.dumps({"name": "x"})),     # 400
                request_json(port, "POST", "/v1/sweeps",
                             body="x" * 600),                     # 413
            ]
            for status, payload in cases:
                validate_payload("error", payload)
            assert [status for status, _ in cases] \
                == [404, 404, 405, 400, 400, 400, 413]

            status, headers, _ = request(port, "DELETE", "/v1/jobs",
                                         headers={"Content-Length": "0"})
            assert status == 405 and headers["Allow"] == "GET"

            assert raw_request(
                port, "POST /v1/sweeps HTTP/1.1\r\nHost: t\r\n"
                      "Connection: close\r\n\r\n") == 411
            assert raw_request(
                port, "POST /v1/sweeps HTTP/1.1\r\nHost: t\r\n"
                      "Content-Length: ten\r\n"
                      "Connection: close\r\n\r\n") == 400

    def test_dist_routes_answer_409_pointing_at_the_coordinator(
            self, tmp_path):
        """The daemon knows the ``/v1/dist/*`` routes (they share the
        documented route table) but refuses them with a structured 409
        pointing at the sweep coordinator — they are served only by
        ``repro sweep run --transport local|http``."""
        dist_routes = [route for route in ROUTES
                       if route.pattern.startswith("/v1/dist/")]
        assert len(dist_routes) == 5
        with serve(tmp_path, start=False) as (port, _):
            for route in dist_routes:
                path = re.sub(r"\{[a-z]+\}", "x.npz", route.pattern)
                status, payload = request_json(
                    port, route.method, path,
                    body=json.dumps({"worker": "w0"}))
                assert status == 409
                validate_payload("error", payload)
                assert "sweep coordinator" in payload["error"]

    def test_refused_body_does_not_poison_a_kept_alive_connection(
            self, tmp_path):
        """A POST refused before its body is read (here the daemon's
        409 for a dist route) closes the connection, so a client that
        reuses it reconnects instead of having the unread body parsed
        as its next request."""
        with serve(tmp_path, start=False) as (port, _):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            try:
                conn.request("POST", "/v1/dist/lease",
                             body=json.dumps({"worker": "w0"}),
                             headers={"Content-Type": "application/json"})
                refused = conn.getresponse()
                refused.read()
                assert refused.status == 409
                assert refused.getheader("Connection") == "close"

                conn.request("GET", "/v1/healthz")
                health = conn.getresponse()
                payload = json.loads(health.read())
            finally:
                conn.close()
        assert health.status == 200
        assert health.getheader("Content-Type") == "application/json"
        validate_payload("health", payload)

    def test_unexpected_handler_error_is_a_structured_500(
            self, tmp_path, monkeypatch):
        """A handler bug must answer with the documented
        ``internal_error`` document and a ``request-error`` log event —
        never a raw traceback on the socket or a dead daemon."""
        from repro.service.http import SweepRequestHandler

        def broken(self, params):
            raise KeyError("metrics")

        monkeypatch.setattr(SweepRequestHandler, "handle_healthz", broken)
        with serve(tmp_path, start=False) as (port, service):
            events = []
            service._log = events.append
            status, payload = request_json(port, "GET", "/v1/healthz")
            # The daemon survives: the next request is served normally.
            listed, _ = request_json(port, "GET", "/v1/jobs")
        assert status == 500
        validate_payload("internal_error", payload)
        assert payload["detail"] == "KeyError: 'metrics'"
        assert listed == 200
        errors = [event for event in events
                  if event["event"] == "request-error"]
        assert len(errors) == 1
        assert errors[0]["path"] == "/v1/healthz"
        assert errors[0]["error"] == "KeyError: 'metrics'"

    def test_bad_report_format_is_400(self, tmp_path):
        with serve(tmp_path, start=False) as (port, _):
            _, payload = submit(port, make_spec(3))
            status, error = request_json(
                port, "GET", f"/v1/sweeps/{payload['id']}/report?format=pdf")
        assert status == 400
        validate_payload("error", error)
        assert "unknown report format" in error["error"]

    def test_backpressure_is_429(self, tmp_path):
        with serve(tmp_path, start=False, queue_depth=1) as (port, _):
            first, _ = submit(port, make_spec(3))
            second, payload = submit(port, make_spec(4))
        assert (first, second) == (202, 429)
        validate_payload("error", payload)
        assert "queue is full" in payload["error"]

    def test_yaml_body(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        with serve(tmp_path, start=False) as (port, _):
            status, payload = request_json(
                port, "POST", "/v1/sweeps",
                body=yaml.safe_dump(make_spec(3)),
                headers={"Content-Type": "application/yaml"})
        assert status == 202
        validate_payload("job", payload)


class TestCancel:
    def test_cancel_flow(self, tmp_path):
        with serve(tmp_path, start=False) as (port, _):
            _, payload = submit(port, make_spec(3))
            job_id = payload["id"]

            status, cancelled = request_json(port, "DELETE",
                                             f"/v1/sweeps/{job_id}")
            assert status == 200
            validate_payload("job", cancelled)
            assert cancelled["state"] == "cancelled"

            status, conflict = request_json(port, "DELETE",
                                            f"/v1/sweeps/{job_id}")
            assert status == 409
            validate_payload("error", conflict)

            status, missing = request_json(port, "DELETE",
                                           "/v1/sweeps/job-000042-0badc0de")
            assert status == 404
            validate_payload("error", missing)


class TestConcurrentClients:
    def test_stores_and_reports_match_cli(self, tmp_path):
        """Three clients, three distinct sweeps, one daemon: every store
        and report must be byte-identical to a plain CLI run."""
        seeds = [3, 4, 5]
        outcomes = {}

        def client(port, seed):
            status, payload = submit(port, make_spec(seed))
            assert status == 202
            done = poll_done(port, payload["id"])
            assert done["state"] == "done", done["error"]
            assert done["sweep"]["complete"]
            _, _, markdown = request(
                port, "GET", f"/v1/sweeps/{payload['id']}/report")
            _, _, csv = request(
                port, "GET",
                f"/v1/sweeps/{payload['id']}/report?format=csv")
            outcomes[seed] = (payload["id"], markdown, csv)

        with serve(tmp_path) as (port, service):
            threads = [threading.Thread(target=client, args=(port, seed))
                       for seed in seeds]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=180)
            assert not any(thread.is_alive() for thread in threads)

            assert sorted(outcomes) == seeds
            for seed in seeds:
                job_id, markdown, csv = outcomes[seed]
                spec = parse_spec(make_spec(seed))
                ref = tmp_path / f"ref-{seed}"
                run_sweep(spec, ref, **quiet)
                served = ResultsStore(service.store.sweep_dir(job_id))
                assert served.records_path.read_bytes() \
                    == ResultsStore(ref).records_path.read_bytes()
                summary = summarize(spec, ResultsStore(ref))
                assert markdown == format_markdown(summary).encode()
                assert csv == format_csv(summary).encode()
