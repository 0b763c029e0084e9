"""LeaseBoard state-machine locks, plus one live loopback HTTP pass.

The board is exercised directly (no sockets, no subprocesses): grant
order, heartbeat renewal, stale-report acks, duplicate-completion
dedup, retry → quarantine progression, dead-worker expiry, and the
never-wedge backstop.  One test then drives the same transitions over
a real :class:`SweepServer` socket to pin the HTTP mapping
(200/400/404/405-ish shapes) without involving worker subprocesses.
"""

import json
import re
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.dist.coordinator import LeaseBoard, run_distributed_sweep
from repro.dist.protocol import (Heartbeat, TaskFailed, TaskResult,
                                 decode_document, encode)
from repro.experiments.parallel import WORKER_DIED
from repro.scenarios import ResultsStore, parse_spec
from repro.scenarios.runner import _run_group, prepare_sweep
from repro.service.http import MAX_FRAME_BYTES, build_server
from repro.service.schemas import ROUTES

SMALL = {
    "name": "board",
    "sweep": {
        "workloads": ["dss-qry2"], "instructions": 30_000, "seeds": 3,
        "cores": 2, "cache": {"kb": 16},
        "engines": ["next-line",
                    {"name": "pif", "params": {"sab_count": 4,
                                               "sab_window_regions": 3}}],
    },
}


def raw_status(port, text):
    """Hand-rolled request bytes (for frames urllib refuses to send,
    like a POST with no Content-Length) → the status code."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(text.encode())
        reply = sock.makefile("rb").readline().decode()
    return int(reply.split()[1])


def make_board(tmp_path, **kwargs):
    plan = prepare_sweep(parse_spec(SMALL), tmp_path / "out", jobs=2)
    kwargs.setdefault("lease_timeout", 60.0)
    return LeaseBoard(plan, **kwargs), plan


def grant(board, worker):
    payload = board.request_lease(worker)
    assert payload["state"] == "granted"
    return decode_document(payload["lease"])


class TestLeasing:
    def test_grants_drain_then_idle_then_drained(self, tmp_path):
        board, plan = make_board(tmp_path)
        leases = [grant(board, f"w{n}") for n in range(len(plan.tasks))]
        assert len({lease.lease for lease in leases}) == len(plan.tasks)
        assert board.request_lease("w9")["state"] == "idle"
        for lease in leases:
            records, baselines = _run_group(lease.task)
            ack = board.submit(TaskResult(
                lease=lease.lease, worker="w0",
                records=tuple(records), baselines=baselines))
            assert ack["status"] == "ok"
        assert board.done()
        assert board.request_lease("w9")["state"] == "drained"
        computed, failed, quarantined = board.counts()
        assert (computed, failed, quarantined) == (4, 0, ())

    def test_stale_report_is_acked_stale_and_dropped(self, tmp_path):
        board, _ = make_board(tmp_path)
        ack = board.submit(TaskFailed(lease="lease-999999", worker="w0",
                                      kind="error", error="X: boom"))
        assert ack == {"status": "stale", "lease": "lease-999999"}
        assert board.counts() == (0, 0, ())

    def test_duplicate_completion_is_stale_not_double_counted(
            self, tmp_path):
        board, _ = make_board(tmp_path)
        lease = grant(board, "w0")
        records, baselines = _run_group(lease.task)
        report = TaskResult(lease=lease.lease, worker="w0",
                            records=tuple(records), baselines=baselines)
        assert board.submit(report)["status"] == "ok"
        assert board.submit(report)["status"] == "stale"
        assert board.counts()[0] == len(records)

    def test_heartbeat_renews_only_the_holders_lease(self, tmp_path):
        board, _ = make_board(tmp_path, lease_timeout=0.01)
        lease = grant(board, "w0")
        beat = Heartbeat(lease=lease.lease, worker="w0", beat=1)
        assert board.heartbeat(beat)["status"] == "ok"
        thief = Heartbeat(lease=lease.lease, worker="w1", beat=1)
        assert board.heartbeat(thief)["status"] == "stale"
        assert board.heartbeat(Heartbeat(
            lease="lease-999999", worker="w0", beat=1))["status"] == "stale"


class TestFailurePaths:
    def test_failed_report_requeues_with_bumped_attempt(self, tmp_path):
        board, _ = make_board(tmp_path, max_retries=2)
        lease = grant(board, "w0")
        first_attempt = lease.task.attempt
        board.submit(TaskFailed(lease=lease.lease, worker="w0",
                                kind="error", error="X: boom"))
        # The retried task is requeued at the tail; drain grants until
        # the same lane set comes around with a bumped attempt.
        retried = grant(board, "w1")
        while retried.task.lanes != lease.task.lanes:
            retried = grant(board, "w1")
        assert retried.task.attempt == first_attempt + 1

    def test_retries_exhausted_quarantines_with_failed_records(
            self, tmp_path):
        board, plan = make_board(tmp_path, max_retries=1)
        name = None
        for _ in range(2 * len(plan.tasks)):
            payload = board.request_lease("w0")
            if payload["state"] != "granted":
                break
            lease = decode_document(payload["lease"])
            name = name or lease.task.group_name()
            board.submit(TaskFailed(lease=lease.lease, worker="w0",
                                    kind="error", error="X: poison"))
        assert board.done()
        computed, failed, quarantined = board.counts()
        assert computed == 0 and failed == 4
        records = ResultsStore(tmp_path / "out").load_current()
        assert len(records) == 4
        for record in records.values():
            assert record["failed"]["attempts"] == 2
            assert record["failed"]["kind"] == "error"

    def test_expire_worker_requeues_as_worker_died(self, tmp_path):
        board, _ = make_board(tmp_path, max_retries=0)
        lease = grant(board, "w0")
        assert board.expire_worker("w0") == 1
        assert board.expire_worker("w0") == 0
        records = ResultsStore(tmp_path / "out").load_current()
        failed = [record for record in records.values()
                  if "failed" in record]
        assert failed and all(
            record["failed"]["error"] == WORKER_DIED for record in failed)

    def test_expire_stale_reaps_past_deadline_leases(self, tmp_path):
        board, _ = make_board(tmp_path, max_retries=2,
                              lease_timeout=0.0001)
        lease = grant(board, "w0")
        time.sleep(0.01)
        assert board.expire_stale() >= 1
        # The requeued task comes back (at the queue tail) with a
        # bumped attempt.
        regrant = grant(board, "w1")
        while regrant.task.lanes != lease.task.lanes:
            regrant = grant(board, "w1")
        assert regrant.task.attempt >= 1
        # The dead worker's late report is stale, not double-merged.
        assert board.submit(TaskFailed(
            lease=lease.lease, worker="w0", kind="error",
            error="X: late"))["status"] == "stale"

    def test_fail_outstanding_never_wedges(self, tmp_path):
        board, plan = make_board(tmp_path)
        grant(board, "w0")  # one leased, rest pending
        drained = board.fail_outstanding()
        assert drained == len(plan.tasks)
        assert board.done()
        assert board.counts()[1] == 4


class TestConcurrency:
    def test_racing_workers_ingest_every_task_once(self, tmp_path):
        """Eight threads race leases, heartbeats, expiry sweeps and
        reports on one board with a tiny switch interval: every first
        attempt fails and is requeued, every retry succeeds, and each
        point lands in the store exactly once."""
        import sys

        from repro.scenarios.spec import point_hash

        spec = parse_spec({"name": "race", "sweep": {
            **SMALL["sweep"], "seeds": [3, 4, 5],
            "engines": ["next-line", "stride", "discontinuity", "tifs"]}})
        plan = prepare_sweep(spec, tmp_path / "out", jobs=16)
        board = LeaseBoard(plan, max_retries=1, lease_timeout=60.0)
        errors = []

        def work(worker):
            try:
                while (payload := board.request_lease(worker))["state"] \
                        != "drained":
                    board.expire_stale()
                    if payload["state"] == "idle":
                        time.sleep(0.001)
                        continue
                    lease = decode_document(payload["lease"])
                    board.heartbeat(Heartbeat(lease=lease.lease,
                                              worker=worker, beat=1))
                    if lease.task.attempt == 0:
                        report = TaskFailed(lease=lease.lease, worker=worker,
                                            kind="error", error="X: first")
                    else:
                        report = TaskResult(
                            lease=lease.lease, worker=worker, baselines={},
                            records=tuple({"hash": digest}
                                          for digest, _ in lease.task.lanes))
                    assert board.submit(report)["status"] == "ok"
                    assert board.submit(report)["status"] == "stale"
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # Daemon threads: a board wedged by a lost update fails the
            # test instead of hanging the run.
            threads = [threading.Thread(target=work, args=(f"w{n}",),
                                        daemon=True) for n in range(8)]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 60
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert board.done()
        assert board.counts() == (len(spec.points()), 0, ())
        lines = (tmp_path / "out" / "results.jsonl").read_text().splitlines()
        assert sorted(json.loads(line)["hash"] for line in lines) \
            == sorted(point_hash(point) for point in spec.points())


class TestValidation:
    def test_run_distributed_sweep_rejects_bad_arguments(self, tmp_path):
        spec = parse_spec(SMALL)
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="transport"):
            run_distributed_sweep(spec, out, transport="carrier-pigeon")
        with pytest.raises(ValueError, match="workers"):
            run_distributed_sweep(spec, out, workers=0)
        with pytest.raises(ValueError, match="limit"):
            run_distributed_sweep(spec, out, limit=-1)
        with pytest.raises(ValueError, match="max_retries"):
            run_distributed_sweep(spec, out, max_retries=-1)
        with pytest.raises(ValueError, match="lease_timeout"):
            run_distributed_sweep(spec, out, lease_timeout=0.0)

    def test_nothing_to_do_returns_without_binding(self, tmp_path):
        from repro.scenarios import run_sweep

        spec = parse_spec(SMALL)
        out = tmp_path / "out"
        run_sweep(spec, out, log=lambda line: None)
        summary = run_distributed_sweep(spec, out, log=lambda line: None)
        assert summary.complete() and summary.computed == 0
        assert summary.skipped == 4


class TestLoopbackHTTP:
    def _post(self, url, path, body):
        request = urllib.request.Request(
            url + path, data=body, method="POST",
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())

    def test_wire_transitions_over_a_real_socket(self, tmp_path):
        board, plan = make_board(tmp_path)
        server = build_server("127.0.0.1", 0, board=board)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        try:
            status, payload = self._post(
                url, "/v1/dist/lease", json.dumps({"worker": "t0"}).encode())
            assert status == 200 and payload["state"] == "granted"
            lease = decode_document(payload["lease"])

            status, ack = self._post(url, "/v1/dist/heartbeat", encode(
                Heartbeat(lease=lease.lease, worker="t0", beat=1)))
            assert status == 200 and ack["status"] == "ok"

            records, baselines = _run_group(lease.task)
            status, ack = self._post(url, "/v1/dist/records", encode(
                TaskResult(lease=lease.lease, worker="t0",
                           records=tuple(records), baselines=baselines)))
            assert status == 200 and ack["status"] == "ok"

            # Malformed frames are a typed 400, not a stack trace.
            with pytest.raises(urllib.error.HTTPError) as error:
                self._post(url, "/v1/dist/records", b"{nope")
            assert error.value.code == 400
            assert "malformed frame" in json.loads(
                error.value.read())["error"]

            # A heartbeat frame on the records route is refused.
            with pytest.raises(urllib.error.HTTPError) as error:
                self._post(url, "/v1/dist/records", encode(
                    Heartbeat(lease=lease.lease, worker="t0", beat=2)))
            assert error.value.code == 400

            # A bad lease-request body is refused.
            with pytest.raises(urllib.error.HTTPError) as error:
                self._post(url, "/v1/dist/lease",
                           json.dumps({"who": "t0"}).encode())
            assert error.value.code == 400

            # Daemon routes are not served by the coordinator.
            with pytest.raises(urllib.error.HTTPError) as error:
                self._post(url, "/v1/sweeps", b"{}")
            assert error.value.code == 404

            # Every job route in the shared table answers 404 here.
            job_routes = [route for route in ROUTES
                          if not route.pattern.startswith("/v1/dist/")]
            assert len(job_routes) == 6
            for route in job_routes:
                path = re.sub(r"\{[a-z]+\}", "job-000001-deadbeef",
                              route.pattern)
                request = urllib.request.Request(
                    url + path, data=b"{}", method=route.method)
                with pytest.raises(urllib.error.HTTPError) as error:
                    urllib.request.urlopen(request, timeout=10)
                assert error.value.code == 404, route
                assert "not served by the sweep coordinator" in json.loads(
                    error.value.read())["error"]

            # A known path with the wrong method is a 405 naming the
            # right one.
            with pytest.raises(urllib.error.HTTPError) as error:
                urllib.request.urlopen(url + "/v1/dist/lease", timeout=10)
            assert error.value.code == 405
            assert error.value.headers["Allow"] == "POST"

            # Body limits are checked before reading: no Content-Length
            # is a 411, a declared frame over the cap a 413.
            assert raw_status(port, "POST /v1/dist/records HTTP/1.1\r\n"
                                    "Host: t\r\nConnection: close\r\n"
                                    "\r\n") == 411
            assert raw_status(port, "POST /v1/dist/records HTTP/1.1\r\n"
                                    "Host: t\r\nContent-Length: "
                                    f"{MAX_FRAME_BYTES + 1}\r\n"
                                    "Connection: close\r\n\r\n") == 413
        finally:
            server.shutdown()
            thread.join(timeout=5)
            server.server_close()
