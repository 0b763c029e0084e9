"""Trace routes over the wire + cold-store replication end to end.

Three layers:

* the coordinator's ``GET /v1/dist/traces[/{key}]`` routes against a
  live socket — schema-valid listings, ranged 206 chunks carrying the
  advertisement headers, 404s for unknown names and disabled stores;
* the worker's generator-mismatch policy in isolation (exit 2 with
  fetching off; override + fetch with it on);
* the full tier: a ``--transport local`` sweep whose workers start on
  an *empty* replica store — including the headline authoritative-
  coordinator case where the advertised generator differs from the
  workers' local sources — must converge to results byte-identical to
  an inline run's.
"""

import contextlib
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.dist.coordinator import LeaseBoard, run_distributed_sweep
from repro.dist.protocol import ProtocolError, trace_ad_from_wire
from repro.dist.worker import run_worker
from repro.pipeline.tracegen import cached_trace
from repro.scenarios import parse_spec, run_sweep, verify_store
from repro.scenarios.runner import prepare_sweep
from repro.service.http import build_server
from repro.service.schemas import validate_payload
from repro.trace.replicate import SHA_HEADER, SIZE_HEADER, TraceExport
from repro.trace.serialize import archive_sha256
from repro.trace.store import TraceStore, set_generator_override

SMALL = {
    "name": "replication",
    "sweep": {
        "workloads": ["dss-qry2"], "instructions": 30_000, "seeds": 3,
        "cores": 2, "cache": {"kb": 16},
        "engines": ["next-line",
                    {"name": "pif", "params": {"sab_count": 4,
                                               "sab_window_regions": 3}}],
    },
}

quiet = {"log": lambda line: None}

FAKE_GENERATOR = "f" * 12


def spec():
    return parse_spec(SMALL)


@contextlib.contextmanager
def serving(board=None, export=None):
    server = build_server("127.0.0.1", 0, board=board, export=export)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()


def get(url, path, headers=None):
    request = urllib.request.Request(url + path, headers=headers or {})
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, response.read(), dict(response.headers)


@pytest.fixture()
def warm_store():
    """The session trace store, warmed with this spec's archives."""
    store = TraceStore.from_env()
    assert store is not None, "conftest always provides a session store"
    for core in (0, 1):
        cached_trace("dss-qry2", 30_000, 3, core)
    return store


class TestTraceRoutes:
    def test_listing_is_schema_valid_and_strict_on_the_wire(
            self, warm_store):
        with serving(export=TraceExport(warm_store.root)) as url:
            status, body, _ = get(url, "/v1/dist/traces")
        assert status == 200
        payload = json.loads(body)
        validate_payload("traces", payload)
        assert payload["count"] >= 2
        names = set()
        for entry in payload["traces"]:
            ad = trace_ad_from_wire(entry)
            assert ad.size > 0
            names.add(ad.key)
        assert any(name.startswith("dss-qry2__i30000__s3__c0__")
                   for name in names)

    def test_ranged_fetch_carries_advertisement_and_reassembles(
            self, warm_store):
        export = TraceExport(warm_store.root)
        ad = export.listing()[0]
        path = warm_store.root / ad["key"]
        with serving(export=export) as url:
            status, whole, headers = get(url, f"/v1/dist/traces/{ad['key']}")
            assert status == 200
            assert whole == path.read_bytes()
            assert headers[SHA_HEADER] == ad["sha256"]
            assert int(headers[SIZE_HEADER]) == ad["size"]
            pieces, offset = [], 0
            while offset < ad["size"]:
                end = offset + 1023
                status, chunk, headers = get(
                    url, f"/v1/dist/traces/{ad['key']}",
                    headers={"Range": f"bytes={offset}-{end}"})
                assert status == 206
                assert headers[SHA_HEADER] == ad["sha256"]
                pieces.append(chunk)
                offset += len(chunk)
        assert b"".join(pieces) == whole

    def test_unknown_archive_and_disabled_store_are_404(self, warm_store):
        with serving(export=TraceExport(warm_store.root)) as url:
            with pytest.raises(urllib.error.HTTPError) as error:
                get(url, "/v1/dist/traces/nope__i1__s1__c0__g"
                         + "0" * 12 + ".npz")
            assert error.value.code == 404
        with serving(export=None) as url:
            for path in ("/v1/dist/traces",
                         "/v1/dist/traces/x__i1__s1__c0__g0.npz"):
                with pytest.raises(urllib.error.HTTPError) as error:
                    get(url, path)
                assert error.value.code == 404
                assert "no trace store" in json.loads(
                    error.value.read())["error"]

    def test_malformed_range_is_a_400(self, warm_store):
        export = TraceExport(warm_store.root)
        name = export.listing()[0]["key"]
        with serving(export=export) as url:
            for bad in ("bytes=9-5", "lines=0-4", "bytes=a-b"):
                with pytest.raises(urllib.error.HTTPError) as error:
                    get(url, f"/v1/dist/traces/{name}",
                        headers={"Range": bad})
                assert error.value.code == 400


class TestWorkerMismatchPolicy:
    def _mismatched_grant(self, tmp_path):
        plan = prepare_sweep(spec(), tmp_path / "out", jobs=2,
                             attach_baselines=True)
        set_generator_override(FAKE_GENERATOR)
        try:
            board = LeaseBoard(plan, lease_timeout=60.0)
            return board.request_lease("w0")
        finally:
            set_generator_override(None)

    def test_exit_2_without_fetch(self, tmp_path):
        granted = self._mismatched_grant(tmp_path)

        class Stub:
            def request_lease(self, worker):
                return granted

        lines = []
        assert run_worker("http://unused", "w0", client=Stub(),
                          log=lines.append) == 2
        assert any("generator mismatch" in line for line in lines)

    def test_unusable_advertised_generator_exits_2(self, tmp_path,
                                                   monkeypatch):
        granted = self._mismatched_grant(tmp_path)
        lease = dict(granted["lease"])
        lease["generator"] = "NOT-TWELVE-HEX-CHARS-EITHER"
        granted = dict(granted, lease=lease)

        class Stub:
            def request_lease(self, worker):
                return granted

        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "replica"))
        lines = []
        assert run_worker("http://unused", "w0", client=Stub(),
                          fetch_traces=True, log=lines.append) == 2
        assert any("unusable generator" in line for line in lines)

    def test_fetch_traces_requires_a_store(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_STORE", "off")
        with pytest.raises(ValueError, match="trace store"):
            run_worker("http://unused", "w0", fetch_traces=True)


class TestTraceAdWire:
    def test_strict_decoding(self):
        good = {"key": "a__i1__s1__c0__g" + "0" * 12 + ".npz",
                "size": 10, "sha256": "ab" * 32}
        ad = trace_ad_from_wire(good)
        assert ad.to_wire() == good
        for broken in (
                {**good, "size": -1},
                {**good, "sha256": "xy" * 32},
                {**good, "sha256": "ab" * 31},
                {**good, "key": ""},
                {key: value for key, value in good.items()
                 if key != "size"},
                {**good, "extra": 1},
        ):
            with pytest.raises(ProtocolError):
                trace_ad_from_wire(broken)


class TestColdStoreConvergence:
    def test_cold_replica_workers_match_inline_bytes(self, tmp_path):
        """Workers started against an empty REPRO_TRACE_STORE fetch
        every archive over loopback HTTP and produce a results file
        byte-identical (after repair) to the inline run's; the replica
        archives are byte-identical to the coordinator's."""
        clean = tmp_path / "clean"
        dist = tmp_path / "dist"
        replica = tmp_path / "replica"
        run_sweep(spec(), clean, **quiet)
        summary = run_distributed_sweep(
            spec(), dist, transport="local", workers=2,
            lease_timeout=30.0, worker_store=replica, **quiet)
        assert summary.complete() and not summary.degraded()
        assert summary.computed == 4
        verify_store(spec(), dist, repair=True)
        verify_store(spec(), clean, repair=True)
        assert (dist / "results.jsonl").read_bytes() \
            == (clean / "results.jsonl").read_bytes()
        coordinator = TraceStore.from_env()
        replicated = sorted(path.name for path in replica.glob("*.npz"))
        assert len(replicated) >= 2
        for name in replicated:
            assert (replica / name).read_bytes() \
                == (coordinator.root / name).read_bytes()

    def test_worker_store_demands_local_transport(self, tmp_path):
        with pytest.raises(ValueError, match="local-transport"):
            run_distributed_sweep(spec(), tmp_path / "out",
                                  transport="http",
                                  worker_store=tmp_path / "replica",
                                  **quiet)


class TestAuthoritativeCoordinator:
    @pytest.fixture()
    def foreign_generator(self):
        """Pretend this process's trace sources hash to FAKE_GENERATOR:
        the coordinator stores archives and stamps leases/records under
        it, while worker subprocesses still compute their real local
        hash — a genuine cross-host version skew."""
        cached_trace.cache_clear()
        set_generator_override(FAKE_GENERATOR)
        yield FAKE_GENERATOR
        set_generator_override(None)
        cached_trace.cache_clear()

    def test_mismatched_workers_adopt_the_coordinators_store(
            self, tmp_path, foreign_generator):
        clean = tmp_path / "clean"
        dist = tmp_path / "dist"
        replica = tmp_path / "replica"
        run_sweep(spec(), clean, **quiet)   # warms gffff… archives
        summary = run_distributed_sweep(
            spec(), dist, transport="local", workers=2,
            lease_timeout=30.0, worker_store=replica, **quiet)
        assert summary.complete() and not summary.degraded()
        assert summary.computed == 4
        verify_store(spec(), dist, repair=True)
        verify_store(spec(), clean, repair=True)
        assert (dist / "results.jsonl").read_bytes() \
            == (clean / "results.jsonl").read_bytes()
        # Every record carries the coordinator's generator, and every
        # replica archive re-hashes to the coordinator's advertisement.
        for line in (dist / "results.jsonl").read_text().splitlines():
            assert json.loads(line)["generator"] == foreign_generator
        ads = {ad["key"]: ad["sha256"]
               for ad in TraceExport(TraceStore.from_env().root).listing()}
        fetched = [path for path in replica.glob("*.npz")
                   if f"g{foreign_generator}" in path.name]
        assert len(fetched) >= 2
        for path in fetched:
            assert archive_sha256(path) == ads[path.name]
