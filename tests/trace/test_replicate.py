"""Trace replication: verified chunked fetch, resume, fallback, export."""

import contextlib
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.dist.http import build_coordinator_server
from repro.trace.bundle import TraceBundle
from repro.trace.records import FetchAccess, RetiredInstruction
from repro.trace.replicate import (DEFAULT_CHUNK_BYTES, ReplicationError,
                                   TraceExport, TraceFetcher,
                                   active_fetcher, chunk_bytes_from_env,
                                   installed)
from repro.trace.serialize import archive_sha256
from repro.trace.store import PARTIAL_DIR, TraceKey, TraceStore

KEY = TraceKey(workload="unit-wl", instructions=1000, seed=7, core=0)


def bundle_for(key: TraceKey) -> TraceBundle:
    return TraceBundle(
        workload=key.workload, core=key.core, seed=key.seed,
        retires=[RetiredInstruction(0x40_0000, 0)],
        accesses=[FetchAccess(0x40_0000 >> 6, 0x40_0000, 0, False)],
        instructions=key.instructions,
    )


@contextlib.contextmanager
def serving(export):
    """A live coordinator serving only the trace routes (no board —
    the lease routes are never exercised here)."""
    server = build_coordinator_server("127.0.0.1", 0, None, export)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()


def warm_store(tmp_path, key=KEY):
    store = TraceStore(tmp_path / "coordinator")
    path = store.put(key, bundle_for(key))
    return store, path


def make_fetcher(url, **kwargs):
    kwargs.setdefault("worker_id", "t0")
    kwargs.setdefault("chunk_bytes", 512)
    kwargs.setdefault("sleep", lambda seconds: None)
    return TraceFetcher(url, **kwargs)


class TestTraceExport:
    def test_listing_advertises_store_entries_with_transfer_hashes(
            self, tmp_path):
        store, path = warm_store(tmp_path)
        stray = store.root / "user-saved-trace.npz"
        stray.write_bytes(b"not a store entry")
        ads = TraceExport(store.root).listing()
        assert [ad["key"] for ad in ads] == [path.name]
        assert ads[0]["size"] == path.stat().st_size
        assert ads[0]["sha256"] == archive_sha256(path)

    def test_open_entry_resolves_only_advertised_names(self, tmp_path):
        store, path = warm_store(tmp_path)
        export = TraceExport(store.root)
        resolved = export.open_entry(path.name)
        assert resolved is not None
        got_path, size, sha256 = resolved
        assert got_path == path and size == path.stat().st_size
        assert sha256 == archive_sha256(path)
        assert export.open_entry("user-saved-trace.npz") is None
        assert export.open_entry("missing__i1__s1__c1__g" + "0" * 12
                                 + ".npz") is None

    def test_rewritten_archive_rehashes(self, tmp_path):
        store, path = warm_store(tmp_path)
        export = TraceExport(store.root)
        first = export.open_entry(path.name)[2]
        other = KEY._replace(seed=8)
        rewritten = TraceStore(store.root).put(other, bundle_for(other))
        rewritten.replace(path)
        second = export.open_entry(path.name)[2]
        assert second == archive_sha256(path)
        assert second != first


class TestFetcher:
    def test_cold_store_fetch_is_byte_identical(self, tmp_path):
        store, path = warm_store(tmp_path)
        replica = TraceStore(tmp_path / "replica")
        with serving(TraceExport(store.root)) as url:
            fetcher = make_fetcher(url, chunk_bytes=256)
            assert replica.get(KEY) is None
            assert fetcher.fetch(KEY, replica) is True
        assert fetcher.fetched == 1
        copied = replica.root / path.name
        assert copied.read_bytes() == path.read_bytes()
        # The admitted copy loads back through the normal store path
        # (identity metadata and all).
        assert replica.get(KEY) is not None
        assert list((replica.root / PARTIAL_DIR).glob("*.part")) == []

    def test_resumes_from_a_partial_file(self, tmp_path):
        store, path = warm_store(tmp_path)
        replica = TraceStore(tmp_path / "replica")
        staging = replica.root / PARTIAL_DIR
        staging.mkdir(parents=True)
        prefix = path.read_bytes()[:100]
        (staging / f"{path.name}.part").write_bytes(prefix)
        with serving(TraceExport(store.root)) as url:
            fetcher = make_fetcher(url, chunk_bytes=256)
            starts = []
            original = fetcher._get_range

            def spying(name, start, end):
                starts.append(start)
                return original(name, start, end)

            fetcher._get_range = spying
            assert fetcher.fetch(KEY, replica) is True
        assert starts[0] == len(prefix)
        assert (replica.root / path.name).read_bytes() == path.read_bytes()

    def test_poisoned_partial_restarts_clean(self, tmp_path):
        """A full-length garbage partial resumes to a hash mismatch;
        the fetcher deletes it and the next attempt lands verified
        bytes — corruption never reaches the store."""
        store, path = warm_store(tmp_path)
        replica = TraceStore(tmp_path / "replica")
        staging = replica.root / PARTIAL_DIR
        staging.mkdir(parents=True)
        part = staging / f"{path.name}.part"
        part.write_bytes(b"\0" * path.stat().st_size)
        sleeps = []
        with serving(TraceExport(store.root)) as url:
            fetcher = make_fetcher(url, sleep=sleeps.append)
            assert fetcher.fetch(KEY, replica) is True
        assert len(sleeps) == 1   # one retry after the mismatch
        assert (replica.root / path.name).read_bytes() == path.read_bytes()

    def test_missing_archive_falls_back_to_generation(self, tmp_path):
        store, _ = warm_store(tmp_path)
        replica = TraceStore(tmp_path / "replica")
        absent = KEY._replace(seed=99)
        with serving(TraceExport(store.root)) as url:
            assert make_fetcher(url).fetch(absent, replica) is False
            with pytest.raises(ReplicationError, match="forbidden"):
                make_fetcher(url, require_fetch=True).fetch(absent,
                                                            replica)

    def test_dead_link_exhausts_retries_with_replication_error(
            self, tmp_path):
        replica = TraceStore(tmp_path / "replica")
        fetcher = make_fetcher("http://127.0.0.1:9", max_attempts=2,
                               timeout=0.5)
        with pytest.raises(ReplicationError, match="after 2 attempts"):
            fetcher.fetch(KEY, replica)

    def test_budget_gc_never_evicts_the_fresh_admission(self, tmp_path):
        store, path = warm_store(tmp_path)
        replica = TraceStore(tmp_path / "replica")
        with serving(TraceExport(store.root)) as url:
            fetcher = make_fetcher(url, budget_bytes=1)
            assert fetcher.fetch(KEY, replica) is True
        # The 1-byte budget would evict anything not freshly admitted;
        # the grace window keeps the archive the task is about to use.
        assert (replica.root / path.name).exists()

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            TraceFetcher("http://x", chunk_bytes=0)
        with pytest.raises(ValueError):
            TraceFetcher("http://x", max_attempts=0)


class TestHook:
    def test_installed_scopes_the_active_fetcher(self):
        assert active_fetcher() is None
        fetcher = TraceFetcher("http://x")
        with installed(fetcher):
            assert active_fetcher() is fetcher
            with installed(None):
                assert active_fetcher() is None
            assert active_fetcher() is fetcher
        assert active_fetcher() is None


class TestChunkEnv:
    def test_default_and_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_FETCH_CHUNK", raising=False)
        assert chunk_bytes_from_env() == DEFAULT_CHUNK_BYTES
        monkeypatch.setenv("REPRO_FETCH_CHUNK", "4096")
        assert chunk_bytes_from_env() == 4096

    @pytest.mark.parametrize("raw", ["zero", "-5", "0"])
    def test_invalid_values_fall_back(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_FETCH_CHUNK", raw)
        assert chunk_bytes_from_env() == DEFAULT_CHUNK_BYTES


class TestImportCost:
    def test_cli_import_loads_no_http_client(self):
        """The fetcher imports urllib on its first fetch: every repro
        process imports this module through trace generation, and only
        a fleet worker on a cold store ever fetches."""
        src = Path(__file__).resolve().parents[2] / "src"
        probe = ("import sys, repro.cli; print(' '.join(sorted(name for "
                 "name in ('urllib.request', 'http.client', 'ssl') "
                 "if name in sys.modules)))")
        env = dict(os.environ, PYTHONPATH=str(src))
        loaded = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, timeout=120,
                                check=True).stdout.split()
        assert loaded == []
