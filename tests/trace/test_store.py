"""Content-addressed trace store: keys, hits, invalidation, eviction."""

import os
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from repro.trace import store as store_module
from repro.trace.bundle import TraceBundle
from repro.trace.records import FetchAccess, RetiredInstruction
from repro.trace.store import (
    TraceKey,
    TraceStore,
    generator_version_hash,
    store_root_from_env,
)


def bundle_for(key: TraceKey) -> TraceBundle:
    return TraceBundle(
        workload=key.workload, core=key.core, seed=key.seed,
        retires=[RetiredInstruction(0x40_0000, 0)],
        accesses=[FetchAccess(0x40_0000 >> 6, 0x40_0000, 0, False)],
        instructions=key.instructions,
    )


KEY = TraceKey(workload="unit-wl", instructions=1000, seed=7, core=0)


class TestRoundtrip:
    def test_miss_on_empty_store(self, tmp_path):
        assert TraceStore(tmp_path).get(KEY) is None

    def test_put_then_get(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put(KEY, bundle_for(KEY), extra={"frontend_stats": {}})
        loaded = store.get(KEY)
        assert loaded is not None
        bundle, extra = loaded
        assert bundle.workload == KEY.workload
        assert extra == {"frontend_stats": {}}
        assert np.array_equal(bundle.retire_pc,
                              bundle_for(KEY).retire_pc)

    def test_distinct_keys_distinct_archives(self, tmp_path):
        store = TraceStore(tmp_path)
        other = KEY._replace(core=1)
        store.put(KEY, bundle_for(KEY))
        store.put(other, bundle_for(other))
        assert len(store.entries()) == 2
        assert store.get(other)[0].core == 1

    def test_corrupt_archive_heals_to_miss(self, tmp_path):
        store = TraceStore(tmp_path)
        path = store.put(KEY, bundle_for(KEY))
        path.write_bytes(b"garbage")
        assert store.get(KEY) is None
        assert not path.exists()

    def test_identity_mismatch_heals_to_miss(self, tmp_path):
        store = TraceStore(tmp_path)
        wrong = TraceBundle(workload="other", core=9, seed=1,
                            instructions=5)
        store.put(KEY, wrong)
        assert store.get(KEY) is None
        assert not store.path_for(KEY).exists()

    def test_v2_archive_in_store_still_served(self, tmp_path):
        """A compressed v2 archive placed under the current key (e.g. a
        store populated before the v3 migration whose generator hash
        still matches) is read, not healed away."""
        from repro.trace.serialize import save_bundle_atomic

        store = TraceStore(tmp_path)
        save_bundle_atomic(
            bundle_for(KEY), store.path_for(KEY),
            extra={"store_key": dict(KEY._asdict())}, format_version=2)
        loaded = store.get(KEY)
        assert loaded is not None
        assert loaded[0].workload == KEY.workload
        assert np.array_equal(loaded[0].retire_pc,
                              bundle_for(KEY).retire_pc)

    def test_new_archives_memory_map(self, tmp_path):
        """Store puts write v3; gets map the columns read-only."""
        store = TraceStore(tmp_path)
        store.put(KEY, bundle_for(KEY))
        bundle, _ = store.get(KEY)
        assert isinstance(bundle.access_block.base, np.memmap)
        assert not bundle.access_block.flags.writeable

    def test_truncated_archive_heals_to_miss(self, tmp_path):
        """A store archive cut mid-file (lost central directory) is
        removed and reported as a miss, like any corrupt entry."""
        store = TraceStore(tmp_path)
        path = store.put(KEY, bundle_for(KEY))
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        assert store.get(KEY) is None
        assert not path.exists()

    def test_misplaced_archive_wrong_instruction_scale_is_a_miss(
            self, tmp_path):
        """An archive renamed to a different-instructions path must not
        be served (the bundle's own ``instructions`` is the retired
        count, so only the embedded key can catch this)."""
        store = TraceStore(tmp_path)
        path = store.put(KEY, bundle_for(KEY))
        misplaced_key = KEY._replace(instructions=999_999)
        path.rename(store.path_for(misplaced_key))
        assert store.get(misplaced_key) is None
        assert not store.path_for(misplaced_key).exists()
        assert store.get(KEY) is None  # original path gone too


class TestKeyInvalidation:
    def test_generator_hash_change_invalidates(self, tmp_path, monkeypatch):
        """A new generator version must never see old archives."""
        store = TraceStore(tmp_path)
        store.put(KEY, bundle_for(KEY))
        assert store.get(KEY) is not None
        monkeypatch.setattr(store_module, "_generator_hash_cache",
                            "f" * 64)
        assert store.get(KEY) is None  # different key -> different path
        assert len(store.entries()) == 1
        assert not store.entries()[0].current

    def test_hash_covers_generator_sources(self, tmp_path):
        """The digest must respond to generator source changes (simulated
        via a scratch package tree)."""
        package = tmp_path / "repro"
        (package / "workloads").mkdir(parents=True)
        (package / "workloads" / "a.py").write_text("x = 1\n")
        first = store_module._hash_sources(package)
        (package / "workloads" / "a.py").write_text("x = 2\n")
        second = store_module._hash_sources(package)
        assert first != second

    def test_hash_covers_renames(self, tmp_path):
        package = tmp_path / "repro"
        (package / "pipeline").mkdir(parents=True)
        (package / "pipeline" / "a.py").write_text("x = 1\n")
        first = store_module._hash_sources(package)
        (package / "pipeline" / "a.py").rename(
            package / "pipeline" / "b.py")
        second = store_module._hash_sources(package)
        assert first != second

    def test_runtime_plumbing_is_not_hashed(self, tmp_path):
        """On a copy of the real package: editing the stage timers or
        the retry backoff keeps the generator hash (and every stored
        trace) as it is, while editing the RNG helpers moves it."""
        package = tmp_path / "repro"
        shutil.copytree(Path(store_module.__file__).resolve().parent.parent,
                        package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        original = store_module._hash_sources(package)
        for name in ("profiling.py", "backoff.py"):
            with open(package / "common" / name, "a") as source:
                source.write("\n# edited\n")
            assert store_module._hash_sources(package) == original, name
        with open(package / "common" / "rng.py", "a") as source:
            source.write("\n# edited\n")
        assert store_module._hash_sources(package) != original


class TestGc:
    def test_keeps_current_entries(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put(KEY, bundle_for(KEY))
        assert store.gc() == []
        assert len(store.entries()) == 1

    def test_removes_stale_hash_entries(self, tmp_path):
        store = TraceStore(tmp_path)
        path = store.put(KEY, bundle_for(KEY))
        stale = path.with_name(path.name.replace(
            f"g{generator_version_hash()[:12]}", "g" + "0" * 12))
        path.rename(stale)
        removed = store.gc()
        assert removed == [stale]
        assert store.entries() == []

    def test_preserves_foreign_npz_files(self, tmp_path):
        """Archives the store did not create are not its to delete —
        not even under --all."""
        store = TraceStore(tmp_path)
        stray = tmp_path / "user-saved-trace.npz"
        stray.write_bytes(b"x")
        assert store.gc() == []
        assert store.gc(remove_all=True) == []
        assert stray.exists()

    def test_removes_abandoned_scratch_files(self, tmp_path):
        """Stale staging files are swept; fresh ones (a live writer's)
        are left alone."""
        store = TraceStore(tmp_path)
        staging = tmp_path / ".tmp"
        staging.mkdir()
        abandoned = staging / "entry.npz.1234.npz"
        abandoned.write_bytes(b"x")
        past = time.time() - 2 * TraceStore._SCRATCH_MAX_AGE_SECONDS
        os.utime(abandoned, (past, past))
        live = staging / "entry.npz.5678.npz"
        live.write_bytes(b"x")
        assert store.gc() == [abandoned]
        assert live.exists()

    def test_max_bytes_evicts_lru_first(self, tmp_path):
        store = TraceStore(tmp_path)
        old_key = KEY._replace(core=1)
        old_path = store.put(old_key, bundle_for(old_key))
        new_path = store.put(KEY, bundle_for(KEY))
        past = time.time() - 3600
        os.utime(old_path, (past, past))
        removed = store.gc(max_bytes=new_path.stat().st_size)
        assert removed == [old_path]
        assert store.get(KEY) is not None

    def test_remove_all(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put(KEY, bundle_for(KEY))
        store.put(KEY._replace(seed=8), bundle_for(KEY._replace(seed=8)))
        assert len(store.gc(remove_all=True)) == 2
        assert store.total_bytes() == 0


class TestGcReplicationRace:
    """gc racing a concurrent fetcher: live ``.part`` files and freshly
    admitted entries are exempt, abandoned ones are reclaimed."""

    def _partial(self, store, name, age_seconds=0.0):
        staging = store.root / store_module.PARTIAL_DIR
        staging.mkdir(exist_ok=True)
        part = staging / f"{name}.part"
        part.write_bytes(b"half an archive")
        if age_seconds:
            past = time.time() - age_seconds
            os.utime(part, (past, past))
        return part

    def test_fresh_part_file_survives_gc(self, tmp_path):
        store = TraceStore(tmp_path)
        live = self._partial(store, "inflight.npz")
        assert store.gc() == []
        assert live.exists()

    def test_abandoned_part_file_is_reclaimed(self, tmp_path):
        store = TraceStore(tmp_path)
        orphan = self._partial(
            store, "orphan.npz",
            age_seconds=2 * TraceStore._SCRATCH_MAX_AGE_SECONDS)
        live = self._partial(store, "inflight.npz")
        assert store.gc() == [orphan]
        assert live.exists()

    def test_remove_all_clears_partials(self, tmp_path):
        store = TraceStore(tmp_path)
        live = self._partial(store, "inflight.npz")
        assert live in store.gc(remove_all=True)
        assert not live.exists()

    def test_budget_eviction_spares_freshly_admitted_entries(
            self, tmp_path):
        """A budgeted gc racing the fetcher that just admitted (or the
        reader about to open) an archive must not evict it: entries
        inside the grace window stay even over budget."""
        store = TraceStore(tmp_path)
        first = store.put(KEY, bundle_for(KEY))
        other = KEY._replace(seed=8)
        second = store.put(other, bundle_for(other))
        assert store.gc(max_bytes=1) == []
        assert first.exists() and second.exists()
        # Once the grace lapses, LRU eviction applies as usual.
        past = time.time() - 2 * TraceStore._FRESH_GRACE_SECONDS
        os.utime(first, (past, past))
        assert store.gc(max_bytes=second.stat().st_size) == [first]
        assert second.exists()


class TestEnvConfiguration:
    def test_explicit_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv(store_module.STORE_ENV, str(tmp_path / "s"))
        assert store_root_from_env() == tmp_path / "s"
        assert TraceStore.from_env().root == tmp_path / "s"

    @pytest.mark.parametrize("value", ["", "0", "off", "none", "DISABLED"])
    def test_disabled_values(self, monkeypatch, value):
        monkeypatch.setenv(store_module.STORE_ENV, value)
        assert store_root_from_env() is None
        assert TraceStore.from_env() is None

    def test_default_under_cache_home(self, monkeypatch, tmp_path):
        monkeypatch.delenv(store_module.STORE_ENV, raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert store_root_from_env() == tmp_path / "repro" / "traces"
