"""Content-addressed on-disk store for generated trace bundles.

Trace generation is deterministic in (workload, instructions, seed,
core) — but only for a fixed version of the generator code.  The store
therefore keys every archive by those four parameters *plus a
generator-version hash*: a SHA-256 digest over the source of every
module that can influence the produced streams (workload synthesis, the
front-end fetch model, branch predictors, addressing/RNG helpers, and
the trace record/serialization format).  Touch any of those files and
every existing entry silently stops matching — stale traces can never
be replayed against new code.

Layout: one ``.npz`` archive per key, named
``{workload}__i{instructions}__s{seed}__c{core}__g{hash12}.npz``, in a
single flat directory.  Writes go through the atomic renamer in
:mod:`repro.trace.serialize`, so concurrent
:class:`~repro.experiments.parallel.ExperimentPool` workers racing on
one key at worst write the identical file twice.  Unreadable or
truncated archives are treated as cache misses and deleted.

The store root comes from the ``REPRO_TRACE_STORE`` environment
variable: unset falls back to ``~/.cache/repro/traces`` (honouring
``XDG_CACHE_HOME``), and the values ``0``/``off``/``none``/``disabled``
turn persistence off entirely.  ``repro traces build|ls|gc`` manage the
store from the command line; CI caches the directory keyed by the same
generator hash.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Tuple, Union

from ..faults import fire
from . import serialize
from .bundle import TraceBundle
from .serialize import TraceFormatError, load_bundle_extra, save_bundle_atomic

#: Environment variable selecting (or disabling) the store root.
STORE_ENV = "REPRO_TRACE_STORE"

#: Reserved ``extra`` field under which :meth:`TraceStore.put` embeds
#: the archive's full key (stripped again by :meth:`TraceStore.get`).
_KEY_META = "store_key"

#: ``REPRO_TRACE_STORE`` values that disable on-disk persistence.
_DISABLE_VALUES = frozenset({"", "0", "off", "none", "disabled"})

#: Source files whose content defines the generator version, relative to
#: the ``repro`` package root.  Everything trace generation executes or
#: that shapes the stored representation belongs here.
_GENERATOR_SOURCE_GLOBS = (
    "common/*.py",
    "branch/*.py",
    "workloads/*.py",
    "pipeline/*.py",
    "trace/records.py",
    "trace/bundle.py",
    "trace/serialize.py",
)

#: Files the globs above match that no generated trace depends on:
#: stage timers and retry backoff are runtime plumbing, never an input
#: to a generated value, so editing them must neither re-key stored
#: traces nor mark sweep records stale.
_GENERATOR_SOURCE_EXCLUDES = frozenset({
    "common/profiling.py",
    "common/backoff.py",
})

#: Subdirectory of the store root where the replication tier stages
#: partially fetched archives (``{name}.npz.part``).  Kept out of the
#: flat ``*.npz`` namespace so directory scans and gc never mistake a
#: half-transferred file for a real entry.
PARTIAL_DIR = "partial"

_generator_hash_cache: Optional[str] = None

#: When set (a 12-char prefix), :func:`active_generator` reports this
#: instead of the local source hash — see :func:`set_generator_override`.
_generator_override: Optional[str] = None


def _hash_sources(package_root: Path) -> str:
    """SHA-256 over the generator source files under ``package_root``
    (path and content both feed the digest, so renames invalidate too;
    :data:`_GENERATOR_SOURCE_EXCLUDES` never feed it)."""
    digest = hashlib.sha256()
    for pattern in _GENERATOR_SOURCE_GLOBS:
        for source in sorted(package_root.glob(pattern)):
            relative = source.relative_to(package_root)
            if relative.as_posix() in _GENERATOR_SOURCE_EXCLUDES:
                continue
            digest.update(str(relative).encode())
            digest.update(b"\x00")
            digest.update(source.read_bytes())
            digest.update(b"\x00")
    return digest.hexdigest()


def generator_version_hash() -> str:
    """Hex digest identifying the current trace-generator source.

    Computed once per process over the ``repro`` package's generator
    sources (:data:`_GENERATOR_SOURCE_GLOBS`).
    """
    global _generator_hash_cache
    if _generator_hash_cache is None:
        _generator_hash_cache = _hash_sources(
            Path(__file__).resolve().parent.parent)
    return _generator_hash_cache


def active_generator() -> str:
    """The 12-char generator prefix store paths and records key by.

    Normally the local source hash's prefix; a ``--fetch-traces``
    worker that accepted the coordinator's store as authoritative
    reports the coordinator's prefix instead
    (:func:`set_generator_override`).
    """
    return (_generator_override if _generator_override is not None
            else generator_version_hash()[:12])


def generator_override() -> Optional[str]:
    """The installed override prefix, or None when keying locally."""
    return _generator_override


def set_generator_override(prefix: Optional[str]) -> None:
    """Key store paths (and result records) by ``prefix`` instead of
    this process's own generator-source hash.

    This is the ``repro worker --fetch-traces`` escape hatch for a
    generator-version mismatch: the worker stops trusting its own
    generator entirely — local generation is forbidden while an
    override is active (:mod:`repro.trace.replicate` enforces it) — and
    replays only coordinator-fetched archives, so the records it
    reports are exactly what the coordinator's own code would have
    produced.  ``None`` removes the override.
    """
    global _generator_override
    if prefix is not None and not (
            len(prefix) == 12
            and all(ch in "0123456789abcdef" for ch in prefix)):
        raise ValueError(f"generator override must be a 12-char lowercase "
                         f"hex prefix, got {prefix!r}")
    _generator_override = prefix


class TraceKey(NamedTuple):
    """Identity of one generated trace (minus the generator version)."""

    workload: str
    instructions: int
    seed: int
    core: int


@dataclass(frozen=True, slots=True)
class StoreEntry:
    """One archive in the store, as listed by :meth:`TraceStore.entries`."""

    path: Path
    key: Optional[TraceKey]
    generator_hash: Optional[str]
    size_bytes: int
    mtime: float

    @property
    def current(self) -> bool:
        """True when the entry matches the active generator version."""
        return self.generator_hash == active_generator()


def ensure_scratch_store(prefix: str = "repro-traces-") -> Optional[Path]:
    """Point the store at a throwaway directory unless one is configured.

    For test/benchmark harnesses: when the caller has not exported
    ``REPRO_TRACE_STORE`` (CI does, to cache traces across runs), the
    variable is set to a fresh temporary directory that is removed at
    interpreter exit, so ad-hoc runs never touch the user's real cache.
    Returns the scratch root, or None when the environment already
    decides.
    """
    return _scratch_env(STORE_ENV, prefix)


def ensure_scratch_cache_home(prefix: str = "repro-cache-") -> Optional[Path]:
    """:func:`ensure_scratch_store` for ``XDG_CACHE_HOME``, the user
    cache root where the native walks are built
    (:mod:`repro.sim.native`)."""
    return _scratch_env("XDG_CACHE_HOME", prefix)


def _scratch_env(name: str, prefix: str) -> Optional[Path]:
    if name in os.environ:
        return None
    scratch = tempfile.mkdtemp(prefix=prefix)
    os.environ[name] = scratch
    atexit.register(shutil.rmtree, scratch, True)
    return Path(scratch)


def cache_home() -> Path:
    """The user cache root: ``$XDG_CACHE_HOME``, else ``~/.cache``."""
    value = os.environ.get("XDG_CACHE_HOME")
    return Path(value).expanduser() if value else Path.home() / ".cache"


def store_root_from_env() -> Optional[Path]:
    """Resolve the configured store root (None when disabled)."""
    value = os.environ.get(STORE_ENV)
    if value is not None:
        if value.strip().lower() in _DISABLE_VALUES:
            return None
        return Path(value).expanduser()
    return cache_home() / "repro" / "traces"


class TraceStore:
    """A directory of content-addressed trace archives."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    @classmethod
    def from_env(cls) -> Optional[TraceStore]:
        """The process-wide store, or None when persistence is disabled."""
        root = store_root_from_env()
        return cls(root) if root is not None else None

    def path_for(self, key: TraceKey) -> Path:
        """The archive path a key resolves to under the current
        generator version."""
        name = (f"{key.workload}__i{key.instructions}__s{key.seed}"
                f"__c{key.core}__g{active_generator()}.npz")
        return self.root / name

    # ------------------------------------------------------------------

    def get(self, key: TraceKey) -> Optional[Tuple[TraceBundle,
                                                   Dict[str, Any]]]:
        """Load ``key``'s bundle and extra metadata, or None on a miss.

        Archives that fail to parse, or whose recorded identity (the
        full :class:`TraceKey` :meth:`put` embedded, requested
        instruction count included — the bundle's own ``instructions``
        is the *retired* count and cannot stand in for it) disagrees
        with the key, are deleted and reported as misses so a corrupted
        or misplaced archive heals itself.
        """
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            # ``exception: format`` faults fired here land in the
            # TraceFormatError arm below — the self-heal contract.
            fire("store.get", path.name)
            bundle, extra = load_bundle_extra(path)
        except FileNotFoundError:
            return None
        except TraceFormatError:
            path.unlink(missing_ok=True)
            return None
        recorded = extra.pop(_KEY_META, None)
        if recorded != dict(key._asdict()) or (
                bundle.workload, bundle.seed, bundle.core) != (
                key.workload, key.seed, key.core):
            path.unlink(missing_ok=True)
            return None
        try:
            os.utime(path)  # LRU signal for size-budget eviction.
        except OSError:
            pass
        return bundle, extra

    def put(self, key: TraceKey, bundle: TraceBundle,
            extra: Optional[Dict[str, Any]] = None) -> Path:
        """Persist ``bundle`` under ``key`` (atomic; last writer wins).

        The full key is embedded in the archive metadata so :meth:`get`
        can verify a file really is what its path claims.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        stamped = dict(extra) if extra is not None else {}
        stamped[_KEY_META] = dict(key._asdict())
        return save_bundle_atomic(bundle, self.path_for(key), extra=stamped)

    # ------------------------------------------------------------------

    def entries(self) -> List[StoreEntry]:
        """Every archive currently in the store, newest first."""
        found: List[StoreEntry] = []
        if not self.root.is_dir():
            return found
        for path in self.root.glob("*.npz"):
            try:
                stat = path.stat()
            except OSError:
                continue
            key, generator_hash = _parse_entry_name(path.name)
            found.append(StoreEntry(path=path, key=key,
                                    generator_hash=generator_hash,
                                    size_bytes=stat.st_size,
                                    mtime=stat.st_mtime))
        found.sort(key=lambda entry: entry.mtime, reverse=True)
        return found

    def total_bytes(self) -> int:
        """Bytes the store currently occupies."""
        return sum(entry.size_bytes for entry in self.entries())

    def gc(self, max_bytes: Optional[int] = None,
           remove_all: bool = False) -> List[Path]:
        """Evict archives; returns the paths removed.

        Default policy removes entries that no longer match the running
        generator version, plus atomic-write scratch files old enough
        (one hour) that no live writer can still own them.  ``.npz``
        files whose names the store did not produce are left untouched —
        they are not the store's to delete, even under ``remove_all``.
        ``max_bytes`` additionally evicts least-recently-used *current*
        entries until the store fits the budget — except entries written
        within the last :data:`_FRESH_GRACE_SECONDS`, so a budgeted gc
        racing a concurrent fetcher can never delete a just-verified
        archive before its reader has opened it.  ``remove_all`` clears
        every store-produced archive.
        """
        removed: List[Path] = []
        survivors: List[StoreEntry] = []
        for entry in self.entries():
            if entry.key is None:
                continue
            if remove_all or not entry.current:
                entry.path.unlink(missing_ok=True)
                removed.append(entry.path)
            else:
                survivors.append(entry)
        removed.extend(self._sweep_scratch())
        removed.extend(self._sweep_partial(remove_all))
        if remove_all:
            removed.extend(self._sweep_plans())
        if max_bytes is not None:
            fresh_cutoff = time.time() - self._FRESH_GRACE_SECONDS
            occupancy = sum(entry.size_bytes for entry in survivors)
            for entry in reversed(survivors):  # oldest mtime first
                if occupancy <= max_bytes:
                    break
                if entry.mtime >= fresh_cutoff:
                    continue
                entry.path.unlink(missing_ok=True)
                removed.append(entry.path)
                occupancy -= entry.size_bytes
        return removed

    #: Entries younger than this never fall to ``max_bytes`` eviction —
    #: a freshly admitted (replicated or generated) archive is assumed
    #: to have a live reader about to open it.
    _FRESH_GRACE_SECONDS = 300.0

    #: Scratch files younger than this are assumed to have live writers.
    _SCRATCH_MAX_AGE_SECONDS = 3600.0

    def _sweep_plans(self) -> List[Path]:
        """Clear the PIF train-plan sidecar directory (``plans/``).

        Plans are keyed by trace *content hash* (see
        :mod:`repro.sim.trainplan`), so they never go semantically
        stale — entries for traces that stopped being generated merely
        become unreachable.  ``gc --all`` clears them with everything
        else; the default sweep leaves them alone.
        """
        plans = self.root / "plans"
        if not plans.is_dir():
            return []
        removed: List[Path] = []
        for path in plans.glob("*"):
            try:
                path.unlink()
                removed.append(path)
            except OSError:
                continue
        return removed

    def _sweep_partial(self, remove_all: bool) -> List[Path]:
        """Delete abandoned replication ``.part`` files (``partial/``).

        A fresh ``.part`` belongs to a live fetcher mid-download and is
        never touched (the gc-exemption half of the replica-store
        contract); one older than the scratch age gate was orphaned by
        a dead worker and is reclaimed.  ``remove_all`` clears them
        unconditionally.
        """
        staging = self.root / PARTIAL_DIR
        if not staging.is_dir():
            return []
        removed: List[Path] = []
        cutoff = time.time() - self._SCRATCH_MAX_AGE_SECONDS
        for partial in staging.glob("*.part"):
            try:
                if remove_all or partial.stat().st_mtime < cutoff:
                    partial.unlink(missing_ok=True)
                    removed.append(partial)
            except OSError:
                continue
        return removed

    def _sweep_scratch(self) -> List[Path]:
        """Delete abandoned atomic-write staging files (age-gated so a
        concurrently running writer is never raced)."""
        staging = self.root / serialize.SCRATCH_DIR
        if not staging.is_dir():
            return []
        removed: List[Path] = []
        cutoff = time.time() - self._SCRATCH_MAX_AGE_SECONDS
        for scratch in staging.glob("*.npz"):
            try:
                if scratch.stat().st_mtime < cutoff:
                    scratch.unlink(missing_ok=True)
                    removed.append(scratch)
            except OSError:
                continue
        return removed


def _parse_entry_name(name: str
                      ) -> Tuple[Optional[TraceKey], Optional[str]]:
    """Recover (key, generator hash) from an archive filename.

    Returns ``(None, None)`` for names the store did not produce;
    :meth:`TraceStore.entries` lists such files for visibility, but
    :meth:`TraceStore.gc` deliberately leaves them alone.
    """
    stem = name[:-len(".npz")] if name.endswith(".npz") else name
    parts = stem.split("__")
    if len(parts) != 5:
        return None, None
    workload, raw_instructions, raw_seed, raw_core, raw_hash = parts
    if not (raw_instructions.startswith("i") and raw_seed.startswith("s")
            and raw_core.startswith("c") and raw_hash.startswith("g")):
        return None, None
    try:
        key = TraceKey(workload=workload,
                       instructions=int(raw_instructions[1:]),
                       seed=int(raw_seed[1:]),
                       core=int(raw_core[1:]))
    except ValueError:
        return None, None
    return key, raw_hash[1:]
