"""Replicated trace distribution: verified, resumable archive fetch.

Multi-host sweeps break the trace store's one silent assumption — that
``REPRO_TRACE_STORE`` resolves to a directory that already holds (or
can regenerate) every archive.  A fresh worker host has neither.  This
module closes the gap with a classic content-distribution pair:

* :class:`TraceExport` — the coordinator side.  Wraps the
  coordinator's store root, advertises every parseable archive as
  ``(key, size, sha256)`` over ``GET /v1/dist/traces``, and serves
  byte ranges of individual archives over
  ``GET /v1/dist/traces/{key}`` (:mod:`repro.dist.http`).  Transfer
  hashes are streamed once per ``(name, size, mtime)`` and cached.

* :class:`TraceFetcher` — the worker side.  Consulted by
  :func:`repro.pipeline.tracegen.cached_trace` between a local store
  miss and fresh generation (:func:`installed` /
  :func:`active_fetcher`), it downloads the archive in fixed-size
  chunks into ``partial/{name}.part`` under the local store root,
  resumes from the partial file's length after any interruption,
  re-hashes the completed file against the coordinator-advertised
  SHA-256, and only then renames it into the store — an unverified
  byte is never admitted.  Transport errors and hash mismatches retry
  on the shared capped-exponential backoff
  (:func:`repro.common.backoff.backoff_delay`); when the attempts are
  exhausted the fetch raises :class:`ReplicationError`, which the
  worker's task boundary converts into a structured ``task-failed``
  report — never a hang, never a silently wrong trace.

Replica-store state machine (one archive)::

    absent ──chunk append──► partial/{name}.part ──interrupt──┐
       ▲                          │        ▲                  │
       │ hash mismatch (delete)   │        └────── resume ────┘
       └──────────────────────────┤ complete
                                  ▼
                          re-hash == advertised?
                                  │ yes (atomic rename)
                                  ▼
                           {name}.npz in store

Fault sites (DESIGN.md "Failure model"): ``replicate.fetch`` fires
once per fetch attempt (key ``{name}:attempt={n}``) and models
whole-transfer failures — ``raise`` a transport error before any byte
moves, ``truncate`` a connection dropped mid-transfer (the partial
file survives for resume).  ``replicate.chunk`` fires per received
chunk (key ``{name}:offset={o}:attempt={n}``) — ``truncate`` shears
the chunk and drops the connection, ``corrupt`` flips bytes in flight
(caught by the final hash check), ``raise`` a per-chunk transport
error.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..common.backoff import backoff_delay
from ..faults import InjectedFault, fire
from .serialize import archive_sha256
from .store import PARTIAL_DIR, TraceKey, TraceStore, _parse_entry_name

#: Environment variable overriding the fetch chunk size in bytes.
CHUNK_ENV = "REPRO_FETCH_CHUNK"

#: Default fetch chunk size: small enough that CI-scale archives take
#: several chunks (so resume/corruption paths are really exercised),
#: large enough that real multi-MB traces need few round trips.
DEFAULT_CHUNK_BYTES = 256 * 1024

#: Fetch attempts per archive before the fetch fails the task.
DEFAULT_FETCH_ATTEMPTS = 5

#: Response headers advertising the whole archive's transfer identity
#: (sent on every ranged chunk, so a mid-fetch store change is caught).
SHA_HEADER = "X-Repro-Sha256"
SIZE_HEADER = "X-Repro-Size"


class ReplicationError(RuntimeError):
    """An archive could not be replicated within the retry budget (or
    replication was mandatory and the coordinator lacks the archive).
    Raised from the trace-load path, so the worker's task boundary
    turns it into a structured ``task-failed`` report."""


class _RetryableFetchError(RuntimeError):
    """One fetch attempt failed in a way worth retrying."""


def chunk_bytes_from_env() -> int:
    """The configured fetch chunk size (``REPRO_FETCH_CHUNK`` bytes,
    default :data:`DEFAULT_CHUNK_BYTES`; invalid values fall back)."""
    raw = os.environ.get(CHUNK_ENV)  # reprolint: disable=RL004 - transfer tuning knob resolved where the transfer runs; never touches result values
    if raw is None:
        return DEFAULT_CHUNK_BYTES
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_CHUNK_BYTES
    return value if value > 0 else DEFAULT_CHUNK_BYTES


# ---------------------------------------------------------------------------
# coordinator side


class TraceExport:
    """Advertise and serve one store directory's archives.

    Thread-safe (the coordinator's HTTP server is threaded): the
    transfer-hash cache is keyed by ``(name, size, mtime_ns)``, so a
    rewritten archive re-hashes and an untouched one hashes once.
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self._lock = threading.Lock()
        self._hashes: Dict[Tuple[str, int, int], str] = {}

    def _transfer_hash(self, path: Path, stat: os.stat_result) -> str:
        cache_key = (path.name, stat.st_size, stat.st_mtime_ns)
        with self._lock:
            known = self._hashes.get(cache_key)
        if known is not None:
            return known
        digest = archive_sha256(path)
        with self._lock:
            self._hashes[cache_key] = digest
        return digest

    def listing(self) -> List[Dict[str, Any]]:
        """Every servable archive as ``{"key", "size", "sha256"}``
        entries, name-sorted (the ``traces`` payload's ``traces``
        list).  Only store-produced names are advertised — exactly the
        set :meth:`open_entry` will serve."""
        ads: List[Dict[str, Any]] = []
        if not self.root.is_dir():
            return ads
        for path in sorted(self.root.glob("*.npz")):
            key, generator_hash = _parse_entry_name(path.name)
            if key is None or generator_hash is None:
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            ads.append({"key": path.name, "size": stat.st_size,
                        "sha256": self._transfer_hash(path, stat)})
        return ads

    def open_entry(self, name: str) -> Optional[Tuple[Path, int, str]]:
        """Resolve one advertised archive to ``(path, size, sha256)``,
        or None when the store has no such entry.  Only names the
        store itself produces resolve (the route's charset plus this
        parse make traversal a 404, not a file read)."""
        key, generator_hash = _parse_entry_name(name)
        if key is None or generator_hash is None:
            return None
        path = self.root / name
        try:
            stat = path.stat()
        except OSError:
            return None
        return path, stat.st_size, self._transfer_hash(path, stat)

    def read_range(self, path: Path, start: int, length: int) -> bytes:
        """``length`` bytes of ``path`` from ``start`` (short at EOF)."""
        with open(path, "rb") as handle:
            handle.seek(start)
            return handle.read(length)


# ---------------------------------------------------------------------------
# worker side


class TraceFetcher:
    """Fetch archives from a coordinator into a local replica store.

    ``require_fetch`` is set by a worker running under a generator
    override (the coordinator's store is authoritative, local
    generation is forbidden): a missing coordinator archive then
    raises instead of returning False.  ``budget_bytes`` caps the
    replica store: after each admission the store is gc'd to the
    budget (freshly admitted entries are grace-exempt, so the cap can
    never evict the archive the current task is about to replay).
    """

    def __init__(self, base_url: str, *, worker_id: str = "",
                 chunk_bytes: Optional[int] = None,
                 max_attempts: int = DEFAULT_FETCH_ATTEMPTS,
                 backoff_base: float = 0.05, backoff_cap: float = 5.0,
                 timeout: float = 30.0, require_fetch: bool = False,
                 budget_bytes: Optional[int] = None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.base = base_url.rstrip("/")
        self.worker_id = worker_id
        self.chunk_bytes = (chunk_bytes if chunk_bytes is not None
                            else chunk_bytes_from_env())
        if self.chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        if max_attempts <= 0:
            raise ValueError("max_attempts must be positive")
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.timeout = timeout
        self.require_fetch = require_fetch
        self.budget_bytes = budget_bytes
        self._sleep = sleep
        self.fetched = 0    #: archives admitted by this fetcher

    # ------------------------------------------------------------ transport

    def _get_range(self, name: str, start: int,
                   end: int) -> Tuple[bytes, int, str]:
        """One ranged GET: (payload, advertised size, advertised hash).

        404 raises :class:`ReplicationError` tagged as *missing*; every
        other failure — connection errors, non-2xx, absent or garbled
        advertisement headers — is a :class:`_RetryableFetchError`.
        """
        # Imported on the first fetch, not with the module: trace
        # generation imports this module in every repro process, and
        # urllib.request loads http.client and ssl.
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            f"{self.base}/v1/dist/traces/{name}",
            headers={"Range": f"bytes={start}-{end}"})
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                data = response.read()
                raw_size = response.headers.get(SIZE_HEADER)
                sha256 = response.headers.get(SHA_HEADER)
        except urllib.error.HTTPError as error:
            if error.code == 404:
                raise _ArchiveMissing(
                    f"coordinator has no archive {name!r}") from error
            raise _RetryableFetchError(
                f"GET {name} [{start}-{end}] answered "
                f"{error.code}") from error
        except (urllib.error.URLError, OSError, ValueError) as error:
            raise _RetryableFetchError(
                f"GET {name} [{start}-{end}] failed: {error}") from error
        if raw_size is None or sha256 is None:
            raise _RetryableFetchError(
                f"GET {name} response lacks the {SIZE_HEADER}/"
                f"{SHA_HEADER} advertisement headers")
        try:
            size = int(raw_size)
        except ValueError:
            raise _RetryableFetchError(
                f"GET {name} advertised a non-integer size "
                f"{raw_size!r}") from None
        if len(data) > end - start + 1:
            raise _RetryableFetchError(
                f"GET {name} returned {len(data)} bytes for a "
                f"{end - start + 1}-byte range")
        return data, size, sha256

    # -------------------------------------------------------------- fetching

    def _attempt(self, name: str, target: Path, part: Path,
                 attempt: int) -> None:
        """One full fetch attempt: resume the partial file, stream
        chunks, verify, rename into the store.  Raises
        :class:`_RetryableFetchError` on anything recoverable."""
        offset = part.stat().st_size if part.exists() else 0
        advertised: Optional[Tuple[int, str]] = None
        while True:
            chunk, size, sha256 = self._get_range(
                name, offset, offset + self.chunk_bytes - 1)
            if advertised is None:
                advertised = (size, sha256)
                if offset > size:
                    # A stale partial from a different (overwritten)
                    # archive; start over.
                    part.unlink(missing_ok=True)
                    raise _RetryableFetchError(
                        f"partial file for {name} is longer than the "
                        f"advertised archive ({offset} > {size})")
            elif advertised != (size, sha256):
                part.unlink(missing_ok=True)
                raise _RetryableFetchError(
                    f"archive {name} changed on the coordinator "
                    "mid-transfer")
            if offset >= size:
                break
            try:
                fault = fire("replicate.chunk",
                             f"{name}:offset={offset}:attempt={attempt}")
            except (InjectedFault, ValueError) as error:
                raise _RetryableFetchError(
                    f"chunk transfer failed: {error}") from error
            dropped = False
            if fault is not None:
                if fault.action == "truncate":
                    chunk = chunk[:len(chunk) // 2]
                    dropped = True
                elif fault.action == "corrupt":
                    damaged = bytearray(chunk)
                    for position in range(0, len(damaged),
                                          max(1, len(damaged) // 8)):
                        damaged[position] ^= 0xFF
                    chunk = bytes(damaged)
            if not chunk and offset < size:
                raise _RetryableFetchError(
                    f"GET {name} returned no bytes at offset {offset}")
            with open(part, "ab") as handle:
                handle.write(chunk)
            offset += len(chunk)
            if dropped:
                raise _RetryableFetchError(
                    f"connection dropped mid-chunk at offset {offset}")
        if not part.exists():
            # A zero-byte archive transfers no chunks; verify an empty
            # file rather than a missing one.
            part.touch()
        digest = archive_sha256(part)
        if digest != advertised[1]:
            # The accumulated bytes are wrong (corruption in flight or
            # a bad resume base); nothing salvageable — start clean.
            part.unlink(missing_ok=True)
            raise _RetryableFetchError(
                f"archive {name} hashed {digest[:12]}… but the "
                f"coordinator advertised {advertised[1][:12]}…")
        os.replace(part, target)

    def fetch(self, key: TraceKey, store: TraceStore) -> bool:
        """Replicate ``key``'s archive into ``store``.

        True when the archive was verified and admitted; False when the
        coordinator does not have it (the caller falls back to local
        generation — unless ``require_fetch``, which raises instead).
        Raises :class:`ReplicationError` once the retry budget is
        spent: persistent corruption or a dead link must surface as a
        structured task failure, never as a wrong trace.
        """
        target = store.path_for(key)
        name = target.name
        staging = store.root / PARTIAL_DIR
        staging.mkdir(parents=True, exist_ok=True)
        part = staging / f"{name}.part"
        failure: Optional[Exception] = None
        for attempt in range(self.max_attempts):
            if attempt:
                self._sleep(backoff_delay(
                    attempt - 1, base=self.backoff_base,
                    cap=self.backoff_cap,
                    salt=f"{self.worker_id}:{name}"))
            try:
                fault = fire("replicate.fetch", f"{name}:attempt={attempt}")
                if fault is not None and fault.action == "truncate":
                    # Model a connection that dies before the transfer
                    # moves a byte this attempt; the partial survives.
                    raise _RetryableFetchError(
                        "connection dropped before transfer")
                self._attempt(name, target, part, attempt)
            except _ArchiveMissing as error:
                part.unlink(missing_ok=True)
                if self.require_fetch:
                    raise ReplicationError(
                        f"{error} and this worker runs under a generator "
                        "override, so local generation is forbidden"
                    ) from error
                return False
            except (_RetryableFetchError, InjectedFault,
                    ValueError) as error:
                # ValueError covers the injected TraceFormatError
                # flavor of a raise fault at these sites.
                failure = error
                continue
            self.fetched += 1
            if self.budget_bytes is not None:
                store.gc(max_bytes=self.budget_bytes)
            return True
        raise ReplicationError(
            f"could not replicate {name} after {self.max_attempts} "
            f"attempts; last failure: {failure}")


class _ArchiveMissing(_RetryableFetchError):
    """The coordinator answered 404: it does not hold the archive."""


# ---------------------------------------------------------------------------
# process-wide hook (consulted by repro.pipeline.tracegen.cached_trace)

_active_fetcher: Optional[TraceFetcher] = None


def active_fetcher() -> Optional[TraceFetcher]:
    """The installed fetcher the trace-load path consults on a local
    store miss, or None (the default: miss → generate)."""
    return _active_fetcher


@contextmanager
def installed(fetcher: Optional[TraceFetcher]) -> Iterator[None]:
    """Install ``fetcher`` as the process-wide replication hook for the
    duration of the block (None leaves replication off)."""
    global _active_fetcher
    previous = _active_fetcher
    _active_fetcher = fetcher
    try:
        yield
    finally:
        _active_fetcher = previous
