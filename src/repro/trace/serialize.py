"""Compact on-disk format for trace bundles.

Traces are stored as ``.npz`` archives of parallel numpy arrays — a few
bytes per record instead of Python-object overhead — so a workload's
trace can be generated once and replayed across the whole experiment
matrix.  Since :class:`~repro.trace.bundle.TraceBundle` itself is
columnar, serialization is a direct dump of its arrays: no per-record
conversion in either direction.

Format (version 3): an *uncompressed* (``ZIP_STORED``) ``.npz`` archive
with a JSON ``meta`` member (identity fields plus an optional
caller-supplied ``extra`` dictionary, e.g. front-end stats for the
trace store) and six arrays — ``retire_pc``/``retire_tl`` (int64 /
uint8) and ``access_block``/``access_pc``/``access_tl``/``access_wp``
(int64 / int64 / uint8 / bool).  Because the members are stored flat,
each column's ``.npy`` payload sits contiguously in the file and is
always loaded as a **read-only memory map** (:func:`_mmap_member`):
worker processes replaying the same archive share the OS page cache
instead of each inflating a compressed copy, and loads cost page
faults, not decompression.

Version 2 (the compressed PR 2 layout, same members) remains fully
readable — it always loads into memory, never maps.  Version 1 stored
unsigned addresses and is rejected rather than migrated.
:func:`save_bundle` accepts ``format_version=2`` for compatibility
tooling and tests.

All load-side failures — truncated or corrupt archives, short or
misaligned members, missing arrays, undecodable metadata, version
mismatches — raise :class:`TraceFormatError` (a ``ValueError``), so
callers like the trace store can treat any bad file as a cache miss
instead of crashing.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zipfile
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from ..faults import fire
from .bundle import TraceBundle

_FORMAT_VERSION = 3

#: Format versions the loader accepts.
_READABLE_VERSIONS = (2, 3)

#: Array members every valid archive must contain.
_ARRAY_KEYS = ("retire_pc", "retire_tl", "access_block", "access_pc",
               "access_tl", "access_wp")

#: Metadata fields every valid archive must carry.
_META_KEYS = ("version", "workload", "core", "seed", "block_bytes",
              "instructions")


class TraceFormatError(ValueError):
    """A trace archive is unreadable, incomplete, or version-mismatched."""


def save_bundle(bundle: TraceBundle, path: Union[str, Path],
                extra: Optional[Dict[str, Any]] = None,
                format_version: int = _FORMAT_VERSION) -> Path:
    """Serialize ``bundle`` to ``path`` (``.npz`` appended if missing).

    ``extra`` is an optional JSON-serializable dictionary stored in the
    metadata member and returned verbatim by :func:`load_bundle_extra`
    (the trace store uses it for front-end statistics).
    ``format_version`` selects the on-disk layout: 3 (uncompressed,
    mmap-loadable — the default) or 2 (compressed, for compatibility
    tooling and the read-compat tests).
    """
    if format_version not in _READABLE_VERSIONS:
        raise ValueError(f"cannot write format version {format_version}; "
                         f"choices: {_READABLE_VERSIONS}")
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    meta = {
        "version": format_version,
        "workload": bundle.workload,
        "core": bundle.core,
        "seed": bundle.seed,
        "block_bytes": bundle.block_bytes,
        "instructions": bundle.instructions,
        "extra": extra if extra is not None else {},
    }
    writer = np.savez if format_version >= 3 else np.savez_compressed
    writer(
        path,
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        retire_pc=bundle.retire_pc,
        retire_tl=bundle.retire_trap,
        access_block=bundle.access_block,
        access_pc=bundle.access_pc,
        access_tl=bundle.access_trap,
        access_wp=bundle.access_wrong_path,
    )
    return path


#: Subdirectory (of the target's directory) atomic writes stage into.
#: Kept out of the target directory itself so directory-level ``*.npz``
#: scans (the trace store's) can never observe half-written archives.
SCRATCH_DIR = ".tmp"


def save_bundle_atomic(bundle: TraceBundle, path: Union[str, Path],
                       extra: Optional[Dict[str, Any]] = None,
                       format_version: int = _FORMAT_VERSION) -> Path:
    """Like :func:`save_bundle` but crash/concurrency-safe: the archive
    is staged under a ``.tmp/`` sibling directory and renamed into
    place, so readers (and parallel writers racing on the same key)
    never observe a partial file."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    staging = path.parent / SCRATCH_DIR
    staging.mkdir(parents=True, exist_ok=True)
    scratch = staging / f"{path.name}.{os.getpid()}.npz"
    try:
        save_bundle(bundle, scratch, extra=extra,
                    format_version=format_version)
        os.replace(scratch, path)
    finally:
        scratch.unlink(missing_ok=True)
    return path


#: Bytes hashed per read when digesting an archive file.
_HASH_CHUNK_BYTES = 1 << 20


def archive_sha256(path: Union[str, Path]) -> str:
    """Streamed SHA-256 over an archive's file bytes.

    This is the *transfer* integrity hash the replication tier verifies
    fetched archives against (:mod:`repro.trace.replicate`) — the raw
    on-disk bytes, not the semantic column digest of
    :meth:`repro.trace.bundle.TraceBundle.content_hash` — so a replica
    admitted under this hash is byte-identical to the coordinator's
    copy, mmap offsets and all.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            block = handle.read(_HASH_CHUNK_BYTES)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


#: Size of a local zip file header up to the variable-length fields.
_LOCAL_HEADER_FMT = "<4s5H3I2H"
_LOCAL_HEADER_SIZE = struct.calcsize(_LOCAL_HEADER_FMT)
_LOCAL_HEADER_MAGIC = b"PK\x03\x04"


def _mmap_member(path: Path, info: zipfile.ZipInfo,
                 file_size: int) -> np.ndarray:
    """Map one stored (uncompressed) ``.npy`` member as a read-only
    array.

    The member's payload offset is recovered from its *local* zip
    header (central-directory offsets do not include the local header's
    variable-length name/extra fields), then the standard ``.npy``
    header is parsed in place and the data region handed to
    ``np.memmap``.  Every structural surprise — compressed member,
    header mismatch, payload extending past EOF (a truncated archive
    whose central directory survived) — raises :class:`TraceFormatError`.
    """
    if info.compress_type != zipfile.ZIP_STORED:
        raise TraceFormatError(
            f"member {info.filename!r} in {path} is compressed; "
            "v3 members must be stored flat")
    with open(path, "rb") as handle:
        handle.seek(info.header_offset)
        raw = handle.read(_LOCAL_HEADER_SIZE)
        if len(raw) != _LOCAL_HEADER_SIZE:
            raise TraceFormatError(f"truncated local header in {path}")
        fields = struct.unpack(_LOCAL_HEADER_FMT, raw)
        if fields[0] != _LOCAL_HEADER_MAGIC:
            raise TraceFormatError(f"bad local header magic in {path}")
        name_length, extra_length = fields[9], fields[10]
        payload_offset = (info.header_offset + _LOCAL_HEADER_SIZE
                          + name_length + extra_length)
        handle.seek(payload_offset)
        version = np.lib.format.read_magic(handle)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(
                handle)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(
                handle)
        else:
            raise TraceFormatError(
                f"unsupported npy version {version} in {path}")
        data_offset = handle.tell()
    if fortran or len(shape) != 1:
        raise TraceFormatError(
            f"member {info.filename!r} in {path} is not a flat column")
    count = shape[0]
    end = data_offset + count * dtype.itemsize
    if end > file_size or end > payload_offset + info.file_size:
        raise TraceFormatError(
            f"member {info.filename!r} in {path} is truncated")
    if count == 0:
        return np.empty(0, dtype=dtype)
    return np.memmap(path, dtype=dtype, mode="r", offset=data_offset,
                     shape=(count,))


def _read_meta(archive: zipfile.ZipFile, path: Path
               ) -> Tuple[Dict[str, str], Dict[str, Any]]:
    """(member stem -> member name, decoded+validated metadata) for an
    open archive — one pass shared by the mmap and copy load paths."""
    names = {Path(name).stem: name for name in archive.namelist()}
    if "meta" not in names:
        raise TraceFormatError(f"no metadata member in {path}")
    try:
        meta = json.loads(
            bytes(np.load(archive.open(names["meta"]))).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, ValueError) as error:
        raise TraceFormatError(
            f"undecodable trace metadata in {path}: {error}") from error
    if meta.get("version") not in _READABLE_VERSIONS:
        raise TraceFormatError(
            f"unsupported trace format version {meta.get('version')!r} "
            f"in {path} (expected one of {_READABLE_VERSIONS})")
    missing = [key for key in _ARRAY_KEYS if key not in names]
    if missing:
        raise TraceFormatError(
            f"trace archive {path} lacks arrays: {missing}")
    return names, meta


def load_bundle_extra(path: Union[str, Path]
                      ) -> Tuple[TraceBundle, Dict[str, Any]]:
    """Deserialize a bundle and its ``extra`` metadata dictionary.

    v3 archives load as read-only memory maps; v2 archives load in
    memory.  Raises :class:`TraceFormatError` on any malformed or
    version-mismatched archive.
    """
    path = Path(path)
    fire("trace.open", path.name)
    try:
        with zipfile.ZipFile(path) as archive:
            names, meta = _read_meta(archive, path)
            if meta["version"] >= 3:
                file_size = path.stat().st_size
                arrays: Optional[Dict[str, np.ndarray]] = {
                    key: _mmap_member(path, archive.getinfo(names[key]),
                                      file_size)
                    for key in _ARRAY_KEYS
                }
            else:
                arrays = None
        if arrays is None:
            # Compressed v2: inflate in memory.
            with np.load(path) as npz:
                arrays = {key: npz[key] for key in _ARRAY_KEYS}
    except TraceFormatError:
        raise
    except (zipfile.BadZipFile, KeyError, ValueError, EOFError,
            OSError) as error:
        # np.load/zipfile raise BadZipFile/ValueError on corrupt
        # archives and EOFError/OSError on truncated members; fold them
        # all into the one recoverable error type.  A missing file
        # stays FileNotFound.
        if isinstance(error, FileNotFoundError):
            raise
        raise TraceFormatError(
            f"unreadable trace archive {path}: {error}") from error
    missing = [key for key in _META_KEYS if key not in meta]
    if missing:
        raise TraceFormatError(
            f"trace metadata in {path} lacks fields: {missing}")
    if len(arrays["retire_pc"]) != len(arrays["retire_tl"]) or not (
            len(arrays["access_block"]) == len(arrays["access_pc"])
            == len(arrays["access_tl"]) == len(arrays["access_wp"])):
        raise TraceFormatError(f"column lengths disagree in {path}")
    bundle = TraceBundle.from_columns(
        workload=meta["workload"],
        core=meta["core"],
        seed=meta["seed"],
        block_bytes=meta["block_bytes"],
        retire_pc=arrays["retire_pc"],
        retire_trap=arrays["retire_tl"],
        access_block=arrays["access_block"],
        access_pc=arrays["access_pc"],
        access_trap=arrays["access_tl"],
        access_wrong_path=arrays["access_wp"],
        instructions=meta["instructions"],
    )
    return bundle, meta.get("extra", {})


def load_bundle(path: Union[str, Path]) -> TraceBundle:
    """Deserialize a bundle previously written by :func:`save_bundle`."""
    bundle, _ = load_bundle_extra(path)
    return bundle
