"""The distributed-sweep wire protocol: typed documents, canonical JSON.

Four document types cross the wire between a coordinator and its
workers:

* ``task-lease`` — one leased :class:`~repro.scenarios.runner._GroupTask`
  (the coordinator → worker direction, nested in the ``lease`` response
  payload): full task identity — trace tuple, warmup, attempt
  generation, every lane's point hash + identity + display label — plus
  the coordinator's generator-version prefix so a mismatched worker can
  refuse before computing records the store would ignore;
* ``point-records`` — a completed task's records streamed back (worker
  → coordinator): the exact ``results.jsonl`` record dicts
  ``_run_group`` produced, plus the worker's baseline-memo snapshot for
  the sidecar;
* ``task-failed`` — a structured failure report (worker → coordinator):
  the same ``(kind, error)`` shape :class:`repro.experiments.parallel.
  TaskFailure` records, so retry/quarantine accounting is transport-
  independent;
* ``heartbeat`` — a lease keep-alive (worker → coordinator) renewing
  the lease deadline while a long walk runs.

Encoding is canonical JSON — sorted keys, no whitespace, the same
convention the results store and point hash use — so
``encode(decode(frame)) == frame`` byte-for-byte for every valid frame
(``tests/dist/test_protocol.py`` property-tests this with Hypothesis).

Decoding is strict: unknown document types, missing or extra keys,
wrong value types, truncated frames, and lane hashes that do not match
their point identity all raise :class:`ProtocolError` — never a bare
``KeyError`` or ``JSONDecodeError`` — so a malformed frame is a typed
400 at the HTTP boundary, not a coordinator crash.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple, Union

from ..scenarios.runner import _GroupTask
from ..scenarios.spec import SweepPoint, point_hash

#: Keys of the ``identity()`` dict of a :class:`SweepPoint`.
_IDENTITY_KEYS = frozenset({"workload", "instructions", "seed", "core",
                            "warmup", "cache", "engine", "params",
                            "timing"})
_CACHE_KEYS = frozenset({"capacity_bytes", "associativity", "block_bytes",
                         "replacement"})
_LANE_KEYS = frozenset({"hash", "label", "point"})
_TASK_KEYS = frozenset({"workload", "instructions", "seed", "core",
                        "warmup", "attempt", "lanes", "baselines"})

_LEASE_KEYS = frozenset({"type", "lease", "generator", "task"})
_RECORDS_KEYS = frozenset({"type", "lease", "worker", "records",
                           "baselines"})
_FAILED_KEYS = frozenset({"type", "lease", "worker", "kind", "error"})
_HEARTBEAT_KEYS = frozenset({"type", "lease", "worker", "beat"})


class ProtocolError(ValueError):
    """A wire frame failed validation; the message names the problem."""


def _canonical(document: Mapping[str, Any]) -> bytes:
    return json.dumps(document, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _type_name(value: Any) -> str:
    return type(value).__name__


def _require_mapping(value: Any, label: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ProtocolError(f"{label} must be an object, got "
                            f"{_type_name(value)}")
    return value


def _require_keys(label: str, document: Mapping[str, Any],
                  keys: frozenset) -> None:
    actual = frozenset(document)
    if actual != keys:
        missing = sorted(keys - actual)
        extra = sorted(actual - keys)
        raise ProtocolError(f"{label} keys mismatch: missing {missing}, "
                            f"unexpected {extra}")


def _field(document: Mapping[str, Any], key: str, kind, label: str,
           kind_label: str) -> Any:
    value = document[key]
    # bool is an int subclass; keep int fields honestly integral.
    if not isinstance(value, kind) or (kind is int
                                       and isinstance(value, bool)):
        raise ProtocolError(f"{label}.{key} must be {kind_label}, got "
                            f"{_type_name(value)}")
    return value


# ---------------------------------------------------------------------------
# task <-> wire


def task_to_wire(task: _GroupTask) -> Dict[str, Any]:
    """The JSON-safe document form of one group task.

    Lanes carry the point hash, the display label (excluded from the
    hash, but part of every record), and the full ``identity()`` dict —
    enough to rebuild the frozen :class:`SweepPoint` exactly.
    """
    return {
        "workload": task.workload,
        "instructions": task.instructions,
        "seed": task.seed,
        "core": task.core,
        "warmup": task.warmup,
        "attempt": task.attempt,
        "lanes": [
            {"hash": digest, "label": point.label,
             "point": point.identity()}
            for digest, point in task.lanes
        ],
        "baselines": task.baselines,
    }


def _point_from_wire(identity: Mapping[str, Any], label: str,
                     lane_label: str) -> SweepPoint:
    _require_keys(f"{lane_label}.point", identity, _IDENTITY_KEYS)
    cache = _require_mapping(identity["cache"], f"{lane_label}.point.cache")
    _require_keys(f"{lane_label}.point.cache", cache, _CACHE_KEYS)
    params = _require_mapping(identity["params"],
                              f"{lane_label}.point.params")
    point_label = f"{lane_label}.point"
    if not isinstance(identity["timing"], bool):
        raise ProtocolError(f"{point_label}.timing must be a boolean, got "
                            f"{_type_name(identity['timing'])}")
    return SweepPoint(
        workload=_field(identity, "workload", str, point_label, "a string"),
        instructions=_field(identity, "instructions", int, point_label,
                            "an integer"),
        seed=_field(identity, "seed", int, point_label, "an integer"),
        core=_field(identity, "core", int, point_label, "an integer"),
        warmup=float(_field(identity, "warmup", (int, float), point_label,
                            "a number")),
        capacity_bytes=_field(cache, "capacity_bytes", int,
                              f"{point_label}.cache", "an integer"),
        associativity=_field(cache, "associativity", int,
                             f"{point_label}.cache", "an integer"),
        block_bytes=_field(cache, "block_bytes", int,
                           f"{point_label}.cache", "an integer"),
        replacement=_field(cache, "replacement", str,
                           f"{point_label}.cache", "a string"),
        engine=_field(identity, "engine", str, point_label, "a string"),
        params=tuple(sorted(params.items())),
        label=label,
        timing=identity["timing"],
    )


def task_from_wire(document: Any) -> _GroupTask:
    """Rebuild a :class:`_GroupTask` from its wire document.

    Every lane's point hash is recomputed from the rebuilt identity and
    must match the transmitted one — the integrity half of the identity
    contract: a task that decodes is guaranteed to produce records the
    coordinator's store keys exactly where the spec expansion expects
    them.
    """
    document = _require_mapping(document, "task")
    _require_keys("task", document, _TASK_KEYS)
    baselines = document["baselines"]
    if baselines is not None:
        baselines = dict(_require_mapping(baselines, "task.baselines"))
        for key, value in baselines.items():
            if not isinstance(key, str):
                raise ProtocolError("task.baselines keys must be strings")
            _require_mapping(value, f"task.baselines[{key!r}]")
    raw_lanes = document["lanes"]
    if not isinstance(raw_lanes, list) or not raw_lanes:
        raise ProtocolError("task.lanes must be a non-empty list")
    lanes: List[Tuple[str, SweepPoint]] = []
    for position, raw_lane in enumerate(raw_lanes):
        lane_label = f"task.lanes[{position}]"
        lane = _require_mapping(raw_lane, lane_label)
        _require_keys(lane_label, lane, _LANE_KEYS)
        digest = _field(lane, "hash", str, lane_label, "a string")
        label = _field(lane, "label", str, lane_label, "a string")
        point = _point_from_wire(
            _require_mapping(lane["point"], f"{lane_label}.point"),
            label, lane_label)
        actual = point_hash(point)
        if actual != digest:
            raise ProtocolError(
                f"{lane_label}.hash {digest!r} does not match the point "
                f"identity (computed {actual!r}); refusing a task whose "
                "records would land under the wrong key")
        lanes.append((digest, point))
    return _GroupTask(
        workload=_field(document, "workload", str, "task", "a string"),
        instructions=_field(document, "instructions", int, "task",
                            "an integer"),
        seed=_field(document, "seed", int, "task", "an integer"),
        core=_field(document, "core", int, "task", "an integer"),
        warmup=float(_field(document, "warmup", (int, float), "task",
                            "a number")),
        lanes=tuple(lanes),
        baselines=baselines,
        attempt=_field(document, "attempt", int, "task", "an integer"),
    )


# ---------------------------------------------------------------------------
# documents


@dataclass(frozen=True)
class TaskLease:
    """One granted lease: the task, its lease id, and the coordinator's
    generator-version prefix (a mismatched worker refuses the lease —
    its records would be ignored as stale by the store anyway)."""

    TYPE = "task-lease"

    lease: str
    generator: str
    task: _GroupTask

    def to_wire(self) -> Dict[str, Any]:
        return {"type": self.TYPE, "lease": self.lease,
                "generator": self.generator,
                "task": task_to_wire(self.task)}


@dataclass(frozen=True)
class TaskResult:
    """A completed task's point records plus the worker's baseline-memo
    snapshot (sidecar entries for this task's trace)."""

    TYPE = "point-records"

    lease: str
    worker: str
    records: Tuple[Dict[str, Any], ...]
    baselines: Dict[str, Dict[str, Any]]

    def to_wire(self) -> Dict[str, Any]:
        return {"type": self.TYPE, "lease": self.lease,
                "worker": self.worker, "records": list(self.records),
                "baselines": self.baselines}


@dataclass(frozen=True)
class TaskFailed:
    """A structured failure report: the :class:`TaskFailure` shape
    (``kind`` ∈ {"error", "worker-died"}, deterministic one-line
    ``error``) so quarantine records match the inline runner's."""

    TYPE = "task-failed"

    lease: str
    worker: str
    kind: str
    error: str

    def to_wire(self) -> Dict[str, Any]:
        return {"type": self.TYPE, "lease": self.lease,
                "worker": self.worker, "kind": self.kind,
                "error": self.error}


@dataclass(frozen=True)
class Heartbeat:
    """A lease keep-alive; ``beat`` is the worker's monotonic counter
    for this lease (purely diagnostic — any heartbeat renews)."""

    TYPE = "heartbeat"

    lease: str
    worker: str
    beat: int

    def to_wire(self) -> Dict[str, Any]:
        return {"type": self.TYPE, "lease": self.lease,
                "worker": self.worker, "beat": self.beat}


@dataclass(frozen=True)
class TraceAd:
    """One advertised trace archive in the coordinator's store listing
    (an entry of the ``traces`` payload): the store filename, byte
    size, and transfer SHA-256 a replica must re-hash to.  Not a
    top-level wire frame — it nests inside the JSON listing — but it
    gets the same strict decode treatment so a worker never acts on a
    garbled advertisement."""

    key: str
    size: int
    sha256: str

    def to_wire(self) -> Dict[str, Any]:
        return {"key": self.key, "size": self.size, "sha256": self.sha256}


_TRACE_AD_KEYS = frozenset({"key", "size", "sha256"})

_SHA256_HEX = frozenset("0123456789abcdef")


def trace_ad_from_wire(document: Any, label: str = "trace") -> TraceAd:
    """Validate one listing entry into a :class:`TraceAd` (strict: key
    set, types, a well-formed 64-hex digest, a non-negative size)."""
    document = _require_mapping(document, label)
    _require_keys(label, document, _TRACE_AD_KEYS)
    ad = TraceAd(
        key=_field(document, "key", str, label, "a string"),
        size=_field(document, "size", int, label, "an integer"),
        sha256=_field(document, "sha256", str, label, "a string"),
    )
    if ad.size < 0:
        raise ProtocolError(f"{label}.size cannot be negative")
    if len(ad.sha256) != 64 or not set(ad.sha256) <= _SHA256_HEX:
        raise ProtocolError(f"{label}.sha256 is not a lowercase hex "
                            "SHA-256 digest")
    if not ad.key:
        raise ProtocolError(f"{label}.key cannot be empty")
    return ad


Document = Union[TaskLease, TaskResult, TaskFailed, Heartbeat]


def encode(document: Document) -> bytes:
    """Canonical JSON bytes of a wire document (sorted keys, compact
    separators — byte-stable under encode → decode → encode)."""
    return _canonical(document.to_wire())


def _decode_lease(document: Mapping[str, Any]) -> TaskLease:
    _require_keys("task-lease", document, _LEASE_KEYS)
    return TaskLease(
        lease=_field(document, "lease", str, "task-lease", "a string"),
        generator=_field(document, "generator", str, "task-lease",
                         "a string"),
        task=task_from_wire(document["task"]),
    )


def _decode_records(document: Mapping[str, Any]) -> TaskResult:
    _require_keys("point-records", document, _RECORDS_KEYS)
    raw_records = document["records"]
    if not isinstance(raw_records, list):
        raise ProtocolError("point-records.records must be a list, got "
                            f"{_type_name(raw_records)}")
    for position, record in enumerate(raw_records):
        record = _require_mapping(record,
                                  f"point-records.records[{position}]")
        if not isinstance(record.get("hash"), str):
            raise ProtocolError(
                f"point-records.records[{position}] has no string 'hash' "
                "field; the store could not key it")
    baselines = _require_mapping(document["baselines"],
                                 "point-records.baselines")
    for key, value in baselines.items():
        if not isinstance(key, str):
            raise ProtocolError("point-records.baselines keys must be "
                                "strings")
        _require_mapping(value, f"point-records.baselines[{key!r}]")
    return TaskResult(
        lease=_field(document, "lease", str, "point-records", "a string"),
        worker=_field(document, "worker", str, "point-records", "a string"),
        records=tuple(dict(record) for record in raw_records),
        baselines={key: dict(value) for key, value in baselines.items()},
    )


def _decode_failed(document: Mapping[str, Any]) -> TaskFailed:
    _require_keys("task-failed", document, _FAILED_KEYS)
    return TaskFailed(
        lease=_field(document, "lease", str, "task-failed", "a string"),
        worker=_field(document, "worker", str, "task-failed", "a string"),
        kind=_field(document, "kind", str, "task-failed", "a string"),
        error=_field(document, "error", str, "task-failed", "a string"),
    )


def _decode_heartbeat(document: Mapping[str, Any]) -> Heartbeat:
    _require_keys("heartbeat", document, _HEARTBEAT_KEYS)
    return Heartbeat(
        lease=_field(document, "lease", str, "heartbeat", "a string"),
        worker=_field(document, "worker", str, "heartbeat", "a string"),
        beat=_field(document, "beat", int, "heartbeat", "an integer"),
    )


_DECODERS = {
    TaskLease.TYPE: _decode_lease,
    TaskResult.TYPE: _decode_records,
    TaskFailed.TYPE: _decode_failed,
    Heartbeat.TYPE: _decode_heartbeat,
}


def decode_document(document: Any) -> Document:
    """Validate an already-parsed JSON object into a typed document."""
    document = _require_mapping(document, "frame")
    kind = document.get("type")
    if not isinstance(kind, str):
        raise ProtocolError("frame has no string 'type' field")
    decoder = _DECODERS.get(kind)
    if decoder is None:
        raise ProtocolError(f"unknown document type {kind!r}; known: "
                            f"{sorted(_DECODERS)}")
    return decoder(document)


def decode(data: Union[bytes, str]) -> Document:
    """Parse and validate one wire frame (raises :class:`ProtocolError`
    on anything malformed — truncated, extra keys, wrong types)."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(f"frame is not UTF-8: {error}") from error
    elif not isinstance(data, str):
        raise ProtocolError(f"frame must be bytes or str, got "
                            f"{_type_name(data)}")
    try:
        parsed = json.loads(data)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"frame is not valid JSON: {error}") from error
    return decode_document(parsed)
