"""Wire-protocol locks: canonical round trips, typed rejection.

Two properties, Hypothesis-driven over generated documents:

* every valid frame round-trips encode → decode → encode
  *byte-identically* (the canonical-JSON contract the differential
  harness leans on);
* every malformed frame — truncated bytes, extra keys, wrong types,
  unknown document types, lane hashes that contradict their point
  identity — raises :class:`ProtocolError`, never a bare ``KeyError``
  or ``JSONDecodeError``.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.protocol import (Heartbeat, ProtocolError, TaskFailed,
                                 TaskLease, TaskResult, decode,
                                 decode_document, encode, task_from_wire,
                                 task_to_wire)
from repro.scenarios.runner import _GroupTask
from repro.scenarios.spec import SweepPoint, point_hash

# --------------------------------------------------------------------------
# strategies

#: Short lowercase identifiers — workload names, engine names, labels.
names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz-", min_size=1,
                max_size=12)

#: JSON-exact floats for the warmup fraction.
warmups = st.floats(min_value=0.0, max_value=0.95, allow_nan=False,
                    allow_infinity=False)

points = st.builds(
    SweepPoint,
    workload=names,
    instructions=st.integers(min_value=1, max_value=10**8),
    seed=st.integers(min_value=0, max_value=2**31),
    core=st.integers(min_value=0, max_value=63),
    warmup=warmups,
    capacity_bytes=st.integers(min_value=1024, max_value=2**24),
    associativity=st.integers(min_value=1, max_value=16),
    block_bytes=st.sampled_from([32, 64, 128]),
    replacement=st.sampled_from(["lru", "random"]),
    engine=names,
    params=st.dictionaries(names, st.integers(min_value=0, max_value=10**6),
                           max_size=4).map(
        lambda mapping: tuple(sorted(mapping.items()))),
    label=names,
    timing=st.booleans(),
)


def _task_from_points(parts) -> _GroupTask:
    lanes, attempt, baselines = parts
    first = lanes[0]
    return _GroupTask(
        workload=first.workload, instructions=first.instructions,
        seed=first.seed, core=first.core, warmup=first.warmup,
        lanes=tuple((point_hash(point), point) for point in lanes),
        baselines=baselines, attempt=attempt)


tasks = st.tuples(
    st.lists(points, min_size=1, max_size=3),
    st.integers(min_value=0, max_value=4),
    st.one_of(st.none(),
              st.dictionaries(names, st.fixed_dictionaries(
                  {"misses": st.integers(min_value=0, max_value=10**6)}),
                  max_size=2)),
).map(_task_from_points)

lease_ids = st.from_regex(r"lease-[0-9]{6}", fullmatch=True)

#: Record dicts as :func:`_run_group` emits them (shape only — the
#: protocol requires a string ``hash`` and passes the rest through).
records = st.fixed_dictionaries({
    "hash": st.text(alphabet="0123456789abcdef", min_size=8, max_size=64),
    "label": names,
    "generator": st.text(alphabet="0123456789abcdef", min_size=12,
                         max_size=12),
    "metrics": st.fixed_dictionaries(
        {"coverage": st.floats(allow_nan=False, allow_infinity=False)}),
})

documents = st.one_of(
    st.builds(TaskLease, lease=lease_ids,
              generator=st.text(alphabet="0123456789abcdef", min_size=12,
                                max_size=12),
              task=tasks),
    st.builds(TaskResult, lease=lease_ids, worker=names,
              records=st.lists(records, max_size=3).map(tuple),
              baselines=st.dictionaries(names, st.fixed_dictionaries(
                  {"misses": st.integers(min_value=0)}), max_size=2)),
    st.builds(TaskFailed, lease=lease_ids, worker=names,
              kind=st.sampled_from(["error", "worker-died"]),
              error=names),
    st.builds(Heartbeat, lease=lease_ids, worker=names,
              beat=st.integers(min_value=0, max_value=2**31)),
)


# --------------------------------------------------------------------------
# round trips


class TestRoundTrip:
    @settings(deadline=None)
    @given(documents)
    def test_encode_decode_encode_is_byte_identical(self, document):
        frame = encode(document)
        decoded = decode(frame)
        assert type(decoded) is type(document)
        assert encode(decoded) == frame

    @settings(deadline=None)
    @given(tasks)
    def test_task_wire_round_trip_is_exact(self, task):
        rebuilt = task_from_wire(task_to_wire(task))
        assert rebuilt == task

    @settings(deadline=None)
    @given(documents)
    def test_decode_accepts_str_frames_too(self, document):
        frame = encode(document)
        assert decode(frame.decode("utf-8")) == decode(frame)


# --------------------------------------------------------------------------
# malformed frames


class TestMalformed:
    @settings(deadline=None)
    @given(documents, st.data())
    def test_truncated_frames_raise_protocol_error(self, document, data):
        frame = encode(document)
        cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        with pytest.raises(ProtocolError):
            decode(frame[:cut])

    @settings(deadline=None)
    @given(documents, names)
    def test_extra_keys_raise_protocol_error(self, document, key):
        wire = document.to_wire()
        wire[f"x-{key}"] = 1
        with pytest.raises(ProtocolError):
            decode_document(wire)

    @settings(deadline=None)
    @given(documents)
    def test_wrong_lease_type_raises_protocol_error(self, document):
        wire = document.to_wire()
        wire["lease"] = 12345
        with pytest.raises(ProtocolError):
            decode_document(wire)

    def test_unknown_type_raises_protocol_error(self):
        with pytest.raises(ProtocolError, match="unknown document type"):
            decode_document({"type": "gossip"})

    def test_missing_type_raises_protocol_error(self):
        with pytest.raises(ProtocolError, match="no string 'type'"):
            decode_document({"lease": "lease-000001"})

    def test_non_object_frames_raise_protocol_error(self):
        for frame in (b"[]", b'"task-lease"', b"17", b"null"):
            with pytest.raises(ProtocolError):
                decode(frame)

    def test_invalid_json_raises_protocol_error(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode(b"{nope")

    def test_invalid_utf8_raises_protocol_error(self):
        with pytest.raises(ProtocolError, match="not UTF-8"):
            decode(b"\xff\xfe{}")

    @settings(deadline=None)
    @given(tasks)
    def test_lane_hash_mismatch_raises_protocol_error(self, task):
        wire = task_to_wire(task)
        wire["lanes"][0]["hash"] = "0" * 64
        with pytest.raises(ProtocolError, match="does not match"):
            task_from_wire(wire)

    @settings(deadline=None)
    @given(tasks)
    def test_label_is_carried_outside_the_hash(self, task):
        """Labels are display-only (excluded from point_hash), so the
        wire must carry them in the lane envelope — and changing one
        must still decode, with the label preserved."""
        wire = task_to_wire(task)
        wire["lanes"][0]["label"] = "renamed"
        rebuilt = task_from_wire(json.loads(json.dumps(wire)))
        assert rebuilt.lanes[0][1].label == "renamed"
        assert rebuilt.lanes[0][0] == wire["lanes"][0]["hash"]

    def test_heartbeat_bool_beat_is_rejected(self):
        wire = Heartbeat(lease="lease-000001", worker="w0",
                         beat=1).to_wire()
        wire["beat"] = True
        with pytest.raises(ProtocolError, match="beat"):
            decode_document(wire)

    def test_records_without_hash_are_rejected(self):
        wire = TaskResult(lease="lease-000001", worker="w0",
                          records=({"label": "x"},),
                          baselines={}).to_wire()
        with pytest.raises(ProtocolError, match="hash"):
            decode_document(wire)

    def test_empty_lane_list_is_rejected(self):
        document = {
            "type": "task-lease", "lease": "lease-000001",
            "generator": "0" * 12,
            "task": {"workload": "w", "instructions": 1, "seed": 0,
                     "core": 0, "warmup": 0.0,
                     "attempt": 0, "lanes": [], "baselines": None},
        }
        with pytest.raises(ProtocolError, match="non-empty"):
            decode_document(document)
