"""On-disk trace format roundtrips and error paths (v3 mmap + v2
read-compat)."""

import json
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.bundle import TraceBundle
from repro.trace.records import FetchAccess, RetiredInstruction
from repro.trace.serialize import (
    TraceFormatError,
    load_bundle,
    load_bundle_extra,
    save_bundle,
    save_bundle_atomic,
)


def small_bundle():
    return TraceBundle(
        workload="roundtrip",
        core=3,
        seed=99,
        retires=[RetiredInstruction(0x40_0000, 0),
                 RetiredInstruction(0x40_0040, 1)],
        accesses=[FetchAccess(0x40_0000 >> 6, 0x40_0000, 0, False),
                  FetchAccess((0x40_0000 >> 6) + 9, 0x40_0240, 0, True)],
        instructions=17,
    )


class TestRoundtrip:
    def test_fields_survive(self, tmp_path):
        path = save_bundle(small_bundle(), tmp_path / "trace")
        loaded = load_bundle(path)
        original = small_bundle()
        assert loaded.workload == original.workload
        assert loaded.core == original.core
        assert loaded.seed == original.seed
        assert loaded.instructions == original.instructions
        assert loaded.retires == original.retires
        assert loaded.accesses == original.accesses

    def test_extension_appended(self, tmp_path):
        path = save_bundle(small_bundle(), tmp_path / "trace.bin")
        assert path.suffix == ".npz"

    def test_empty_streams(self, tmp_path):
        bundle = TraceBundle(workload="empty", core=0, seed=0)
        loaded = load_bundle(save_bundle(bundle, tmp_path / "e"))
        assert loaded.retires == []
        assert loaded.accesses == []

    def test_generated_trace_roundtrip(self, tmp_path, dss_trace):
        bundle = dss_trace.bundle
        loaded = load_bundle(save_bundle(bundle, tmp_path / "dss"))
        assert loaded.retires == bundle.retires
        assert loaded.accesses == bundle.accesses
        loaded.validate()

    def test_extra_metadata_roundtrip(self, tmp_path):
        extra = {"frontend_stats": {"conditional_branches": 7},
                 "note": "unit"}
        path = save_bundle(small_bundle(), tmp_path / "x", extra=extra)
        _, loaded_extra = load_bundle_extra(path)
        assert loaded_extra == extra

    def test_atomic_save_equivalent(self, tmp_path):
        plain = load_bundle(save_bundle(small_bundle(), tmp_path / "p"))
        atomic = load_bundle(save_bundle_atomic(small_bundle(),
                                                tmp_path / "a"))
        assert plain.retires == atomic.retires
        assert plain.accesses == atomic.accesses
        # Staging leaves no scratch behind, and nothing it ever writes
        # can be mistaken for an archive by a directory-level scan.
        assert not list((tmp_path / ".tmp").glob("*"))
        assert sorted(p.name for p in tmp_path.glob("*.npz")) == \
            ["a.npz", "p.npz"]


class TestFormatV3:
    def test_v3_members_are_stored_flat(self, tmp_path):
        path = save_bundle(small_bundle(), tmp_path / "flat")
        with zipfile.ZipFile(path) as archive:
            for info in archive.infolist():
                assert info.compress_type == zipfile.ZIP_STORED

    def test_v3_loads_as_readonly_memmap(self, tmp_path):
        path = save_bundle(small_bundle(), tmp_path / "m")
        loaded = load_bundle(path)
        # from_columns wraps the memmap in a zero-copy base-class view:
        # the backing object is the map, and the data stays read-only.
        assert isinstance(loaded.access_block.base, np.memmap)
        assert not loaded.access_block.flags.writeable
        with pytest.raises(ValueError):
            loaded.access_block[0] = 1
        assert loaded.retires == small_bundle().retires
        assert loaded.accesses == small_bundle().accesses

    def test_empty_columns_mmap(self, tmp_path):
        bundle = TraceBundle(workload="empty", core=0, seed=0)
        loaded = load_bundle(save_bundle(bundle, tmp_path / "e"))
        assert loaded.retires == [] and loaded.accesses == []

    def test_v2_write_and_read_compat(self, tmp_path):
        """The compressed PR 2 layout stays fully readable (and never
        maps), and the compat writer really emits version 2."""
        path = save_bundle(small_bundle(), tmp_path / "v2",
                           extra={"note": "old"}, format_version=2)
        with np.load(path) as archive:
            meta = json.loads(bytes(archive["meta"]).decode())
        assert meta["version"] == 2
        with zipfile.ZipFile(path) as archive:
            kinds = {info.compress_type for info in archive.infolist()}
        assert zipfile.ZIP_DEFLATED in kinds
        bundle, extra = load_bundle_extra(path)
        assert not isinstance(bundle.access_block.base, np.memmap)
        assert bundle.retires == small_bundle().retires
        assert bundle.accesses == small_bundle().accesses
        assert extra == {"note": "old"}

    def test_unknown_write_version_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_bundle(small_bundle(), tmp_path / "x", format_version=1)

    def test_v3_truncated_member_rejected(self, tmp_path):
        """A v3 archive whose column payload is cut short (but whose
        central directory was rebuilt) must be rejected, not mapped."""
        path = save_bundle(small_bundle(), tmp_path / "t")
        with zipfile.ZipFile(path) as archive:
            members = {info.filename: archive.read(info.filename)
                       for info in archive.infolist()}
        clipped = tmp_path / "clipped.npz"
        with zipfile.ZipFile(clipped, "w", zipfile.ZIP_STORED) as archive:
            for name, payload in members.items():
                if name == "access_block.npy":
                    payload = payload[:len(payload) - 4]
                archive.writestr(name, payload)
        with pytest.raises(TraceFormatError):
            load_bundle(clipped)

    def test_v3_meta_claiming_compressed_members_rejected(self, tmp_path):
        """Version-3 metadata over deflated members cannot be mapped
        and must fail loudly as a format error."""
        path = save_bundle(small_bundle(), tmp_path / "c")
        with zipfile.ZipFile(path) as archive:
            members = {info.filename: archive.read(info.filename)
                       for info in archive.infolist()}
        rezipped = tmp_path / "rezipped.npz"
        with zipfile.ZipFile(rezipped, "w",
                             zipfile.ZIP_DEFLATED) as archive:
            for name, payload in members.items():
                archive.writestr(name, payload)
        with pytest.raises(TraceFormatError):
            load_bundle(rezipped)


def _rewrite_meta(path, mutate):
    """Load an archive, apply ``mutate`` to its metadata, re-save."""
    with np.load(path) as archive:
        payload = {name: archive[name] for name in archive.files}
    meta = json.loads(bytes(payload["meta"]).decode())
    mutate(meta)
    payload["meta"] = np.frombuffer(
        json.dumps(meta).encode(), dtype=np.uint8)
    np.savez_compressed(path, **payload)


class TestErrorPaths:
    def test_version_mismatch_rejected(self, tmp_path):
        path = save_bundle(small_bundle(), tmp_path / "v")
        _rewrite_meta(path, lambda meta: meta.update(version=999))
        with pytest.raises(TraceFormatError):
            load_bundle(path)

    def test_missing_meta_field_rejected(self, tmp_path):
        path = save_bundle(small_bundle(), tmp_path / "m")
        _rewrite_meta(path, lambda meta: meta.pop("workload"))
        with pytest.raises(TraceFormatError):
            load_bundle(path)

    def test_missing_array_rejected(self, tmp_path):
        path = save_bundle(small_bundle(), tmp_path / "a")
        with np.load(path) as archive:
            payload = {name: archive[name] for name in archive.files}
        del payload["access_block"]
        np.savez_compressed(path, **payload)
        with pytest.raises(TraceFormatError):
            load_bundle(path)

    def test_column_length_disagreement_rejected(self, tmp_path):
        path = save_bundle(small_bundle(), tmp_path / "l")
        with np.load(path) as archive:
            payload = {name: archive[name] for name in archive.files}
        payload["retire_tl"] = payload["retire_tl"][:-1]
        np.savez_compressed(path, **payload)
        with pytest.raises(TraceFormatError):
            load_bundle(path)

    def test_truncated_archive_rejected(self, tmp_path):
        path = save_bundle(small_bundle(), tmp_path / "t")
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(TraceFormatError):
            load_bundle(path)

    def test_corrupt_bytes_rejected(self, tmp_path):
        path = tmp_path / "c.npz"
        path.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(TraceFormatError):
            load_bundle(path)

    def test_undecodable_meta_rejected(self, tmp_path):
        path = save_bundle(small_bundle(), tmp_path / "j")
        with np.load(path) as archive:
            payload = {name: archive[name] for name in archive.files}
        payload["meta"] = np.frombuffer(b"{not json", dtype=np.uint8)
        np.savez_compressed(path, **payload)
        with pytest.raises(TraceFormatError):
            load_bundle(path)

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_bundle(tmp_path / "absent.npz")

    def test_format_error_is_value_error(self):
        assert issubclass(TraceFormatError, ValueError)


_pcs = st.integers(min_value=0, max_value=2 ** 48 - 1)
_levels = st.integers(min_value=0, max_value=3)


@st.composite
def bundles(draw):
    """Arbitrary (not necessarily invariant-satisfying) bundles."""
    retires = draw(st.lists(
        st.builds(RetiredInstruction, pc=_pcs, trap_level=_levels),
        max_size=30))
    accesses = draw(st.lists(
        st.builds(FetchAccess, block=_pcs, pc=_pcs, trap_level=_levels,
                  wrong_path=st.booleans()),
        max_size=30))
    return TraceBundle(
        workload=draw(st.text(
            alphabet=st.characters(min_codepoint=97, max_codepoint=122),
            min_size=1, max_size=12)),
        core=draw(st.integers(min_value=0, max_value=15)),
        seed=draw(st.integers(min_value=0, max_value=2 ** 31)),
        retires=retires,
        accesses=accesses,
        instructions=draw(st.integers(min_value=0, max_value=2 ** 40)),
    )


class TestRoundtripProperty:
    @settings(max_examples=60, deadline=None)
    @given(bundle=bundles())
    def test_any_bundle_roundtrips(self, bundle, tmp_path_factory):
        path = tmp_path_factory.mktemp("prop") / "bundle"
        loaded = load_bundle(save_bundle(bundle, path))
        assert loaded.workload == bundle.workload
        assert loaded.core == bundle.core
        assert loaded.seed == bundle.seed
        assert loaded.block_bytes == bundle.block_bytes
        assert loaded.instructions == bundle.instructions
        assert loaded.retires == bundle.retires
        assert loaded.accesses == bundle.accesses
        assert np.array_equal(loaded.retire_pc, bundle.retire_pc)
        assert np.array_equal(loaded.access_wrong_path,
                              bundle.access_wrong_path)
