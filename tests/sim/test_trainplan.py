"""PIF train plan: differential lock against the real compactors, and
the on-disk sidecar's cache semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.addressing import RegionGeometry
from repro.core.spatial import SpatialCompactor
from repro.core.temporal import TemporalCompactor
from repro.sim import trainplan as trainplan_module
from repro.sim.trainplan import (PIFTrainPlan, PLAN_DTYPES,
                                 build_train_plan, train_plan_for)
from repro.trace.bundle import TraceBundle


def reference_plan(retire_pcs, retire_traps, geometry, block_bytes,
                   separate, temporal_entries) -> PIFTrainPlan:
    """The schedule produced by driving the *real* compactor objects —
    the semantics the optimized builder must match exactly."""
    channels = {}
    at, key, trigger, survives, bits = [], [], [], [], []
    for index, (pc, trap_level) in enumerate(zip(retire_pcs, retire_traps)):
        channel_key = trap_level if separate else 0
        state = channels.get(channel_key)
        if state is None:
            state = (SpatialCompactor(geometry, block_bytes),
                     TemporalCompactor(temporal_entries))
            channels[channel_key] = state
        spatial, temporal = state
        was_open = spatial._trigger_pc is not None
        region = spatial.feed(pc, False)
        if not was_open:
            at.append(index)
            key.append(channel_key)
            trigger.append(-1)
            survives.append(False)
            bits.append(0)
        elif region is not None:
            at.append(index)
            key.append(channel_key)
            trigger.append(region.trigger_pc)
            survives.append(temporal.feed(region) is not None)
            bits.append(region.bits)
    return PIFTrainPlan(*(np.asarray(column, dtype=dtype) for column, dtype
                          in zip((at, key, trigger, survives, bits),
                                 PLAN_DTYPES)))


def assert_plans_equal(actual: PIFTrainPlan, expected: PIFTrainPlan):
    """Column-for-column equality, dtypes included."""
    for name, left, right in zip(PIFTrainPlan._fields, actual, expected):
        assert left.dtype == right.dtype, name
        np.testing.assert_array_equal(left, right, err_msg=name)


_pcs = st.integers(min_value=0, max_value=1 << 20)
_levels = st.integers(min_value=0, max_value=2)


class TestBuilderDifferential:
    @settings(max_examples=60, deadline=None)
    @given(stream=st.lists(st.tuples(_pcs, _levels), max_size=200),
           separate=st.booleans(),
           temporal_entries=st.sampled_from([0, 1, 4]))
    def test_matches_real_compactors(self, stream, separate,
                                     temporal_entries):
        pcs = [pc for pc, _ in stream]
        traps = [trap for _, trap in stream]
        geometry = RegionGeometry()
        built = build_train_plan(pcs, traps, geometry, 64, separate,
                                 temporal_entries)
        expected = reference_plan(pcs, traps, geometry, 64, separate,
                                  temporal_entries)
        assert_plans_equal(built, expected)

    def test_real_trace_schedule(self, oltp_trace):
        bundle = oltp_trace.bundle
        pcs = bundle.retire_pc.tolist()
        traps = bundle.retire_trap.tolist()
        built = build_train_plan(pcs, traps, RegionGeometry(), 64, True, 4)
        expected = reference_plan(pcs, traps, RegionGeometry(), 64, True, 4)
        assert_plans_equal(built, expected)
        assert (np.diff(built.at) > 0).all()  # one event max per index


def small_bundle():
    pcs = np.asarray([0x1000, 0x1040, 0x9000, 0x9040, 0x1000, 0x1040,
                      0x20000, 0x1000], dtype=np.int64)
    traps = np.zeros(len(pcs), dtype=np.uint8)
    return TraceBundle.from_columns(
        workload="plan-test", core=0, seed=1, block_bytes=64,
        retire_pc=pcs, retire_trap=traps,
        access_block=np.asarray([], dtype=np.int64),
        access_pc=np.asarray([], dtype=np.int64),
        access_trap=np.asarray([], dtype=np.uint8),
        access_wrong_path=np.asarray([], dtype=np.bool_),
        instructions=8)


class TestSidecar:
    def test_roundtrip_via_store(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path))
        bundle = small_bundle()
        plan = train_plan_for(bundle, RegionGeometry(), 64, True, 4)
        sidecars = list((tmp_path / "plans").glob("*.npz"))
        assert len(sidecars) == 1
        # A second bundle instance (fresh derived cache) must load the
        # identical plan from the sidecar instead of rebuilding.
        calls = []
        real = trainplan_module.build_train_plan
        monkeypatch.setattr(trainplan_module, "build_train_plan",
                            lambda *args: calls.append(args) or real(*args))
        loaded = train_plan_for(small_bundle(), RegionGeometry(), 64,
                                True, 4)
        assert not calls
        assert_plans_equal(loaded, plan)

    def test_corrupt_sidecar_rebuilds(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path))
        plan = train_plan_for(small_bundle(), RegionGeometry(), 64, True, 4)
        sidecar = next((tmp_path / "plans").glob("*.npz"))
        sidecar.write_bytes(b"not an archive")
        rebuilt = train_plan_for(small_bundle(), RegionGeometry(), 64,
                                 True, 4)
        assert_plans_equal(rebuilt, plan)
        # The corrupt file was healed: deleted and rewritten.
        assert next((tmp_path / "plans").glob("*.npz")).stat().st_size > 20

    def test_disabled_store_builds_in_memory(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_STORE", "off")
        plan = train_plan_for(small_bundle(), RegionGeometry(), 64, True, 4)
        assert len(plan.at)  # built fine, nothing persisted
        assert not (tmp_path / "plans").exists()

    def test_distinct_params_distinct_sidecars(self, monkeypatch,
                                               tmp_path):
        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path))
        train_plan_for(small_bundle(), RegionGeometry(), 64, True, 4)
        train_plan_for(small_bundle(), RegionGeometry(), 64, False, 4)
        train_plan_for(small_bundle(), RegionGeometry(), 64, True, 0)
        assert len(list((tmp_path / "plans").glob("*.npz"))) == 3

    def test_gc_all_clears_plans(self, monkeypatch, tmp_path):
        from repro.trace.store import TraceStore

        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path))
        train_plan_for(small_bundle(), RegionGeometry(), 64, True, 4)
        store = TraceStore(tmp_path)
        assert store.gc() == []  # default sweep leaves plans alone
        removed = store.gc(remove_all=True)
        assert removed and not list((tmp_path / "plans").glob("*"))


class TestPlanEquality:
    def test_memoized_in_bundle(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_STORE", "off")
        bundle = small_bundle()
        first = train_plan_for(bundle, RegionGeometry(), 64, True, 4)
        second = train_plan_for(bundle, RegionGeometry(), 64, True, 4)
        assert first is second

    def test_params_key_the_memo(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_STORE", "off")
        bundle = small_bundle()
        separated = train_plan_for(bundle, RegionGeometry(), 64, True, 4)
        merged = train_plan_for(bundle, RegionGeometry(), 64, False, 4)
        assert separated is not merged


@pytest.mark.parametrize("preceding,succeeding", [(0, 0), (2, 5), (7, 0)])
def test_geometries_match_reference(preceding, succeeding):
    pcs = [i * 64 for i in (0, 1, 2, 50, 51, 0, 3, 100, 1)]
    traps = [0] * len(pcs)
    geometry = RegionGeometry(preceding=preceding, succeeding=succeeding)
    assert_plans_equal(build_train_plan(pcs, traps, geometry, 64, True, 4),
                       reference_plan(pcs, traps, geometry, 64, True, 4))
