"""Experiment harness: structure and shape checks at smoke scale.

These tests run every figure experiment on a tiny configuration — the
assertions check structure and lenient shape properties; the strict
paper-shape assertions live in ``benchmarks/`` where traces are long
enough for the statistics to settle.
"""

from dataclasses import replace

import pytest

from repro.experiments.ablations import run_source_ablation, run_temporal_ablation
from repro.experiments.common import (
    ExperimentConfig,
    QUICK_CONFIG,
    cumulative,
    format_table,
    normalize_histogram,
    traces_for,
)
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig7 import run_fig7
from repro.experiments.fig8 import geometry_for_size, run_fig8
from repro.experiments.fig9 import HISTORY_SIZES, run_fig9
from repro.experiments.fig10 import run_fig10

#: Tiny two-workload configuration shared by these tests.
SMOKE = replace(QUICK_CONFIG, instructions=150_000,
                workloads=("oltp-db2", "dss-qry2"))


class TestCommon:
    def test_traces_cached_and_sized(self):
        traces = traces_for(SMOKE, "oltp-db2")
        assert len(traces) == SMOKE.cores
        assert traces[0].bundle.instructions >= SMOKE.instructions

    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [["x", "y"], ["long", "z"]],
                             title="t")
        lines = table.splitlines()
        assert lines[0] == "t"
        assert len({len(line) for line in lines[1:]}) <= 2

    def test_histogram_helpers(self):
        normalized = normalize_histogram({1: 3, 2: 1})
        assert normalized[1] == pytest.approx(0.75)
        cdf = cumulative(normalized)
        assert cdf[2] == pytest.approx(1.0)

    def test_experiment_config_validation(self):
        config = ExperimentConfig()
        assert config.cache.capacity_bytes == 32 * 1024
        assert config.pif.sab_window_regions == 3


class TestFig2:
    def test_structure_and_bounds(self):
        result = run_fig2(SMOKE)
        assert set(result.coverage) == set(SMOKE.workloads)
        for row in result.coverage.values():
            assert set(row) == {"miss", "access", "retire", "retire_sep"}
            for value in row.values():
                assert 0.0 <= value <= 1.0
        assert "Figure 2" in result.to_table()

    def test_retire_sep_at_least_miss(self):
        result = run_fig2(SMOKE)
        for workload in SMOKE.workloads:
            row = result.coverage[workload]
            assert row["retire_sep"] >= row["miss"] - 0.05


class TestFig3:
    def test_distributions_sum_to_one(self):
        result = run_fig3(SMOKE)
        for workload in SMOKE.workloads:
            assert sum(result.density[workload].values()) == pytest.approx(1.0)
            assert sum(result.discontinuity[workload].values()) == \
                pytest.approx(1.0)
            assert result.multi_block_fraction(workload) > 0.2


class TestFig7:
    def test_cdf_monotone_ending_at_one(self):
        result = run_fig7(SMOKE)
        for workload in SMOKE.workloads:
            values = [v for _, v in sorted(result.cdf[workload].items())]
            assert values == sorted(values)
            assert values[-1] == pytest.approx(1.0)


class TestFig8:
    def test_geometry_for_size(self):
        assert geometry_for_size(1).total_blocks == 1
        assert geometry_for_size(8).preceding == 2
        assert geometry_for_size(8).succeeding == 5
        assert geometry_for_size(4).total_blocks == 4
        with pytest.raises(ValueError):
            geometry_for_size(0)

    def test_structure(self):
        result = run_fig8(SMOKE)
        for workload in SMOKE.workloads:
            profile = result.offset_profile[workload]
            assert sum(profile.values()) == pytest.approx(1.0)
            assert set(result.size_coverage[workload]) == {1, 2, 4, 6, 8}


class TestFig9:
    def test_history_sweep_series(self):
        result = run_fig9(SMOKE)
        for workload in SMOKE.workloads:
            series = result.history_coverage[workload]
            assert set(series) == set(HISTORY_SIZES)
            assert series[HISTORY_SIZES[-1]] >= series[HISTORY_SIZES[0]] - 0.02


class TestFig10:
    def test_engines_and_speedups(self):
        result = run_fig10(SMOKE)
        for workload in SMOKE.workloads:
            assert set(result.coverage[workload]) == {
                "next-line", "tifs", "pif"}
            speedup = result.speedup[workload]
            assert speedup["baseline"] == 1.0
            assert speedup["perfect"] >= 1.0
        assert result.mean_speedup("perfect") >= result.mean_speedup("pif") - 0.03


class TestAblations:
    def test_temporal_ablation_settings(self):
        result = run_temporal_ablation(
            replace(SMOKE, workloads=("dss-qry2",)))
        assert set(result.coverage["dss-qry2"]) == {"0", "1", "2", "4", "8"}

    def test_source_ablation_shape(self):
        result = run_source_ablation(replace(SMOKE, workloads=("oltp-db2",)))
        row = result.coverage["oltp-db2"]
        assert set(row) == {"retire", "fetch"}
