"""Workload specifications."""

import pytest

from repro.workloads.spec import (
    PAPER_WORKLOADS,
    WORKLOAD_GROUPS,
    WORKLOAD_NAMES,
    get_spec,
)


class TestRegistry:
    def test_six_paper_workloads(self):
        assert len(PAPER_WORKLOADS) == 6
        assert set(WORKLOAD_NAMES) == set(PAPER_WORKLOADS)

    def test_groups_cover_suites(self):
        assert [label for label, _ in WORKLOAD_GROUPS] == ["OLTP", "DSS", "Web"]
        grouped = [n for _, names in WORKLOAD_GROUPS for n in names]
        assert grouped == list(WORKLOAD_NAMES)

    def test_get_spec(self):
        assert get_spec("oltp-db2").suite == "oltp"

    def test_get_spec_error_lists_names(self):
        with pytest.raises(KeyError, match="oltp-db2"):
            get_spec("oltp-db3")

    def test_suite_characteristics(self):
        oltp = get_spec("oltp-db2")
        dss = get_spec("dss-qry2")
        web = get_spec("web-apache")
        # OLTP: biggest footprint; DSS: loopiest; Web: smallest functions.
        assert oltp.code_footprint_kb > dss.code_footprint_kb
        assert dss.mean_loop_iterations > oltp.mean_loop_iterations
        assert web.mean_function_blocks < oltp.mean_function_blocks
        assert dss.loop_trip_jitter < oltp.loop_trip_jitter


class TestValidation:
    def test_rejects_bad_probability(self):
        from dataclasses import replace

        with pytest.raises(ValueError):
            replace(get_spec("oltp-db2"), loop_probability=1.5)

    def test_rejects_bad_footprint(self):
        from dataclasses import replace

        with pytest.raises(ValueError):
            replace(get_spec("oltp-db2"), code_footprint_kb=0)

    def test_rejects_single_level(self):
        from dataclasses import replace

        with pytest.raises(ValueError):
            replace(get_spec("oltp-db2"), call_levels=1)
