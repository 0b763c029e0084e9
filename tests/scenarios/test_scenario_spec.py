"""Scenario spec parsing, validation, expansion, and hash stability.

The rule (DESIGN.md, "Scenario sweeps"): every axis the spec format
grows must round-trip through these tests — a validation case naming
the key, and an expansion case proving the axis lands in the point
identity (and therefore the hash).
"""

import json

import pytest

from repro.scenarios.spec import (ScenarioSpec, SpecError, SweepPoint,
                                  load_spec, parse_spec, point_hash)


def minimal(**sweep_overrides):
    """A valid one-point spec dict, with sweep keys overridden."""
    sweep = {
        "workloads": ["dss-qry2"],
        "instructions": 30_000,
        "engines": ["next-line"],
    }
    sweep.update(sweep_overrides)
    return {"name": "test", "sweep": sweep}


class TestValidation:
    def test_minimal_spec_parses(self):
        spec = parse_spec(minimal())
        assert isinstance(spec, ScenarioSpec)
        assert len(spec.points()) == 1

    @pytest.mark.parametrize("mutate, named_key", [
        (lambda raw: raw.pop("name"), "spec.name"),
        (lambda raw: raw.update(extra=1), "'extra'"),
        (lambda raw: raw["sweep"].update(warmupp=0.4), "'warmupp'"),
        (lambda raw: raw["sweep"].update(cache={"kbb": 32}), "'kbb'"),
        (lambda raw: raw["sweep"].pop("workloads"), "sweep.workloads"),
        (lambda raw: raw["sweep"].pop("instructions"), "sweep.instructions"),
        (lambda raw: raw["sweep"].update(workloads=["spec2017"]),
         "'spec2017'"),
        (lambda raw: raw["sweep"].update(mode="grid"), "sweep.mode"),
        (lambda raw: raw["sweep"].update(cores=0), "sweep.cores"),
        (lambda raw: raw["sweep"].update(timing="yes"), "sweep.timing"),
        (lambda raw: raw["sweep"].update(warmup=1.5), "sweep.warmup"),
        (lambda raw: raw["sweep"].update(instructions=-5),
         "sweep.instructions"),
        (lambda raw: raw["sweep"].update(
            cache={"replacement": "plru"}), "sweep.cache.replacement"),
    ])
    def test_bad_key_is_named(self, mutate, named_key):
        raw = minimal()
        mutate(raw)
        with pytest.raises(SpecError) as excinfo:
            parse_spec(raw)
        assert named_key in str(excinfo.value)

    @pytest.mark.parametrize("sweep_key, value", [
        ("workloads", []),
        ("instructions", []),
        ("seeds", []),
        ("engines", []),
    ])
    def test_empty_axis_rejected(self, sweep_key, value):
        with pytest.raises(SpecError, match=sweep_key):
            parse_spec(minimal(**{sweep_key: value}))

    def test_zip_length_mismatch_names_axes(self):
        raw = minimal(mode="zip", seeds=[1, 2, 3],
                      workloads=["dss-qry2", "web-zeus"])
        with pytest.raises(SpecError) as excinfo:
            parse_spec(raw)
        message = str(excinfo.value)
        assert "zip" in message
        assert "seeds=3" in message and "workloads=2" in message

    def test_engine_param_zip_mismatch(self):
        raw = minimal(engines=[{
            "name": "pif",
            "params": {"mode": "zip", "sab_count": [1, 2],
                       "sab_window_regions": [3, 5, 7]},
        }])
        with pytest.raises(SpecError, match="zip"):
            parse_spec(raw)

    def test_unknown_engine_named(self):
        with pytest.raises(SpecError, match="boomerang"):
            parse_spec(minimal(engines=["boomerang"]))

    def test_unknown_engine_param_named(self):
        raw = minimal(engines=[{"name": "pif",
                                "params": {"sab_windw": [3]}}])
        with pytest.raises(SpecError, match="sab_windw"):
            parse_spec(raw)

    def test_non_scalar_param_value_named(self):
        # YAML can produce dates, nested lists, null — anything that is
        # not a JSON scalar must fail at parse time naming the key, not
        # as a TypeError from the hash encoder.
        import datetime

        raw = minimal(engines=[{
            "name": "pif",
            "params": {"sab_count": [datetime.date(2020, 1, 1)]}}])
        with pytest.raises(SpecError, match="sab_count"):
            parse_spec(raw)
        raw = minimal(engines=[{"name": "pif",
                                "params": {"sab_count": [[1, 2]]}}])
        with pytest.raises(SpecError, match="sab_count"):
            parse_spec(raw)

    def test_out_of_range_param_value_fails_at_parse_time(self):
        # Constructor-rejected values (degree: 0) must surface as a
        # SpecError naming the entry, not a mid-sweep worker traceback.
        raw = minimal(engines=[{"name": "next-line",
                                "params": {"degree": 0}}])
        with pytest.raises(SpecError, match=r"engines\[0\]"):
            parse_spec(raw)
        raw = minimal(engines=[{"name": "pif",
                                "params": {"sab_count": -1}}])
        with pytest.raises(SpecError, match="SAB"):
            parse_spec(raw)

    def test_param_engine_mismatch_named(self):
        raw = minimal(engines=[{"name": "next-line",
                                "params": {"sab_count": [1]}}])
        with pytest.raises(SpecError, match="sab_count"):
            parse_spec(raw)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(SpecError, match="duplicate"):
            parse_spec(minimal(engines=["next-line", "next-line"]))

    def test_label_template_unknown_field(self):
        raw = minimal(engines=[{"name": "pif", "label": "{nope}",
                                "params": {"sab_count": [1]}}])
        with pytest.raises(SpecError, match="nope"):
            parse_spec(raw)

    def test_invalid_cache_geometry_names_cache(self):
        # 32 KB is not a whole number of 64 B x 3-way sets.
        with pytest.raises(SpecError, match="sweep.cache"):
            parse_spec(minimal(cache={"kb": 32, "assoc": 3, "line": 64}))


class TestExpansion:
    def test_product_counts_and_order(self):
        spec = parse_spec(minimal(
            workloads=["dss-qry2", "web-zeus"],
            seeds=[1, 2],
            cores=2,
            cache={"kb": [16, 32]},
            engines=["next-line", "tifs"],
        ))
        points = spec.points()
        assert len(points) == 2 * 2 * 2 * 2 * 2
        # Engines innermost (lanes of one trace are consecutive), then
        # cores, then the scalar axes outermost-first.
        assert [p.label for p in points[:4]] == ["next-line", "tifs"] * 2
        assert points[0].core == 0 and points[2].core == 1
        assert points[0].workload == points[15].workload == "dss-qry2"
        assert points[16].workload == "web-zeus"

    def test_zip_broadcasts_scalars(self):
        spec = parse_spec(minimal(
            mode="zip",
            workloads=["dss-qry2", "web-zeus"],
            instructions=[30_000, 60_000],
            seeds=7,
        ))
        points = spec.points()
        assert len(points) == 2
        assert (points[0].workload, points[0].instructions,
                points[0].seed) == ("dss-qry2", 30_000, 7)
        assert (points[1].workload, points[1].instructions,
                points[1].seed) == ("web-zeus", 60_000, 7)

    def test_engine_param_grids_product(self):
        spec = parse_spec(minimal(engines=[{
            "name": "pif",
            "params": {"sab_count": [1, 4], "sab_window_regions": [3, 7]},
        }]))
        labels = spec.labels()
        assert len(labels) == 4
        assert "pif[sab_count=1,sab_window_regions=3]" in labels

    def test_engine_label_template(self):
        spec = parse_spec(minimal(engines=[{
            "name": "pif",
            "label": "{sab_count}x{sab_window_regions}",
            "params": {"mode": "zip", "sab_count": [1, 4],
                       "sab_window_regions": [3, 3]},
        }]))
        assert spec.labels() == ["1x3", "4x3"]

    def test_duplicate_points_rejected(self):
        # Distinct labels, identical identity: the expansion must refuse
        # rather than let one stored record satisfy two columns.
        raw = minimal(engines=[
            {"name": "pif", "label": "a", "params": {"sab_count": 1}},
            {"name": "pif", "label": "b", "params": {"sab_count": 1}},
        ])
        with pytest.raises(SpecError, match="duplicate"):
            parse_spec(raw).points()

    def test_defaults_fill_in(self):
        point = parse_spec(minimal()).points()[0]
        assert point.seed == 42
        assert point.warmup == 0.4
        assert (point.capacity_bytes, point.associativity,
                point.block_bytes, point.replacement) == (
            32 * 1024, 2, 64, "lru")
        assert point.timing is False


class TestPointHash:
    def _point(self, **overrides):
        base = dict(workload="oltp-db2", instructions=100_000, seed=42,
                    core=0, warmup=0.4, capacity_bytes=32_768,
                    associativity=2, block_bytes=64, replacement="lru",
                    engine="pif",
                    params=(("sab_count", 4), ("sab_window_regions", 3)),
                    label="anything", timing=False)
        base.update(overrides)
        return SweepPoint(**base)

    def test_hash_is_stable_golden(self):
        # The hash keys the on-disk results store: a change here orphans
        # every stored sweep.  If this fails you changed the identity
        # encoding — bump deliberately and say so in DESIGN.md.
        assert point_hash(self._point()) == (
            "3a2b804a4379aa818c9312e99d4c469ec7928604"
            "da4ed2471a802c9ccfb2c41e")
        assert point_hash(self._point(
            workload="dss-qry2", instructions=30_000, seed=3, core=1,
            warmup=0.25, capacity_bytes=16_384, associativity=4,
            replacement="fifo", engine="next-line", params=(),
            label="nl", timing=True)) == (
            "309a91311b8446a351b683f8a22b17f91a805871"
            "355bfb80bb513cd52c7d8dc3")

    def test_label_excluded_from_identity(self):
        assert point_hash(self._point(label="a")) == point_hash(
            self._point(label="b"))

    def test_every_identity_field_changes_hash(self):
        base = point_hash(self._point())
        for overrides in (
                {"workload": "web-zeus"}, {"instructions": 1},
                {"seed": 1}, {"core": 1}, {"warmup": 0.1},
                {"capacity_bytes": 1024}, {"associativity": 1},
                {"block_bytes": 32}, {"replacement": "fifo"},
                {"engine": "tifs", "params": ()},
                {"params": (("sab_count", 8), ("sab_window_regions", 3))},
                {"timing": True}):
            assert point_hash(self._point(**overrides)) != base, overrides


class TestEngineRegistry:
    def test_registries_cover_the_same_engines_both_ways(self):
        """One source of truth: scenarios must accept exactly the
        factory's names plus the perfect L1-I (so a newly added engine
        cannot silently be unusable in sweeps), and the CLI's compare
        list must be the factory's names minus the ablation-only
        variants."""
        from repro.cli import ENGINE_NAMES as CLI_ENGINE_NAMES
        from repro.prefetch import PREFETCHER_NAMES
        from repro.scenarios.engines import ENGINE_PARAMS

        assert set(ENGINE_PARAMS) == set(PREFETCHER_NAMES) | {"perfect"}
        assert set(CLI_ENGINE_NAMES) == (
            set(PREFETCHER_NAMES) - {"pif-no-tlsep", "pif-access-order"})

    def test_every_scenario_engine_is_a_compare_engine(self):
        """A bare engine name in a scenario delegates to
        make_prefetcher, so every factory name must construct and match
        the factory's engine class."""
        from repro.prefetch import PREFETCHER_NAMES, make_prefetcher
        from repro.scenarios.engines import build_engine

        for name in PREFETCHER_NAMES:
            via_factory = make_prefetcher(name, block_bytes=64)
            via_scenarios = build_engine(name, {}, block_bytes=64)
            assert type(via_scenarios) is type(via_factory), name
            assert via_scenarios.name == via_factory.name

    def test_parameterized_pif_matches_factory_operating_point(self):
        """Paper-default PIF params spell out the same config the
        factory builds, so explicit params cannot drift silently."""
        from repro.prefetch import make_prefetcher
        from repro.scenarios.engines import build_engine

        explicit = build_engine("pif", {"sab_count": 4,
                                        "sab_window_regions": 7},
                                block_bytes=64)
        factory = make_prefetcher("pif", block_bytes=64)
        assert explicit.config == factory.config

    def test_perfect_requires_timing(self):
        """The perfect L1-I exists only in the timing model: a spec
        naming it without timing fails, naming the entry."""
        from repro.prefetch import NullPrefetcher
        from repro.scenarios.engines import build_engine

        with pytest.raises(SpecError, match=r"sweep\.engines\[1\]"):
            parse_spec(minimal(engines=["next-line", "perfect"]))
        spec = parse_spec(minimal(engines=["next-line", "perfect"],
                                  timing=True))
        assert spec.labels() == ["next-line", "perfect"]
        # Its lane walks with no prefetcher.
        assert type(build_engine("perfect", {}, 64)) is NullPrefetcher

    def test_access_order_lane_builds_access_order_pif(self):
        from repro.common.config import PIFConfig
        from repro.core.pif import AccessOrderPIF
        from repro.scenarios.engines import build_engine

        engine = build_engine("pif-access-order",
                              {"sab_count": 4, "sab_window_regions": 3,
                               "index_entries": 1024}, block_bytes=64)
        assert type(engine) is AccessOrderPIF
        assert engine.config == PIFConfig(sab_count=4, sab_window_regions=3,
                                          index_entries=1024)
        assert engine.separate_trap_levels and not engine.unbounded_index


class TestPackagedSpecs:
    """The specs Figure 10 and the ablations run state experiment
    scale: ExperimentConfig()'s cache, warmup, workloads, length, cores
    and seed, and ``repro compare``'s PIF point."""

    @staticmethod
    def specs():
        from repro.experiments.common import SPEC_DIR

        paths = sorted(SPEC_DIR.glob("*.yaml"))
        assert [path.stem for path in paths] == [
            "ablation-index", "ablation-replacement", "ablation-sab",
            "ablation-source", "ablation-temporal", "fig10"]
        return [load_spec(path) for path in paths]

    def test_specs_state_experiment_scale(self):
        from repro.experiments.common import ExperimentConfig

        config = ExperimentConfig()
        cache = config.cache
        for spec in self.specs():
            points = spec.points()
            assert spec.cores == config.cores, spec.name
            assert tuple(dict.fromkeys(p.workload for p in points)) == (
                config.workloads), spec.name
            replacements = ["lru", "fifo", "random"] if (
                spec.name == "ablation-replacement") else [cache.replacement]
            assert list(dict.fromkeys(p.replacement for p in points)) == (
                replacements), spec.name
            for point in points:
                assert (point.instructions, point.seed, point.warmup) == (
                    config.instructions, config.seed,
                    config.warmup_fraction), spec.name
                assert (point.capacity_bytes, point.associativity,
                        point.block_bytes) == (
                    cache.capacity_bytes, cache.associativity,
                    cache.block_bytes), spec.name

    def test_specs_run_the_compare_pif_point(self):
        """Every PIF lane outside the SAB grid is ``repro compare``'s
        ``pif`` with at most the ablated knob changed."""
        from dataclasses import replace

        from repro.cli import _engine
        from repro.scenarios.engines import build_engine

        compare = _engine("pif").config
        lanes = 0
        for spec in self.specs():
            if spec.name == "ablation-sab":
                continue  # the grid varies the SAB point itself
            for point in spec.points():
                if not point.engine.startswith("pif"):
                    continue
                params = dict(point.params)
                ablated = {key: value for key, value in params.items()
                           if key in ("temporal_compactor_entries",
                                      "index_entries")}
                built = build_engine(point.engine, params, point.block_bytes)
                assert built.config == replace(compare, **ablated), (
                    spec.name, point.label)
                lanes += 1
        assert lanes


class TestFileLoading:
    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(minimal()))
        spec = load_spec(path)
        assert spec.name == "test"
        # source survives a JSON round trip (what run persists).
        assert parse_spec(spec.source).points() == spec.points()

    def test_yaml_round_trip(self, tmp_path):
        pytest.importorskip("yaml")
        path = tmp_path / "scenario.yaml"
        path.write_text(
            "name: yam\n"
            "sweep:\n"
            "  workloads: [dss-qry2]\n"
            "  instructions: 30000\n"
            "  engines: [next-line]\n")
        assert load_spec(path).name == "yam"

    def test_sweep_overrides_replace_keys(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(minimal(instructions=1_600_000)))
        spec = load_spec(path, sweep_overrides={"instructions": 30_000,
                                                "cores": 2})
        points = spec.points()
        assert all(p.instructions == 30_000 for p in points)
        assert {p.core for p in points} == {0, 1}

    def test_missing_file_is_spec_error(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read"):
            load_spec(tmp_path / "absent.yaml")

    def test_unknown_extension_rejected(self, tmp_path):
        path = tmp_path / "scenario.toml"
        path.write_text("x = 1\n")
        with pytest.raises(SpecError, match="toml"):
            load_spec(path)

    def test_checked_in_scenarios_parse(self, repo_root):
        names = {path.name
                 for path in (repo_root / "examples"
                              / "scenarios").glob("*.yaml")}
        assert {"sab-ablation.yaml", "geometry.yaml",
                "seed-sensitivity.yaml", "ci-smoke.yaml"} <= names
        for name in sorted(names):
            spec = load_spec(repo_root / "examples" / "scenarios" / name)
            assert spec.points(), name
