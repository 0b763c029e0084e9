"""The append-only JSONL results store: durability and filtering."""

import json

from repro.scenarios.results import ResultsStore, current_generator


def record(digest, generator=None, coverage=0.5):
    return {
        "hash": digest,
        "generator": generator or current_generator(),
        "label": "pif",
        "point": {"workload": "dss-qry2"},
        "metrics": {"coverage": coverage},
    }


class TestResultsStore:
    def test_append_load_round_trip(self, tmp_path):
        store = ResultsStore(tmp_path / "out")
        store.append_all([record("a" * 64)])
        store.append_all([record("b" * 64), record("c" * 64)])
        loaded = store.load()
        assert set(loaded) == {"a" * 64, "b" * 64, "c" * 64}
        assert loaded["b" * 64]["metrics"]["coverage"] == 0.5

    def test_newest_record_wins(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.append_all([record("a" * 64, coverage=0.1)])
        store.append_all([record("a" * 64, coverage=0.9)])
        assert store.load()["a" * 64]["metrics"]["coverage"] == 0.9

    def test_truncated_tail_is_skipped(self, tmp_path):
        # A killed run leaves at most one partial trailing line; load
        # must drop it (the point is simply recomputed on resume).
        store = ResultsStore(tmp_path)
        store.append_all([record("a" * 64)])
        store.append_all([record("b" * 64)])
        text = store.records_path.read_text()
        store.records_path.write_text(text[:-25])
        loaded = store.load()
        assert "a" * 64 in loaded
        assert "b" * 64 not in loaded

    def test_non_dict_json_lines_are_skipped(self, tmp_path):
        # Valid JSON that is not an object (null, arrays, bare numbers)
        # must be tolerated like any other corrupt line, not crash load.
        store = ResultsStore(tmp_path)
        store.append_all([record("a" * 64)])
        with open(store.records_path, "a") as handle:
            handle.write("null\n[]\n42\n\"text\"\n{\"hash\": 7}\n")
        assert set(store.load()) == {"a" * 64}

    def test_load_current_filters_stale_generators(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.append_all([record("a" * 64, generator="0" * 12)])
        store.append_all([record("b" * 64)])
        assert set(store.load()) == {"a" * 64, "b" * 64}
        assert set(store.load_current()) == {"b" * 64}

    def test_missing_file_loads_empty(self, tmp_path):
        assert ResultsStore(tmp_path / "nowhere").load() == {}

    def test_merge_all_skips_exact_duplicates(self, tmp_path):
        store = ResultsStore(tmp_path)
        first = record("a" * 64)
        assert store.merge_all([first]) == 1
        # The replayed copy (byte-identical — the duplicate-lease race)
        # is dropped; the file does not grow.
        size = store.records_path.stat().st_size
        assert store.merge_all([dict(first)]) == 0
        assert store.records_path.stat().st_size == size
        assert store.merge_all([]) == 0

    def test_merge_all_appends_differing_records_newest_wins(
            self, tmp_path):
        store = ResultsStore(tmp_path)
        store.merge_all([record("a" * 64, coverage=0.1)])
        # A record that differs (a success superseding a quarantine,
        # say) is appended and wins by newest-wins.
        assert store.merge_all([record("a" * 64, coverage=0.9)]) == 1
        assert store.load()["a" * 64]["metrics"]["coverage"] == 0.9

    def test_duplicate_lease_race_converges_without_duplicates(
            self, tmp_path):
        """The coverage the distributed tier leans on: two writers hold
        (what they believe to be) a lease on the same group and report
        the same points.  Interleave their merges deterministically in
        every order — both directions must converge to one final
        record per point, with the store's *current* view identical
        regardless of who won the race."""
        records = [record("a" * 64), record("b" * 64)]
        worker_a = [dict(entry) for entry in records]
        worker_b = [dict(entry) for entry in records]

        interleavings = [
            ("a-then-b", [worker_a, worker_b]),
            ("b-then-a", [worker_b, worker_a]),
        ]
        views = []
        for label, order in interleavings:
            store = ResultsStore(tmp_path / label)
            appended = [store.merge_all(batch) for batch in order]
            # The loser's replay appends nothing.
            assert appended == [2, 0]
            loaded = store.load()
            assert sorted(loaded) == ["a" * 64, "b" * 64]
            # No duplicate final records: one line per point on disk.
            lines = [line for line
                     in store.records_path.read_text().splitlines()
                     if line.strip()]
            assert len(lines) == 2
            views.append(loaded)
        assert views[0] == views[1]

    def test_interleaved_point_level_race_converges(self, tmp_path):
        """Finer interleaving: the two writers alternate point by
        point (a, b, a, b).  Each point lands exactly once."""
        store = ResultsStore(tmp_path)
        a_records = [record("a" * 64), record("b" * 64)]
        b_records = [dict(entry) for entry in a_records]
        appended = [
            store.merge_all([a_records[0]]),
            store.merge_all([b_records[0]]),
            store.merge_all([a_records[1]]),
            store.merge_all([b_records[1]]),
        ]
        assert appended == [1, 0, 1, 0]
        lines = store.records_path.read_text().splitlines()
        assert len([line for line in lines if line.strip()]) == 2
        assert set(store.load()) == {"a" * 64, "b" * 64}

    def test_scenario_round_trip(self, tmp_path):
        store = ResultsStore(tmp_path)
        raw = {"name": "x", "sweep": {"instructions": 1}}
        store.write_scenario(raw)
        assert store.load_scenario() == raw
        # Overwrite is atomic-replace, no stale scratch file left.
        store.write_scenario({"name": "y"})
        assert store.load_scenario() == {"name": "y"}
        assert json.loads(store.scenario_path.read_text()) == {"name": "y"}
        assert not store.scenario_path.with_suffix(".json.tmp").exists()
