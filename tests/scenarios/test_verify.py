"""``repro sweep verify``: the store fsck and its repair contract."""

import hashlib
import json

import pytest

from repro.cli import main
from repro.scenarios import (ResultsStore, parse_spec, run_sweep,
                             verify_store)
from repro.scenarios.results import BaselineSidecar

#: One point, one trace group — the cheapest possible store to fsck.
TINY = {
    "name": "tiny",
    "sweep": {"workloads": ["dss-qry2"], "instructions": 30_000,
              "seeds": 3, "cache": {"kb": 16}, "engines": ["next-line"]},
}

quiet = {"log": lambda line: None}


def spec():
    return parse_spec(TINY)


@pytest.fixture()
def swept(tmp_path):
    """A completed tiny sweep directory plus its parsed record."""
    out = tmp_path / "out"
    summary = run_sweep(spec(), out, **quiet)
    assert summary.complete()
    line = ResultsStore(out).records_path.read_text().strip()
    return out, json.loads(line)


def canonical(record):
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def append_line(out, text):
    with open(ResultsStore(out).records_path, "a", encoding="utf-8") as fh:
        fh.write(text + "\n")


def kinds(report, severity=None):
    return [finding.kind for finding in report.findings
            if severity is None or finding.severity == severity]


class TestFindings:
    def test_clean_store_is_clean(self, swept):
        out, _ = swept
        report = verify_store(spec(), out)
        assert report.clean() and report.findings == []
        assert report.checked["records"] == 1

    def test_torn_trailing_line_is_an_error(self, swept):
        out, record = swept
        append_line(out, canonical(record)[:-9])  # sheared mid-record
        report = verify_store(spec(), out)
        assert kinds(report, "error") == ["bad-record"]

    def test_missing_envelope_fields_reported(self, swept):
        out, _ = swept
        append_line(out, json.dumps({"hash": "x", "metrics": {}}))
        report = verify_store(spec(), out)
        assert kinds(report, "error") == ["bad-record"]
        assert "lacks fields" in report.findings[0].detail

    def test_both_payloads_rejected(self, swept):
        out, record = swept
        broken = dict(record)
        broken["failed"] = {"attempts": 1}  # metrics AND failed
        append_line(out, canonical(broken))
        report = verify_store(spec(), out)
        assert kinds(report, "error") == ["bad-record"]

    def test_hash_mismatch_is_an_error(self, swept):
        out, record = swept
        tampered = dict(record)
        tampered["hash"] = "0" * 64
        append_line(out, canonical(tampered))
        report = verify_store(spec(), out)
        assert kinds(report, "error") == ["hash-mismatch"]

    def test_foreign_and_stale_records_are_notes(self, swept):
        out, record = swept
        foreign = dict(record)
        foreign["point"] = dict(record["point"], seed=99)
        foreign["hash"] = hashlib.sha256(
            canonical(foreign["point"]).encode()).hexdigest()
        append_line(out, canonical(foreign))
        stale = dict(record)
        stale["generator"] = "deadbeefdead"
        append_line(out, canonical(stale))
        report = verify_store(spec(), out)
        assert report.clean()  # notes, not errors
        assert sorted(kinds(report)) == ["foreign-record", "stale-record"]

    def test_quarantined_record_is_an_error(self, swept):
        out, record = swept
        failed = {key: value for key, value in record.items()
                  if key != "metrics"}
        failed["failed"] = {"attempts": 3, "kind": "error",
                            "error": "InjectedFault: injected"}
        append_line(out, canonical(failed))
        report = verify_store(spec(), out)
        assert kinds(report, "error") == ["quarantined"]
        assert "3 attempts" in report.errors()[0].detail

    def test_superseded_quarantine_is_not_an_error(self, swept):
        """The rerun-retries-quarantine flow: a failure followed by a
        newer success for the same point must verify clean."""
        out, record = swept
        failed = {key: value for key, value in record.items()
                  if key != "metrics"}
        failed["failed"] = {"attempts": 3, "kind": "error", "error": "x"}
        append_line(out, canonical(failed))
        append_line(out, canonical(record))  # success supersedes
        assert verify_store(spec(), out).clean()

    def test_damaged_sidecar_line_reported(self, swept):
        out, _ = swept
        sidecar = BaselineSidecar(out)
        with open(sidecar.path, "a", encoding="utf-8") as fh:
            fh.write('{"key": 42, "baseline": []}\n')
        report = verify_store(spec(), out)
        assert kinds(report, "error") == ["bad-baseline"]


class TestRepair:
    def test_repair_canonicalizes_and_rerun_is_a_noop(self, swept):
        out, record = swept
        append_line(out, canonical(record)[:-9])       # torn tail
        stale = dict(record)
        stale["generator"] = "deadbeefdead"
        append_line(out, canonical(stale))
        before = verify_store(spec(), out, repair=True)
        assert before.repaired
        after = verify_store(spec(), out)
        assert after.clean() and after.findings == []
        # The surviving success means the rerun recomputes nothing.
        summary = run_sweep(spec(), out, **quiet)
        assert (summary.skipped, summary.computed) == (1, 0)

    def test_repair_drops_quarantined_records_for_recompute(self, swept):
        out, record = swept
        store = ResultsStore(out)
        failed = {key: value for key, value in record.items()
                  if key != "metrics"}
        failed["failed"] = {"attempts": 3, "kind": "error", "error": "x"}
        append_line(out, canonical(failed))  # newest-wins: quarantined
        verify_store(spec(), out, repair=True)
        assert store.records_path.read_text() == ""  # nothing survived
        summary = run_sweep(spec(), out, **quiet)
        assert summary.computed == 1

    def test_repair_drops_damaged_sidecar_lines(self, swept):
        out, _ = swept
        sidecar = BaselineSidecar(out)
        good = len(sidecar.load_all()[0])
        with open(sidecar.path, "a", encoding="utf-8") as fh:
            fh.write("{torn\n")
        verify_store(spec(), out, repair=True)
        assert len(sidecar.load_all()[0]) == good
        assert "{torn" not in sidecar.path.read_text()

    def test_repair_deletes_corrupt_plan_cache(self, tmp_path):
        from repro.sim.trainplan import PLANS_DIR
        from repro.trace.store import TraceStore

        store = TraceStore.from_env()
        if store is None:
            pytest.skip("trace store disabled")
        plans = store.root / PLANS_DIR
        plans.mkdir(parents=True, exist_ok=True)
        bogus = plans / ("0" * 24 + "-test-corrupt.npz")
        bogus.write_bytes(b"not an npz archive")
        try:
            report = verify_store(None, tmp_path / "empty")
            assert "bad-plan" in kinds(report, "error")
            repaired = verify_store(None, tmp_path / "empty", repair=True)
            assert any("deleted corrupt plan" in action
                       for action in repaired.repaired)
            assert not bogus.exists()
        finally:
            bogus.unlink(missing_ok=True)


class TestCli:
    def test_exit_codes_and_json(self, swept, capsys):
        out, record = swept
        assert main(["sweep", "verify", "--out", str(out)]) == 0
        capsys.readouterr()

        append_line(out, canonical(record)[:-9])
        code = main(["sweep", "verify", "--out", str(out),
                     "--format", "json"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["clean"] is False
        assert [finding["kind"] for finding in doc["findings"]] \
            == ["bad-record"]

        assert main(["sweep", "verify", "--out", str(out),
                     "--repair"]) == 1  # reports what it repaired
        capsys.readouterr()
        assert main(["sweep", "verify", "--out", str(out)]) == 0

    def test_verify_without_scenario_still_checks_shape(self, tmp_path,
                                                        capsys):
        out = tmp_path / "bare"
        out.mkdir()
        (out / "results.jsonl").write_text("{torn\n")
        assert main(["sweep", "verify", "--out", str(out)]) == 1
        assert "bad-record" in capsys.readouterr().out
