"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments.runner import build_parser as experiments_parser


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.workload == "oltp-db2"
        assert args.instructions == 400_000

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--workload", "spec2017"])

    def test_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--engine", "boomerang"])

    @pytest.mark.parametrize("parser,command", [
        (build_parser, ["compare"]),
        (build_parser, ["traces", "build"]),
        (experiments_parser, []),  # python -m repro.experiments
    ], ids=["compare", "traces-build", "experiments"])
    def test_rejects_nonpositive_jobs(self, parser, command):
        # --jobs is validated when the arguments are parsed, so no
        # command body ever sees a value below 1.
        with pytest.raises(SystemExit) as bad_jobs:
            parser().parse_args([*command, "--jobs", "0"])
        assert bad_jobs.value.code == 2


class TestCommands:
    def test_trace_prints_characterization(self, capsys):
        code = main(["trace", "--workload", "dss-qry2",
                     "--instructions", "30000", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "touched footprint" in out
        assert "wrong-path fraction" in out

    def test_trace_saves_bundle(self, tmp_path, capsys):
        target = tmp_path / "out"
        code = main(["trace", "--workload", "dss-qry2",
                     "--instructions", "30000", "--seed", "3",
                     "--output", str(target)])
        assert code == 0
        from repro.trace.serialize import load_bundle

        bundle = load_bundle(target.with_suffix(".npz"))
        assert bundle.workload == "dss-qry2"

    def test_simulate_reports_coverage(self, capsys):
        code = main(["simulate", "--workload", "dss-qry2",
                     "--instructions", "60000", "--seed", "3",
                     "--engine", "pif", "--cache-kb", "16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "miss coverage" in out

    def test_compare_matrix(self, capsys):
        code = main(["compare", "--instructions", "30000", "--seed", "3",
                     "--engines", "next-line,pif", "--cache-kb", "16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "oltp-db2" in out and "web-zeus" in out

    def test_compare_rejects_bad_engine_list(self, capsys):
        code = main(["compare", "--engines", "pif,nonsense"])
        assert code == 2


class TestTracesCommands:
    def test_build_ls_gc_cycle(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        code = main(["traces", "build", "--store", store,
                     "--workloads", "dss-qry2", "--instructions", "30000",
                     "--seed", "3", "--cores", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("built") >= 2

        code = main(["traces", "build", "--store", store,
                     "--workloads", "dss-qry2", "--instructions", "30000",
                     "--seed", "3", "--cores", "2"])
        assert code == 0
        assert "2 already cached" in capsys.readouterr().out

        code = main(["traces", "ls", "--store", store])
        assert code == 0
        out = capsys.readouterr().out
        assert "dss-qry2" in out and "current" in out

        code = main(["traces", "gc", "--store", store, "--all"])
        assert code == 0
        assert "removed 2" in capsys.readouterr().out

    def test_ls_format_json(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["traces", "build", "--store", store,
                     "--workloads", "dss-qry2", "--instructions", "30000",
                     "--seed", "3", "--cores", "1"]) == 0
        capsys.readouterr()
        assert main(["traces", "ls", "--store", store,
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["store"] == store
        assert len(payload["generator"]) == 12
        assert len(payload["entries"]) == 1
        entry = payload["entries"][0]
        assert entry["workload"] == "dss-qry2"
        assert entry["state"] == "current"
        assert entry["instructions"] == 30000
        assert entry["size_bytes"] > 0

    def test_build_accepts_jobs_auto(self, tmp_path, capsys):
        code = main(["traces", "build", "--store", str(tmp_path / "s"),
                     "--workloads", "dss-qry2", "--instructions", "30000",
                     "--seed", "3", "--cores", "1", "--jobs", "auto"])
        assert code == 0

    def test_build_rejects_unknown_workload(self, tmp_path, capsys):
        code = main(["traces", "build", "--store", str(tmp_path),
                     "--workloads", "spec2017"])
        assert code == 2

    def test_commands_error_when_store_disabled(self, monkeypatch, capsys):
        from repro.trace.store import STORE_ENV

        monkeypatch.setenv(STORE_ENV, "off")
        assert main(["traces", "ls"]) == 2
        assert main(["traces", "gc"]) == 2
        assert main(["traces", "build"]) == 2


class TestSweepCommands:
    @pytest.fixture()
    def spec_path(self, tmp_path):
        spec = {
            "name": "cli-sweep",
            "sweep": {
                "workloads": ["dss-qry2"],
                "instructions": 30_000,
                "seeds": 3,
                "cache": {"kb": 16},
                "engines": ["next-line", "tifs"],
            },
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_run_status_report_cycle(self, spec_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["sweep", "run", "--spec", spec_path,
                     "--out", out]) == 0
        captured = capsys.readouterr()
        assert "2 points computed" in captured.out

        assert main(["sweep", "status", "--out", out]) == 0
        status = capsys.readouterr().out
        assert "cli-sweep" in status and "complete" in status

        assert main(["sweep", "report", "--out", out]) == 0
        report = capsys.readouterr().out
        assert "dss-qry2" in report and "next-line" in report
        assert "Miss coverage" in report

        assert main(["sweep", "report", "--out", out,
                     "--format", "csv"]) == 0
        csv_out = capsys.readouterr().out
        assert csv_out.startswith("workload,engine,points,coverage")

    def test_status_format_json(self, spec_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["sweep", "run", "--spec", spec_path,
                     "--out", out, "--jobs", "auto"]) == 0
        capsys.readouterr()
        assert main(["sweep", "status", "--out", out,
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "cli-sweep"
        assert payload["points"] == 2
        assert payload["computed"] == 2
        assert payload["missing"] == 0
        assert payload["complete"] is True

    def test_status_format_json_incomplete(self, spec_path, tmp_path,
                                           capsys):
        out = str(tmp_path / "out")
        assert main(["sweep", "run", "--spec", spec_path, "--out", out,
                     "--limit", "1"]) == 1
        capsys.readouterr()
        assert main(["sweep", "status", "--out", out,
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["computed"] == 1
        assert payload["missing"] == 1
        assert payload["complete"] is False

    def test_run_with_limit_exits_nonzero_until_complete(self, spec_path,
                                                         tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["sweep", "run", "--spec", spec_path, "--out", out,
                     "--limit", "1"]) == 1
        assert "1 remaining" in capsys.readouterr().out
        assert main(["sweep", "run", "--spec", spec_path,
                     "--out", out]) == 0
        assert "1 already stored" in capsys.readouterr().out

    def test_status_without_run_or_spec_errors(self, tmp_path, capsys):
        assert main(["sweep", "status", "--out",
                     str(tmp_path / "nowhere")]) == 2
        assert "no scenario recorded" in capsys.readouterr().err

    def test_invalid_spec_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "sweep": {
            "workloads": ["dss-qry2"], "instructions": 1000,
            "engines": ["boomerang"]}}))
        assert main(["sweep", "run", "--spec", str(bad),
                     "--out", str(tmp_path / "out")]) == 2
        assert "boomerang" in capsys.readouterr().err

    def test_rejects_bad_flags(self, spec_path, tmp_path, capsys):
        # --jobs is validated by argparse now ('auto' or positive int).
        with pytest.raises(SystemExit) as bad_jobs:
            main(["sweep", "run", "--spec", spec_path,
                  "--out", str(tmp_path), "--jobs", "0"])
        assert bad_jobs.value.code == 2
        with pytest.raises(SystemExit):
            main(["sweep", "run", "--spec", spec_path,
                  "--out", str(tmp_path), "--jobs", "many"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "report", "--out", "x",
                                       "--format", "xml"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "run", "--out", "x"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "run", "--spec", "x",
                                       "--out", "x", "--transport",
                                       "carrier-pigeon"])
        assert main(["sweep", "run", "--spec", spec_path,
                     "--out", str(tmp_path), "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err
        assert main(["sweep", "run", "--spec", spec_path,
                     "--out", str(tmp_path), "--lease-timeout", "0"]) == 2
        assert "--lease-timeout" in capsys.readouterr().err
        # Counts are validated when the arguments are parsed, so no
        # command prints an empty table or dies in a traceback on them.
        count_flags = [
            (build_parser, [command], flag)
            for command in ("trace", "simulate", "compare")
            for flag in ("--instructions", "--cache-kb")
        ] + [
            (build_parser, ["traces", "build"], flag)
            for flag in ("--instructions", "--cores")
        ] + [
            (experiments_parser, [], flag)
            for flag in ("--instructions", "--cores")
        ]
        for parser, command, flag in count_flags:
            for value in ("0", "-2", "many"):
                with pytest.raises(SystemExit) as bad_count:
                    parser().parse_args([*command, flag, value])
                assert bad_count.value.code == 2, (command, flag, value)
                assert flag in capsys.readouterr().err

    def test_status_format_json_reports_failed_distinctly(
            self, spec_path, tmp_path, capsys, monkeypatch):
        """Quarantined points surface under the ``failed`` count, not
        folded into ``missing`` (the pending set) — the documented
        docs/api.md sweep-summary contract."""
        from repro.faults import FAULT_PLAN_ENV
        from repro.faults import plan as plan_module

        out = str(tmp_path / "out")
        monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps({"faults": [
            {"site": "worker.task", "action": "raise", "match": "c0:",
             "times": None}]}))
        plan_module.reset()
        try:
            assert main(["sweep", "run", "--spec", spec_path, "--out",
                         out, "--max-retries", "0"]) == 3
        finally:
            monkeypatch.delenv(FAULT_PLAN_ENV)
            plan_module.reset()
        assert "quarantined" in capsys.readouterr().out

        assert main(["sweep", "status", "--out", out,
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed"] == 2
        assert payload["computed"] == 0
        # Failed points are counted exactly once — as failed, not as
        # missing/pending.
        assert payload["missing"] == 0
        assert payload["complete"] is False


class TestDistCommands:
    @pytest.fixture()
    def spec_path(self, tmp_path):
        spec = {
            "name": "cli-dist",
            "sweep": {
                "workloads": ["dss-qry2"],
                "instructions": 30_000,
                "seeds": 3,
                "cache": {"kb": 16},
                "engines": ["next-line", "tifs"],
            },
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_transport_local_matches_inline_bytes(self, spec_path,
                                                  tmp_path, capsys):
        inline = str(tmp_path / "inline")
        dist = str(tmp_path / "dist")
        assert main(["sweep", "run", "--spec", spec_path,
                     "--out", inline]) == 0
        assert main(["sweep", "run", "--spec", spec_path, "--out", dist,
                     "--transport", "local", "--workers", "2"]) == 0
        assert "2 points computed" in capsys.readouterr().out
        assert main(["sweep", "verify", "--out", inline,
                     "--repair"]) == 0
        assert main(["sweep", "verify", "--out", dist, "--repair"]) == 0
        capsys.readouterr()
        from pathlib import Path

        assert Path(inline, "results.jsonl").read_bytes() \
            == Path(dist, "results.jsonl").read_bytes()

    def test_worker_parser_and_validation(self, capsys):
        args = build_parser().parse_args(
            ["worker", "--coordinator", "http://127.0.0.1:8731"])
        assert args.worker_id is None and args.poll_interval == 0.5
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])  # --coordinator required
        assert main(["worker", "--coordinator", "http://127.0.0.1:1",
                     "--poll-interval", "0"]) == 2
        assert "--poll-interval" in capsys.readouterr().err

    def test_worker_against_dead_coordinator_exits_1(self, capsys):
        # Nothing listens on this port; the worker retries with backoff
        # then gives up with the transport exit code.
        assert main(["worker", "--coordinator", "http://127.0.0.1:9",
                     "--worker-id", "t0",
                     "--poll-interval", "0.01"]) == 1
        assert "giving up" in capsys.readouterr().err
