"""``repro lint`` CLI: exit codes, JSON schema, baseline round-trip.

The acceptance tests for the lint gate itself live here too: the repo's
own tree must lint clean against the committed baseline, and a
deliberately corrupted copy of a real kernel module must be caught.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import BASELINE_NAME, check_source
from repro.cli import build_parser, main

#: The repository root (tests/analysis/ is two levels down).
REPO_ROOT = Path(__file__).resolve().parents[2]

#: A violation reprolint flags everywhere (RL005 is unscoped).
VIOLATION = "def f(x=[]):\n    return x\n"

CLEAN = "def f(x=None):\n    return x\n"


def run_lint(*argv: str) -> int:
    return main(["lint", *argv])


class TestParser:
    def test_lint_subcommand_parses(self):
        args = build_parser().parse_args(["lint", "src", "--format",
                                          "json"])
        assert args.paths == ["src"]
        assert args.output_format == "json"

    def test_rejects_unknown_format(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lint", "--format", "yaml"])


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(CLEAN)
        assert run_lint("mod.py", "--root", str(tmp_path)) == 0
        assert "clean" in capsys.readouterr().out

    def test_finding_exits_one(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(VIOLATION)
        assert run_lint("mod.py", "--root", str(tmp_path)) == 1
        assert "RL005" in capsys.readouterr().out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        code = run_lint("nope.py", "--root", str(tmp_path))
        assert code == 2
        assert "no such path" in capsys.readouterr().err

    def test_malformed_baseline_exits_two(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(CLEAN)
        baseline = tmp_path / BASELINE_NAME
        baseline.write_text("{not json")
        code = run_lint("mod.py", "--root", str(tmp_path))
        assert code == 2
        assert "baseline" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert run_lint("--list-rules") == 0
        out = capsys.readouterr().out
        for code in ("RL001", "RL002", "RL003", "RL004",
                     "RL005", "RL006", "RL007", "RL008", "RL009"):
            assert code in out

    @pytest.mark.parametrize("module", [["repro", "lint"],
                                        ["repro.analysis"]])
    def test_closed_stdout_pipe_exits_without_a_traceback(self, module):
        """``repro lint --list-rules | head -1``: a reader that goes
        away must cost exit code 1, not a ``BrokenPipeError`` traceback.
        The pipe's read end is closed before the spawn, so the first
        write fails on every run."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", *module, "--list-rules"],
                stdout=write_end, stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
                timeout=60)
        finally:
            os.close(write_end)
        assert "Traceback" not in result.stderr.decode()
        assert result.returncode == 1


class TestJsonFormat:
    def test_schema(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(VIOLATION)
        code = run_lint("mod.py", "--root", str(tmp_path),
                        "--format", "json")
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["files_scanned"] == 1
        assert payload["clean"] is False
        assert payload["summary"] == {"total": 1, "new": 1,
                                      "baselined": 0,
                                      "unused_baseline": 0}
        (finding,) = payload["findings"]
        assert finding["code"] == "RL005"
        assert finding["file"] == "mod.py"
        assert finding["line"] == 1
        assert finding["baselined"] is False
        assert finding["context"] == "def f(x=[]):"
        assert len(finding["digest"]) == 16

    def test_clean_json(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(CLEAN)
        assert run_lint("mod.py", "--root", str(tmp_path),
                        "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["findings"] == []


class TestBaselineRoundTrip:
    def test_full_cycle(self, tmp_path, capsys):
        """Finding -> baseline -> clean -> code removed -> unused entry."""
        mod = tmp_path / "mod.py"
        mod.write_text(VIOLATION)
        root = ("--root", str(tmp_path))

        # New finding fails the run.
        assert run_lint("mod.py", *root) == 1
        # Grandfather it.
        assert run_lint("mod.py", *root, "--update-baseline") == 0
        baseline = json.loads(
            (tmp_path / BASELINE_NAME).read_text())
        assert len(baseline["entries"]) == 1
        assert baseline["entries"][0]["code"] == "RL005"
        # Baselined finding no longer fails.
        capsys.readouterr()
        assert run_lint("mod.py", *root) == 0
        assert "1 baselined" in capsys.readouterr().out
        # Fix the code: the stale baseline entry now fails the run.
        mod.write_text(CLEAN)
        capsys.readouterr()
        assert run_lint("mod.py", *root) == 1
        assert "no longer matches" in capsys.readouterr().out
        # --update-baseline clears the debt.
        assert run_lint("mod.py", *root, "--update-baseline") == 0
        assert run_lint("mod.py", *root) == 0

    def test_no_baseline_flag_ignores_entries(self, tmp_path):
        (tmp_path / "mod.py").write_text(VIOLATION)
        root = ("--root", str(tmp_path))
        assert run_lint("mod.py", *root, "--update-baseline") == 0
        assert run_lint("mod.py", *root) == 0
        assert run_lint("mod.py", *root, "--no-baseline") == 1

    def test_baseline_does_not_cover_new_findings(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(VIOLATION)
        root = ("--root", str(tmp_path))
        assert run_lint("mod.py", *root, "--update-baseline") == 0
        mod.write_text(VIOLATION + "def g(y={}):\n    return y\n")
        assert run_lint("mod.py", *root) == 1


class TestRepoTree:
    """The acceptance criteria: the real tree is clean, corruption is
    caught."""

    def test_repo_lints_clean(self, capsys):
        paths = [name for name in ("src", "tests", "benchmarks",
                                   "examples")
                 if (REPO_ROOT / name).is_dir()]
        code = run_lint(*paths, "--root", str(REPO_ROOT))
        out = capsys.readouterr().out
        assert code == 0, f"repo tree must lint clean:\n{out}"

    def test_corrupted_engine_is_caught(self, tmp_path):
        """Injecting random.random() into a copy of sim/engine.py is
        flagged by RL001 at the injected line."""
        real = (REPO_ROOT / "src/repro/sim/engine.py").read_text()
        sandbox = tmp_path / "src" / "repro" / "sim"
        sandbox.mkdir(parents=True)
        corrupted = real + ("\n\ndef _jitter():\n"
                            "    import random\n"
                            "    return random.random()\n")
        (sandbox / "engine.py").write_text(corrupted)
        rel = "src/repro/sim/engine.py"
        clean_findings = check_source(real, rel)
        assert clean_findings == []
        findings = check_source(corrupted, rel)
        assert [f.code for f in findings] == ["RL001"]
        assert findings[0].line == len(corrupted.splitlines())
        # And through the real CLI against the sandbox tree:
        assert run_lint("src", "--root", str(tmp_path),
                        "--no-baseline") == 1

    def test_corrupted_timing_wall_clock_is_caught(self, tmp_path):
        """A wall-clock read smuggled into sim/timing.py trips RL002."""
        real = (REPO_ROOT / "src/repro/sim/timing.py").read_text()
        corrupted = real + ("\n\ndef _stamp():\n"
                            "    import time\n"
                            "    return time.time()\n")
        findings = check_source(corrupted, "src/repro/sim/timing.py")
        assert [f.code for f in findings] == ["RL002"]
