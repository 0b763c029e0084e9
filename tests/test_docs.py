"""Docs check: the README's command blocks must stay runnable, and
docs/api.md must match the service's actual HTTP contract.

Every ``repro ...`` and ``python -m repro.experiments ...`` line inside
a fenced code block of README.md is parsed through the real argument
parsers (``parse_args`` validates subcommands, flags, and choice values
without executing anything), and every ``examples/`` path a command
references must exist.  A README that drifts from the CLI — a renamed
flag, a deleted subcommand, a moved scenario file — fails here, in
tier-1, before a user ever copy-pastes it.

docs/api.md gets the same treatment against
:mod:`repro.service.schemas`: its ``### METHOD /path`` headings must
equal the route table, and every fenced ``json schema=NAME`` example
must satisfy that response schema — the schemas live responses are
built from — so the documented examples and the wire format cannot
diverge.
"""

import ast
import json
import re
import shlex

import pytest

from repro.cli import build_parser as cli_parser
from repro.experiments.runner import build_parser as experiments_parser

_FENCE = re.compile(r"```(?:bash|sh|console)?\n(.*?)```", re.DOTALL)


def readme_commands(repo_root):
    """Every command line in the README's fenced code blocks."""
    text = (repo_root / "README.md").read_text()
    commands = []
    for block in _FENCE.findall(text):
        for line in block.splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                commands.append(line)
    return commands


@pytest.fixture(scope="module")
def commands(repo_root):
    found = readme_commands(repo_root)
    assert found, "README.md has no fenced command blocks to check"
    return found


class TestReadmeCommands:
    def test_quickstart_surfaces_are_documented(self, commands):
        joined = "\n".join(commands)
        for needle in ("pip install -e .", "repro compare",
                       "repro traces build", "repro sweep run",
                       "python -m repro.experiments",
                       "python -m pytest -x -q"):
            assert needle in joined, f"README quickstart lost {needle!r}"

    def test_repro_commands_parse(self, commands):
        for command in commands:
            tokens = shlex.split(command)
            if tokens[:1] != ["repro"]:
                continue
            try:
                cli_parser().parse_args(tokens[1:])
            except SystemExit as error:  # argparse rejected it
                pytest.fail(f"README command does not parse: {command!r} "
                            f"(exit {error.code})")

    def test_experiment_runner_commands_parse(self, commands):
        for command in commands:
            tokens = shlex.split(command)
            if tokens[:3] != ["python", "-m", "repro.experiments"]:
                continue
            try:
                experiments_parser().parse_args(tokens[3:])
            except SystemExit as error:
                pytest.fail(f"README command does not parse: {command!r} "
                            f"(exit {error.code})")

    def test_referenced_example_files_exist(self, commands, repo_root):
        for command in commands:
            for token in shlex.split(command):
                if token.startswith("examples/"):
                    assert (repo_root / token).is_file(), (
                        f"README references missing file {token!r}")

    def test_documented_env_knobs_exist(self, repo_root):
        """The configuration table's ``REPRO_*`` rows and the package's
        ``REPRO_*`` name constants are one set: a knob the code defines
        is documented, and a documented knob still exists."""
        text = (repo_root / "README.md").read_text()
        section = text.split("## Configuration reference", 1)[1]
        section = section.split("\n## ", 1)[0]
        documented = set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", section,
                                    re.MULTILINE))
        defined = set()
        for source in sorted((repo_root / "src" / "repro").rglob("*.py")):
            for node in ast.walk(ast.parse(source.read_text())):
                if (isinstance(node, ast.Constant)
                        and isinstance(node.value, str)
                        and re.fullmatch(r"REPRO_[A-Z_]+", node.value)):
                    defined.add(node.value)
        from repro.trace.store import STORE_ENV

        assert STORE_ENV in defined
        assert documented == defined


class TestDesignDocs:
    def test_design_covers_scenarios(self, repo_root):
        design = (repo_root / "DESIGN.md").read_text()
        assert "## Scenario sweeps" in design
        for needle in ("point hash", "resume", "spec validation"):
            assert needle in design, f"DESIGN.md scenario section lost "\
                                     f"{needle!r}"

    def test_design_covers_service(self, repo_root):
        design = (repo_root / "DESIGN.md").read_text()
        assert "## Sweep service" in design
        for needle in ("byte-identical", "docs/api.md", "SIGTERM"):
            assert needle in design, f"DESIGN.md service section lost "\
                                     f"{needle!r}"
        # The sweeps section points readers at the service layered on it.
        scenarios = design.split("## Scenario sweeps", 1)[1]
        scenarios = scenarios.split("\n## ", 1)[0]
        assert "Sweep service" in scenarios

    def test_changes_has_entry_per_pr(self, repo_root):
        changes = (repo_root / "CHANGES.md").read_text()
        assert changes.count("- PR ") >= 4

    def test_paper_summary_is_not_a_stub(self, repo_root):
        """PAPER.md must actually summarize PIF: the mechanism names a
        reader needs are non-negotiable."""
        paper = (repo_root / "PAPER.md").read_text().replace("\n", " ")
        for needle in ("retire", "stream address buffer",
                       "spatial region", "temporal streaming"):
            assert needle in paper, f"PAPER.md summary lost {needle!r}"


_API_HEADING = re.compile(r"^### (GET|POST|DELETE|PUT|PATCH) (\S+)$",
                          re.MULTILINE)
_API_EXAMPLE = re.compile(r"```json schema=([a-z_]+)\n(.*?)```", re.DOTALL)


class TestApiDocs:
    """docs/api.md ⇔ repro.service.schemas, both directions."""

    @pytest.fixture(scope="class")
    def api_doc(self, repo_root):
        return (repo_root / "docs" / "api.md").read_text()

    def test_documented_routes_equal_route_table(self, api_doc):
        from repro.service.schemas import ROUTES

        documented = set(_API_HEADING.findall(api_doc))
        actual = {(route.method, route.pattern) for route in ROUTES}
        assert documented == actual, (
            f"docs/api.md headings vs ROUTES: undocumented "
            f"{sorted(actual - documented)}, phantom "
            f"{sorted(documented - actual)}")

    def test_json_examples_satisfy_response_schemas(self, api_doc):
        from repro.service.schemas import validate_payload

        examples = _API_EXAMPLE.findall(api_doc)
        assert len(examples) >= 5, "docs/api.md lost its JSON examples"
        for schema, block in examples:
            payload = json.loads(block)  # example must be valid JSON
            validate_payload(schema, payload)

    def test_every_json_schema_is_exemplified(self, api_doc):
        from repro.service.schemas import RESPONSE_SCHEMAS

        shown = {schema for schema, _ in _API_EXAMPLE.findall(api_doc)}
        assert shown == set(RESPONSE_SCHEMAS), (
            f"docs/api.md examples cover {sorted(shown)}, schemas are "
            f"{sorted(RESPONSE_SCHEMAS)}")

    def test_documented_error_statuses_are_the_emitted_ones(self, api_doc):
        """The error table must list exactly the statuses the HTTP
        layer can produce (grepped from the handler source, the same
        trick the README env-knob test uses)."""
        import inspect

        from repro.service import http as http_module

        source = inspect.getsource(http_module)
        emitted = {int(code) for code in
                   re.findall(r"_json_response\(\s*(\d{3})", source)}
        emitted -= {200, 202}
        table_rows = re.findall(r"^\| (\d{3}) \|", api_doc, re.MULTILINE)
        assert {int(code) for code in table_rows} == emitted

    def test_serve_commands_parse(self, api_doc):
        for block in _FENCE.findall(api_doc):
            for line in block.splitlines():
                if not line.strip().startswith("repro "):
                    continue  # prose/curl/layout lines share the fences
                tokens = shlex.split(line.strip())
                try:
                    cli_parser().parse_args(tokens[1:])
                except SystemExit as error:
                    pytest.fail(f"docs/api.md command does not parse: "
                                f"{line.strip()!r} (exit {error.code})")
