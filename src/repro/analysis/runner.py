"""reprolint runner: file collection, rule execution, CLI.

``repro lint`` / ``python -m repro.analysis`` run the registered rules
over a file tree and gate on the result:

* exit 0 — clean (every finding suppressed inline, with a rationale);
* exit 1 — at least one finding;
* exit 2 — usage error (a path that does not exist).

The per-file pipeline (:func:`check_source`) is pure — it takes source
text plus the path to report — which is what the fixture tests drive
directly with synthetic paths like ``src/repro/sim/fake.py``.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .core import META_CODE, PARSE_ERROR_CODE, FileContext, Finding, \
    all_rules, build_function_spans, rule_codes
from .suppressions import parse_directives

#: Directories linted when no paths are given (those that exist).
DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples")

#: Directory names never descended into.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "venv",
                        "node_modules", "build", "dist"})


def check_source(source: str, rel_path: str) -> List[Finding]:
    """Lint one file's text; returns its findings in source order.

    ``rel_path`` is the POSIX path reported in findings and matched by
    rule scopes — for a real run it is relative to the lint root.
    Suppressions are already applied; unused suppressions, unattached
    ``hot`` markers, and malformed directives come back as
    :data:`~repro.analysis.core.META_CODE` findings, and files that do
    not parse as one :data:`~repro.analysis.core.PARSE_ERROR_CODE`
    finding.
    """
    try:
        tree = ast.parse(source)
    except (SyntaxError, ValueError) as error:
        line = getattr(error, "lineno", 1) or 1
        return [Finding(code=PARSE_ERROR_CODE, path=rel_path, line=line,
                        column=0, message=f"file does not parse: {error}",
                        context="")]
    directives = parse_directives(source)
    spans, attached_hot = build_function_spans(tree, directives.hot_lines)
    lines = [""] + source.splitlines()
    ctx = FileContext(path=rel_path, source=source, tree=tree,
                      lines=lines, suppressions=directives.suppressions,
                      suppression_sites=directives.sites,
                      hot_marker_lines=directives.hot_lines,
                      function_spans=spans)

    raw: List[Finding] = []
    for rule in all_rules():
        if rule.applies_to(ctx):
            raw.extend(rule.check(ctx))

    kept = [finding for finding in raw
            if finding.code not in
            directives.suppressions.get(finding.line, frozenset())]

    kept.extend(_meta_findings(ctx, raw, directives, attached_hot))
    return sorted(kept, key=Finding.sort_key)


def _meta_findings(ctx, raw, directives, attached_hot) -> List[Finding]:
    """RL000 hygiene findings: stale or malformed directives."""
    known = rule_codes()
    meta: List[Finding] = []
    for site, codes in sorted(directives.sites.items()):
        covered = directives.site_coverage.get(site, (site,))
        for code in sorted(codes):
            if code not in known:
                meta.append(_meta(ctx, site,
                                  f"suppression names unknown rule "
                                  f"{code}"))
                continue
            if not any(finding.code == code and finding.line in covered
                       for finding in raw):
                meta.append(_meta(ctx, site,
                                  f"unused suppression: {code} does not "
                                  "fire here"))
    for line in sorted(set(directives.hot_lines) - set(attached_hot)):
        meta.append(_meta(ctx, line,
                          "hot marker attaches to no function "
                          "definition"))
    for error in directives.errors:
        meta.append(_meta(ctx, error.line,
                          f"unrecognized reprolint directive: "
                          f"{error.body!r}"))
    return meta


def _meta(ctx: FileContext, line: int, message: str) -> Finding:
    return Finding(code=META_CODE, path=ctx.path, line=line, column=0,
                   message=message, context=ctx.line_text(line).strip())


# ----------------------------------------------------------------------
# File collection


def collect_files(paths: Sequence[Path], root: Path) -> List[Path]:
    """Python files under ``paths``, deterministically ordered.

    Raises FileNotFoundError for a path that does not exist — a typo'd
    path silently linting nothing would defeat the CI gate.
    """
    found: Dict[Path, None] = {}
    for raw in paths:
        path = raw if raw.is_absolute() else root / raw
        if path.is_file():
            if path.suffix == ".py":
                found[path] = None
        elif path.is_dir():
            for candidate in path.rglob("*.py"):
                parts = candidate.relative_to(path).parts
                if any(part in _SKIP_DIRS or part.startswith(".")
                       for part in parts[:-1]):
                    continue
                found[candidate] = None
        else:
            raise FileNotFoundError(str(raw))
    return sorted(found, key=lambda p: _rel_posix(p, root))


def _rel_posix(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


# ----------------------------------------------------------------------
# Lint run + report


@dataclass
class LintReport:
    """Outcome of one lint run over a file set."""

    root: Path
    files_scanned: int = 0
    #: Every post-suppression finding, in (path, line, column) order.
    findings: List[Finding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def exit_code(self) -> int:
        return 0 if self.clean else 1


def lint_paths(paths: Sequence[Path], root: Path) -> LintReport:
    """Run every rule over ``paths``."""
    report = LintReport(root=root)
    all_findings: List[Finding] = []
    for path in collect_files(paths, root):
        rel = _rel_posix(path, root)
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            all_findings.append(Finding(
                code=PARSE_ERROR_CODE, path=rel, line=1, column=0,
                message=f"file is not readable UTF-8: {error}"))
            report.files_scanned += 1
            continue
        all_findings.extend(check_source(source, rel))
        report.files_scanned += 1
    report.findings = sorted(all_findings, key=Finding.sort_key)
    return report


# ----------------------------------------------------------------------
# Output formats


def render_text(report: LintReport) -> str:
    lines = [f"{finding.path}:{finding.line}:{finding.column + 1}: "
             f"{finding.code} {finding.message}"
             for finding in report.findings]
    if report.clean:
        lines.append(f"reprolint: clean ({report.files_scanned} files)")
    else:
        lines.append(f"reprolint: {len(report.findings)} finding(s) "
                     f"({report.files_scanned} files)")
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    findings = [
        {
            "code": finding.code,
            "file": finding.path,
            "line": finding.line,
            "column": finding.column + 1,
            "message": finding.message,
            "context": finding.context,
        }
        for finding in report.findings
    ]
    payload = {
        "version": 2,
        "files_scanned": report.files_scanned,
        "findings": findings,
        "summary": {"total": len(findings)},
        "clean": report.clean,
    }
    return json.dumps(payload, indent=2)


# ----------------------------------------------------------------------
# CLI


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based determinism & hot-path contract checker")
    configure_parser(parser)
    return parser


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the lint arguments (shared with ``repro lint``)."""
    parser.add_argument("paths", nargs="*",
                        help="files/directories to lint (default: "
                             + " ".join(DEFAULT_PATHS) + ")")
    parser.add_argument("--root", type=Path, default=Path("."),
                        help="directory findings are reported relative "
                             "to (default: cwd)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", dest="output_format",
                        help="report format (default: text)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")


def list_rules_text() -> str:
    lines = ["reprolint rules:"]
    for rule in all_rules():
        lines.append(f"  {rule.code}  {rule.name:<28} {rule.summary}")
    lines.append(f"  {META_CODE}  directive-hygiene            "
                 "unused suppression / hot marker, malformed directive")
    lines.append(f"  {PARSE_ERROR_CODE}  parse-error                  "
                 "file does not parse or decode")
    return "\n".join(lines)


def run(args: argparse.Namespace, out=None, err=None) -> int:
    """Execute a parsed ``repro lint`` invocation.

    ``out``/``err`` default to the *current* sys streams at call time,
    so redirection (and pytest capture) keeps working.
    """
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    if args.list_rules:
        print(list_rules_text(), file=out)
        return 0
    root = args.root
    if args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        paths = [Path(name) for name in DEFAULT_PATHS
                 if (root / name).is_dir()]
    try:
        report = lint_paths(paths, root)
    except FileNotFoundError as error:
        print(f"repro lint: no such path: {error}", file=err)
        return 2
    if args.output_format == "json":
        print(render_json(report), file=out)
    else:
        print(render_text(report), file=out)
    return report.exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``... --list-rules | head``).  Point
        # stdout at os.devnull so the flush at exit cannot fail again,
        # and exit 1 as Python does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code
