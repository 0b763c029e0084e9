"""Every public definition in ``src/repro`` has a caller outside tests.

A public top-level ``def`` or ``class`` that only its own unit tests
name is code no command runs.  This test collects every identifier the
program mentions -- names, attributes, imports and identifier-shaped
string constants (the benchmark's tracer rebinds functions by name) --
across ``src/repro``, ``examples/``, ``benchmarks/`` and ``perfbench/``,
and fails on a public definition none of them names.  A mention inside
the definition itself does not count, and neither does a package
``__init__`` re-exporting it.  Decorated classes count as used: the
lint rules register themselves that way.

Deliberate public surface without an in-tree caller goes in
:data:`ALLOWED`, one reason per entry.  The allowlist is two-sided,
like the lint baseline: an entry whose definition is gone, or that
gained a caller, fails too.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "repro"

#: Trees whose mentions count as callers, besides the package itself.
CALLER_TREES = ("examples", "benchmarks", "perfbench")

#: ``module path :: name`` -> why it stays without an in-tree caller.
ALLOWED: Dict[str, str] = {
    "trace/serialize.py::load_bundle":
        "reads what `repro trace --output` writes, for external tools",
    "scenarios/report.py::coverage_matrix":
        "the sab-ablation lock compares the sweep store through it",
    "sim/baseline.py::clear_baseline_memo":
        "test isolation: resets the per-process baseline memo",
    "dist/protocol.py::trace_ad_from_wire":
        "strict decoder for the documented GET /v1/dist/traces listing",
    "service/schemas.py::validate_payload":
        "the API contract check: docs examples and live responses are "
        "validated against the response schemas through it",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")


def _definitions(tree: ast.Module) -> Iterator[Tuple[str, int, int]]:
    """(name, first line, last line) of every public top-level def and
    undecorated class in ``tree``."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        if isinstance(node, ast.ClassDef) and node.decorator_list:
            continue
        first = min([node.lineno]
                    + [decorator.lineno for decorator in node.decorator_list])
        yield node.name, first, node.end_lineno


def _reexports(tree: ast.Module) -> Set[ast.AST]:
    """The imports of a package ``__init__`` and the strings in its
    ``__all__``."""
    nodes: Set[ast.AST] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            nodes.add(node)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            nodes.update(ast.walk(node.value))
    return nodes


def _mentions(tree: ast.Module, skip: Set[ast.AST]
              ) -> Iterator[Tuple[str, int]]:
    """(identifier, line) for every name ``tree`` mentions outside
    ``skip``."""
    for node in ast.walk(tree):
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and _IDENTIFIER.fullmatch(node.value):
            name = node.value.rsplit(".", 1)[-1]
        else:
            continue
        yield name, node.lineno


def _uncalled() -> Set[str]:
    """``module path :: name`` of every public definition nothing
    outside tests names."""
    definitions: List[Tuple[str, str, int, int]] = []
    callers: Dict[str, List[Tuple[Optional[str], int]]] = {}
    files = sorted(PACKAGE.rglob("*.py"))
    for caller_tree in CALLER_TREES:
        files.extend(sorted((REPO / caller_tree).rglob("*.py")))
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        module = None
        skip: Set[ast.AST] = set()
        if path.is_relative_to(PACKAGE):
            module = path.relative_to(PACKAGE).as_posix()
            definitions.extend((module, *definition)
                               for definition in _definitions(tree))
            if path.name == "__init__.py":
                skip = _reexports(tree)
        for name, line in _mentions(tree, skip):
            callers.setdefault(name, []).append((module, line))
    uncalled = set()
    for module, name, first, last in definitions:
        if not any(where != module or not first <= line <= last
                   for where, line in callers.get(name, ())):
            uncalled.add(f"{module}::{name}")
    return uncalled


def test_every_public_definition_has_a_caller_outside_tests():
    uncalled = _uncalled()
    unexplained = sorted(uncalled - set(ALLOWED))
    assert not unexplained, (
        "public definitions only tests name (delete them, or allowlist "
        f"them with a reason): {unexplained}")
    stale = sorted(set(ALLOWED) - uncalled)
    assert not stale, (
        "allowlist entries that are gone or now have a caller (drop "
        f"them): {stale}")
