"""reprolint: the repo's AST-based determinism & hot-path checker.

Run as ``repro lint`` or ``python -m repro.analysis``.  See
DESIGN.md, "Static analysis & determinism contract", for the rule
table and the inline suppressions; ``repro lint --list-rules`` prints
the live registry.

Rule modules are imported here for their registration side effect —
a new rule module must be added to this import list to go live.
"""

from __future__ import annotations

from . import rules_determinism, rules_quality  # noqa: F401  (registry)
from .core import Finding, Rule, all_rules, register, rule_codes
from .runner import LintReport, build_parser, check_source, lint_paths, \
    main

__all__ = [
    "Finding",
    "LintReport",
    "Rule",
    "all_rules",
    "build_parser",
    "check_source",
    "lint_paths",
    "main",
    "register",
    "rule_codes",
]
