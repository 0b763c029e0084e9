"""Core machinery for reprolint: findings, rules, and file contexts.

reprolint is the repo's own AST-based static analyzer.  It exists
because the determinism contract — bit-identical results across serial,
parallel, and resumed runs — cannot be enforced by a general-purpose
linter: the hazards are repo-specific (unseeded RNG outside
``common/rng.py``, wall-clock reads in result paths, set-ordered
iteration feeding records, env reads that diverge inside pool workers)
and so are the sanctioned exceptions.

The moving parts:

* :class:`Finding` — one diagnostic: file, position, rule code,
  message and the source line it points at.
* :class:`FileContext` — one parsed file plus everything rules need:
  the AST, raw lines, comment-derived suppressions and ``hot`` markers,
  and the file's path *inside* the ``repro`` package (if any), which is
  what scoped rules match against.
* :class:`Rule` + :func:`register` — the pluggable registry.  A new
  rule is a subclass with ``code``/``name``/``summary``, optional
  ``scope``/``exempt`` path filters, and a ``check`` generator; nothing
  else needs to change.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

#: Code attached to meta-findings (unused suppressions / markers) that
#: are produced by the runner rather than a registered rule.
META_CODE = "RL000"

#: Code attached to files that fail to parse at all.
PARSE_ERROR_CODE = "RL900"


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a rule (or by the runner itself).

    ``context`` is the stripped source line the finding points at.
    """

    code: str
    path: str
    line: int
    column: int
    message: str
    context: str = ""

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.column, self.code)


@dataclass(frozen=True)
class FunctionSpan:
    """Line extent of one (possibly nested) function definition."""

    name: str
    start: int
    end: int
    hot: bool


@dataclass
class FileContext:
    """Everything rules may consult about one file under analysis."""

    #: Path as reported in findings: POSIX-style, relative to the lint
    #: root (e.g. ``src/repro/sim/engine.py``).
    path: str
    source: str
    tree: ast.Module
    #: 1-indexed physical source lines (``lines[0]`` unused).
    lines: List[str] = field(default_factory=list)
    #: line -> codes suppressed on that line (already expanded so a
    #: standalone directive covers the following line too).
    suppressions: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    #: line the directive was written on -> codes, for unused tracking.
    suppression_sites: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    #: lines carrying a hot-path marker comment.
    hot_marker_lines: Tuple[int, ...] = ()
    function_spans: List[FunctionSpan] = field(default_factory=list)

    @property
    def package_path(self) -> Optional[str]:
        """The file's path inside the ``repro`` package, or None.

        ``src/repro/sim/engine.py`` -> ``sim/engine.py``;
        ``tests/sim/test_engine.py`` -> None.  Scoped rules match on
        this, so tests/benchmarks/examples are naturally out of scope
        for package-only rules no matter where the lint root sits.
        """
        parts = self.path.split("/")
        for index in range(len(parts) - 1, -1, -1):
            if parts[index] == "repro":
                tail = "/".join(parts[index + 1:])
                return tail or None
        return None

    def line_text(self, line: int) -> str:
        if 1 <= line < len(self.lines):
            return self.lines[line]
        return ""

    def enclosing_functions(self, line: int) -> List[FunctionSpan]:
        """Spans containing ``line``, outermost first."""
        return [span for span in self.function_spans
                if span.start <= line <= span.end]

    def finding(self, code: str, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        column = getattr(node, "col_offset", 0)
        return Finding(code=code, path=self.path, line=line, column=column,
                       message=message,
                       context=self.line_text(line).strip())


class Rule:
    """Base class for reprolint rules.

    Subclasses set ``code`` (``RLxxx``), ``name`` (kebab-case slug),
    ``summary`` (one line, shown by ``--list-rules`` and in docs), and
    implement :meth:`check` as a generator of findings.  ``scope``
    restricts the rule to package-path prefixes (``None`` = every
    file); ``exempt`` drops sanctioned modules by path suffix.
    """

    code: str = ""
    name: str = ""
    summary: str = ""
    #: Package-path prefixes the rule is limited to (None = all files,
    #: including non-package files like tests).
    scope: Optional[Tuple[str, ...]] = None
    #: Path suffixes of sanctioned modules the rule never visits.
    exempt: Tuple[str, ...] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        for suffix in self.exempt:
            if ctx.path.endswith(suffix):
                return False
        if self.scope is None:
            return True
        package = ctx.package_path
        if package is None:
            return False
        return any(package.startswith(prefix) for prefix in self.scope)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError


#: The live registry, in registration (== definition) order.
_REGISTRY: List[Rule] = []


def register(rule_class: type) -> type:
    """Class decorator adding a rule to the global registry."""
    rule = rule_class()
    if not rule.code or not rule.name:
        raise ValueError(
            f"rule {rule_class.__name__} must define code and name")
    if any(existing.code == rule.code for existing in _REGISTRY):
        raise ValueError(f"duplicate rule code {rule.code}")
    _REGISTRY.append(rule)
    return rule_class


def all_rules() -> List[Rule]:
    """Registered rules, ordered by code."""
    return sorted(_REGISTRY, key=lambda rule: rule.code)


def rule_codes() -> FrozenSet[str]:
    return frozenset(rule.code for rule in _REGISTRY)


# ----------------------------------------------------------------------
# Shared AST helpers used by several rules.


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an attribute/name chain, else None."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def iter_function_defs(tree: ast.Module) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def build_function_spans(
        tree: ast.Module, hot_lines: Tuple[int, ...],
) -> Tuple[List[FunctionSpan], FrozenSet[int]]:
    """Compute function extents and attach ``hot`` markers.

    A marker attaches to a ``def`` when it sits on the line directly
    above the definition (above decorators, too) or inline on the
    ``def`` line itself.  Returns the spans plus the subset of marker
    lines that actually claimed a function — the runner reports the
    rest as unused (:data:`META_CODE`).
    """
    hot = set(hot_lines)
    spans: List[FunctionSpan] = []
    attached = set()
    for node in iter_function_defs(tree):
        first = node.lineno
        if node.decorator_list:
            first = min(first,
                        min(dec.lineno for dec in node.decorator_list))
        claimed = {node.lineno, first - 1} & hot
        spans.append(FunctionSpan(name=node.name, start=node.lineno,
                                  end=node.end_lineno or node.lineno,
                                  hot=bool(claimed)))
        attached.update(claimed)
    return spans, frozenset(attached)
