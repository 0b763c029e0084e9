"""Determinism-contract rules: RL001-RL004.

These encode the repo's reproducibility invariants (DESIGN.md, "Static
analysis & determinism contract"): every result must be bit-identical
across serial, parallel, and resumed runs, which forbids ambient
randomness, wall-clock reads, unordered iteration, and environment
divergence anywhere a result value can flow from.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, Optional, Set, Tuple

from .core import FileContext, Finding, Rule, dotted_name, register

#: Package-path prefixes of result-producing modules: everything whose
#: output feeds a stored trace, a simulation record, or a report row.
RESULT_SCOPE: Tuple[str, ...] = (
    "sim/", "scenarios/", "trace/", "core/", "cache/", "prefetch/",
    "pipeline/", "workloads/", "branch/",
)

#: ``random``-module functions that draw from (or reseed) the shared
#: global generator.
_GLOBAL_DRAWS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate",
    "paretovariate", "randbytes", "randint", "random", "randrange",
    "sample", "seed", "shuffle", "triangular", "uniform",
    "vonmisesvariate", "weibullvariate",
})


@register
class UnseededRandomRule(Rule):
    """RL001: ambient randomness outside the sanctioned RNG module.

    Flags module-level ``random.<fn>()`` draws (they share hidden
    global state across call sites and threads) and zero-argument
    ``random.Random()`` construction (seeded from the OS).  The
    explicitly seeded ``Random(0)`` replacement-policy idiom and
    everything in ``common/rng.py`` — the module whose whole job is
    deriving seeded child generators — are allowed.
    """

    code = "RL001"
    name = "unseeded-random"
    summary = ("module-level random.<fn>() or unseeded Random() outside "
               "common/rng.py")
    exempt = ("repro/common/rng.py",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        random_aliases = _from_import_aliases(ctx.tree, "random", "Random")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            if name == "random.Random" or name in random_aliases:
                if not node.args and not node.keywords:
                    yield ctx.finding(
                        self.code, node,
                        "unseeded Random() draws its seed from the OS; "
                        "pass an explicit seed (e.g. via "
                        "common.rng.make_rng)")
                continue
            if name.startswith("random."):
                tail = name[len("random."):]
                if tail in _GLOBAL_DRAWS:
                    yield ctx.finding(
                        self.code, node,
                        f"random.{tail}() uses the shared global RNG; "
                        "use a seeded Random instance from "
                        "common.rng instead")


def _from_import_aliases(tree: ast.Module, module: str,
                         symbol: str) -> FrozenSet[str]:
    """Local names ``symbol`` is bound to via ``from module import``."""
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                if alias.name == symbol:
                    aliases.add(alias.asname or alias.name)
    return frozenset(aliases)


#: Callables whose return value is the current wall-clock / process
#: clock — anything here reaching a result path breaks replay equality.
_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.clock_gettime",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today", "date.today",
})


@register
class WallClockRule(Rule):
    """RL002: wall-clock reads inside result-producing modules.

    Scoped to the packages whose outputs land in traces, records, or
    report rows (:data:`RESULT_SCOPE`).  The audited exceptions are
    built in, all in the trace store's garbage collection: the
    scratch-GC cutoff (``trace/store.py::_sweep_scratch``), its
    partial-download sibling (``_sweep_partial``), and ``gc`` itself
    (the fresh-entry grace window shielding just-replicated archives
    from concurrent eviction) use mtime age purely to decide whether a
    file is safe to delete — no result value flows from any of them.
    """

    code = "RL002"
    name = "wall-clock-in-result-path"
    summary = "time/datetime clock reads inside result-producing modules"
    scope = RESULT_SCOPE
    #: (package path, enclosing function) pairs audited as harmless.
    allowed_functions: FrozenSet[Tuple[str, str]] = frozenset({
        ("trace/store.py", "_sweep_scratch"),
        ("trace/store.py", "_sweep_partial"),
        ("trace/store.py", "gc"),
    })

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        package = ctx.package_path or ""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name not in _CLOCK_CALLS:
                continue
            enclosing = ctx.enclosing_functions(node.lineno)
            if enclosing and (package, enclosing[-1].name) \
                    in self.allowed_functions:
                continue
            yield ctx.finding(
                self.code, node,
                f"{name}() read in a result-producing module; results "
                "must not depend on wall-clock (suppress with a "
                "rationale if the value provably never reaches output)")


#: Call sinks whose argument order becomes observable output order.
_ORDER_SINKS = frozenset({"list", "tuple", "enumerate"})


@register
class UnorderedIterationRule(Rule):
    """RL003: iteration order of a ``set`` escaping into results.

    Set iteration order depends on insertion history and hash
    randomization; the moment it feeds a ``for`` loop, a comprehension,
    a ``list()``/``tuple()`` conversion, or a ``join``, the ordering
    leaks into whatever is built from it.  ``sorted(...)`` is the
    blessed way out and is never flagged.  Redundant ``.keys()``
    iteration is additionally flagged in result-producing package
    modules, where an explicit ``sorted(d)`` (or plain ``d``, which at
    least pins insertion order) is required instead.
    """

    code = "RL003"
    name = "unordered-iteration"
    summary = "set (or bare dict.keys) iteration order escaping into output"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        set_names = _set_valued_names(ctx.tree)
        package = ctx.package_path or ""
        keys_in_scope = any(package.startswith(prefix)
                            for prefix in RESULT_SCOPE)
        parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(ctx.tree):
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.GeneratorExp) \
                    and _order_insensitive_consumer(node, parents):
                continue
            for iter_node in _hazard_iterables(node):
                if _is_set_expression(iter_node, set_names):
                    yield ctx.finding(
                        self.code, iter_node,
                        "iterating a set leaks arbitrary ordering; wrap "
                        "in sorted() before the order can escape")
                elif keys_in_scope and _is_bare_keys_call(iter_node):
                    yield ctx.finding(
                        self.code, iter_node,
                        "iterate the dict directly (insertion order) or "
                        "sorted(d) when order must be canonical, not "
                        ".keys()")


#: Callables that consume a generator without its order becoming
#: observable (aggregations, or re-canonicalizing constructors).
_ORDER_INSENSITIVE = frozenset({
    "all", "any", "frozenset", "len", "max", "min", "set", "sorted",
    "sum", "Counter", "collections.Counter",
})


def _order_insensitive_consumer(node: ast.GeneratorExp,
                                parents: Dict[ast.AST, ast.AST]) -> bool:
    parent = parents.get(node)
    return (isinstance(parent, ast.Call)
            and node in parent.args
            and dotted_name(parent.func) in _ORDER_INSENSITIVE)


def _hazard_iterables(node: ast.AST) -> Iterator[ast.AST]:
    """Expressions whose iteration order ``node`` makes observable."""
    if isinstance(node, ast.For):
        yield node.iter
    elif isinstance(node, (ast.ListComp, ast.DictComp,
                           ast.GeneratorExp)):
        # SetComp is exempt (set in, set out — no order escapes); the
        # others materialize their iteration order.  Only the
        # outermost iterable matters here: inner generators are their
        # own walk()ed nodes.
        for generator in node.generators:
            yield generator.iter
    elif isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name in _ORDER_SINKS and node.args:
            yield node.args[0]
        elif (isinstance(node.func, ast.Attribute)
                and node.func.attr == "join" and node.args):
            yield node.args[0]


def _is_set_expression(node: ast.AST,
                       set_names: FrozenSet[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name in ("set", "frozenset"):
            return True
        return False
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return (_is_set_expression(node.left, set_names)
                or _is_set_expression(node.right, set_names))
    return False


def _is_bare_keys_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "keys"
            and not node.args and not node.keywords)


def _set_valued_names(tree: ast.Module) -> FrozenSet[str]:
    """Names that are only ever assigned set-typed expressions.

    Deliberately coarse (module-wide, no scoping): a name is counted
    only when *every* assignment to it anywhere in the file is a set
    display/comprehension/constructor, so shadowing in another function
    can cause a miss but never a false positive.
    """
    candidates: Dict[str, bool] = {}
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            value: Optional[ast.AST] = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
            value = None
        else:
            continue
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            is_set = value is not None and _is_set_expression(
                value, frozenset())
            previous = candidates.get(target.id)
            candidates[target.id] = is_set if previous is None \
                else (previous and is_set)
    return frozenset(name for name, is_set in candidates.items() if is_set)


@register
class EnvReadRule(Rule):
    """RL004: ``os.environ`` touched outside the sanctioned config
    modules.

    An env read inside a pool worker sees the *worker's* environment,
    which matches the parent only because
    :mod:`repro.experiments.parallel` explicitly snapshots and
    re-applies it in the initializer.  Only ``trace/store.py`` is
    exempt; every other read carries an audited suppression, which
    keeps that propagation surface auditable.  Applies to every module
    inside the ``repro`` package; harnesses (tests, benchmarks,
    examples) configure the environment and are out of scope by
    construction.
    """

    code = "RL004"
    name = "env-read-outside-config"
    summary = "os.environ/os.getenv outside sanctioned config modules"
    scope = ("",)  # every module inside the repro package
    exempt = ("repro/trace/store.py",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) \
                    and dotted_name(node) == "os.environ":
                yield ctx.finding(
                    self.code, node,
                    "os.environ access outside the sanctioned config "
                    "modules; resolve in the parent and pass the value "
                    "down (workers may see a different environment)")
            elif isinstance(node, ast.Call) \
                    and dotted_name(node.func) == "os.getenv":
                yield ctx.finding(
                    self.code, node,
                    "os.getenv outside the sanctioned config modules; "
                    "resolve in the parent and pass the value down")
