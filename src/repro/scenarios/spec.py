"""Declarative scenario specs: the sweep format and its expansion.

A *scenario* describes a cache-geometry × replacement-policy ×
prefetcher-parameter × workload study as data instead of Python: a YAML
or JSON file (or a plain dict) with one axis per knob.  Every axis can
be a scalar or a list; :func:`ScenarioSpec.points` expands the axes into
concrete :class:`SweepPoint` simulation points either as a full cross
product (``mode: product``, the default) or position-wise
(``mode: zip``, where every multi-valued axis must share one length and
scalars broadcast).

Spec layout (units in brackets)::

    name: geometry-sweep            # required, the scenario's identity
    description: free text          # optional
    sweep:
      mode: product                 # or: zip
      workloads: [oltp-db2, ...]    # paper workload names
      instructions: 300000          # requested trace length per core
                                    #   [instructions, not accesses]
      seeds: [42]                   # root RNG seeds
      cores: 1                      # cores per workload (expands 0..N-1)
      warmup: 0.4                   # warmup window [fraction of
                                    #   accesses in 0.0-1.0, not %]
      cache:
        kb: [16, 32, 64]            # L1-I capacity [KiB]
        assoc: 2                    # ways
        line: 64                    # block size [bytes]
        replacement: lru            # lru | fifo | random
      engines:                      # one entry per engine variant group
        - next-line                 # bare name: engine defaults
        - name: pif                 # dict form: parameter grids
          label: "{sab_count}x{sab_window_regions}"
          params:
            mode: zip               # grids expand product (default) or zip
            sab_count: [1, 2, 4]
            sab_window_regions: [3, 3, 7]
      timing: false                 # also run the timing model per point
                                    #   (records speedup vs no-prefetch)

Validation is strict: unknown or misspelled keys raise
:class:`SpecError` naming the offending key path (``sweep.cache.kb``),
as do empty axes, zip-length mismatches, unknown workloads/engines, and
engine parameters the engine does not accept.

Every expanded point has a stable content hash
(:func:`point_hash` — SHA-256 over the canonical JSON of its identity
fields), which is what the results store keys completed work by; labels
are display-only and deliberately excluded, so relabeling a scenario
never invalidates stored results.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..workloads.spec import WORKLOAD_NAMES
from .engines import build_engine, validate_engine_params

#: Axis expansion modes.
MODES = ("product", "zip")

#: Scalar sweep axes in expansion order (outermost first), as
#: (spec key path, SweepPoint field) pairs.  ``mode`` applies to these;
#: cores and engine variants always cross.
_SCALAR_AXES = (
    ("workloads", "workload"),
    ("instructions", "instructions"),
    ("seeds", "seed"),
    ("warmup", "warmup"),
    ("cache.kb", "cache_kb"),
    ("cache.assoc", "associativity"),
    ("cache.line", "block_bytes"),
    ("cache.replacement", "replacement"),
)

_SWEEP_KEYS = frozenset({"mode", "workloads", "instructions", "seeds",
                         "cores", "warmup", "cache", "engines", "timing"})
_CACHE_KEYS = frozenset({"kb", "assoc", "line", "replacement"})
_ENGINE_ENTRY_KEYS = frozenset({"name", "label", "params"})


class SpecError(ValueError):
    """A scenario spec failed validation; the message names the bad key."""


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """One concrete simulation point of an expanded scenario.

    Fields are the point's full identity: ``instructions`` is the
    *requested* trace length per core (retired instructions, not
    accesses), ``warmup`` the warmup window as a fraction of trace
    accesses in ``[0, 1)``, cache geometry in bytes/ways, ``params`` the
    engine's parameter overrides as a sorted tuple of (name, value)
    pairs.  ``label`` is display-only and excluded from the hash.
    """

    workload: str
    instructions: int
    seed: int
    core: int
    warmup: float
    capacity_bytes: int
    associativity: int
    block_bytes: int
    replacement: str
    engine: str
    params: Tuple[Tuple[str, Any], ...]
    label: str
    timing: bool

    def identity(self) -> Dict[str, Any]:
        """The hashed identity fields as a JSON-serializable dict."""
        return {
            "workload": self.workload,
            "instructions": self.instructions,
            "seed": self.seed,
            "core": self.core,
            "warmup": self.warmup,
            "cache": {
                "capacity_bytes": self.capacity_bytes,
                "associativity": self.associativity,
                "block_bytes": self.block_bytes,
                "replacement": self.replacement,
            },
            "engine": self.engine,
            "params": dict(self.params),
            "timing": self.timing,
        }


def point_hash(point: SweepPoint) -> str:
    """Stable content hash of a point's identity (hex SHA-256).

    Canonical JSON (sorted keys, no whitespace) over
    :meth:`SweepPoint.identity`; the results store keys records by this,
    so the encoding is part of the on-disk contract and locked by
    ``tests/scenarios/test_scenario_spec.py``.
    """
    payload = json.dumps(point.identity(), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(slots=True)
class _EngineVariant:
    """One fully parameterized engine column of the sweep."""

    engine: str
    params: Tuple[Tuple[str, Any], ...]
    label: str


@dataclass(slots=True)
class ScenarioSpec:
    """A validated scenario: identity, axes, and the expansion logic."""

    name: str
    description: str
    mode: str
    axes: Dict[str, List[Any]]  # key path -> normalized value list
    cores: int
    variants: List[_EngineVariant]
    timing: bool
    #: The raw (pre-normalization) spec dict, persisted verbatim as
    #: ``scenario.json`` in a sweep's output directory so ``status`` and
    #: ``report`` can run without the original file.
    source: Dict[str, Any] = field(default_factory=dict)

    def points(self) -> List[SweepPoint]:
        """Expand the axes into the ordered list of simulation points.

        Order is deterministic and defines both the results-store append
        order under serial execution and the lane order of batched
        walks: scalar axes outermost (in :data:`_SCALAR_AXES` order),
        then cores, then engine variants innermost — so all lanes of one
        trace are consecutive.
        """
        combos = (_product_combos(self.axes) if self.mode == "product"
                  else _zip_combos(self.axes))
        points: List[SweepPoint] = []
        seen: Dict[str, SweepPoint] = {}
        for combo in combos:
            capacity_bytes = combo["cache.kb"] * 1024
            _check_cache_geometry(capacity_bytes, combo["cache.assoc"],
                                  combo["cache.line"])
            for core in range(self.cores):
                for variant in self.variants:
                    point = SweepPoint(
                        workload=combo["workloads"],
                        instructions=combo["instructions"],
                        seed=combo["seeds"],
                        core=core,
                        warmup=combo["warmup"],
                        capacity_bytes=capacity_bytes,
                        associativity=combo["cache.assoc"],
                        block_bytes=combo["cache.line"],
                        replacement=combo["cache.replacement"],
                        engine=variant.engine,
                        params=variant.params,
                        label=variant.label,
                        timing=self.timing,
                    )
                    digest = point_hash(point)
                    if digest in seen:
                        raise SpecError(
                            f"sweep expands to duplicate points: "
                            f"{point.label!r} on {point.workload!r} "
                            "appears more than once")
                    seen[digest] = point
                    points.append(point)
        return points

    def labels(self) -> List[str]:
        """Engine-variant labels in spec (column) order."""
        return [variant.label for variant in self.variants]


# ---------------------------------------------------------------------------
# parsing / validation


def _type_name(value: Any) -> str:
    return type(value).__name__


def _as_list(value: Any) -> List[Any]:
    if isinstance(value, (list, tuple)):
        return list(value)
    return [value]


def _require_mapping(value: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise SpecError(f"{path} must be a mapping, got {_type_name(value)}")
    return value


def _scalar_axis(raw: Mapping[str, Any], key: str, path: str, default: Any,
                 kind, kind_label: str) -> List[Any]:
    """Normalize one axis to a non-empty list of validated scalars."""
    value = raw.get(key, default)
    values = _as_list(value)
    if not values:
        raise SpecError(f"{path} is an empty axis; give at least one value")
    for item in values:
        # bool is an int subclass; reject it for numeric axes explicitly.
        if not isinstance(item, kind) or isinstance(item, bool):
            raise SpecError(f"{path} values must be {kind_label}, "
                            f"got {item!r}")
    return values


def _check_cache_geometry(capacity_bytes: int, associativity: int,
                          block_bytes: int) -> None:
    """Reject geometries CacheConfig would refuse, naming the spec keys."""
    from ..common.config import CacheConfig

    try:
        CacheConfig(capacity_bytes=capacity_bytes,
                    associativity=associativity, block_bytes=block_bytes)
    except ValueError as error:
        raise SpecError(
            f"sweep.cache: invalid geometry "
            f"(kb={capacity_bytes // 1024}, assoc={associativity}, "
            f"line={block_bytes}): {error}") from error


def _parse_params(raw_params: Mapping[str, Any], engine: str, path: str
                  ) -> List[Dict[str, Any]]:
    """Expand one engine entry's parameter grids into concrete dicts."""
    mode = raw_params.get("mode", "product")
    if mode not in MODES:
        raise SpecError(f"{path}.mode must be one of {MODES}, got {mode!r}")
    grids: Dict[str, List[Any]] = {}
    for key, value in raw_params.items():
        if key == "mode":
            continue
        values = _as_list(value)
        if not values:
            raise SpecError(f"{path}.{key} is an empty axis; "
                            "give at least one value")
        for item in values:
            # Values must be JSON scalars: they feed the point hash and
            # the results store.  YAML happily produces dates, nested
            # lists etc. — reject those here, naming the key, instead
            # of letting json.dumps raise a TypeError later.
            if not isinstance(item, (int, float, str, bool)):
                raise SpecError(
                    f"{path}.{key} values must be numbers, strings or "
                    f"booleans, got {item!r} ({_type_name(item)})")
        grids[key] = values
    validate_engine_params(engine, grids.keys(), path)
    if not grids:
        return [{}]
    names = list(grids)
    if mode == "zip":
        lengths = {len(values) for values in grids.values() if len(values) > 1}
        if len(lengths) > 1:
            detail = ", ".join(f"{name}={len(values)}"
                               for name, values in grids.items())
            raise SpecError(f"{path}: zip mode needs equal-length lists; "
                            f"got {detail}")
        length = lengths.pop() if lengths else 1
        return [
            {name: grids[name][i if len(grids[name]) > 1 else 0]
             for name in names}
            for i in range(length)
        ]
    expanded: List[Dict[str, Any]] = [{}]
    for name in names:
        expanded = [{**combo, name: value}
                    for combo in expanded for value in grids[name]]
    return expanded


def _variant_label(engine: str, params: Dict[str, Any],
                   template: Optional[str], path: str) -> str:
    if template is not None:
        try:
            return template.format(**params)
        except (KeyError, IndexError) as error:
            raise SpecError(f"{path}.label template {template!r} references "
                            f"unknown parameter {error}") from error
    if not params:
        return engine
    inner = ",".join(f"{key}={value}" for key, value in params.items())
    return f"{engine}[{inner}]"


def _parse_engines(raw: Any, timing: bool) -> List[_EngineVariant]:
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
        raise SpecError("sweep.engines must be a list of engine entries")
    if not raw:
        raise SpecError("sweep.engines is an empty axis; "
                        "give at least one engine")
    variants: List[_EngineVariant] = []
    labels: Dict[str, int] = {}
    for position, entry in enumerate(raw):
        path = f"sweep.engines[{position}]"
        if isinstance(entry, str):
            name, template, raw_params = entry, None, {}
        else:
            entry = _require_mapping(entry, path)
            unknown = sorted(set(entry) - _ENGINE_ENTRY_KEYS)
            if unknown:
                raise SpecError(f"{path} has unknown key {unknown[0]!r}; "
                                f"allowed: {sorted(_ENGINE_ENTRY_KEYS)}")
            if "name" not in entry:
                raise SpecError(f"{path} is missing required key 'name'")
            name = entry["name"]
            template = entry.get("label")
            raw_params = _require_mapping(entry.get("params", {}),
                                          f"{path}.params")
        if not isinstance(name, str):
            raise SpecError(f"{path}.name must be a string, got "
                            f"{_type_name(name)}")
        if name == "perfect" and not timing:
            raise SpecError(f"{path}: engine 'perfect' is a perfect L1-I "
                            "that only the timing model sees; set "
                            "sweep.timing: true")
        for params in _parse_params(raw_params, name, f"{path}.params"):
            # Construct the engine once at parse time so out-of-range
            # values (degree: 0, negative sizes) fail here as a
            # SpecError naming the entry — not mid-sweep inside a
            # worker process.  Constructor validation does not depend
            # on the line size, so a representative 64 B suffices.
            try:
                build_engine(name, params, block_bytes=64)
            except ValueError as error:
                raise SpecError(
                    f"{path}.params: engine {name!r} rejects "
                    f"{params!r}: {error}") from error
            label = _variant_label(name, params, template, path)
            if label in labels:
                raise SpecError(
                    f"{path}: duplicate engine label {label!r} (also "
                    f"produced by sweep.engines[{labels[label]}]); labels "
                    "must be unique because report columns key on them")
            labels[label] = position
            variants.append(_EngineVariant(
                engine=name, params=tuple(sorted(params.items())),
                label=label))
    return variants


def parse_spec(raw: Mapping[str, Any]) -> ScenarioSpec:
    """Validate a raw spec dict and return the :class:`ScenarioSpec`.

    Raises :class:`SpecError` naming the offending key on any problem;
    a spec that parses is guaranteed to expand (cache-geometry
    divisibility included, since geometry is checked per combination
    here as well as in :meth:`ScenarioSpec.points`).
    """
    raw = _require_mapping(raw, "spec")
    unknown = sorted(set(raw) - {"name", "description", "sweep"})
    if unknown:
        raise SpecError(f"spec has unknown key {unknown[0]!r}; "
                        "allowed: ['description', 'name', 'sweep']")
    name = raw.get("name")
    if not isinstance(name, str) or not name.strip():
        raise SpecError("spec.name must be a non-empty string")
    description = raw.get("description", "")
    if not isinstance(description, str):
        raise SpecError("spec.description must be a string")
    sweep = _require_mapping(raw.get("sweep"), "sweep")
    unknown = sorted(set(sweep) - _SWEEP_KEYS)
    if unknown:
        raise SpecError(f"sweep has unknown key {unknown[0]!r}; "
                        f"allowed: {sorted(_SWEEP_KEYS)}")

    mode = sweep.get("mode", "product")
    if mode not in MODES:
        raise SpecError(f"sweep.mode must be one of {MODES}, got {mode!r}")

    axes: Dict[str, List[Any]] = {}
    if "workloads" not in sweep:
        raise SpecError("sweep.workloads is required")
    axes["workloads"] = _scalar_axis(sweep, "workloads", "sweep.workloads",
                                     None, str, "workload names")
    for workload in axes["workloads"]:
        if workload not in WORKLOAD_NAMES:
            raise SpecError(f"sweep.workloads: unknown workload "
                            f"{workload!r}; choose from "
                            f"{sorted(WORKLOAD_NAMES)}")
    if "instructions" not in sweep:
        raise SpecError("sweep.instructions is required")
    axes["instructions"] = _scalar_axis(sweep, "instructions",
                                        "sweep.instructions", None, int,
                                        "positive integers (instructions)")
    axes["seeds"] = _scalar_axis(sweep, "seeds", "sweep.seeds", 42, int,
                                 "integers")
    axes["warmup"] = _scalar_axis(sweep, "warmup", "sweep.warmup", 0.4,
                                  (int, float), "fractions in [0.0, 1.0)")
    for value in axes["instructions"]:
        if value <= 0:
            raise SpecError(f"sweep.instructions must be positive, "
                            f"got {value}")
    axes["warmup"] = [float(value) for value in axes["warmup"]]
    for value in axes["warmup"]:
        if not 0.0 <= value < 1.0:
            raise SpecError(f"sweep.warmup must be a fraction in "
                            f"[0.0, 1.0), got {value}")

    cache = _require_mapping(sweep.get("cache", {}), "sweep.cache")
    unknown = sorted(set(cache) - _CACHE_KEYS)
    if unknown:
        raise SpecError(f"sweep.cache has unknown key {unknown[0]!r}; "
                        f"allowed: {sorted(_CACHE_KEYS)}")
    axes["cache.kb"] = _scalar_axis(cache, "kb", "sweep.cache.kb", 32, int,
                                    "capacities in KiB")
    axes["cache.assoc"] = _scalar_axis(cache, "assoc", "sweep.cache.assoc",
                                       2, int, "way counts")
    axes["cache.line"] = _scalar_axis(cache, "line", "sweep.cache.line",
                                      64, int, "block sizes in bytes")
    axes["cache.replacement"] = _scalar_axis(
        cache, "replacement", "sweep.cache.replacement", "lru", str,
        "policy names")
    for policy in axes["cache.replacement"]:
        if policy not in ("lru", "fifo", "random"):
            raise SpecError(f"sweep.cache.replacement: unknown policy "
                            f"{policy!r}; choose from "
                            "['fifo', 'lru', 'random']")

    cores = sweep.get("cores", 1)
    if not isinstance(cores, int) or isinstance(cores, bool) or cores <= 0:
        raise SpecError(f"sweep.cores must be a positive integer, "
                        f"got {cores!r}")
    timing = sweep.get("timing", False)
    if not isinstance(timing, bool):
        raise SpecError(f"sweep.timing must be true or false, got {timing!r}")

    if mode == "zip":
        lengths = {key: len(values) for key, values in axes.items()
                   if len(values) > 1}
        if len(set(lengths.values())) > 1:
            detail = ", ".join(f"{key}={length}"
                               for key, length in sorted(lengths.items()))
            raise SpecError(f"sweep: zip mode needs equal-length axes; "
                            f"got {detail}")

    variants = _parse_engines(sweep.get("engines"), timing)

    spec = ScenarioSpec(name=name.strip(), description=description,
                        mode=mode, axes=axes, cores=cores,
                        variants=variants, timing=timing,
                        source=json.loads(json.dumps(raw)))
    # Expanding validates per-combination cache geometry eagerly, so a
    # spec never fails halfway through a run.
    spec.points()
    return spec


def _product_combos(axes: Dict[str, List[Any]]):
    """Cross product of the scalar axes, outermost axis first."""
    keys = [key for key, _ in _SCALAR_AXES]
    combos: List[Dict[str, Any]] = [{}]
    for key in keys:
        combos = [{**combo, key: value}
                  for combo in combos for value in axes[key]]
    return combos


def _zip_combos(axes: Dict[str, List[Any]]):
    """Position-wise combination; scalars broadcast to the shared length."""
    keys = [key for key, _ in _SCALAR_AXES]
    length = max((len(axes[key]) for key in keys), default=1)
    return [
        {key: axes[key][i if len(axes[key]) > 1 else 0] for key in keys}
        for i in range(length)
    ]


# ---------------------------------------------------------------------------
# file loading


def load_spec(path: Union[str, Path],
              sweep_overrides: Optional[Mapping[str, Any]] = None
              ) -> ScenarioSpec:
    """Load and validate a scenario file (``.yaml``/``.yml``/``.json``).

    ``sweep_overrides`` replaces top-level ``sweep`` keys before
    validation (each key wholesale — no deep merge), which is how tests
    and ad-hoc runs rescale a checked-in scenario without editing it.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as error:
        raise SpecError(f"cannot read scenario file {path}: {error}") from error
    if path.suffix.lower() in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError as error:  # pragma: no cover - env-dependent
            raise SpecError(
                f"{path} is YAML but PyYAML is not installed; install "
                "pyyaml or use a .json scenario") from error
        try:
            raw = yaml.safe_load(text)
        except yaml.YAMLError as error:
            raise SpecError(f"{path} is not valid YAML: {error}") from error
    elif path.suffix.lower() == ".json":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError(f"{path} is not valid JSON: {error}") from error
    else:
        raise SpecError(f"unsupported scenario file type {path.suffix!r} "
                        f"for {path}; use .yaml, .yml or .json")
    raw = _require_mapping(raw, "spec")
    if sweep_overrides:
        raw = dict(raw)
        raw["sweep"] = {**_require_mapping(raw.get("sweep", {}), "sweep"),
                        **dict(sweep_overrides)}
    return parse_spec(raw)
