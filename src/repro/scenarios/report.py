"""Summaries of a sweep's results store: status, markdown, CSV.

Aggregation model: a scenario's points form a grid of *rows* × *engine
variants* × *cores*.  The row key is every identity axis that actually
varies across the scenario — workload always, plus e.g. seed for a
seed-sensitivity study or cache geometry for a geometry sweep — except
the core index, which is averaged over (arithmetic mean across cores,
in core order — the per-core mean Figure 10 and the ablation tables
print; :func:`coverage_matrix` is their view).  Engine-variant labels
become the report columns.

Units in the emitted tables: coverage cells are *percent* (the stored
``coverage`` metric is a signed fraction; it is multiplied by 100 only
at formatting time), misses/1K-instr cells are counts per 1000 retired
instructions, speedup cells are dimensionless UIPC ratios vs the
no-prefetch baseline (1.000 = no change).
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..experiments.common import mean
from .results import ResultsStore
from .spec import ScenarioSpec, point_hash

#: Identity fields that can become row-key axes, in display order, as
#: (column header, value extractor) pairs.  ``core`` is deliberately
#: absent — cores are aggregated, never rows.
_ROW_AXES: Tuple[Tuple[str, Any], ...] = (
    ("workload", lambda point: point.workload),
    ("instructions", lambda point: point.instructions),
    ("seed", lambda point: point.seed),
    ("warmup", lambda point: point.warmup),
    ("cache-kb", lambda point: point.capacity_bytes // 1024),
    ("assoc", lambda point: point.associativity),
    ("line", lambda point: point.block_bytes),
    ("replacement", lambda point: point.replacement),
)


@dataclass(slots=True)
class Cell:
    """One (row, engine-variant) aggregate, averaged over cores.

    ``coverage`` is a signed fraction (not a percent);
    ``remaining_mpki``/``baseline_mpki`` are misses per 1000 retired
    instructions; ``speedup`` is a UIPC ratio or None when the scenario
    did not run the timing model; ``points`` counts the per-core records
    that contributed (fewer than the scenario's core count means the
    sweep is incomplete for this cell).
    """

    coverage: float
    remaining_mpki: float
    baseline_mpki: float
    speedup: Optional[float]
    points: int


@dataclass(slots=True)
class SweepSummary:
    """The aggregated grid plus completeness accounting."""

    name: str
    row_fields: Tuple[str, ...]
    labels: List[str]
    #: Ordered rows: (row-key values aligned with ``row_fields``,
    #: {label: Cell or None for not-yet-computed}).
    rows: List[Tuple[Tuple[Any, ...], Dict[str, Optional[Cell]]]]
    total: int      #: points the scenario expands to
    computed: int   #: points with a current-generator record
    has_timing: bool


def summarize(spec: ScenarioSpec, store: ResultsStore) -> SweepSummary:
    """Aggregate ``store``'s current-generator records against ``spec``.

    Records whose hash no spec point produces (leftovers from an edited
    scenario sharing the output directory) are ignored; missing cells
    come back as None so formatters can render them as gaps.
    """
    points = spec.points()
    records = store.load_current()

    varying = [
        (field, extract) for field, extract in _ROW_AXES
        if field == "workload"
        or len({extract(point) for point in points}) > 1
    ]
    row_fields = tuple(field for field, _ in varying)

    # Bucket per (row key, label): [(core, metrics)] sorted later so
    # aggregation is independent of record arrival order.
    buckets: Dict[Tuple[Tuple[Any, ...], str],
                  List[Tuple[int, Dict[str, Any]]]] = {}
    row_order: List[Tuple[Any, ...]] = []
    computed = 0
    for point in points:
        key = tuple(extract(point) for _, extract in varying)
        if key not in row_order:
            row_order.append(key)
        record = records.get(point_hash(point))
        if record is None or "metrics" not in record:
            continue  # missing, or a quarantined ``failed`` record
        computed += 1
        buckets.setdefault((key, point.label), []).append(
            (point.core, record["metrics"]))

    has_timing = any(
        "speedup" in metrics
        for entries in buckets.values() for _, metrics in entries)

    labels = spec.labels()
    rows: List[Tuple[Tuple[Any, ...], Dict[str, Optional[Cell]]]] = []
    for key in row_order:
        cells: Dict[str, Optional[Cell]] = {}
        for label in labels:
            entries = buckets.get((key, label))
            if not entries:
                cells[label] = None
                continue
            entries.sort(key=lambda item: item[0])  # by core
            metrics = [m for _, m in entries]
            speedups = [m["speedup"] for m in metrics if "speedup" in m]
            cells[label] = Cell(
                coverage=mean(m["coverage"] for m in metrics),
                remaining_mpki=mean(m["remaining_mpki"] for m in metrics),
                baseline_mpki=mean(m["baseline_mpki"] for m in metrics),
                speedup=mean(speedups) if speedups else None,
                points=len(metrics),
            )
        rows.append((key, cells))
    return SweepSummary(name=spec.name, row_fields=row_fields,
                        labels=labels, rows=rows, total=len(points),
                        computed=computed, has_timing=has_timing)


def coverage_matrix(spec: ScenarioSpec, store: ResultsStore,
                    metric: str = "coverage"
                    ) -> Dict[str, Dict[str, float]]:
    """``{workload: {column: per-core mean of metric}}`` for ``metric``
    ``coverage`` (a signed fraction) or ``speedup`` — the shape the
    figure and ablation tables render from.

    The columns are the engine labels when the workload is the only
    varying row axis.  A one-engine sweep may vary one other axis
    instead, and then its values are the columns, as strings (the
    replacement ablation's policies).  Raises ValueError when the shape
    is neither, when any cell is missing, or when ``speedup`` is asked
    of a sweep without timing.
    """
    summary = summarize(spec, store)
    axes = summary.row_fields[1:]
    if len(axes) > 1 or (axes and len(summary.labels) > 1):
        raise ValueError("coverage_matrix needs one column axis: the "
                         "engine labels, or one varying axis of a "
                         f"one-engine sweep; this one varies {axes} over "
                         f"{len(summary.labels)} engine labels")
    matrix: Dict[str, Dict[str, float]] = {}
    for key, cells in summary.rows:
        row = matrix.setdefault(key[0], {})
        for label in summary.labels:
            cell = cells[label]
            if cell is None or cell.points < spec.cores:
                where = _row_title(summary.row_fields, key)
                raise ValueError(f"sweep incomplete: "
                                 f"{cell.points if cell else 0} of "
                                 f"{spec.cores} core records for "
                                 f"{label!r} on {where!r}")
            value = getattr(cell, metric)
            if value is None:
                raise ValueError(f"sweep {spec.name!r} ran without "
                                 "timing; it has no speedup")
            row[str(key[1]) if axes else label] = value
    return matrix


# ---------------------------------------------------------------------------
# formatting


def _row_title(fields: Sequence[str], key: Sequence[Any]) -> str:
    parts = [str(key[0])]
    parts.extend(f"{field}={value}"
                 for field, value in zip(fields[1:], key[1:]))
    return " ".join(parts)


def _metric_table(summary: SweepSummary, title: str, render) -> str:
    """One markdown table over all rows with ``render(cell) -> str``."""
    out = io.StringIO()
    out.write(f"### {title}\n\n")
    header = ["scenario point"] + summary.labels
    out.write("| " + " | ".join(header) + " |\n")
    out.write("|" + "|".join("---" for _ in header) + "|\n")
    for key, cells in summary.rows:
        rendered = [
            render(cells[label]) if cells[label] is not None else "—"
            for label in summary.labels
        ]
        out.write("| " + _row_title(summary.row_fields, key) + " | "
                  + " | ".join(rendered) + " |\n")
    return out.getvalue()


def format_markdown(summary: SweepSummary) -> str:
    """The sweep report as markdown tables (see module docstring for
    cell units)."""
    out = io.StringIO()
    out.write(f"## Sweep report: {summary.name}\n\n")
    out.write(f"{summary.computed} of {summary.total} points computed")
    if summary.computed < summary.total:
        out.write(" — **incomplete**, rerun `repro sweep run` to resume")
    out.write("\n\n")
    out.write(_metric_table(
        summary, "Miss coverage (% of baseline misses eliminated)",
        lambda cell: f"{100.0 * cell.coverage:.2f}%"))
    out.write("\n")
    out.write(_metric_table(
        summary, "Remaining misses / 1K instructions (baseline in parens)",
        lambda cell: f"{cell.remaining_mpki:.3f} ({cell.baseline_mpki:.3f})"))
    if summary.has_timing:
        out.write("\n")
        out.write(_metric_table(
            summary, "Speedup vs no-prefetch baseline (UIPC ratio)",
            lambda cell: (f"{cell.speedup:.3f}" if cell.speedup is not None
                          else "—")))
    return out.getvalue()


def format_csv(summary: SweepSummary) -> str:
    """The sweep report as flat CSV, one line per (row, engine variant).

    Columns: the varying axes, the engine label, ``points`` (core
    records aggregated), ``coverage`` (signed fraction, not percent),
    ``remaining_mpki``, ``baseline_mpki``, and ``speedup`` (empty when
    the timing model did not run).
    """
    import csv

    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(list(summary.row_fields)
                    + ["engine", "points", "coverage", "remaining_mpki",
                       "baseline_mpki", "speedup"])
    for key, cells in summary.rows:
        for label in summary.labels:
            cell = cells[label]
            if cell is None:
                writer.writerow(list(key) + [label, 0, "", "", "", ""])
                continue
            writer.writerow(list(key) + [
                label, cell.points, repr(cell.coverage),
                repr(cell.remaining_mpki), repr(cell.baseline_mpki),
                repr(cell.speedup) if cell.speedup is not None else "",
            ])
    return out.getvalue()


def status_summary(spec: ScenarioSpec, store: ResultsStore
                   ) -> Dict[str, Any]:
    """Completion accounting as a flat, JSON-ready dictionary.

    Fields: ``scenario``, ``store`` (directory path), ``points``
    (expanded count), ``cores``, ``engine_variants``, ``computed``,
    ``failed`` (quarantined points — the newest current-generator
    record is a ``failed`` record; retried by the next run), ``missing``
    (no current record at all), ``stale`` (records from an older trace
    generator — recomputed on the next run), ``foreign`` (records no
    current spec point produces), and ``complete``.  This is the
    machine-readable twin of :func:`format_status` (``repro sweep
    status --format json``).
    """
    points = spec.points()
    all_records = store.load()
    current = store.load_current()
    hashes = {point_hash(point) for point in points}
    done = sum(1 for digest in hashes
               if digest in current and "failed" not in current[digest])
    failed = sum(1 for digest in hashes
                 if digest in current and "failed" in current[digest])
    stale = sum(1 for digest, record in all_records.items()
                if digest in hashes and digest not in current)
    foreign = sum(1 for digest in all_records if digest not in hashes)
    return {
        "scenario": spec.name,
        "store": str(store.root),
        "points": len(points),
        "cores": spec.cores,
        "engine_variants": len(spec.variants),
        "computed": done,
        "failed": failed,
        "missing": len(points) - done - failed,
        "stale": stale,
        "foreign": foreign,
        "complete": done == len(points),
    }


def format_status(spec: ScenarioSpec, store: ResultsStore) -> str:
    """Completion accounting for ``repro sweep status``."""
    summary = status_summary(spec, store)
    points = summary["points"]
    done = summary["computed"]
    failed = summary["failed"]
    stale = summary["stale"]
    foreign = summary["foreign"]
    lines = [
        f"scenario   {summary['scenario']}",
        f"store      {summary['store']}",
        f"points     {points} "
        f"({summary['cores']} cores x {summary['engine_variants']} "
        "engine variants)",
        f"computed   {done}",
        f"missing    {summary['missing']}",
    ]
    if failed:
        lines.append(f"failed     {failed} (quarantined; retried by the "
                     "next run)")
    if stale:
        lines.append(f"stale      {stale} (older trace generator; "
                     "will be recomputed)")
    if foreign:
        lines.append(f"foreign    {foreign} (records no current spec "
                     "point produces)")
    if summary["complete"]:
        status = "complete"
    elif failed:
        status = "degraded — rerun to retry quarantined points"
    else:
        status = "incomplete — rerun to resume"
    lines.append("status     " + status)
    return "\n".join(lines)
