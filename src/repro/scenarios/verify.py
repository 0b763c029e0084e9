"""Offline integrity checking for a sweep's on-disk state: ``repro
sweep verify``.

An fsck for the failure model (DESIGN.md "Failure model"): given a
results directory (and, when the trace store is enabled, the store it
draws from), walk every persisted artifact and report what is damaged,
quarantined, stale, or foreign — without running a single simulation.

Checked surfaces:

* ``results.jsonl`` — every line must parse as a record carrying the
  required envelope (``hash``, ``label``, ``generator``, ``kernel``,
  ``point``) and exactly one payload (``metrics`` or ``failed``); the
  stored hash must equal the recomputed content hash of the embedded
  point identity; with a spec, the hash must belong to the scenario's
  expansion.  Current-generator quarantined (``failed``) records are
  *errors* — the run completed degraded; stale-generator records are
  notes.
* ``baselines.jsonl`` — every line must parse with a string ``key``, a
  dict ``baseline``, and (when present) a 4-element ``trace`` list.
* trace store ``plans/*.npz`` — each cached train plan must load and
  carry the expected arrays with consistent lengths.
* trace store archives (``*.npz`` in the store root) — each must be a
  readable zip whose metadata passes the format loader's header checks.

``repair=True`` makes verification *restorative*: ``results.jsonl`` is
rewritten canonically — only successful current-generator records, in
spec expansion order, newest-wins — dropping corrupt lines, quarantined
records, stale and foreign leftovers so the next run recomputes exactly
what was lost; damaged sidecar lines are dropped the same way; corrupt
plan caches and trace archives are deleted (both rebuild on demand).
Because the repaired file is a pure function of (spec, surviving
records), a faulted-then-repaired-then-rerun store is byte-identical to
an undisturbed run's repaired store — the chaos equivalence lock in
``tests/faults/test_chaos.py`` and the CI ``chaos-smoke`` job.
"""

from __future__ import annotations

import json
import os
import zipfile
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Union

from ..sim.trainplan import PIFTrainPlan, PLANS_DIR
from ..trace.store import TraceStore
from .results import BaselineSidecar, ResultsStore, current_generator
from .spec import ScenarioSpec, point_hash

#: Envelope fields every results record must carry.
RECORD_FIELDS = ("hash", "label", "generator", "kernel", "point")


class VerifyFinding(NamedTuple):
    """One problem (or noteworthy condition) the checker found."""

    kind: str       #: stable machine-readable tag, e.g. ``bad-record``
    severity: str   #: ``error`` (integrity violated) or ``note``
    path: str       #: file the finding is about
    detail: str     #: human-readable explanation


class VerifyReport(NamedTuple):
    """Everything one :func:`verify_store` pass established."""

    findings: List[VerifyFinding]
    checked: Dict[str, int]   #: per-surface counts of items examined
    repaired: List[str]       #: repair actions taken (empty w/o repair)

    def errors(self) -> List[VerifyFinding]:
        return [finding for finding in self.findings
                if finding.severity == "error"]

    def clean(self) -> bool:
        return not self.errors()


def _canonical(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _rewrite(path: Path, lines: List[str]) -> None:
    """Atomically replace ``path`` with ``lines`` (may be empty)."""
    scratch = path.with_name(f"{path.name}.{os.getpid()}.repair.tmp")
    try:
        with open(scratch, "wb") as handle:
            handle.write("".join(lines).encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(scratch, path)
    finally:
        scratch.unlink(missing_ok=True)


def _check_results(spec: Optional[ScenarioSpec], store: ResultsStore,
                   repair: bool, findings: List[VerifyFinding],
                   checked: Dict[str, int], repaired: List[str]) -> None:
    path = store.records_path
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return
    name = str(path)
    generator = current_generator()
    hashes = {point_hash(point): point for point in spec.points()} \
        if spec is not None else None
    # Newest-wins over surviving successful current-generator records —
    # the repair keep-set.  Quarantine findings are emitted from the
    # *final* state, so a failure superseded by a later success (the
    # rerun-retries-quarantine flow) is not an error.
    keep: Dict[str, Dict[str, Any]] = {}
    failed_current: Dict[str, Any] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        checked["records"] = checked.get("records", 0) + 1
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            findings.append(VerifyFinding(
                "bad-record", "error", name,
                f"line {number} does not parse as JSON (torn write?)"))
            continue
        if not isinstance(record, dict):
            findings.append(VerifyFinding(
                "bad-record", "error", name,
                f"line {number} is not a JSON object"))
            continue
        missing = [field for field in RECORD_FIELDS
                   if field not in record]
        if missing:
            findings.append(VerifyFinding(
                "bad-record", "error", name,
                f"line {number} lacks fields {missing}"))
            continue
        payloads = [field for field in ("metrics", "failed")
                    if field in record]
        if len(payloads) != 1:
            findings.append(VerifyFinding(
                "bad-record", "error", name,
                f"line {number} must carry exactly one of "
                f"'metrics'/'failed', has {payloads or 'neither'}"))
            continue
        digest = record["hash"]
        recomputed = None
        if isinstance(record["point"], dict):
            import hashlib

            recomputed = hashlib.sha256(
                _canonical(record["point"]).encode()).hexdigest()
        if digest != recomputed:
            findings.append(VerifyFinding(
                "hash-mismatch", "error", name,
                f"line {number}: stored hash {str(digest)[:12]}… does "
                "not match the embedded point identity"))
            continue
        if hashes is not None and digest not in hashes:
            findings.append(VerifyFinding(
                "foreign-record", "note", name,
                f"line {number}: no point of scenario "
                f"{spec.name!r} produces hash {digest[:12]}…"))
            continue
        if record["generator"] != generator:
            findings.append(VerifyFinding(
                "stale-record", "note", name,
                f"line {number}: generator {record['generator']!r} is "
                f"not the running {generator!r}; recomputed on rerun"))
            continue
        if payloads == ["failed"]:
            info = record["failed"] if isinstance(record["failed"],
                                                  dict) else {}
            failed_current[digest] = (number, info)
            keep.pop(digest, None)  # newest-wins: failure supersedes
            continue
        keep[digest] = record
        failed_current.pop(digest, None)  # ...and success supersedes
    for digest, (number, info) in sorted(failed_current.items(),
                                         key=lambda item: item[1][0]):
        findings.append(VerifyFinding(
            "quarantined", "error", name,
            f"line {number}: point {digest[:12]}… quarantined after "
            f"{info.get('attempts', '?')} attempts "
            f"({info.get('error', 'unknown failure')}); a rerun "
            "retries it"))
    if repair:
        if hashes is not None:
            ordered = [keep[digest] for digest in hashes
                       if digest in keep]
        else:
            ordered = [keep[digest] for digest in sorted(keep)]
        _rewrite(path, [_canonical(record) + "\n"
                        for record in ordered])
        repaired.append(
            f"rewrote {name}: kept {len(ordered)} successful "
            "current-generator records in canonical order")


def _check_sidecar(sidecar: BaselineSidecar, repair: bool,
                   findings: List[VerifyFinding], checked: Dict[str, int],
                   repaired: List[str]) -> None:
    path = sidecar.path
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return
    name = str(path)
    keep: List[str] = []
    dropped = 0
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        checked["baselines"] = checked.get("baselines", 0) + 1
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            record = None
        trace = record.get("trace") if isinstance(record, dict) else None
        if (not isinstance(record, dict)
                or not isinstance(record.get("key"), str)
                or not isinstance(record.get("baseline"), dict)
                or (trace is not None
                    and not (isinstance(trace, list) and len(trace) == 4))):
            findings.append(VerifyFinding(
                "bad-baseline", "error", name,
                f"line {number} is not a valid sidecar entry (the "
                "reader skips it; only costs recomputation)"))
            dropped += 1
            continue
        keep.append(_canonical(record) + "\n")
    if repair and dropped:
        _rewrite(path, keep)
        repaired.append(f"rewrote {name}: dropped {dropped} damaged "
                        "sidecar lines")


def _check_trace_store(repair: bool, findings: List[VerifyFinding],
                       checked: Dict[str, int],
                       repaired: List[str]) -> None:
    store = TraceStore.from_env()
    if store is None or not store.root.is_dir():
        return
    import numpy as np

    from ..trace.serialize import TraceFormatError, _read_meta

    plans = store.root / PLANS_DIR
    if plans.is_dir():
        for path in sorted(plans.glob("*.npz")):
            checked["plans"] = checked.get("plans", 0) + 1
            try:
                with np.load(path) as archive:
                    lengths = {len(archive[key])
                               for key in PIFTrainPlan._fields}
                if len(lengths) > 1:
                    raise ValueError(
                        f"inconsistent array lengths {sorted(lengths)}")
            except Exception as error:  # reprolint: disable=RL009 - fsck: any load failure means the cache entry is corrupt; it is reported and (on repair) deleted, and the cache rebuilds on demand
                findings.append(VerifyFinding(
                    "bad-plan", "error", str(path),
                    f"cached train plan unreadable: {error} "
                    "(rebuilt on demand)"))
                if repair:
                    path.unlink(missing_ok=True)
                    repaired.append(f"deleted corrupt plan {path.name}")
    for path in sorted(store.root.glob("*.npz")):
        checked["archives"] = checked.get("archives", 0) + 1
        try:
            with zipfile.ZipFile(path) as archive:
                _read_meta(archive, path)
        except (OSError, ValueError, KeyError, zipfile.BadZipFile,
                TraceFormatError) as error:
            findings.append(VerifyFinding(
                "bad-archive", "error", str(path),
                f"trace archive fails header checks: {error} "
                "(regenerated on demand)"))
            if repair:
                path.unlink(missing_ok=True)
                repaired.append(f"deleted corrupt archive {path.name}")


def verify_store(spec: Optional[ScenarioSpec], out: Union[str, Path],
                 repair: bool = False,
                 check_store: bool = True) -> VerifyReport:
    """Fsck the sweep directory ``out`` (and the trace store).

    ``spec`` enables membership checks and canonical-order repair; pass
    None to verify a directory whose scenario cannot be loaded (schema
    and hash checks still run).  ``repair`` applies the restorative
    rewrites described in the module docstring.  ``check_store=False``
    skips the trace-store surfaces (plans, archives).
    """
    findings: List[VerifyFinding] = []
    checked: Dict[str, int] = {}
    repaired: List[str] = []
    store = ResultsStore(out)
    _check_results(spec, store, repair, findings, checked, repaired)
    _check_sidecar(BaselineSidecar(out), repair, findings, checked,
                   repaired)
    if check_store:
        _check_trace_store(repair, findings, checked, repaired)
    return VerifyReport(findings=findings, checked=checked,
                        repaired=repaired)


def format_report(report: VerifyReport) -> str:
    """``repro sweep verify``'s text rendering."""
    lines = []
    for surface in sorted(report.checked):
        lines.append(f"checked    {report.checked[surface]} {surface}")
    for finding in report.findings:
        lines.append(f"{finding.severity:<7}    [{finding.kind}] "
                     f"{finding.path}: {finding.detail}")
    for action in report.repaired:
        lines.append(f"repaired   {action}")
    lines.append("status     " + ("clean" if report.clean()
                                  else f"{len(report.errors())} integrity "
                                  "errors"))
    return "\n".join(lines)
