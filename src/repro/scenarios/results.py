"""Append-only on-disk results store for scenario sweeps.

One sweep output directory holds three files:

* ``scenario.json`` — the raw spec the sweep was launched with, written
  (atomically, overwriting) at the start of every ``run`` so ``status``
  and ``report`` work without the original scenario file;
* ``results.jsonl`` — one JSON record per *completed* simulation point
  (or per *quarantined* point — a ``failed`` record, see the runner),
  appended via fsync-and-rename as each trace group finishes;
* ``baselines.jsonl`` — the no-prefetch baseline memo sidecar
  (:class:`BaselineSidecar`): one line per (trace content hash, cache
  geometry, replacement, warmup) baseline ever computed for this sweep
  directory, appended as groups finish.  Later runs seed their worker
  processes from it, so resumed or engine-axis-extended sweeps skip the
  baseline replays entirely.  Purely an accelerator: deleting the file
  (or any malformed line in it) only costs recomputation.

Records are keyed by the point's content hash
(:func:`~repro.scenarios.spec.point_hash`) plus the trace
generator-version hash (:func:`~repro.trace.store.generator_version_hash`),
giving the resume semantics: a rerun of the same scenario skips every
point that already has a record *under the current generator version*
and recomputes nothing else.  Records written by an older generator are
ignored (the traces they measured no longer exist) but never deleted —
the file is append-only, and the newest record per hash wins.

Interrupt tolerance: a sweep killed mid-append leaves at most one
truncated trailing line; :meth:`ResultsStore.load` drops lines that do
not parse instead of failing, so the next ``run`` simply recomputes the
point whose record was lost.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, Tuple, Union

from ..faults import fire
from ..trace.store import active_generator

#: Record field holding the point hash.
HASH_FIELD = "hash"

#: Record field holding the 12-hex-digit generator-version prefix.
GENERATOR_FIELD = "generator"


def current_generator() -> str:
    """The generator-version prefix stamped into new records (the
    local source hash, or a ``--fetch-traces`` worker's installed
    coordinator override — see
    :func:`repro.trace.store.set_generator_override`)."""
    return active_generator()


def _atomic_append(path: Path, lines: Iterable[str], site: str) -> None:
    """Append ``lines`` to the JSONL file at ``path`` atomically.

    Write the full new contents to a scratch file in the same
    directory, fsync it, and rename over the original (the same
    discipline ``service/jobs.py`` uses) — a crash at any instant
    leaves either the old file or the new one, never a partial line.
    The read-side truncated-tail tolerance stays as defense in depth
    against stores written by older versions or foreign tooling.

    ``site`` is the fault-injection point for this write; a matching
    ``truncate`` fault shears trailing bytes off the payload before it
    lands, simulating exactly the torn write the atomic path is meant
    to prevent (and that readers must still survive).
    """
    encoded = "".join(lines).encode("utf-8")
    if not encoded:
        return
    try:
        existing = path.read_bytes()
    except FileNotFoundError:
        existing = b""
    payload = existing + encoded
    fault = fire(site, path.name)
    if fault is not None and fault.action == "truncate":
        payload = payload[:max(len(existing), len(payload) - 7)]
    scratch = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(scratch, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(scratch, path)
    finally:
        scratch.unlink(missing_ok=True)


class ResultsStore:
    """The per-sweep results directory (see module docstring)."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    @property
    def records_path(self) -> Path:
        return self.root / "results.jsonl"

    @property
    def scenario_path(self) -> Path:
        return self.root / "scenario.json"

    # ------------------------------------------------------------------

    def write_scenario(self, raw_spec: Dict[str, Any]) -> None:
        """Persist the launching spec (atomic replace)."""
        self.root.mkdir(parents=True, exist_ok=True)
        scratch = self.scenario_path.with_suffix(".json.tmp")
        scratch.write_text(json.dumps(raw_spec, indent=2, sort_keys=True)
                           + "\n")
        scratch.replace(self.scenario_path)

    def load_scenario(self) -> Dict[str, Any]:
        """The spec ``run`` recorded; raises FileNotFoundError if none."""
        return json.loads(self.scenario_path.read_text())

    # ------------------------------------------------------------------

    def append_all(self, records: Iterable[Dict[str, Any]]) -> None:
        """Append several records in one fsync-and-rename cycle."""
        records = list(records)
        if not records:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        _atomic_append(
            self.records_path,
            (json.dumps(record, sort_keys=True, separators=(",", ":"))
             + "\n" for record in records),
            site="results.append")

    def merge_all(self, records: Iterable[Dict[str, Any]]) -> int:
        """Append ``records`` newest-wins, skipping exact duplicates.

        The distributed coordinator's ingest path: when a lease expires
        and the group is re-run elsewhere, both workers may report the
        same points (the duplicate-lease race).  Records are
        deterministic in the point alone, so the replayed copies are
        byte-identical to what the store already holds — this drops
        them instead of appending no-op lines, keeping the raw file
        convergent.  A record that *differs* from the stored one (a
        success superseding a quarantine record, say) is appended and
        wins by newest-wins exactly like :meth:`append_all`.  Returns
        the number of records actually appended.
        """
        records = list(records)
        if not records:
            return 0
        current = self.load()
        fresh = [record for record in records
                 if current.get(record.get(HASH_FIELD)) != record]
        if fresh:
            self.append_all(fresh)
        return len(fresh)

    def load(self) -> Dict[str, Dict[str, Any]]:
        """All readable records, newest-wins, keyed by point hash.

        Every generator version's records are returned (callers filter
        by :data:`GENERATOR_FIELD` as needed); unparseable lines — the
        truncated tail a killed run leaves — are skipped silently.
        """
        records: Dict[str, Dict[str, Any]] = {}
        try:
            text = self.records_path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return records
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(record, dict):
                continue
            digest = record.get(HASH_FIELD)
            if isinstance(digest, str):
                records[digest] = record
        return records

    def load_current(self) -> Dict[str, Dict[str, Any]]:
        """Records stamped with the running generator version only."""
        generator = current_generator()
        return {digest: record
                for digest, record in self.load().items()
                if record.get(GENERATOR_FIELD) == generator}


class BaselineSidecar:
    """The baseline-memo sidecar of one sweep directory (see module
    docstring).  Append-only JSONL, same interrupt tolerance as the
    results store: unparseable lines are skipped, newest record per key
    wins (identical by construction anyway).  Each line records the
    memo key, the baseline payload, and the trace identity tuple
    ``[workload, instructions, seed, core]`` that produced it, so the
    runner can attach to each task only the entries for *its* trace."""

    FILENAME = "baselines.jsonl"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    @property
    def path(self) -> Path:
        return self.root / self.FILENAME

    def _lines(self):
        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if (isinstance(record, dict) and isinstance(record.get("key"),
                                                        str)
                    and isinstance(record.get("baseline"), dict)):
                yield record

    def load_all(self) -> Tuple[Dict[str, Dict[str, Any]],
                                Dict[tuple, Dict[str, Dict[str, Any]]]]:
        """(all entries by key, entries grouped by trace tuple) in one
        file pass — what the sweep runner reads at startup."""
        entries: Dict[str, Dict[str, Any]] = {}
        grouped: Dict[tuple, Dict[str, Dict[str, Any]]] = {}
        for record in self._lines():
            entries[record["key"]] = record["baseline"]
            trace = record.get("trace")
            if isinstance(trace, list) and len(trace) == 4:
                grouped.setdefault(tuple(trace), {})[record["key"]] = \
                    record["baseline"]
        return entries, grouped

    def append_missing(self, entries: Dict[str, Dict[str, Any]],
                       known: set, trace: tuple) -> int:
        """Append ``trace``'s entries whose key is not in ``known``
        (which is updated in place); returns the number appended."""
        fresh = {key: value for key, value in entries.items()
                 if key not in known}
        if not fresh:
            return 0
        self.root.mkdir(parents=True, exist_ok=True)
        _atomic_append(
            self.path,
            (json.dumps(
                {"key": key, "baseline": value, "trace": list(trace)},
                sort_keys=True, separators=(",", ":")) + "\n"
             for key in sorted(fresh) for value in (fresh[key],)),
            site="sidecar.append")
        known.update(fresh)
        return len(fresh)
