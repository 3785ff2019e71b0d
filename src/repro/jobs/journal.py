"""Append-only, checksummed run journal.

A :class:`RunJournal` is one JSONL file per sweep inside a run
directory.  Every line is a self-contained record: a ``type``, the
record payload, and a ``crc`` — a truncated SHA-256 over the canonical
JSON rendering of everything else — so a partially written line (the
process died mid-``write``) is detectable and recoverable.

Crash-safety rules on load:

* a final line that does not parse, lacks its checksum, or fails the
  checksum is a *torn tail* — it is dropped (the shard it described
  simply re-executes) and overwritten by the next append;
* a corrupt line anywhere *before* the tail means the file was damaged
  by something other than a crash-during-append, and the journal
  refuses to load (:class:`~repro.errors.ConfigurationError`) rather
  than silently skipping committed work;
* the first record must be a ``run_header`` naming the measurement-spec
  digest, technology digest, and shard plan the journal was written
  under; resuming with a different session or plan is refused.

The journal is append-only by construction: records are written with
one ``write`` + ``flush`` + ``fsync`` per append.  Durability has a
measurable price on small sweeps: a one-shard, 8-point service job makes
four appends (header, dispatch, completion, run end), and the service
persists its answer as one more fsync'd segment.  On a 2-vCPU host
those five fsyncs took a median 1.5 ms of a 10 ms novel job.  Every
fsync stays: a record that is not on disk is work a crash would lose.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = ["RunJournal", "prepare_run_dir", "RUN_MARKER"]

#: Journal format version, embedded in (and required of) every header.
JOURNAL_VERSION = 1

#: Marker file identifying a directory as a repro.jobs run directory.
RUN_MARKER = "RUN.json"

#: Header fields that must match exactly for a resume to be accepted.
_IDENTITY_FIELDS = (
    "journal_version",
    "spec_digest",
    "tech_digest",
    "grid_digest",
    "shard_size",
    "shard_count",
    "config_count",
)


def _checksum(payload: Dict[str, Any]) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _encode(record: Dict[str, Any]) -> str:
    line = dict(record)
    line["crc"] = _checksum(record)
    return json.dumps(line, sort_keys=True, separators=(",", ":"))


def _decode(line: str) -> Optional[Dict[str, Any]]:
    """One verified record, or None if the line is torn/corrupt."""
    try:
        parsed = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(parsed, dict) or "crc" not in parsed or "type" not in parsed:
        return None
    crc = parsed.pop("crc")
    if crc != _checksum(parsed):
        return None
    return parsed


class RunJournal:
    """One sweep's append-only event log.

    Use :meth:`open` (which writes or verifies the ``run_header``)
    rather than constructing directly.  ``records`` holds every verified
    record, header included, in file order.
    """

    def __init__(self, path: Path, records: List[Dict[str, Any]]) -> None:
        self.path = Path(path)
        self.records = records

    # -- construction ----------------------------------------------------------

    @classmethod
    def load(cls, path: Path) -> "RunJournal":
        """Read and verify an existing journal (no header checks).

        Recovers from a torn final record by truncating it away; any
        earlier corruption is fatal.
        """
        path = Path(path)
        records: List[Dict[str, Any]] = []
        if not path.exists():
            return cls(path, records)
        raw = path.read_text()
        lines = raw.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        torn_tail = False
        for index, line in enumerate(lines):
            record = _decode(line)
            if record is None:
                if index == len(lines) - 1:
                    torn_tail = True
                    break
                raise ConfigurationError(
                    f"journal {path} is corrupt at line {index + 1} "
                    f"(not a torn tail); refusing to resume from it"
                )
            records.append(record)
        journal = cls(path, records)
        if torn_tail:
            journal._truncate_to_records()
        return journal

    @classmethod
    def open(cls, path: Path, header: Dict[str, Any]) -> "RunJournal":
        """Open for a run described by ``header``, creating or resuming.

        A fresh (or effectively empty) journal gets ``header`` written
        as its ``run_header``.  An existing journal must carry an
        identical identity — in particular the same measurement-spec
        digest — or a :class:`~repro.errors.ConfigurationError` refuses
        the resume.
        """
        journal = cls.load(path)
        if not journal.records:
            journal.path.parent.mkdir(parents=True, exist_ok=True)
            # A torn header (crash during the very first append) leaves
            # zero verified records; start the file over.
            if journal.path.exists():
                journal.path.unlink()
            journal.append("run_header", **header)
            return journal
        existing = journal.records[0]
        if existing.get("type") != "run_header":
            raise ConfigurationError(
                f"journal {path} does not start with a run_header; "
                f"refusing to resume from it"
            )
        for field in _IDENTITY_FIELDS:
            if existing.get(field) != header.get(field):
                raise ConfigurationError(
                    f"refusing to resume from journal {path}: {field} "
                    f"mismatch (journal has {existing.get(field)!r}, this "
                    f"run has {header.get(field)!r}) — the journal was "
                    f"written by a different session or shard plan; use a "
                    f"fresh --run-dir"
                )
        return journal

    # -- appending -------------------------------------------------------------

    def append(self, record_type: str, **data: Any) -> Dict[str, Any]:
        """Durably append one record (write + flush + fsync)."""
        record = {"type": record_type, **data}
        with open(self.path, "a") as handle:
            handle.write(_encode(record) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self.records.append(record)
        return record

    def _truncate_to_records(self) -> None:
        """Rewrite the file to exactly the verified records (drops a torn tail)."""
        text = "".join(_encode(record) + "\n" for record in self.records)
        self.path.write_text(text)

    # -- replay ----------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return any(r.get("type") == "run_completed" for r in self.records)

    def replay(self) -> Tuple[Dict[int, List[Dict[str, Any]]], Dict[int, int]]:
        """Fold the event log into resume state.

        Returns ``(completed, dispatched)``: per-shard committed point
        records (last commit wins, though shards commit at most once),
        and per-shard dispatch counts — the number of times the shard
        has *started* executing, which resumed runs carry forward so the
        journal records a global attempt index per shard.
        """
        completed: Dict[int, List[Dict[str, Any]]] = {}
        dispatched: Dict[int, int] = {}
        for record in self.records:
            kind = record.get("type")
            if kind == "shard_dispatched":
                shard = int(record["shard"])
                dispatched[shard] = dispatched.get(shard, 0) + 1
            elif kind == "shard_completed":
                completed[int(record["shard"])] = list(record["points"])
        return completed, dispatched


def prepare_run_dir(run_dir: Path, resume: bool) -> Path:
    """Create (or re-enter) a run directory.

    A directory that already holds a run marker is only re-entered with
    ``resume=True`` — starting a *fresh* run on top of an old journal
    would silently mix two runs' shards.  An empty or absent directory
    is always acceptable, resume flag or not.
    """
    run_dir = Path(run_dir)
    marker = run_dir / RUN_MARKER
    if marker.exists() and not resume:
        raise ConfigurationError(
            f"run directory {run_dir} already contains a run; pass --resume "
            f"to continue it or point --run-dir at a fresh directory"
        )
    (run_dir / "sweeps").mkdir(parents=True, exist_ok=True)
    if not marker.exists():
        marker.write_text(
            json.dumps({"format": "repro.jobs/run", "version": JOURNAL_VERSION})
            + "\n"
        )
    return run_dir
