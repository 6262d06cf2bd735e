"""The on-disk run journal: one JSON line per settled unit of work.

The journal is the durability layer of :mod:`repro.runner`.  Every time a
unit of a run settles — computed successfully, or failed after exhausting
its retry budget — the runner appends one line to
``<run_dir>/journal.jsonl`` and flushes + fsyncs it, so a crash of the
*parent* process loses at most the units in flight.  ``--resume`` then
reads the journal back, skips every ``done`` unit, and replays its stored
row verbatim, which is what keeps a resumed run's ``results.json``
byte-identical to an uninterrupted one.

Entries are keyed by a content address (:func:`content_address`):
``sha256(schema|experiment|cell|seed)``.  Anything that changes what a
unit computes — a different experiment, keyword arguments, or seed — must
change the key, so resuming with different parameters simply misses the
journal and recomputes.  Lines written before the journal stopped storing
telemetry carry an ``"events"`` field; the loader ignores it, so such a
run directory still resumes.

Corrupted lines (a torn write from a crash mid-append, manual editing)
are **warnings, not errors**: the loader skips them, reports them, and
the affected cells are recomputed.  The experiments front-end
(:func:`repro.runner.resilient_run_experiments`) does the same with a
``done`` line whose row is not an experiment result.  ``failed`` entries are also not
replayed on resume — a resumed run gives previously failed cells a fresh
chance.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "JOURNAL_SCHEMA",
    "JOURNAL_NAME",
    "JournalEntry",
    "RunJournal",
    "cell_key",
    "content_address",
    "load_journal",
]

#: Version tag mixed into every journal key and record; bump when the
#: entry format changes (old journals then miss cleanly and recompute).
JOURNAL_SCHEMA = "repro-runner/1"

#: The journal's file name inside a run directory.
JOURNAL_NAME = "journal.jsonl"


def content_address(schema: str, *parts: Any) -> str:
    """SHA-256 of ``schema|part|part|...`` — the canonical content key.

    Shared by the run journal (:func:`cell_key`) and the serving daemon's
    request keys (:func:`repro.service.protocol.request_key`): any store
    keyed this way is invalidated simply by changing what goes into the
    key (schema bump, different seed, different request field, ...).
    """
    raw = "|".join([schema, *(str(part) for part in parts)])
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()


def cell_key(experiment: str, cell: str, seed: Any) -> str:
    """The content address of one unit of work:
    ``sha256(schema|experiment|cell|seed)``."""
    return content_address(JOURNAL_SCHEMA, experiment, cell, seed)


@dataclass
class JournalEntry:
    """One settled unit of work: its identity, outcome, and payload.

    ``row`` is the unit's result (JSON-canonical), replayed verbatim on
    resume.  ``status`` is ``"done"`` or ``"failed"``.
    """

    key: str
    experiment: str
    cell: str
    seed: Any
    status: str
    attempts: int = 1
    row: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    detail: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": JOURNAL_SCHEMA,
            "key": self.key,
            "experiment": self.experiment,
            "cell": self.cell,
            "seed": self.seed,
            "status": self.status,
            "attempts": self.attempts,
            "row": self.row,
            "error": self.error,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JournalEntry":
        return cls(
            key=data["key"],
            experiment=data["experiment"],
            cell=data["cell"],
            seed=data.get("seed"),
            status=data["status"],
            attempts=int(data.get("attempts", 1)),
            row=data.get("row"),
            error=data.get("error"),
            detail=data.get("detail"),
        )


class RunJournal:
    """Append-only JSONL journal with crash-tolerant durability.

    :meth:`append` writes one compact JSON line, flushes, and fsyncs —
    after it returns, the entry survives a SIGKILL of the parent.  The
    handle opens lazily in append mode, so constructing a journal for a
    fresh run directory is free and resuming appends after existing
    entries.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = None

    def append(self, entry: JournalEntry) -> None:
        if self._handle is None:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        line = json.dumps(entry.to_dict(), separators=(",", ":"))
        self._handle.write(line + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def load_journal(path: str) -> Tuple[Dict[str, JournalEntry], int]:
    """Read a journal back: ``(entries by key, corrupt line count)``.

    Corrupted lines — torn writes, wrong schema, missing fields — are
    skipped with a :class:`UserWarning` naming the line, and count toward
    the second return value; the affected cells are simply recomputed.
    A missing file is an empty journal, not an error (the caller decides
    whether an absent *run directory* is one).  Duplicate keys keep the
    last entry, so a retried-then-settled cell reads back settled.
    """
    entries: Dict[str, JournalEntry] = {}
    corrupt = 0
    if not os.path.exists(path):
        return entries, corrupt
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                if not isinstance(data, dict) or data.get("schema") != JOURNAL_SCHEMA:
                    raise ValueError(f"not a {JOURNAL_SCHEMA} record")
                entry = JournalEntry.from_dict(data)
            except (ValueError, KeyError, TypeError) as exc:
                corrupt += 1
                warnings.warn(
                    f"{path}:{lineno}: corrupted journal line ({exc}); "
                    f"the affected cell will be recomputed",
                    stacklevel=2,
                )
                continue
            entries[entry.key] = entry
    return entries, corrupt
