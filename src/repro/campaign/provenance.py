"""Append-only, queryable campaign provenance (JSONL).

Berriman et al.'s provenance study (PAPERS.md) argues that knowing
*which inputs, prices and seeds produced each mosaic* is the operational
half of the cost story.  This module is that record for simulated
campaigns: one JSON object per line, written in schedule order, keyed on
content fingerprints (:meth:`repro.workflow.dag.Workflow.fingerprint`
for plates, the campaign fingerprint for the run), so a log line is
meaningful on any machine that can rebuild the plates.

Determinism is load-bearing.  Records are serialized *canonically*
(sorted keys, no whitespace, ``repr``-faithful floats via ``json``) and
carry only **logical** time — sequence numbers, pass indices, attempt
counters — never wall-clock timestamps.  A resumed campaign therefore
re-derives byte-for-byte the lines an interrupted run already wrote;
:meth:`ProvenanceLog.emit` *verifies* that prefix instead of rewriting
it, and only appends genuinely new lines.  Any divergence (a different
seed, a doctored line, a log from another campaign) raises
:class:`ProvenanceMismatchError` rather than silently forking history.

Record kinds (``"kind"`` field), in the order they may appear:

``header``
    One per log, first line: schema version, campaign fingerprint,
    policy, failure/budget configuration, the price schedule (name and
    every rate), and the plate manifest (name + fingerprint each).
``attempt``
    One per executed-and-billed plate attempt: sequence number, pass,
    plate name/fingerprint, attempt index, the attempt's derived seed,
    the outcome (``success``/``failed``), the metrics the bill was
    computed from, and the billed cost.
``abandon``
    A plate left incomplete, with the reason (``retry-budget`` or
    ``cost-budget``) and how many attempts were spent.
``summary``
    One per log, last line: completed/abandoned counts, total attempts,
    passes, and the reconciled total billed cost.

The log is the *sole* input of :func:`repro.audit.campaign.audit_campaign`:
every campaign-legality check is recomputable from these lines alone.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterable

__all__ = [
    "SCHEMA_VERSION",
    "ProvenanceLog",
    "ProvenanceMismatchError",
    "canonical_line",
    "read_records",
]

#: Version stamped into every header; bump on incompatible layout change.
SCHEMA_VERSION = 1


class ProvenanceMismatchError(ValueError):
    """A resumed campaign tried to rewrite history.

    Raised when :meth:`ProvenanceLog.emit` derives a line that differs
    from what an earlier (interrupted) run already recorded at the same
    position — the log on disk belongs to a different campaign, or was
    tampered with.
    """


def canonical_line(record: dict[str, Any]) -> str:
    """Serialize one record to its canonical single-line JSON form.

    Sorted keys and no optional whitespace make the serialization a
    pure function of the record's content, so identical records are
    identical bytes — the property the resume prefix-check relies on.
    """
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def read_records(path: str | Path) -> list[dict[str, Any]]:
    """Parse every record of a provenance log file, in order."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ProvenanceMismatchError(
                    f"{path}:{i + 1}: not valid JSON: {exc}"
                ) from None
    return records


class ProvenanceLog:
    """An append-only campaign log with prefix-verified resume.

    With ``path=None`` the log lives in memory only (the policy study
    and the property suites use this); with a path, every appended line
    is flushed to disk immediately, and a pre-existing file is loaded as
    the verified prefix a resumed campaign must re-derive.  A torn last
    line (no final newline: the kill landed inside an append) is cut
    off the file and re-derived; a bad line anywhere else still raises
    :class:`ProvenanceMismatchError`.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self._path = Path(path) if path is not None else None
        self._lines: list[str] = []
        #: next position emit() will verify-or-append at
        self._cursor = 0
        if self._path is not None and self._path.exists():
            data = self._path.read_bytes()
            # A final line without its newline is an append a kill
            # interrupted: drop it, and this run re-derives it.
            complete = data.rfind(b"\n") + 1
            if complete < len(data):
                with open(self._path, "r+b") as fh:
                    fh.truncate(complete)
                    os.fsync(fh.fileno())
            text = data[:complete].decode("utf-8")
            self._lines = [ln for ln in text.splitlines() if ln]
        #: length of the pre-existing prefix this run must re-derive
        self._prefix = len(self._lines)

    @property
    def path(self) -> Path | None:
        return self._path

    @property
    def lines(self) -> tuple[str, ...]:
        """Every recorded line (canonical serialization), in order."""
        return tuple(self._lines)

    def __len__(self) -> int:
        return len(self._lines)

    @property
    def replayed(self) -> int:
        """Lines this run verified against a prior run's prefix."""
        return min(self._cursor, self._prefix)

    def records(self) -> list[dict[str, Any]]:
        """Every record parsed back, in order."""
        return [json.loads(line) for line in self._lines]

    def emit(self, record: dict[str, Any]) -> dict[str, Any]:
        """Record one event: verify against the prefix, else append.

        While the cursor is inside the prefix left by an interrupted
        run, the derived line must match byte-for-byte (campaigns are
        deterministic, so a resume re-derives exactly what was already
        written); past the prefix, the line is appended and — with a
        disk layer — flushed before returning, so a kill immediately
        after an attempt never loses its record.
        """
        line = canonical_line(record)
        if self._cursor < len(self._lines):
            existing = self._lines[self._cursor]
            if existing != line:
                raise ProvenanceMismatchError(
                    f"provenance log diverges at line {self._cursor + 1}: "
                    f"recorded {existing[:120]!r} but this campaign "
                    f"derives {line[:120]!r}"
                )
        else:
            self._lines.append(line)
            if self._path is not None:
                with open(self._path, "a", encoding="utf-8") as fh:
                    fh.write(line + "\n")
                    fh.flush()
                    os.fsync(fh.fileno())
        self._cursor += 1
        return record

    def emit_many(self, records: Iterable[dict[str, Any]]) -> None:
        for record in records:
            self.emit(record)
