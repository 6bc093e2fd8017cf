"""JSONL trial journal making campaigns resumable.

Format (one JSON object per line)::

    {"kind": "fi-checkpoint", "version": 1, "fingerprint": {...}}
    {"structure": "A", "trial": 0, "outcome": "benign"}
    {"structure": "A", "trial": 1, "outcome": "sdc"}
    ...

The first line is a header carrying the campaign *fingerprint* —
``kernel``, ``workload`` (name + params), ``seed`` and ``tolerance`` —
everything that determines trial outcomes.  Trial counts and structure
subsets are deliberately *not* part of the fingerprint: per-trial
seeding makes outcomes identical across those choices, so a journal
from a 100-trial campaign validly seeds a 500-trial resume.

Each completed trial is appended and flushed immediately, so a hard
kill loses at most the line being written, and a resumed campaign
appends to the same journal.  The loader tolerates a truncated final
line (the normal kill artifact, which the writer ends before
appending) but raises
:class:`~repro.faultinject.errors.CheckpointCorrupt` for corruption
anywhere else, and
:class:`~repro.faultinject.errors.CheckpointMismatch` when the
fingerprint disagrees with the resuming campaign.  The format's reader
(:func:`read_jsonl`) and writer (:class:`JsonlWriter`) also back the job
service's journal and queue (:mod:`repro.service.journal`).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.faultinject.errors import CheckpointCorrupt, CheckpointMismatch
from repro.faultinject.outcomes import Outcome
from repro.kernels.base import Workload

#: Journal format version; bump on incompatible change.
CHECKPOINT_VERSION = 1
_HEADER_KIND = "fi-checkpoint"


def campaign_fingerprint(
    kernel: str, workload: Workload, seed: int, tolerance: float
) -> dict:
    """JSON-safe identity of a trial population.

    Two campaigns with equal fingerprints produce bit-identical
    outcomes for any shared ``(structure, trial)`` pair.
    """
    fingerprint = {
        "kernel": kernel.upper(),
        "workload": workload.name,
        "params": {str(k): workload.params[k] for k in sorted(workload.params)},
        "seed": int(seed),
        "tolerance": float(tolerance),
    }
    # Round-trip so comparisons against loaded headers see the same
    # JSON-normalized values (tuples become lists, ints stay ints).
    return json.loads(json.dumps(fingerprint))


def load_checkpoint(
    path: str | os.PathLike, fingerprint: dict | None = None
) -> dict[tuple[str, int], Outcome]:
    """Read a journal, returning ``{(structure, trial): Outcome}``.

    Duplicate ``(structure, trial)`` lines keep the last occurrence (a
    journal appended to across several resumes is still valid).  When
    ``fingerprint`` is given, the header must match it exactly.
    """
    path = Path(path)
    header, lines = read_jsonl(path, _HEADER_KIND, CHECKPOINT_VERSION)
    if fingerprint is not None and header.get("fingerprint") != fingerprint:
        raise CheckpointMismatch(
            f"{path}: checkpoint was written by a different campaign "
            f"(header {header.get('fingerprint')!r} != expected "
            f"{fingerprint!r}); refusing to merge trial populations"
        )
    records: dict[tuple[str, int], Outcome] = {}
    for line_number, obj in lines:
        try:
            key = (str(obj["structure"]), int(obj["trial"]))
            records[key] = Outcome(obj["outcome"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointCorrupt(
                f"{path}:{line_number}: malformed trial record {obj!r}"
            ) from exc
    return records


# ----------------------------------------------------------------------
# JSONL journal format, shared with the job service's journal and queue
# ----------------------------------------------------------------------
def read_jsonl(
    path: Path, kind: str, version: int
) -> tuple[dict, list[tuple[int, dict]]]:
    """Header and ``(line number, object)`` records of a JSONL journal.

    The first line must be a ``{"kind": kind, "version": version, ...}``
    header.  Blank lines are skipped, and an unparseable *final* line —
    the normal artifact of a kill mid-write — is dropped; a bad line
    anywhere else raises :class:`CheckpointCorrupt`.
    """
    with path.open("r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise CheckpointCorrupt(f"{path}: empty journal file")
    header = _parse_line(path, lines[0], 1, last=len(lines) == 1)
    if header is None or header.get("kind") != kind:
        raise CheckpointCorrupt(f"{path}: missing {kind} header")
    if header.get("version") != version:
        raise CheckpointCorrupt(
            f"{path}: unsupported {kind} version {header.get('version')!r}"
        )
    records = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        obj = _parse_line(path, line, i, last=i == len(lines))
        if obj is not None:
            records.append((i, obj))
    return header, records


def _parse_line(path: Path, line: str, line_number: int, *, last: bool):
    """Parse one journal line; a bad *final* line returns None."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        if last:
            return None
        raise CheckpointCorrupt(
            f"{path}:{line_number}: corrupt journal line {line!r}"
        ) from exc
    if not isinstance(obj, dict):
        if last:
            return None
        raise CheckpointCorrupt(
            f"{path}:{line_number}: journal line is not an object: {line!r}"
        )
    return obj


def _end_final_line(path: Path) -> None:
    """Newline-terminate a journal's final line before appending to it.

    A kill mid-write leaves the final line unterminated.  The reader
    keeps it when it parses and drops it otherwise; appending straight
    after it would glue the next record onto it and corrupt both.  So
    do what the reader does: terminate a parseable tail, cut any other.
    """
    data = path.read_bytes()
    if not data or data.endswith(b"\n"):
        return
    cut = data.rfind(b"\n") + 1
    tail = data[cut:].decode("utf-8", "replace")
    with path.open("r+b") as fh:
        if _parse_line(path, tail, 0, last=True) is None:
            fh.truncate(cut)
        else:
            fh.seek(0, os.SEEK_END)
            fh.write(b"\n")


class JsonlWriter:
    """Append-mode JSONL journal, every line flushed before returning.

    ``resume=True`` appends to an existing non-empty journal (whose
    header the caller has already validated), after ending a final line
    a kill left unterminated; otherwise any existing file is truncated
    and ``header`` written first.
    """

    def __init__(
        self, path: str | os.PathLike, header: dict, resume: bool = False
    ):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if resume and self.path.exists():
            _end_final_line(self.path)
        #: True when continuing an existing journal (header kept) rather
        #: than starting a fresh one.
        self.appending = (
            resume and self.path.exists() and self.path.stat().st_size > 0
        )
        self._fh = self.path.open(
            "a" if self.appending else "w", encoding="utf-8"
        )
        if not self.appending:
            self._write_line(header)

    def _write_line(self, obj: dict) -> None:
        self._fh.write(json.dumps(obj, separators=(",", ":")) + "\n")
        self._fh.flush()

    def close(self) -> None:
        """Flush and close the journal file (idempotent)."""
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class CheckpointWriter(JsonlWriter):
    """Append-mode trial journal with immediate flush.

    Continues an existing non-empty journal (whose header the campaign
    has already checked against ``fingerprint``); otherwise starts one.
    """

    def __init__(self, path: str | os.PathLike, fingerprint: dict):
        super().__init__(
            path,
            {
                "kind": _HEADER_KIND,
                "version": CHECKPOINT_VERSION,
                "fingerprint": fingerprint,
            },
            resume=True,
        )

    def append(self, structure: str, trial_index: int, outcome: Outcome) -> None:
        """Journal one completed trial (flushed before returning)."""
        self._write_line(
            {
                "structure": structure,
                "trial": int(trial_index),
                "outcome": outcome.value,
            }
        )
