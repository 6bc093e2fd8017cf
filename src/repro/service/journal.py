"""Checkpointed append-only job journal (and the durable queue file).

The journal uses the fault-injection checkpoint format and its reader
and writer (:func:`~repro.faultinject.checkpoint.read_jsonl`,
:class:`~repro.faultinject.checkpoint.JsonlWriter`): a JSONL file whose
first line is a typed, versioned header, every subsequent line one
flushed event, a truncated *final* line tolerated as the normal hard-
kill artifact, and corruption or identity mismatch anywhere else
refused with the structured checkpoint errors.  ``service resume``
therefore survives SIGINT/SIGKILL of the supervisor itself: at most the
event being written is lost, and that attempt simply re-runs.

Journal format::

    {"kind": "dvf-job-journal", "version": 1, "queue": "<name>"}
    {"job": "vm", "hash": "…", "event": "attempt", "attempt": 1,
     "error_code": "WorkerLost", "error": "…"}
    {"job": "vm", "hash": "…", "event": "done", "record": {…}}

``attempt`` events record *failed* attempts that will be retried;
``done`` events carry the terminal :data:`record` (the results-JSONL
object).  Each event embeds the job's content hash, so resuming against
an edited job spec raises
:class:`~repro.faultinject.errors.CheckpointMismatch` instead of
silently mixing result populations.

The queue file is simpler — a header plus one submitted
:class:`~repro.service.scenario.JobSpec` per line — but shares the
loader discipline.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.faultinject.checkpoint import JsonlWriter, read_jsonl
from repro.faultinject.errors import CheckpointCorrupt, CheckpointMismatch
from repro.service.scenario import JobSpec

JOURNAL_VERSION = 1
_JOURNAL_KIND = "dvf-job-journal"
QUEUE_VERSION = 1
_QUEUE_KIND = "dvf-job-queue"


# ----------------------------------------------------------------------
# job journal
# ----------------------------------------------------------------------
@dataclass
class JobState:
    """Resume-relevant state of one job recovered from a journal."""

    attempts: int = 0
    record: dict | None = None
    last_error: str | None = None

    @property
    def terminal(self) -> bool:
        return self.record is not None


def load_journal(
    path: str | os.PathLike,
    specs: dict[str, JobSpec] | None = None,
) -> dict[str, JobState]:
    """Recover per-job state from a journal.

    ``specs`` (job id -> queued spec) enables the identity check: an
    event whose ``hash`` disagrees with the queued spec's content hash
    raises :class:`CheckpointMismatch`.  Events for job ids no longer
    queued are tolerated and ignored (the queue shrank; their results
    are simply not reported).
    """
    path = Path(path)
    states: dict[str, JobState] = {}
    _, events = read_jsonl(path, _JOURNAL_KIND, JOURNAL_VERSION)
    for _, obj in events:
        try:
            job = str(obj["job"])
            event = str(obj["event"])
            job_hash = str(obj["hash"])
        except (KeyError, TypeError) as exc:
            raise CheckpointCorrupt(
                f"{path}: malformed journal event {obj!r}"
            ) from exc
        if specs is not None:
            spec = specs.get(job)
            if spec is None:
                continue  # job left the queue; ignore its history
            if spec.content_hash != job_hash:
                raise CheckpointMismatch(
                    f"{path}: journaled events for job {job!r} were "
                    f"written against a different job spec (hash "
                    f"{job_hash} != queued {spec.content_hash}); delete "
                    f"the journal or restore the original spec"
                )
        state = states.setdefault(job, JobState())
        if event == "attempt":
            state.attempts += 1
            state.last_error = obj.get("error_code")
        elif event == "done":
            record = obj.get("record")
            if not isinstance(record, dict):
                raise CheckpointCorrupt(
                    f"{path}: 'done' event for job {job!r} has no record"
                )
            state.record = record
        else:
            raise CheckpointCorrupt(
                f"{path}: unknown journal event {event!r} for job {job!r}"
            )
    return states


class JobJournal(JsonlWriter):
    """Append-only, immediately-flushed execution journal."""

    def __init__(self, path: str | os.PathLike, resume: bool = False):
        super().__init__(
            path,
            {"kind": _JOURNAL_KIND, "version": JOURNAL_VERSION},
            resume=resume,
        )

    def attempt_failed(
        self,
        spec: JobSpec,
        attempt: int,
        error_code: str,
        error: str,
    ) -> None:
        """Journal one failed-but-retryable attempt."""
        self._write_line(
            {
                "job": spec.id,
                "hash": spec.content_hash,
                "event": "attempt",
                "attempt": int(attempt),
                "error_code": error_code,
                "error": error,
            }
        )

    def done(self, spec: JobSpec, record: dict) -> None:
        """Journal a job's terminal record."""
        self._write_line(
            {
                "job": spec.id,
                "hash": spec.content_hash,
                "event": "done",
                "record": record,
            }
        )


# ----------------------------------------------------------------------
# durable queue
# ----------------------------------------------------------------------
def load_queue(path: str | os.PathLike) -> list[JobSpec]:
    """Submitted jobs, in submission order (header-checked)."""
    path = Path(path)
    specs: list[JobSpec] = []
    seen: dict[str, str] = {}
    _, entries = read_jsonl(path, _QUEUE_KIND, QUEUE_VERSION)
    for _, obj in entries:
        try:
            spec = JobSpec.from_dict(obj["spec"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointCorrupt(
                f"{path}: malformed queue entry {obj!r}"
            ) from exc
        if spec.id in seen:
            if seen[spec.id] != spec.content_hash:
                raise CheckpointCorrupt(
                    f"{path}: job id {spec.id!r} queued twice with "
                    f"different specs"
                )
            continue  # idempotent re-submission
        seen[spec.id] = spec.content_hash
        specs.append(spec)
    return specs


def append_queue(
    path: str | os.PathLike, specs: list[JobSpec]
) -> tuple[int, int]:
    """Submit ``specs`` to the durable queue at ``path``.

    Idempotent per job id: re-submitting an identical spec is skipped,
    re-submitting a *changed* spec under an existing id raises
    :class:`CheckpointMismatch`.  Returns ``(added, skipped)``.
    """
    path = Path(path)
    existing = {s.id: s.content_hash for s in load_queue(path)} \
        if path.exists() and path.stat().st_size > 0 else {}
    added = skipped = 0
    with JsonlWriter(
        path, {"kind": _QUEUE_KIND, "version": QUEUE_VERSION}, resume=True
    ) as writer:
        for spec in specs:
            have = existing.get(spec.id)
            if have == spec.content_hash:
                skipped += 1
                continue
            if have is not None:
                raise CheckpointMismatch(
                    f"{path}: job id {spec.id!r} is already queued with a "
                    f"different spec; pick a new id or clear the state dir"
                )
            writer._write_line({"job": spec.id, "spec": spec.to_dict()})
            existing[spec.id] = spec.content_hash
            added += 1
    return added, skipped
