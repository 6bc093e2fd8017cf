"""Durable queue and journal: append/flush discipline, resume recovery."""

import json

import pytest

from repro.faultinject.errors import CheckpointCorrupt, CheckpointMismatch
from repro.service.journal import (
    JobJournal,
    append_queue,
    load_journal,
    load_queue,
)
from repro.service.scenario import JobSpec


def _spec(job_id="j1", behavior="ok"):
    return JobSpec(id=job_id, kind="probe", options={"behavior": behavior})


class TestQueue:
    def test_round_trip_preserves_order(self, tmp_path):
        path = tmp_path / "queue.jsonl"
        specs = [_spec("b"), _spec("a"), _spec("c")]
        added, skipped = append_queue(path, specs)
        assert (added, skipped) == (3, 0)
        assert [s.id for s in load_queue(path)] == ["b", "a", "c"]

    def test_resubmission_is_idempotent(self, tmp_path):
        path = tmp_path / "queue.jsonl"
        append_queue(path, [_spec("a")])
        added, skipped = append_queue(path, [_spec("a"), _spec("b")])
        assert (added, skipped) == (1, 1)
        assert [s.id for s in load_queue(path)] == ["a", "b"]

    def test_changed_spec_under_existing_id_refused(self, tmp_path):
        path = tmp_path / "queue.jsonl"
        append_queue(path, [_spec("a", "ok")])
        with pytest.raises(CheckpointMismatch, match="already queued"):
            append_queue(path, [_spec("a", "sleep")])

    def test_missing_header_refused(self, tmp_path):
        path = tmp_path / "queue.jsonl"
        path.write_text('{"job": "a"}\n')
        with pytest.raises(CheckpointCorrupt, match="header"):
            load_queue(path)


class TestJournal:
    def test_attempts_and_done_recovered(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        spec = _spec("a")
        with JobJournal(path) as journal:
            journal.attempt_failed(spec, 1, "WorkerLost", "died")
            journal.attempt_failed(spec, 2, "JobTimeout", "hung")
            journal.done(spec, {"job": "a", "outcome": "succeeded",
                                "attempts": 3})
        states = load_journal(path, {"a": spec})
        assert states["a"].attempts == 2
        assert states["a"].last_error == "JobTimeout"
        assert states["a"].terminal
        assert states["a"].record["attempts"] == 3

    def test_truncated_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        spec = _spec("a")
        with JobJournal(path) as journal:
            journal.attempt_failed(spec, 1, "WorkerLost", "died")
        with path.open("a") as fh:
            fh.write('{"job": "a", "hash": "tru')  # killed mid-write
        states = load_journal(path, {"a": spec})
        assert states["a"].attempts == 1
        assert not states["a"].terminal

    def test_corrupt_interior_line_refused(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        spec = _spec("a")
        with JobJournal(path) as journal:
            journal.done(spec, {"outcome": "succeeded"})
        lines = path.read_text().splitlines()
        lines.insert(1, "GARBAGE")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointCorrupt, match="corrupt journal line"):
            load_journal(path, {"a": spec})

    def test_edited_spec_refused_on_resume(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as journal:
            journal.attempt_failed(_spec("a", "ok"), 1, "WorkerLost", "died")
        with pytest.raises(CheckpointMismatch, match="different job spec"):
            load_journal(path, {"a": _spec("a", "sleep")})

    def test_events_for_dequeued_jobs_ignored(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as journal:
            journal.done(_spec("gone"), {"outcome": "succeeded"})
        assert load_journal(path, {"a": _spec("a")}) == {}

    def test_resume_appends_instead_of_truncating(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        spec = _spec("a")
        with JobJournal(path) as journal:
            journal.attempt_failed(spec, 1, "WorkerLost", "died")
        with JobJournal(path, resume=True) as journal:
            assert journal.appending
            journal.done(spec, {"outcome": "succeeded"})
        states = load_journal(path, {"a": spec})
        assert states["a"].attempts == 1
        assert states["a"].terminal

    def test_every_event_is_flushed_immediately(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        spec = _spec("a")
        journal = JobJournal(path)
        journal.attempt_failed(spec, 1, "WorkerLost", "died")
        # Readable by another process before close(): the event must
        # already be on disk, or a SIGKILL would lose it.
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["event"] == "attempt"
        journal.close()
