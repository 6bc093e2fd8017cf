"""Tests for checkpoint journaling, resume, and adaptive stopping."""

import json

import pytest

from repro.faultinject import campaign as campaign_module
from repro.faultinject.campaign import run_campaign, wilson_halfwidth
from repro.faultinject.checkpoint import (
    CheckpointWriter,
    campaign_fingerprint,
    load_checkpoint,
)
from repro.faultinject.errors import CheckpointCorrupt, CheckpointMismatch
from repro.faultinject.executor import InProcessExecutor
from repro.faultinject.outcomes import Outcome
from repro.kernels.base import Workload
from repro.kernels.workloads import TEST_WORKLOADS


class FusedExecutor(InProcessExecutor):
    """In-process executor that simulates Ctrl-C after ``fuse`` trials."""

    def __init__(self, fuse: int):
        self.fuse = fuse
        self.ran = 0

    def run_batch(self, specs):
        if self.ran + len(specs) > self.fuse:
            raise KeyboardInterrupt
        self.ran += len(specs)
        return super().run_batch(specs)


class TestWilson:
    def test_positive_at_p_zero_and_one(self):
        # The normal approximation collapses to ~0 here; Wilson reports
        # the genuine residual uncertainty.
        assert wilson_halfwidth(0, 50) > 0.01
        assert wilson_halfwidth(50, 50) > 0.01

    def test_matches_known_value(self):
        # Wilson 95% interval for 5/50: center 0.1142, bounds
        # (0.0434, 0.2139) — half-width 0.0853.
        assert wilson_halfwidth(5, 50) == pytest.approx(0.0853, abs=2e-3)

    def test_shrinks_with_trials(self):
        assert wilson_halfwidth(5, 500) < wilson_halfwidth(1, 100)

    def test_no_trials_is_total_uncertainty(self):
        assert wilson_halfwidth(0, 0) == 1.0

    def test_tighter_than_normal_mid_range_is_not_required(self):
        # Sanity: both are proper half-widths in (0, 1).
        for failures, trials in [(1, 10), (25, 50), (49, 50)]:
            assert 0.0 < wilson_halfwidth(failures, trials) < 1.0


class TestJournalFormat:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        fp = campaign_fingerprint("VM", TEST_WORKLOADS["VM"], 3, 1e-6)
        with CheckpointWriter(path, fp) as writer:
            writer.append("A", 0, Outcome.BENIGN)
            writer.append("A", 1, Outcome.SDC)
            writer.append("B", 0, Outcome.TIMEOUT)
        records = load_checkpoint(path, fp)
        assert records == {
            ("A", 0): Outcome.BENIGN,
            ("A", 1): Outcome.SDC,
            ("B", 0): Outcome.TIMEOUT,
        }

    def test_truncated_final_line_tolerated(self, tmp_path):
        path = tmp_path / "c.jsonl"
        fp = campaign_fingerprint("VM", TEST_WORKLOADS["VM"], 3, 1e-6)
        with CheckpointWriter(path, fp) as writer:
            writer.append("A", 0, Outcome.BENIGN)
        with path.open("a") as fh:
            fh.write('{"structure": "A", "tri')  # killed mid-write
        records = load_checkpoint(path, fp)
        assert records == {("A", 0): Outcome.BENIGN}

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "c.jsonl"
        fp = campaign_fingerprint("VM", TEST_WORKLOADS["VM"], 3, 1e-6)
        with CheckpointWriter(path, fp) as writer:
            writer.append("A", 0, Outcome.BENIGN)
            writer.append("A", 1, Outcome.BENIGN)
        lines = path.read_text().splitlines()
        lines[1] = "not json {"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointCorrupt):
            load_checkpoint(path, fp)

    def test_malformed_record_raises(self, tmp_path):
        path = tmp_path / "c.jsonl"
        fp = campaign_fingerprint("VM", TEST_WORKLOADS["VM"], 3, 1e-6)
        with CheckpointWriter(path, fp) as writer:
            writer.append("A", 0, Outcome.BENIGN)
            writer._write_line({"structure": "A", "trial": 1, "outcome": "??"})
            writer.append("A", 2, Outcome.BENIGN)
        with pytest.raises(CheckpointCorrupt, match="malformed"):
            load_checkpoint(path, fp)

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            json.dumps({"structure": "A", "trial": 0, "outcome": "benign"})
            + "\n"
        )
        with pytest.raises(CheckpointCorrupt, match="header"):
            load_checkpoint(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        with pytest.raises(CheckpointCorrupt, match="empty"):
            load_checkpoint(path)

    def test_fingerprint_mismatch_raises(self, tmp_path):
        path = tmp_path / "c.jsonl"
        fp = campaign_fingerprint("VM", TEST_WORKLOADS["VM"], 3, 1e-6)
        CheckpointWriter(path, fp).close()
        other = campaign_fingerprint("VM", TEST_WORKLOADS["VM"], 4, 1e-6)
        with pytest.raises(CheckpointMismatch):
            load_checkpoint(path, other)
        # Different workload params also refuse to merge.
        other = campaign_fingerprint(
            "VM", Workload("t", {"n": 9}), 3, 1e-6
        )
        with pytest.raises(CheckpointMismatch):
            load_checkpoint(path, other)

    def test_campaign_rejects_foreign_checkpoint(self, tmp_path):
        path = tmp_path / "c.jsonl"
        run_campaign(
            "VM", TEST_WORKLOADS["VM"], trials=3, seed=0,
            checkpoint=path,
        )
        with pytest.raises(CheckpointMismatch):
            run_campaign(
                "VM", TEST_WORKLOADS["VM"], trials=3, seed=1,
                checkpoint=path,
            )


class TestResume:
    def test_interrupted_campaign_resumes_bit_identical(self, tmp_path):
        """The acceptance criterion: kill mid-flight, resume, merge."""
        workload = TEST_WORKLOADS["VM"]
        uninterrupted = run_campaign("VM", workload, trials=25, seed=3)

        ck = tmp_path / "vm.jsonl"
        partial = run_campaign(
            "VM", workload, trials=25, seed=3,
            executor=FusedExecutor(fuse=40),  # dies in structure B
            checkpoint=ck,
        )
        assert not partial.complete
        assert len(partial.structures) < len(uninterrupted.structures)

        resumed = run_campaign(
            "VM", workload, trials=25, seed=3,
            checkpoint=ck,
        )
        assert resumed.complete
        assert resumed.structures == uninterrupted.structures

    def test_interrupted_reference_run_closes_the_journal(
        self, tmp_path, monkeypatch
    ):
        # Ctrl-C before the first trial, in the fault-free reference run.
        closed = []
        close = CheckpointWriter.close

        def recording_close(writer):
            closed.append(writer)
            close(writer)

        def interrupted(seed):
            raise KeyboardInterrupt

        monkeypatch.setattr(CheckpointWriter, "close", recording_close)
        monkeypatch.setattr(campaign_module, "reference_rng", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                "VM", TEST_WORKLOADS["VM"], trials=5, seed=3,
                checkpoint=tmp_path / "vm.jsonl",
            )
        assert len(closed) == 1

    def test_partial_result_statistics_are_valid(self, tmp_path):
        partial = run_campaign(
            "VM", TEST_WORKLOADS["VM"], trials=25, seed=3,
            executor=FusedExecutor(fuse=30),
            checkpoint=tmp_path / "vm.jsonl",
        )
        assert not partial.complete
        full_a = partial.stats("A")
        assert full_a.trials == 25
        partial_b = partial.stats("B")
        assert 0 < partial_b.trials < 25
        assert partial_b.benign + partial_b.failures == partial_b.trials

    def test_resume_skips_journaled_trials(self, tmp_path):
        ck = tmp_path / "vm.jsonl"
        run_campaign(
            "VM", TEST_WORKLOADS["VM"], trials=10, seed=3,
            checkpoint=ck,
        )
        counting = FusedExecutor(fuse=10**9)
        resumed = run_campaign(
            "VM", TEST_WORKLOADS["VM"], trials=10, seed=3,
            executor=counting, checkpoint=ck,
        )
        assert counting.ran == 0  # everything came from the journal
        assert resumed.complete

    def test_resume_extends_to_more_trials(self, tmp_path):
        ck = tmp_path / "vm.jsonl"
        run_campaign(
            "VM", TEST_WORKLOADS["VM"], trials=10, seed=3,
            checkpoint=ck,
        )
        extended = run_campaign(
            "VM", TEST_WORKLOADS["VM"], trials=30, seed=3,
            checkpoint=ck,
        )
        base = run_campaign("VM", TEST_WORKLOADS["VM"], trials=30, seed=3)
        assert extended.structures == base.structures

    def test_missing_resume_file_starts_fresh(self, tmp_path):
        campaign = run_campaign(
            "VM", TEST_WORKLOADS["VM"], trials=5, seed=3,
            checkpoint=tmp_path / "nothing.jsonl",
        )
        assert campaign.complete
        assert all(s.trials == 5 for s in campaign.structures)

    @pytest.mark.parametrize("cut", [10, 1], ids=["torn", "unterminated"])
    def test_resume_after_kill_mid_write_keeps_journal_readable(
        self, tmp_path, cut
    ):
        # A kill mid-write leaves the final line torn (unparseable) or
        # complete but without its newline.  Resuming must not glue the
        # next record onto it, so a second resume still reads the file.
        ck = tmp_path / "vm.jsonl"
        run_campaign("VM", TEST_WORKLOADS["VM"], trials=5, seed=3,
                     checkpoint=ck)
        data = ck.read_bytes()
        ck.write_bytes(data[:-cut])
        run_campaign("VM", TEST_WORKLOADS["VM"], trials=8, seed=3,
                     checkpoint=ck)
        counting = FusedExecutor(fuse=10**9)
        resumed = run_campaign("VM", TEST_WORKLOADS["VM"], trials=8, seed=3,
                               executor=counting, checkpoint=ck)
        assert counting.ran == 0  # every trial is in the journal
        base = run_campaign("VM", TEST_WORKLOADS["VM"], trials=8, seed=3)
        assert resumed.structures == base.structures


class TestAdaptiveStopping:
    def test_stops_early_at_loose_precision(self):
        capped = run_campaign(
            "VM", TEST_WORKLOADS["VM"], trials=400, seed=3,
            target_halfwidth=0.15,
        )
        assert all(s.trials < 400 for s in capped.structures)
        assert all(
            s.confidence_halfwidth <= 0.15 for s in capped.structures
        )

    def test_exhausts_budget_at_tight_precision(self):
        campaign = run_campaign(
            "VM", TEST_WORKLOADS["VM"], trials=30, seed=3,
            target_halfwidth=1e-4,
        )
        assert all(s.trials == 30 for s in campaign.structures)

    def test_min_trials_floor_respected(self):
        campaign = run_campaign(
            "VM", TEST_WORKLOADS["VM"], trials=100, seed=3,
            target_halfwidth=0.9, min_trials=15,
        )
        assert all(s.trials == 15 for s in campaign.structures)

    def test_stop_point_is_executor_invariant(self, tmp_path):
        base = run_campaign(
            "VM", TEST_WORKLOADS["VM"], trials=120, seed=3,
            target_halfwidth=0.12,
        )
        # A resumed adaptive campaign must stop at the same trial.
        ck = tmp_path / "vm.jsonl"
        run_campaign(
            "VM", TEST_WORKLOADS["VM"], trials=35, seed=3,
            checkpoint=ck,
        )
        resumed = run_campaign(
            "VM", TEST_WORKLOADS["VM"], trials=120, seed=3,
            checkpoint=ck, target_halfwidth=0.12,
        )
        assert resumed.structures == base.structures
