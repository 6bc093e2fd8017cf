"""Tests for crash-isolated executors and deterministic trial seeding."""

import multiprocessing as mp
import os
import time

import numpy as np
import pytest

from repro.faultinject import (
    INJECTABLE_KERNELS,
    InjectionTarget,
    InProcessExecutor,
    Outcome,
    ProcessTrialExecutor,
    TrialCrash,
    TrialSpec,
    TrialTimeout,
    make_executor,
    run_campaign,
    run_trial,
    trial_seed,
)
from repro.kernels import TEST_WORKLOADS, Workload

HAS_FORK = "fork" in mp.get_all_start_methods()

#: Process-isolation tests need ``fork`` so worker children inherit the
#: monkeypatched kernel registry.
needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="fork start method unavailable"
)


def _misbehaving_run(workload, inject_into, phase, rng):
    """Adapter whose failure mode is selected by the structure label."""
    if inject_into == "DIE":
        os._exit(139)  # simulates a segfault-class worker death
    if inject_into == "HANG":
        time.sleep(60.0)
    if inject_into == "OVERFLOW":
        raise OverflowError("injected non-finite value overflowed")
    if inject_into == "RUNTIME":
        raise RuntimeError("numpy errstate raise under injected NaN")
    out = np.ones(4)
    if inject_into == "SDC":
        out[0] += 1.0
    return out


MISBEHAVING = InjectionTarget(
    "XX", ("OK", "SDC", "DIE", "HANG", "OVERFLOW", "RUNTIME"), _misbehaving_run
)


@pytest.fixture
def misbehaving_kernel(monkeypatch):
    monkeypatch.setitem(INJECTABLE_KERNELS, "XX", MISBEHAVING)
    return "XX"


class TestTrialSeeding:
    def test_trial_seed_is_identity_keyed(self):
        a = trial_seed(7, "A", 3).generate_state(4)
        b = trial_seed(7, "A", 3).generate_state(4)
        assert np.array_equal(a, b)

    def test_distinct_trials_get_distinct_streams(self):
        a = trial_seed(7, "A", 3).generate_state(4)
        assert not np.array_equal(a, trial_seed(7, "A", 4).generate_state(4))
        assert not np.array_equal(a, trial_seed(7, "B", 3).generate_state(4))
        assert not np.array_equal(a, trial_seed(8, "A", 3).generate_state(4))

    def test_run_trial_is_deterministic(self):
        spec = TrialSpec("VM", TEST_WORKLOADS["VM"], "B", 5, seed=3)
        first = run_trial(spec)
        second = run_trial(spec)
        assert np.array_equal(first, second)

    def test_subset_invariance(self):
        """Regression: a structures= subset must not change any trial.

        The old engine drew every trial from one shared RNG stream, so
        dropping a structure silently re-seeded all the others.
        """
        full = run_campaign("VM", TEST_WORKLOADS["VM"], trials=40, seed=3)
        for subset in [("B",), ("C", "A"), ("A",)]:
            part = run_campaign(
                "VM", TEST_WORKLOADS["VM"], trials=40, seed=3,
                structures=subset,
            )
            for name in subset:
                assert part.stats(name) == full.stats(name)

    def test_trial_count_prefix_invariance(self, tmp_path):
        """The first N trials of a longer campaign are the same trials."""
        from repro.faultinject import load_checkpoint

        short_ck = tmp_path / "short.jsonl"
        long_ck = tmp_path / "long.jsonl"
        run_campaign(
            "VM", TEST_WORKLOADS["VM"], trials=20, seed=3,
            checkpoint=short_ck,
        )
        run_campaign(
            "VM", TEST_WORKLOADS["VM"], trials=40, seed=3,
            checkpoint=long_ck,
        )
        short_records = load_checkpoint(short_ck)
        long_records = load_checkpoint(long_ck)
        assert short_records == {
            k: v for k, v in long_records.items() if k[1] < 20
        }


class TestExecutorEquivalence:
    @needs_fork
    def test_process_pool_matches_in_process(self):
        base = run_campaign("VM", TEST_WORKLOADS["VM"], trials=30, seed=3)
        for jobs in (1, 4):
            pooled = run_campaign(
                "VM", TEST_WORKLOADS["VM"], trials=30, seed=3, jobs=jobs
            )
            assert pooled.structures == base.structures

    @needs_fork
    def test_resume_point_invariance_with_processes(self, tmp_path):
        ck = tmp_path / "vm.jsonl"
        base = run_campaign("VM", TEST_WORKLOADS["VM"], trials=24, seed=3)
        run_campaign(
            "VM", TEST_WORKLOADS["VM"], trials=11, seed=3, checkpoint=ck
        )
        resumed = run_campaign(
            "VM", TEST_WORKLOADS["VM"], trials=24, seed=3,
            checkpoint=ck, jobs=2,
        )
        assert resumed.structures == base.structures

    def test_make_executor_selection(self):
        assert isinstance(make_executor(), InProcessExecutor)
        assert isinstance(make_executor(jobs=2), ProcessTrialExecutor)
        assert isinstance(make_executor(timeout=1.0), ProcessTrialExecutor)


class TestCrashIsolation:
    def test_overflow_and_runtime_count_as_crash(self, misbehaving_kernel):
        workload = Workload("t", {})
        for structure in ("OVERFLOW", "RUNTIME"):
            campaign = run_campaign(
                misbehaving_kernel, workload, trials=5,
                structures=(structure,),
            )
            assert campaign.stats(structure).crash == 5

    @needs_fork
    def test_worker_death_is_crash_not_abort(self, misbehaving_kernel):
        workload = Workload("t", {})
        campaign = run_campaign(
            misbehaving_kernel, workload, trials=4, jobs=2,
            structures=("DIE", "OK"),
        )
        assert campaign.complete
        assert campaign.stats("DIE").crash == 4
        assert campaign.stats("OK").benign == 4

    @needs_fork
    def test_hang_is_timeout_not_abort(self, misbehaving_kernel):
        workload = Workload("t", {})
        campaign = run_campaign(
            misbehaving_kernel, workload, trials=2, jobs=2, timeout=0.5,
            structures=("HANG", "SDC"),
        )
        assert campaign.complete
        hang = campaign.stats("HANG")
        assert hang.timeout == 2
        assert hang.failure_rate == 1.0
        assert campaign.stats("SDC").sdc == 2

    @needs_fork
    def test_executor_sentinels_surface_trial_identity(self, misbehaving_kernel):
        workload = Workload("t", {})
        executor = ProcessTrialExecutor(jobs=1, timeout=0.5)
        try:
            crash, = executor.run_batch(
                [TrialSpec("XX", workload, "DIE", 0, 0)]
            )
            hang, = executor.run_batch(
                [TrialSpec("XX", workload, "HANG", 1, 0)]
            )
        finally:
            executor.close()
        assert isinstance(crash, TrialCrash)
        assert crash.structure == "DIE" and crash.trial_index == 0
        assert isinstance(hang, TrialTimeout)
        assert hang.structure == "HANG" and hang.timeout == 0.5


class TestOutcomeTaxonomy:
    def test_timeout_is_failure(self):
        assert Outcome.TIMEOUT.is_failure

    def test_timeout_counts_in_failure_rate(self):
        from repro.faultinject import StructureStats

        stats = StructureStats(
            structure="S", trials=10, benign=6, sdc=1, crash=1, timeout=2
        )
        assert stats.failures == 4
        assert stats.failure_rate == pytest.approx(0.4)


# ----------------------------------------------------------------------
# SupervisedCall: the reusable supervised-subprocess primitive
# ----------------------------------------------------------------------
def _identity(value):
    return value


def _sleep_forever():
    time.sleep(60.0)


def _raise_runtime():
    raise RuntimeError("boom in child")


def _exit_7():
    os._exit(7)


def _journal_forever(path):
    """Write journal events until killed (SIGTERM lands mid-stream)."""
    from repro.service.journal import JobJournal
    from repro.service.scenario import JobSpec

    spec = JobSpec(id="j", kind="probe", options={"behavior": "ok"})
    with JobJournal(path) as journal:
        attempt = 0
        while True:
            attempt += 1
            journal.attempt_failed(
                spec, attempt, "WorkerLost", "x" * 256
            )


@needs_fork
class TestSupervisedCall:
    def test_delivers_return_value(self):
        from repro.faultinject import SupervisedCall

        call = SupervisedCall(_identity, ({"answer": 42},)).start()
        assert call.wait(10.0)
        assert call.poll() == {"answer": 42}
        assert call.poll() == {"answer": 42}  # memoized

    def test_none_return_is_not_worker_lost(self):
        from repro.faultinject import PENDING, SupervisedCall, WorkerLost

        call = SupervisedCall(_identity, (None,)).start()
        assert call.wait(10.0)
        result = call.poll()
        assert result is None
        assert result is not PENDING
        assert not isinstance(result, WorkerLost)

    def test_child_exception_is_worker_lost(self):
        from repro.faultinject import SupervisedCall, WorkerLost

        call = SupervisedCall(_raise_runtime, label="raiser").start()
        assert call.wait(10.0)
        result = call.poll()
        assert isinstance(result, WorkerLost)
        assert result.exitcode == 1
        assert "raiser" in str(result)

    def test_hard_exit_is_worker_lost_with_exitcode(self):
        from repro.faultinject import SupervisedCall, WorkerLost

        call = SupervisedCall(_exit_7).start()
        assert call.wait(10.0)
        result = call.poll()
        assert isinstance(result, WorkerLost)
        assert result.exitcode == 7

    def test_poll_while_running_is_pending(self):
        from repro.faultinject import PENDING, SupervisedCall

        call = SupervisedCall(_sleep_forever, term_grace=1.0).start()
        try:
            assert call.poll() is PENDING
        finally:
            call.terminate()

    def test_terminate_is_prompt_sigterm(self):
        from repro.faultinject import SupervisedCall, WorkerLost
        from repro.faultinject.executor import SIGTERM_EXIT

        # term_grace far above what the handler needs: if terminate()
        # returns quickly, it is because the child honoured SIGTERM
        # promptly, not because SIGKILL escalation saved us.
        call = SupervisedCall(
            _sleep_forever, term_grace=30.0, label="sleeper"
        ).start()
        started = time.monotonic()
        call.terminate()
        assert time.monotonic() - started < 5.0
        result = call.poll()
        assert isinstance(result, WorkerLost)
        assert result.exitcode == SIGTERM_EXIT == 143

    def test_expired_tracks_timeout(self):
        from repro.faultinject import SupervisedCall

        call = SupervisedCall(
            _sleep_forever, timeout=0.05, term_grace=1.0
        ).start()
        try:
            time.sleep(0.1)
            assert call.expired()
        finally:
            call.terminate()

    def test_sigterm_mid_write_leaves_journal_loadable(self, tmp_path):
        from repro.faultinject import SupervisedCall
        from repro.service.journal import load_journal
        from repro.service.scenario import JobSpec

        journal_path = tmp_path / "journal.jsonl"
        call = SupervisedCall(
            _journal_forever, (journal_path,), term_grace=5.0
        ).start()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if journal_path.exists() and \
                    journal_path.stat().st_size > 2048:
                break
            time.sleep(0.005)
        call.terminate()
        # The worker died mid-stream, but the journal must stay
        # loadable: at most its final line is a tolerated kill
        # artifact (the prompt SIGTERM handler exits without
        # flushing partial buffers into the file).
        spec = JobSpec(id="j", kind="probe", options={"behavior": "ok"})
        states = load_journal(journal_path, {"j": spec})
        assert states["j"].attempts > 0
        assert not states["j"].terminal
