"""Tests for crash-isolated executors and deterministic trial seeding."""

import contextlib
import multiprocessing as mp
import os
import signal
import time

import numpy as np
import pytest

from repro.faultinject.campaign import run_campaign
from repro.faultinject.errors import TrialCrash, TrialTimeout
from repro.faultinject.executor import (
    InProcessExecutor,
    ProcessTrialExecutor,
    TrialSpec,
    make_executor,
    run_trial,
    trial_seed,
)
from repro.faultinject.outcomes import Outcome
from repro.faultinject.targets import INJECTABLE_KERNELS, InjectionTarget
from repro.kernels.base import Workload
from repro.kernels.workloads import TEST_WORKLOADS

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
    if inject_into == "PID":
        return np.array([os.getpid()])
    out = np.ones(4)
    if inject_into == "SDC":
        out[0] += 1.0
    return out


MISBEHAVING = InjectionTarget(
    "XX",
    ("OK", "SDC", "DIE", "HANG", "OVERFLOW", "RUNTIME", "PID"),
    _misbehaving_run,
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
        from repro.faultinject.checkpoint import load_checkpoint

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


def _new_children(before: set) -> list:
    """Live child processes that were not alive in ``before``."""
    return [p for p in mp.active_children() if p not in before]


@needs_fork
class TestWorkerLifecycle:
    """Workers outlive waves, and are replaced only when lost."""

    @staticmethod
    def _pid(executor, index):
        spec = TrialSpec("XX", Workload("t", {}), "PID", index, 0)
        out, = executor.run_batch([spec])
        return int(out[0])

    def test_waves_share_workers_until_close(self, misbehaving_kernel):
        before = set(mp.active_children())
        executor = ProcessTrialExecutor(jobs=2)
        try:
            specs = [
                TrialSpec("XX", Workload("t", {}), "PID", i, 0)
                for i in range(6)
            ]
            pids = [
                {int(out[0]) for out in executor.run_batch(specs[i:i + 2])}
                for i in range(0, 6, 2)
            ]
        finally:
            executor.close()
        assert pids[0] == pids[1] == pids[2]
        assert len(pids[0]) == 2 and os.getpid() not in pids[0]
        assert _new_children(before) == []

    def test_lost_and_hung_workers_are_replaced(self, misbehaving_kernel):
        workload = Workload("t", {})
        before = set(mp.active_children())
        executor = ProcessTrialExecutor(jobs=1, timeout=0.5, term_grace=1.0)
        try:
            first = self._pid(executor, 0)
            crash, = executor.run_batch([TrialSpec("XX", workload, "DIE", 1, 0)])
            second = self._pid(executor, 2)
            hang, = executor.run_batch([TrialSpec("XX", workload, "HANG", 3, 0)])
            third = self._pid(executor, 4)
            assert self._pid(executor, 5) == third
        finally:
            executor.close()
        assert isinstance(crash, TrialCrash) and crash.exitcode == 139
        assert isinstance(hang, TrialTimeout)
        assert len({first, second, third}) == 3
        assert _new_children(before) == []

    def test_worker_killed_between_waves_costs_no_trial(
        self, misbehaving_kernel
    ):
        # A worker that dies idle (OOM killer, operator) is replaced
        # before the next wave: no trial is charged with its death.
        workload = Workload("t", {})
        executor = ProcessTrialExecutor(jobs=1)
        try:
            os.kill(self._pid(executor, 0), signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while executor._workers[0].alive and time.monotonic() < deadline:
                time.sleep(0.01)
            ok, = executor.run_batch([TrialSpec("XX", workload, "OK", 1, 0)])
        finally:
            executor.close()
        assert np.array_equal(ok, np.ones(4))

    def test_abandoned_wave_never_reaches_the_next(
        self, misbehaving_kernel, monkeypatch
    ):
        # An interrupt while a wave is collected leaves its workers busy,
        # their results unread; the next wave must not receive them.
        workload = Workload("t", {})
        executor = ProcessTrialExecutor(jobs=1)
        collect = ProcessTrialExecutor._collect

        def interrupted(self, spec, call, deadline):
            raise KeyboardInterrupt

        try:
            monkeypatch.setattr(ProcessTrialExecutor, "_collect", interrupted)
            with pytest.raises(KeyboardInterrupt):
                executor.run_batch([TrialSpec("XX", workload, "SDC", 0, 0)])
            monkeypatch.setattr(ProcessTrialExecutor, "_collect", collect)
            ok, = executor.run_batch([TrialSpec("XX", workload, "OK", 1, 0)])
        finally:
            executor.close()
        assert np.array_equal(ok, np.ones(4))

    def test_campaign_results_match_in_process_on_reused_workers(self):
        # Each worker serves many trials of several structures; no
        # outcome may depend on what its worker ran before.
        base = run_campaign("CG", TEST_WORKLOADS["CG"], trials=12, seed=5)
        pooled = run_campaign(
            "CG", TEST_WORKLOADS["CG"], trials=12, seed=5, jobs=2
        )
        assert pooled.structures == base.structures


class TestOutcomeTaxonomy:
    def test_timeout_is_failure(self):
        assert Outcome.TIMEOUT.is_failure

    def test_timeout_counts_in_failure_rate(self):
        from repro.faultinject.campaign import StructureStats

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


@contextlib.contextmanager
def supervised(fn, args=(), **options):
    """A started :class:`SupervisedCall` of ``fn`` on a worker closed after."""
    from repro.faultinject.executor import SupervisedCall, Worker

    worker = Worker(fn)
    try:
        yield SupervisedCall(fn, args, worker=worker, **options).start()
    finally:
        worker.close()


@needs_fork
class TestSupervisedCall:
    def test_calls_share_a_worker(self):
        from repro.faultinject.executor import SupervisedCall, Worker

        worker = Worker(os.getpid)
        try:
            pids = []
            for _ in range(3):
                call = SupervisedCall(os.getpid, worker=worker).start()
                assert call.wait(10.0)
                pids.append(call.poll())
        finally:
            worker.close()
        assert pids == [worker.pid] * 3
        assert worker.exitcode == 0  # exited on EOF of its task pipe

    def test_worker_runs_only_its_own_function(self):
        from repro.faultinject.executor import SupervisedCall, Worker

        worker = Worker(_identity)
        try:
            with pytest.raises(ValueError):
                SupervisedCall(_exit_7, worker=worker)
        finally:
            worker.close()

    def test_delivers_return_value(self):
        with supervised(_identity, ({"answer": 42},)) as call:
            assert call.wait(10.0)
            assert call.poll() == {"answer": 42}
            assert call.poll() == {"answer": 42}  # memoized

    def test_result_larger_than_a_pipe_buffer_is_delivered(self):
        # The result is read as soon as it starts arriving: a worker
        # blocked writing 800 KB must not be waited on to exit first.
        with supervised(np.arange, (100_000,)) as call:
            assert call.wait(10.0)
            assert np.array_equal(call.poll(), np.arange(100_000))

    def test_none_return_is_not_worker_lost(self):
        from repro.faultinject.errors import WorkerLost
        from repro.faultinject.executor import PENDING

        with supervised(_identity, (None,)) as call:
            assert call.wait(10.0)
            result = call.poll()
        assert result is None
        assert result is not PENDING
        assert not isinstance(result, WorkerLost)

    def test_child_exception_is_worker_lost(self):
        from repro.faultinject.errors import WorkerLost

        with supervised(_raise_runtime, label="raiser") as call:
            assert call.wait(10.0)
            result = call.poll()
        assert isinstance(result, WorkerLost)
        assert result.exitcode == 1
        assert "raiser" in str(result)

    def test_hard_exit_is_worker_lost_with_exitcode(self):
        from repro.faultinject.errors import WorkerLost

        with supervised(_exit_7) as call:
            assert call.wait(10.0)
            result = call.poll()
        assert isinstance(result, WorkerLost)
        assert result.exitcode == 7

    def test_poll_while_running_is_pending(self):
        from repro.faultinject.executor import PENDING

        with supervised(_sleep_forever, term_grace=1.0) as call:
            try:
                assert call.poll() is PENDING
            finally:
                call.terminate()

    def test_terminate_is_prompt_sigterm(self):
        from repro.faultinject.errors import WorkerLost
        from repro.faultinject.executor import SIGTERM_EXIT

        # term_grace far above what the handler needs: if terminate()
        # returns quickly, it is because the child honoured SIGTERM
        # promptly, not because SIGKILL escalation saved us.
        with supervised(
            _sleep_forever, term_grace=30.0, label="sleeper"
        ) as call:
            started = time.monotonic()
            call.terminate()
            assert time.monotonic() - started < 5.0
            result = call.poll()
        assert isinstance(result, WorkerLost)
        assert result.exitcode == SIGTERM_EXIT == 143

    def test_expired_tracks_timeout(self):
        with supervised(
            _sleep_forever, timeout=0.05, term_grace=1.0
        ) as call:
            try:
                time.sleep(0.1)
                assert call.expired()
            finally:
                call.terminate()

    def test_sigterm_mid_write_leaves_journal_loadable(self, tmp_path):
        from repro.service.journal import load_journal
        from repro.service.scenario import JobSpec

        journal_path = tmp_path / "journal.jsonl"
        with supervised(
            _journal_forever, (journal_path,), term_grace=5.0
        ) as call:
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
