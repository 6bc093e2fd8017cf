"""Supervisor semantics: retries, dead letters, timeouts, resume."""

import json
import multiprocessing as mp
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service.journal import load_journal
from repro.service.scenario import JobSpec, RetryConfig, parse_scenario
from repro.service import worker
from repro.service.supervisor import (
    OUTCOME_DEAD_LETTER,
    OUTCOME_EXHAUSTED,
    OUTCOME_SUCCEEDED,
    JobSupervisor,
    run_service,
    service_status,
)

HAS_FORK = "fork" in mp.get_all_start_methods()

#: Worker-pool tests fork real child processes.
needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="fork start method unavailable"
)

FAST_RETRY = RetryConfig(
    max_attempts=3, base_delay=0.01, max_delay=0.05, jitter=0.0)


def _probe(job_id, behavior="ok", **options):
    return JobSpec(id=job_id, kind="probe",
                   options={"behavior": behavior, **options})


#: Strict evaluation fails on ``n``; lenient evaluation drops ``B`` and
#: succeeds.
DIVIDE_BY_ZERO_MODEL = """model broken {
  param n = 8/0
  param k = 500
  data A { elements: k, element_size: 8, pattern streaming { stride: 1, aligned: 1 } }
  data B { elements: n, element_size: 8, pattern streaming { stride: 1, aligned: 1 } }
  kernel main { flops: 2*k loads: 8*k stores: 8*k }
}
machine small {
  cache { associativity: 4, sets: 64, line_size: 32 }
  memory { fit: 5000, bandwidth: 12.8e9 }
  core { flops: 2.0e9 }
}
"""

#: ``2 ^ 2000`` overflows a float: an evaluation error like ``8/0``,
#: not a reason to kill the worker.
OVERFLOW_MODEL = DIVIDE_BY_ZERO_MODEL.replace("8/0", "2 ^ 2000")

#: Expressions that used to exhaust the recursion limit, in the parser
#: (nesting) or in evaluation (a flat 2,000-term sum), and kill the
#: worker on every attempt.
DEEP_MODELS = {
    "parentheses": DIVIDE_BY_ZERO_MODEL.replace(
        "8/0", "(" * 400 + "1" + ")" * 400),
    "sum": DIVIDE_BY_ZERO_MODEL.replace("8/0", "+".join(["1"] * 2000)),
}

#: Every structure sized by ``n``: lenient evaluation has nothing left.
UNSIZABLE_MODEL = DIVIDE_BY_ZERO_MODEL.replace("elements: k,", "elements: n,")

#: Strict validation refuses ``A``'s ``stride: 0``
#: (``AspenSemanticError``); lenient evaluation degrades ``A`` and
#: succeeds.
STRIDE_ZERO_MODEL = DIVIDE_BY_ZERO_MODEL.replace("8/0", "500").replace(
    "stride: 1", "stride: 0", 1)


class TestExecuteJob:
    def test_overflow_returns_a_dead_letter_record(self):
        spec = JobSpec(id="overflow", kind="aspen", options={
            "source": OVERFLOW_MODEL, "machine": "small", "mode": "strict"})
        record = worker.execute_job(spec, attempt=1, degraded=False)
        assert record["ok"] is False
        assert record["error_code"] == "AspenEvalError"
        assert "2000" in record["error"]

    @pytest.mark.parametrize("shape", sorted(DEEP_MODELS))
    def test_deep_expression_returns_a_dead_letter_record(self, shape):
        spec = JobSpec(id="deep", kind="aspen", options={
            "source": DEEP_MODELS[shape], "machine": "small",
            "mode": "strict"})
        record = worker.execute_job(spec, attempt=1, degraded=False)
        assert record["ok"] is False
        assert record["error_code"] == "AspenSyntaxError"
        assert [d["code"] for d in record["diagnostics"]] == ["ASP109"]

    @pytest.mark.parametrize("shape", sorted(DEEP_MODELS))
    def test_deep_expression_in_lenient_mode_is_reported(self, shape):
        # The parameter is dropped and the structure sized by k stays.
        spec = JobSpec(id="deep", kind="aspen", options={
            "source": DEEP_MODELS[shape], "machine": "small",
            "mode": "lenient"})
        record = worker.execute_job(spec, attempt=1, degraded=False)
        assert record["ok"] is True
        codes = {d["code"] for d in record["payload"]["diagnostics"]}
        assert "ASP109" in codes

    def test_unsizable_lenient_model_returns_a_dead_letter_record(self):
        spec = JobSpec(id="huge", kind="aspen", options={
            "source": UNSIZABLE_MODEL, "machine": "small", "mode": "lenient"})
        record = worker.execute_job(spec, attempt=1, degraded=False)
        assert record["ok"] is False
        assert "[ASP211]" in record["error"]

    def test_kernel_overflow_returns_a_dead_letter_record(self):
        # JSON reads 1e400 as inf, which VM cannot size an array by.
        spec = JobSpec(id="huge", kind="kernel", options={
            "kernel": "VM", "params": {"n": 1e400}})
        record = worker.execute_job(spec, attempt=1, degraded=False)
        assert record["ok"] is False
        assert record["error_code"] == "OverflowError"


@needs_fork
class TestJobOutcomes:
    def test_success_and_dead_letter(self):
        run = JobSupervisor(retry=FAST_RETRY).run([
            _probe("good", value=42),
            _probe("bad", "error", message="configured failure"),
        ])
        good, bad = run.records
        assert good["outcome"] == OUTCOME_SUCCEEDED
        assert good["payload"] == {"probe": "ok", "value": 42}
        assert bad["outcome"] == OUTCOME_DEAD_LETTER
        assert bad["error_code"] == "ScenarioError"
        assert bad["attempts"] == 1  # deterministic: never retried
        assert run.complete and run.exit_code == 1

    def test_unsizable_lenient_model_is_dead_lettered_at_once(self):
        run = JobSupervisor(retry=FAST_RETRY).run([
            JobSpec(id="huge", kind="aspen", options={
                "source": UNSIZABLE_MODEL, "machine": "small",
                "mode": "lenient"}),
        ])
        (record,) = run.records
        assert record["outcome"] == OUTCOME_DEAD_LETTER
        assert record["attempts"] == 1

    def test_all_green_exit_code(self):
        run = JobSupervisor().run([_probe("a")])
        assert run.exit_code == 0
        assert run.counts == {OUTCOME_SUCCEEDED: 1}

    def test_stored_kernel_engine_ignored(self):
        # A queue written when kernel jobs took an `engine` key still
        # runs: the key is ignored and left out of the record.
        options = {"kernel": "VM", "tier": "test", "geometry": "small"}
        run = JobSupervisor().run([
            JobSpec(id="new", kind="kernel", options=options),
            JobSpec(id="old", kind="kernel",
                    options={**options, "engine": "reference"}),
        ])
        new, old = run.records
        assert old["outcome"] == OUTCOME_SUCCEEDED
        assert old["payload"] == new["payload"]
        assert "engine" not in old

    def test_unknown_kind_is_dead_lettered(self):
        run = JobSupervisor().run(
            [JobSpec(id="x", kind="probe", options={"behavior": "ok"}),
             JobSpec(id="y", kind="mystery", options={})])
        assert run.records[1]["outcome"] == OUTCOME_DEAD_LETTER
        assert run.records[1]["error_code"] == "ScenarioError"


@needs_fork
class TestProcessSupervision:
    def test_sigkilled_worker_is_retried_then_succeeds(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        spec = _probe("flaky", "flaky", fail_attempts=1)
        run = JobSupervisor(
            retry=FAST_RETRY, journal_path=journal_path
        ).run([spec])
        record = run.records[0]
        assert record["outcome"] == OUTCOME_SUCCEEDED
        assert record["attempts"] == 2
        states = load_journal(journal_path, {"flaky": spec})
        assert states["flaky"].attempts == 1
        assert states["flaky"].last_error == "WorkerLost"

    @pytest.mark.parametrize("spec, error_code", [
        pytest.param(
            JobSpec(id="syntax", kind="aspen", options={
                "source": "model broken {", "machine": "small",
                "label": "syntax"}),
            "AspenSyntaxError", id="syntax"),
        pytest.param(
            JobSpec(id="eval", kind="aspen", options={
                "source": DIVIDE_BY_ZERO_MODEL, "machine": "small",
                "mode": "strict"}),
            "AspenEvalError", id="eval"),
        pytest.param(
            JobSpec(id="overflow", kind="aspen", options={
                "source": OVERFLOW_MODEL, "machine": "small",
                "mode": "strict"}),
            "AspenEvalError", id="overflow"),
        pytest.param(_probe("probe", "error"), "ScenarioError", id="probe"),
        pytest.param(
            JobSpec(id="kernel", kind="kernel", options={"kernel": "XX"}),
            "ScenarioError", id="unknown-kernel"),
    ])
    def test_deterministic_parse_error_never_retried(
        self, tmp_path, spec, error_code
    ):
        # A failure the worker reports is final: dead-lettered on its
        # first attempt and never retried.
        journal_path = tmp_path / "journal.jsonl"
        run = JobSupervisor(
            retry=RetryConfig(max_attempts=5, base_delay=0.01, jitter=0.0),
            journal_path=journal_path,
        ).run([spec])
        record = run.records[0]
        assert record["outcome"] == OUTCOME_DEAD_LETTER
        assert record["error_code"] == error_code
        assert record["attempts"] == 1
        if error_code == "AspenSyntaxError":
            assert record["diagnostics"]  # structured diagnostics survive
        events = journal_path.read_text().splitlines()[1:]
        assert all(
            json.loads(line)["event"] != "attempt" for line in events
        ), "dead-letter jobs must not journal retryable attempts"

    def test_retry_exhausted_drains_queue_nonzero_exit(self):
        run = JobSupervisor(
            retry=RetryConfig(max_attempts=2, base_delay=0.01, jitter=0.0),
        ).run([_probe("dies", "flaky", fail_attempts=99), _probe("fine")])
        dies, fine = run.records
        assert dies["outcome"] == OUTCOME_EXHAUSTED
        assert dies["attempts"] == 2
        assert dies["last_error"] == "WorkerLost"
        assert fine["outcome"] == OUTCOME_SUCCEEDED
        assert run.complete          # the queue is fully drained
        assert run.exit_code == 1

    def test_hung_worker_times_out_and_exhausts(self):
        run = JobSupervisor(
            retry=RetryConfig(max_attempts=2, base_delay=0.01, jitter=0.0),
            term_grace=0.5,
        ).run([JobSpec(id="hang", kind="probe",
                       options={"behavior": "sleep", "seconds": 30},
                       timeout=0.3)])
        record = run.records[0]
        assert record["outcome"] == OUTCOME_EXHAUSTED
        assert record["last_error"] == "JobTimeout"
        assert record["attempts"] == 2

    def test_per_job_max_attempts_overrides_policy(self):
        spec = JobSpec(id="once", kind="probe",
                       options={"behavior": "flaky", "fail_attempts": 99},
                       max_attempts=1)
        run = JobSupervisor(retry=FAST_RETRY).run([spec])
        assert run.records[0]["outcome"] == OUTCOME_EXHAUSTED
        assert run.records[0]["attempts"] == 1



def _behind_crashes(crashes: int):
    """``crashes`` worker-killing probes, then the stride-0 strict job."""
    jobs = [
        {"id": f"crash-{i}", "kind": "probe", "behavior": "crash",
         "max_attempts": 1}
        for i in range(crashes)
    ]
    jobs.append({"id": "stride-0", "kind": "aspen", "machine": "small",
                 "mode": "strict", "source": STRIDE_ZERO_MODEL})
    return parse_scenario(
        {"name": "behind-crashes", "service": {"jobs": 1}, "jobs": jobs}
    )


@needs_fork
class TestOutcomeDependsOnTheJobAlone:
    """Workers lost earlier in a run do not change a later job's outcome."""

    @pytest.mark.parametrize("crashes", [0, 3])
    def test_strict_job_dead_letters_behind_crashes(self, tmp_path, crashes):
        run = run_service(tmp_path / "state", _behind_crashes(crashes))
        *lost, record = run.records
        assert [r["outcome"] for r in lost] == [OUTCOME_EXHAUSTED] * crashes
        assert record["outcome"] == OUTCOME_DEAD_LETTER
        assert record["attempts"] == 1
        assert record["error_code"] == "AspenSemanticError"
        assert all("degraded_route" not in r for r in run.records)

    def test_resume_after_the_crashes_is_bit_identical(self, tmp_path):
        scenario = _behind_crashes(3)
        undisturbed = tmp_path / "undisturbed"
        disturbed = tmp_path / "disturbed"
        run_service(undisturbed, scenario)
        first = run_service(disturbed, scenario, interrupt_after=3)
        assert first.interrupted and len(first.records) == 3
        assert run_service(disturbed).complete
        for name in ("results.jsonl", "deadletter.jsonl"):
            assert (disturbed / name).read_bytes() == \
                (undisturbed / name).read_bytes()


@needs_fork
class TestResume:
    SCENARIO = {
        "name": "resume-test",
        "service": {
            "jobs": 2,
            "retry": {"max_attempts": 4, "base_delay": 0.01,
                      "max_delay": 0.05, "jitter": 0.0},
        },
        "jobs": [
            {"id": "ok-1", "kind": "probe", "behavior": "ok", "value": 1},
            {"id": "flaky-1", "kind": "probe", "behavior": "flaky",
             "fail_attempts": 1},
            {"id": "bad", "kind": "probe", "behavior": "error",
             "message": "broken by design"},
            {"id": "flaky-2", "kind": "probe", "behavior": "flaky",
             "fail_attempts": 2},
            {"id": "ok-2", "kind": "probe", "behavior": "ok", "value": 2},
        ],
    }

    def test_interrupted_run_resumes_bit_identically(self, tmp_path):
        scenario = parse_scenario(self.SCENARIO)
        undisturbed = tmp_path / "undisturbed"
        disturbed = tmp_path / "disturbed"

        reference = run_service(undisturbed, scenario)
        assert reference.complete and reference.exit_code == 1

        first = run_service(disturbed, scenario, interrupt_after=2)
        assert first.interrupted
        assert first.exit_code == 130
        assert len(first.records) < len(scenario.jobs)

        resumed = run_service(disturbed)  # journal continues the run
        assert resumed.complete and not resumed.interrupted

        assert (disturbed / "results.jsonl").read_bytes() == \
            (undisturbed / "results.jsonl").read_bytes()
        assert (disturbed / "deadletter.jsonl").read_bytes() == \
            (undisturbed / "deadletter.jsonl").read_bytes()

    def test_completed_jobs_not_rerun_on_resume(self, tmp_path):
        scenario = parse_scenario(self.SCENARIO)
        state = tmp_path / "state"
        run_service(state, scenario)
        journal_size = (state / "journal.jsonl").stat().st_size
        again = run_service(state)
        assert again.complete
        # Nothing executed: the journal gained no events.
        assert (state / "journal.jsonl").stat().st_size == journal_size
        assert all(r["outcome"] for r in again.records)

    def test_status_reports_partial_progress(self, tmp_path):
        scenario = parse_scenario(self.SCENARIO)
        state = tmp_path / "state"
        run_service(state, scenario, interrupt_after=2)
        status = service_status(state)
        assert status["jobs"] == 5
        assert sum(status["counts"].values()) < 5
        assert status["pending"] or status["in_flight"]
        run_service(state)  # finish the queue
        completed = service_status(state)
        assert sum(completed["counts"].values()) == 5
        assert not completed["pending"] and not completed["in_flight"]


SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def attempt_log(monkeypatch, tmp_path):
    """Log ``(job, attempt, pid)`` of every attempt before it runs.

    Workers are forked with the supervisor module's ``execute_job``, so
    they inherit this patch through ``fork``.  Returns the log reader.
    """
    from repro.service import supervisor

    log = tmp_path / "attempts.log"
    execute_job = supervisor.execute_job

    def logged(spec, attempt, degraded):
        with log.open("a") as fh:
            fh.write(f"{spec.id} {attempt} {os.getpid()}\n")
        return execute_job(spec, attempt, degraded)

    monkeypatch.setattr(supervisor, "execute_job", logged)

    def read() -> list[tuple[str, int, int]]:
        return [
            (job, int(attempt), int(pid))
            for job, attempt, pid in (
                line.split() for line in log.read_text().splitlines()
            )
        ]

    return read


def _new_children(before: set) -> list:
    """Live child processes that were not alive in ``before``."""
    return [p for p in mp.active_children() if p not in before]


def _mixed_jobs() -> list[JobSpec]:
    """Test-tier Aspen models and analytical kernel jobs (NB included)."""
    from repro.aspen.builtin import DSL_KERNELS, MACHINE_LIBRARY, builtin_source
    from repro.experiments.configs import KERNEL_ORDER

    jobs = [
        JobSpec(id=f"aspen-{k}-{m}", kind="aspen", options={
            "source": builtin_source(k, "test") + MACHINE_LIBRARY,
            "machine": m, "mode": "strict"})
        for k in DSL_KERNELS for m in ("small", "cache_8mb")
    ]
    jobs += [
        JobSpec(id=f"kernel-{k}-{g}", kind="kernel", options={
            "kernel": k, "tier": "test", "geometry": g})
        for k in KERNEL_ORDER for g in ("small", "8MB")
    ]
    return jobs


@needs_fork
class TestWorkerLifecycle:
    """Workers serve attempt after attempt; lost ones are replaced."""

    def test_consecutive_attempts_share_one_worker(self, attempt_log):
        run = JobSupervisor(jobs=1).run(
            [_probe(f"ok-{i}", value=i) for i in range(4)]
        )
        assert run.counts == {OUTCOME_SUCCEEDED: 4}
        pids = {pid for _, _, pid in attempt_log()}
        assert len(pids) == 1 and os.getpid() not in pids

    def test_lost_worker_is_replaced(self, attempt_log):
        run = JobSupervisor(jobs=1, retry=FAST_RETRY).run([
            _probe("flaky", "flaky", fail_attempts=1),
            _probe("after"),
        ])
        flaky, after = run.records
        assert flaky["outcome"] == OUTCOME_SUCCEEDED
        assert flaky["attempts"] == 2
        assert after["outcome"] == OUTCOME_SUCCEEDED
        pid = {(job, attempt): pid for job, attempt, pid in attempt_log()}
        assert pid["flaky", 2] != pid["flaky", 1]
        assert pid["after", 1] == pid["flaky", 2]  # the survivor serves on

    def test_worker_dying_idle_costs_no_attempt(self, monkeypatch):
        # Job "a" arms a timer that SIGKILLs its worker once idle, while
        # the flaky job waits out its retry backoff; the retry must get
        # a fresh worker instead of losing an attempt to the dead one.
        import threading

        from repro.service import supervisor

        execute_job = supervisor.execute_job

        def killed_when_idle(spec, attempt, degraded):
            if spec.id == "a":
                threading.Timer(
                    0.1, os.kill, (os.getpid(), signal.SIGKILL)
                ).start()
            return execute_job(spec, attempt, degraded)

        monkeypatch.setattr(supervisor, "execute_job", killed_when_idle)
        run = JobSupervisor(
            jobs=2,
            retry=RetryConfig(max_attempts=3, base_delay=0.5, jitter=0.0),
        ).run([_probe("a"), _probe("flaky", "flaky", fail_attempts=1)])
        a, flaky = run.records
        assert a["outcome"] == OUTCOME_SUCCEEDED
        assert flaky["outcome"] == OUTCOME_SUCCEEDED
        assert flaky["attempts"] == 2

    def test_timed_out_worker_is_replaced(self, attempt_log):
        run = JobSupervisor(
            jobs=1,
            retry=RetryConfig(max_attempts=2, base_delay=0.01, jitter=0.0),
            term_grace=0.5,
        ).run([
            JobSpec(id="hang", kind="probe",
                    options={"behavior": "sleep", "seconds": 30},
                    timeout=0.3),
            _probe("after"),
        ])
        hang, after = run.records
        assert hang["outcome"] == OUTCOME_EXHAUSTED
        assert hang["last_error"] == "JobTimeout"
        assert hang["attempts"] == 2
        assert after["outcome"] == OUTCOME_SUCCEEDED
        log = attempt_log()
        assert [(job, attempt) for job, attempt, _ in log] == [
            ("hang", 1), ("after", 1), ("hang", 2)
        ]
        (_, _, hung), (_, _, fresh), (_, _, reused) = log
        assert fresh != hung  # the cancelled worker was discarded
        assert reused == fresh  # the one that delivered serves on

    def test_no_worker_outlives_a_run(self):
        before = set(mp.active_children())
        run = JobSupervisor(jobs=2).run([_probe(f"ok-{i}") for i in range(5)])
        assert run.complete
        assert _new_children(before) == []

    def test_no_worker_outlives_an_interrupted_run(self):
        # One worker is busy sleeping when the interrupt fires: it is
        # cancelled; the idle one exits on EOF of its task pipe.
        before = set(mp.active_children())
        started = time.monotonic()
        run = JobSupervisor(jobs=2, interrupt_after=1).run([
            _probe("sleeper", "sleep", seconds=30),
            _probe("quick"),
            _probe("never-run"),
        ])
        assert run.interrupted
        assert time.monotonic() - started < 15.0
        assert _new_children(before) == []

    def test_payloads_do_not_depend_on_worker_history(self):
        # NB's profile memo and the compiled Aspen models live on in a
        # worker between jobs; forward, reverse and two-worker orders
        # must still give every job the same payload.
        jobs = _mixed_jobs()

        def payloads(run):
            assert run.counts == {OUTCOME_SUCCEEDED: len(jobs)}
            return {r["job"]: r["payload"] for r in run.records}

        forward = payloads(JobSupervisor(jobs=1).run(jobs))
        reverse = payloads(JobSupervisor(jobs=1).run(jobs[::-1]))
        pooled = payloads(JobSupervisor(jobs=2).run(jobs))
        assert forward == reverse == pooled


def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` fields after the command name, or None."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return stat.rsplit(")", 1)[1].split()


def _children_of(ppid: int) -> list[int]:
    """Running (not zombie) processes whose parent is ``ppid``."""
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields and fields[0] != "Z" and int(fields[1]) == ppid:
                out.append(int(entry))
    return out


def _running(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


@needs_fork
@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs Linux /proc"
)
def test_workers_exit_when_the_service_is_killed(tmp_path):
    # The flaky job's retry waits out a 60 s backoff with its workers
    # idle; SIGKILL of the service closes their task pipes.
    scenario = {
        "name": "orphans",
        "service": {
            "jobs": 2,
            "retry": {"max_attempts": 2, "base_delay": 60.0,
                      "max_delay": 60.0, "jitter": 0.0},
        },
        "jobs": [
            {"id": "ok-1", "kind": "probe", "behavior": "ok"},
            {"id": "ok-2", "kind": "probe", "behavior": "ok"},
            {"id": "flaky", "kind": "probe", "behavior": "flaky",
             "fail_attempts": 1},
            {"id": "ok-3", "kind": "probe", "behavior": "ok"},
        ],
    }
    scenario_file = tmp_path / "orphans.json"
    scenario_file.write_text(json.dumps(scenario))
    state = tmp_path / "state"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "run",
         "--scenario", str(scenario_file), "--state", str(state)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        journal = state / "journal.jsonl"
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline and proc.poll() is None:
            events = journal.read_text() if journal.exists() else ""
            if events.count('"done"') >= 3 and '"attempt"' in events:
                break
            time.sleep(0.05)
        workers = _children_of(proc.pid)
        assert proc.poll() is None and workers
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and any(map(_running, workers)):
        time.sleep(0.05)
    assert not any(map(_running, workers))
