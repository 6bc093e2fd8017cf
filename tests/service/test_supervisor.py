"""Supervisor semantics: retries, dead letters, timeouts, resume, breaker."""

import json
import multiprocessing as mp

import pytest

from repro.service.journal import load_journal
from repro.service.retry import CircuitBreaker, RetryPolicy
from repro.service.scenario import (
    BreakerConfig,
    JobSpec,
    RetryConfig,
    parse_scenario,
)
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

FAST_RETRY = RetryPolicy(RetryConfig(
    max_attempts=3, base_delay=0.01, max_delay=0.05, jitter=0.0))


def _probe(job_id, behavior="ok", **options):
    return JobSpec(id=job_id, kind="probe",
                   options={"behavior": behavior, **options})


#: Strict evaluation fails on ``n``; lenient evaluation drops ``B`` and
#: succeeds, so a retry on the breaker's degraded route would succeed.
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
        pytest.param(_probe("probe", "error"), "ScenarioError", id="probe"),
        pytest.param(
            JobSpec(id="kernel", kind="kernel", options={"kernel": "XX"}),
            "ScenarioError", id="unknown-kernel"),
    ])
    def test_deterministic_parse_error_never_retried(
        self, tmp_path, spec, error_code
    ):
        # A failure the worker reports is final: dead-lettered on its
        # first attempt, never retried, and never counted by the breaker
        # (threshold 1 would open it and send a retry down the lenient
        # route).
        journal_path = tmp_path / "journal.jsonl"
        run = JobSupervisor(
            retry=RetryPolicy(RetryConfig(
                max_attempts=5, base_delay=0.01, jitter=0.0)),
            breaker=CircuitBreaker(BreakerConfig(threshold=1, cooldown=2)),
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
        assert run.breaker_state == CircuitBreaker.CLOSED
        assert run.degraded_launches == 0

    def test_retry_exhausted_drains_queue_nonzero_exit(self):
        run = JobSupervisor(
            retry=RetryPolicy(RetryConfig(
                max_attempts=2, base_delay=0.01, jitter=0.0)),
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
            retry=RetryPolicy(RetryConfig(
                max_attempts=2, base_delay=0.01, jitter=0.0)),
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

    def test_breaker_degrades_after_fast_path_deaths(self):
        breaker = CircuitBreaker(BreakerConfig(threshold=1, cooldown=2))
        run = JobSupervisor(
            jobs=1,
            retry=RetryPolicy(RetryConfig(
                max_attempts=5, base_delay=0.01, jitter=0.0)),
            breaker=breaker,
        ).run([
            _probe("flaky", "flaky", fail_attempts=2),
            _probe("a"),
            _probe("b"),
        ])
        assert all(
            r["outcome"] == OUTCOME_SUCCEEDED for r in run.records
        )
        assert breaker.opened >= 1
        assert run.degraded_launches >= 1
        assert any(r["degraded_route"] for r in run.records)


@needs_fork
class TestResume:
    SCENARIO = {
        "name": "resume-test",
        "service": {
            "jobs": 2,
            "retry": {"max_attempts": 4, "base_delay": 0.01,
                      "max_delay": 0.05, "jitter": 0.0},
            "breaker": {"threshold": 50, "cooldown": 1},
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
