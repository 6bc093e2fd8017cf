"""Supervised job-execution engine: pool, retries, journal.

:class:`JobSupervisor` drains a set of queued
:class:`~repro.service.scenario.JobSpec` through a pool of up to
``jobs`` crash-isolated :class:`~repro.faultinject.executor.Worker`
processes, forked on demand and kept for the whole run (one
:class:`~repro.faultinject.executor.SupervisedCall` per attempt on
them), with full failure semantics:

* a worker that delivers a result serves the next attempt; one that
  timed out, died or broke the result protocol is discarded and a
  fresh one forked when needed;
* per-job wall-clock budgets enforced with SIGTERM-then-SIGKILL
  escalation (a hung C loop cannot wedge the pool);
* retry decided where the failure is observed: a failure record the
  worker returns is final and dead-letters the job after one attempt;
  a timeout, a lost worker or a protocol violation — failures the
  supervisor builds itself — is retried under the
  :class:`~repro.service.scenario.RetryConfig` budget with exponential
  backoff and deterministic jitter.  A job's outcome depends on the job
  alone, never on how other jobs in the run fared;
* an append-only :class:`~repro.service.journal.JobJournal` flushed per
  event and continued when it exists, so SIGINT/SIGKILL of the
  *supervisor* loses at most one in-flight attempt and a rerun
  continues bit-identically;
* KeyboardInterrupt trapped: running workers are cancelled cleanly and
  a partial :class:`ServiceRun` returned.  Every worker is stopped and
  reaped before :meth:`JobSupervisor.run` returns.

:func:`run_service` wraps the supervisor in the durable state-directory
layout (queue / journal / results / dead-letter files) used by the
``service`` CLI.
"""

from __future__ import annotations

import heapq
import importlib
import json
import os
import random
import signal
import time
from dataclasses import asdict, dataclass, field, fields, replace
from multiprocessing import connection
from pathlib import Path

from repro.faultinject.errors import WorkerLost
from repro.faultinject.executor import PENDING, SupervisedCall, Worker
from repro.service.journal import (
    JobJournal,
    JobState,
    append_queue,
    load_journal,
    load_queue,
)
from repro.service.scenario import (
    JobSpec,
    RetryConfig,
    Scenario,
    ScenarioError,
    ServiceConfig,
    check_count,
    check_timeout,
)
from repro.service.worker import JOB_MODULES, execute_job

#: Terminal outcome taxonomy for job records.
OUTCOME_SUCCEEDED = "succeeded"
OUTCOME_DEAD_LETTER = "dead-letter"
OUTCOME_EXHAUSTED = "retry-exhausted"
FAILURE_OUTCOMES = (OUTCOME_DEAD_LETTER, OUTCOME_EXHAUSTED)

#: State-directory file names.
QUEUE_FILE = "queue.jsonl"
JOURNAL_FILE = "journal.jsonl"
RESULTS_FILE = "results.jsonl"
DEADLETTER_FILE = "deadletter.jsonl"
SERVICE_CONFIG_FILE = "service.json"

#: Upper bound on one scheduler wait, so expiry checks stay responsive.
_MAX_WAIT = 0.25


@dataclass(frozen=True)
class ServiceRun:
    """Result of one supervisor run over a job queue."""

    records: tuple[dict, ...]
    complete: bool
    interrupted: bool = False
    wall_seconds: float = 0.0

    @property
    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for record in self.records:
            out[record["outcome"]] = out.get(record["outcome"], 0) + 1
        return out

    @property
    def failed(self) -> tuple[dict, ...]:
        return tuple(
            r for r in self.records if r["outcome"] != OUTCOME_SUCCEEDED
        )

    @property
    def exit_code(self) -> int:
        """CLI contract: 0 all green, 1 failures present, 130 interrupted."""
        if self.interrupted or not self.complete:
            return 130
        return 1 if self.failed else 0


@dataclass
class _Running:
    spec: JobSpec
    attempt: int
    call: SupervisedCall


@dataclass
class _PendingJob:
    ready_at: float
    seq: int
    spec: JobSpec
    attempt: int
    state: JobState = field(default_factory=JobState)

    def __lt__(self, other: "_PendingJob") -> bool:
        return (self.ready_at, self.seq) < (other.ready_at, other.seq)


class JobSupervisor:
    """Run queued jobs on a supervised, crash-isolated worker pool.

    Parameters
    ----------
    jobs:
        Worker pool size (concurrent attempts), an int >= 1.  Workers
        are forked with the module's ``execute_job`` as it stands at
        the fork, and with the worker's ``JOB_MODULES`` imported.
    retry:
        :class:`RetryConfig`; defaults to the scenario-schema defaults.
    default_timeout:
        Per-job wall-clock budget when a spec carries none: None (no
        limit), or finite and > 0 (else ``ValueError``).
    journal_path:
        Execution journal location; ``None`` runs without durability.
        An existing journal is continued: terminal jobs are not re-run
        and attempt budgets carry over.
    term_grace:
        Seconds between SIGTERM and SIGKILL when cancelling a worker.
    chaos_kill / chaos_seed:
        Fault-injection hook for the service itself: SIGKILL each
        newly launched worker with the given probability (seeded,
        reproducible).  Used by the chaos suite and CI.
    interrupt_after:
        Test hook: raise ``KeyboardInterrupt`` inside the scheduler
        after this many terminal events, simulating an operator SIGINT
        at a deterministic point.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        retry: RetryConfig | None = None,
        default_timeout: float | None = None,
        journal_path: str | os.PathLike | None = None,
        term_grace: float = 2.0,
        chaos_kill: float = 0.0,
        chaos_seed: int = 0,
        interrupt_after: int | None = None,
    ):
        check_count(jobs, "jobs")
        check_timeout(default_timeout, "default_timeout")
        self.jobs = jobs
        self.retry = retry if retry is not None else RetryConfig()
        self.default_timeout = default_timeout
        self.journal_path = journal_path
        self.term_grace = term_grace
        self.chaos_kill = float(chaos_kill)
        self._chaos_rng = random.Random(chaos_seed)
        self.interrupt_after = interrupt_after

    # -- public entry --------------------------------------------------
    def run(self, specs: list[JobSpec]) -> ServiceRun:
        """Drain ``specs`` to terminal records; trap SIGINT cleanly."""
        for name in JOB_MODULES:
            importlib.import_module(name)
        started = time.monotonic()
        states: dict[str, JobState] = {}
        journal: JobJournal | None = None
        if self.journal_path is not None:
            states = _journal_states(Path(self.journal_path), specs)
            journal = JobJournal(self.journal_path, resume=True)
        records: dict[str, dict] = {
            job_id: state.record
            for job_id, state in states.items()
            if state.terminal
        }
        heap: list[_PendingJob] = []
        seq = 0
        now = time.monotonic()
        for spec in specs:
            if spec.id in records:
                continue
            state = states.get(spec.id, JobState())
            heapq.heappush(
                heap,
                _PendingJob(now, seq, spec, state.attempts + 1, state),
            )
            seq += 1
        self._seq = seq
        self._terminal_events = 0
        self._idle: list[Worker] = []
        interrupted = False
        running: dict[int, _Running] = {}
        try:
            self._run_pool(heap, running, records, journal)
        except KeyboardInterrupt:
            interrupted = True
        finally:
            # Running workers are cancelled, idle ones exit on EOF.
            for entry in running.values():
                entry.call.worker.close(self.term_grace)
            for worker in self._idle:
                worker.close(self.term_grace)
            if journal is not None:
                journal.close()
        ordered = tuple(
            records[spec.id] for spec in specs if spec.id in records
        )
        return ServiceRun(
            records=ordered,
            complete=len(ordered) == len(specs),
            interrupted=interrupted,
            wall_seconds=time.monotonic() - started,
        )

    # -- scheduling (process pool) -------------------------------------
    def _run_pool(
        self,
        heap: list[_PendingJob],
        running: dict[int, _Running],
        records: dict[str, dict],
        journal: JobJournal | None,
    ) -> None:
        while heap or running:
            now = time.monotonic()
            while heap and len(running) < self.jobs \
                    and heap[0].ready_at <= now:
                pending = heapq.heappop(heap)
                entry = self._launch(pending.spec, pending.attempt)
                running[entry.call.sentinel] = entry
            if not running:
                # Only backoff delays left: sleep until the earliest.
                time.sleep(
                    min(max(0.0, heap[0].ready_at - now), _MAX_WAIT)
                )
                continue
            wait_for = self._wait_budget(heap, running, now)
            ready = connection.wait(list(running), timeout=wait_for)
            now = time.monotonic()
            for sentinel in ready:
                entry = running.pop(sentinel)
                self._settle(entry, heap, records, journal, timed_out=False)
            for sentinel, entry in list(running.items()):
                if entry.call.expired(now):
                    del running[sentinel]
                    entry.call.terminate()
                    self._settle(
                        entry, heap, records, journal, timed_out=True
                    )

    def _wait_budget(
        self,
        heap: list[_PendingJob],
        running: dict[int, _Running],
        now: float,
    ) -> float:
        horizon = now + _MAX_WAIT
        for entry in running.values():
            if entry.call.timeout is not None:
                horizon = min(
                    horizon, entry.call.started_at + entry.call.timeout
                )
        if heap:
            horizon = min(horizon, heap[0].ready_at)
        return max(0.0, horizon - now)

    def _launch(self, spec: JobSpec, attempt: int) -> _Running:
        timeout = spec.timeout if spec.timeout is not None \
            else self.default_timeout
        worker = self._take_worker()
        if self.chaos_kill > 0.0 \
                and self._chaos_rng.random() < self.chaos_kill:
            # Chaos harness: the worker dies as if OOM-killed, before it
            # can read the attempt, so the attempt is always lost.
            os.kill(worker.pid, signal.SIGKILL)
        call = SupervisedCall(
            execute_job,
            (spec, attempt, False),
            worker=worker,
            timeout=timeout,
            term_grace=self.term_grace,
            label=f"job {spec.id} attempt {attempt}",
        ).start()
        return _Running(spec=spec, attempt=attempt, call=call)

    def _take_worker(self) -> Worker:
        """An idle worker that is still alive, or a freshly forked one."""
        while self._idle:
            worker = self._idle.pop()
            if worker.alive:
                return worker
            worker.close(self.term_grace)
        return Worker(execute_job)

    # -- outcome handling ----------------------------------------------
    def _settle(
        self,
        entry: _Running,
        heap: list[_PendingJob],
        records: dict[str, dict],
        journal: JobJournal | None,
        timed_out: bool,
    ) -> None:
        # A dict the worker returned is final; every body built here
        # (timeout, lost worker, protocol violation) is retryable, and
        # its worker is discarded.
        retryable = True
        if timed_out:
            body = {
                "ok": False,
                "error_code": "JobTimeout",
                "error": (
                    f"job {entry.spec.id} attempt {entry.attempt} exceeded "
                    f"{entry.call.timeout}s and was cancelled "
                    f"(SIGTERM, then SIGKILL after {self.term_grace}s)"
                ),
            }
        else:
            result = entry.call.poll()
            if result is PENDING:  # pragma: no cover - sentinel fired
                entry.call.terminate()
                result = entry.call.poll()
            if isinstance(result, WorkerLost):
                body = {
                    "ok": False,
                    "error_code": "WorkerLost",
                    "error": str(result),
                    "exitcode": result.exitcode,
                }
            elif isinstance(result, dict) and "ok" in result:
                body = result
                retryable = False
            else:  # worker protocol violation: treat as lost worker
                body = {
                    "ok": False,
                    "error_code": "WorkerLost",
                    "error": (
                        f"job {entry.spec.id} worker returned an "
                        f"unexpected result of type "
                        f"{type(result).__name__}"
                    ),
                }
        # Before classifying, which may raise KeyboardInterrupt: the
        # worker must be back in the pool or gone, never dropped.
        if retryable:
            entry.call.worker.close(self.term_grace)
        else:
            self._idle.append(entry.call.worker)
        self._classify(entry, body, retryable, heap, records, journal)

    def _classify(
        self,
        entry: _Running,
        body: dict,
        retryable: bool,
        heap: list[_PendingJob],
        records: dict[str, dict],
        journal: JobJournal | None,
    ) -> None:
        spec, attempt = entry.spec, entry.attempt
        record = {
            "job": spec.id,
            "kind": spec.kind,
            "outcome": OUTCOME_SUCCEEDED,
            "attempts": attempt,
        }
        if body.get("ok"):
            record["payload"] = body.get("payload")
            if "mode" in body:
                record["mode"] = body["mode"]
            self._finalize(spec, record, records, journal)
            return
        code = str(body.get("error_code", "UnknownError"))
        error = str(body.get("error", ""))
        if not retryable:
            record.update(
                outcome=OUTCOME_DEAD_LETTER, error_code=code, error=error
            )
            if "diagnostics" in body:
                record["diagnostics"] = body["diagnostics"]
            self._finalize(spec, record, records, journal)
            return
        max_attempts = spec.max_attempts if spec.max_attempts is not None \
            else self.retry.max_attempts
        if attempt < max_attempts:
            if journal is not None:
                journal.attempt_failed(spec, attempt, code, error)
            delay = self.retry.delay(spec.id, attempt)
            heapq.heappush(
                heap,
                _PendingJob(
                    time.monotonic() + delay, self._seq, spec, attempt + 1
                ),
            )
            self._seq += 1
            return
        record.update(outcome=OUTCOME_EXHAUSTED, last_error=code, error=error)
        self._finalize(spec, record, records, journal)

    def _finalize(
        self,
        spec: JobSpec,
        record: dict,
        records: dict[str, dict],
        journal: JobJournal | None,
    ) -> None:
        if journal is not None:
            journal.done(spec, record)
        records[spec.id] = record
        self._terminal_events += 1
        if self.interrupt_after is not None \
                and self._terminal_events >= self.interrupt_after:
            raise KeyboardInterrupt


# ----------------------------------------------------------------------
# durable state-directory layer
# ----------------------------------------------------------------------
def _journal_states(path: Path, specs: list[JobSpec]) -> dict[str, JobState]:
    """Per-job state recovered from the journal at ``path``, if any."""
    if not path.exists() or path.stat().st_size == 0:
        return {}
    return load_journal(path, {spec.id: spec for spec in specs})


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")
    os.replace(tmp, path)


def _load_service_config(state: Path) -> ServiceConfig:
    path = state / SERVICE_CONFIG_FILE
    if not path.exists():
        return ServiceConfig()
    from repro.service.scenario import _parse_service

    try:
        data = json.loads(path.read_text())
        # A state directory written by an older version may store
        # settings ServiceConfig no longer has; they select nothing.
        known = {f.name for f in fields(ServiceConfig)}
        return _parse_service({k: v for k, v in data.items() if k in known})
    except (ValueError, TypeError, AttributeError) as exc:
        raise ScenarioError(
            f"{path}: unreadable persisted service config: {exc}"
        ) from None


def _save_service_config(state: Path, config: ServiceConfig) -> None:
    path = state / SERVICE_CONFIG_FILE
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(
        json.dumps(asdict(config), indent=1, sort_keys=True)
        + "\n"
    )
    os.replace(tmp, path)


def submit_scenario(
    state_dir: str | os.PathLike, scenario: Scenario
) -> tuple[int, int]:
    """Queue a scenario's jobs durably; returns ``(added, skipped)``."""
    state = Path(state_dir)
    state.mkdir(parents=True, exist_ok=True)
    added, skipped = append_queue(state / QUEUE_FILE, list(scenario.jobs))
    _save_service_config(state, scenario.service)
    return added, skipped


def run_service(
    state_dir: str | os.PathLike,
    scenario: Scenario | None = None,
    *,
    jobs: int | None = None,
    timeout: float | None = None,
    max_attempts: int | None = None,
    chaos_kill: float = 0.0,
    chaos_seed: int = 0,
    interrupt_after: int | None = None,
) -> ServiceRun:
    """Run (or resume) everything queued under ``state_dir``.

    Submits ``scenario`` first when given (idempotent).  Explicit
    keyword overrides beat the persisted scenario service config.  The
    journal is always continued when present — ``run`` after an
    interruption *is* a resume — and the final ``results.jsonl`` /
    ``deadletter.jsonl`` are rewritten atomically from terminal records
    in queue order.
    """
    state = Path(state_dir)
    state.mkdir(parents=True, exist_ok=True)
    if scenario is not None:
        submit_scenario(state, scenario)
    queue_path = state / QUEUE_FILE
    if not queue_path.exists():
        raise ScenarioError(
            f"{state}: nothing queued — submit a scenario first "
            f"(service submit --scenario FILE --state {state})"
        )
    specs = load_queue(queue_path)
    config = _load_service_config(state)
    retry_cfg = config.retry
    if max_attempts is not None:
        retry_cfg = replace(retry_cfg, max_attempts=max_attempts)
    supervisor = JobSupervisor(
        jobs=jobs if jobs is not None else config.jobs,
        retry=retry_cfg,
        default_timeout=timeout if timeout is not None else config.timeout,
        journal_path=state / JOURNAL_FILE,
        chaos_kill=chaos_kill,
        chaos_seed=chaos_seed,
        interrupt_after=interrupt_after,
    )
    run = supervisor.run(specs)
    _write_jsonl(state / RESULTS_FILE, list(run.records))
    _write_jsonl(
        state / DEADLETTER_FILE,
        [r for r in run.records if r["outcome"] in FAILURE_OUTCOMES],
    )
    return run


def service_status(state_dir: str | os.PathLike) -> dict:
    """Queue/journal snapshot without executing anything."""
    state = Path(state_dir)
    queue_path = state / QUEUE_FILE
    if not queue_path.exists():
        return {"jobs": 0, "counts": {}, "pending": [], "in_flight": []}
    specs = load_queue(queue_path)
    states = _journal_states(state / JOURNAL_FILE, specs)
    counts: dict[str, int] = {}
    pending: list[str] = []
    in_flight: list[dict] = []
    for spec in specs:
        state_entry = states.get(spec.id)
        if state_entry is not None and state_entry.terminal:
            outcome = state_entry.record["outcome"]
            counts[outcome] = counts.get(outcome, 0) + 1
        elif state_entry is not None and state_entry.attempts:
            in_flight.append(
                {
                    "job": spec.id,
                    "attempts": state_entry.attempts,
                    "last_error": state_entry.last_error,
                }
            )
        else:
            pending.append(spec.id)
    return {
        "jobs": len(specs),
        "counts": counts,
        "pending": pending,
        "in_flight": in_flight,
    }
