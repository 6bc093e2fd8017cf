"""Fault-tolerant DVF job service.

A supervised job-execution subsystem for long DVF analysis campaigns:
declarative YAML/JSON scenarios queue *jobs* (Aspen sources, registered
kernels, or self-test probes) into a durable queue; a pool of
crash-isolated workers drains it under per-job timeouts.  A failure the
worker reports is final and dead-lettered; a timeout or a lost worker
is retried with bounded exponential backoff and feeds a circuit breaker
that degrades to the safe path (lenient mode for Aspen jobs) while the
fast path keeps dying.  An append-only journal makes ``service resume``
survive SIGINT/SIGKILL of the supervisor itself.

Public surface:

* :func:`~repro.service.scenario.load_scenario` /
  :class:`~repro.service.scenario.Scenario` /
  :class:`~repro.service.scenario.JobSpec` — declarative job configs;
* :class:`~repro.service.supervisor.JobSupervisor` /
  :func:`~repro.service.supervisor.run_service` /
  :class:`~repro.service.supervisor.ServiceRun` — the engine;
* :class:`~repro.service.retry.RetryPolicy` /
  :class:`~repro.service.retry.CircuitBreaker` — failure-handling
  policy;
* :class:`~repro.service.journal.JobJournal` /
  :func:`~repro.service.journal.load_journal` — durability layer;
* :func:`~repro.service.cli.main` — the ``service`` CLI.
"""

from repro.service.journal import (
    JobJournal,
    JobState,
    append_queue,
    load_journal,
    load_queue,
)
from repro.service.retry import CircuitBreaker, RetryPolicy
from repro.service.scenario import (
    BreakerConfig,
    JobSpec,
    RetryConfig,
    Scenario,
    ScenarioError,
    ServiceConfig,
    load_scenario,
    parse_scenario,
)
from repro.service.supervisor import (
    OUTCOME_DEAD_LETTER,
    OUTCOME_EXHAUSTED,
    OUTCOME_SUCCEEDED,
    JobSupervisor,
    ServiceRun,
    run_service,
    service_status,
    submit_scenario,
)
from repro.service.worker import execute_job

__all__ = [
    "BreakerConfig",
    "CircuitBreaker",
    "JobJournal",
    "JobSpec",
    "JobState",
    "JobSupervisor",
    "OUTCOME_DEAD_LETTER",
    "OUTCOME_EXHAUSTED",
    "OUTCOME_SUCCEEDED",
    "RetryConfig",
    "RetryPolicy",
    "Scenario",
    "ScenarioError",
    "ServiceConfig",
    "ServiceRun",
    "append_queue",
    "execute_job",
    "load_journal",
    "load_queue",
    "load_scenario",
    "parse_scenario",
    "run_service",
    "service_status",
    "submit_scenario",
]
