"""Fault-tolerant DVF job service.

A supervised job-execution subsystem for long DVF analysis campaigns:
declarative YAML/JSON scenarios queue *jobs* (Aspen sources, registered
kernels, or self-test probes) into a durable queue; a pool of
crash-isolated workers drains it under per-job timeouts.  A failure the
worker reports is final and dead-lettered; a timeout or a lost worker
is retried with bounded exponential backoff.  A job's outcome depends
on the job alone.  An append-only journal makes ``service resume``
survive SIGINT/SIGKILL of the supervisor itself.

Public surface:

* :func:`~repro.service.scenario.load_scenario` /
  :class:`~repro.service.scenario.Scenario` /
  :class:`~repro.service.scenario.JobSpec` /
  :class:`~repro.service.scenario.RetryConfig` — declarative job
  configs and the retry budget;
* :class:`~repro.service.supervisor.JobSupervisor` /
  :func:`~repro.service.supervisor.run_service` /
  :class:`~repro.service.supervisor.ServiceRun` — the engine;
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
from repro.service.scenario import (
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
    "JobJournal",
    "JobSpec",
    "JobState",
    "JobSupervisor",
    "OUTCOME_DEAD_LETTER",
    "OUTCOME_EXHAUSTED",
    "OUTCOME_SUCCEEDED",
    "RetryConfig",
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
