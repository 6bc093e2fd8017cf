"""Bounded retry policy and circuit breaker.

The supervisor decides retry or dead-letter where it observes a
failure (:meth:`~repro.service.supervisor.JobSupervisor._settle`):

* a failure record returned by
  :func:`~repro.service.worker.execute_job` is final — the worker
  caught one of its ``DETERMINISTIC_EXCEPTIONS``, re-running reproduces
  it, and the job is dead-lettered after one attempt;
* a failure the supervisor builds itself — a timeout (``JobTimeout``),
  a worker that died without a result (``WorkerLost``) or a protocol
  violation — says nothing about the job, so it is retried with
  exponential backoff and deterministic jitter, and only these count
  towards the circuit breaker.

Backoff jitter is deterministic — derived from ``sha256(job_id,
attempt)`` rather than wall-clock entropy — so a resumed run schedules
the same delays an uninterrupted run would have.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.service.scenario import BreakerConfig, RetryConfig


def _unit_interval(job_id: str, attempt: int) -> float:
    """Deterministic pseudo-uniform in [0, 1) keyed on (job, attempt)."""
    digest = hashlib.sha256(f"{job_id}#{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter."""

    config: RetryConfig = RetryConfig()

    @property
    def max_attempts(self) -> int:
        return self.config.max_attempts

    def delay(self, job_id: str, attempt: int) -> float:
        """Backoff before retrying ``job_id`` after failed ``attempt``.

        ``base_delay * 2^(attempt-1)`` capped at ``max_delay``, then
        stretched by ``+[0, jitter]`` — jitter decorrelates a thundering
        herd of retries, and keying it on ``(job, attempt)`` keeps
        resumed schedules identical to undisturbed ones.
        """
        cfg = self.config
        base = min(cfg.max_delay, cfg.base_delay * 2.0 ** max(0, attempt - 1))
        if cfg.jitter <= 0.0:
            return base
        return base * (1.0 + cfg.jitter * _unit_interval(job_id, attempt))


class CircuitBreaker:
    """Degrade to the safe path when the fast path keeps dying.

    Counts *consecutive transient* failures of fast-path jobs (worker
    deaths, timeouts — failures the worker reports don't count: they
    say nothing about the infrastructure).  After ``threshold`` of them
    the breaker opens and the supervisor routes jobs through the
    degraded path (lenient evaluation mode for Aspen jobs) for
    ``cooldown`` launches; the next launch is a half-open fast-path
    probe — success closes the breaker, another transient failure
    reopens it.

    State transitions are driven by launch/completion *counts*, not
    wall time, so behaviour is deterministic under test.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, config: BreakerConfig | None = None):
        self.config = config or BreakerConfig()
        self.state = self.CLOSED
        self._consecutive = 0
        self._degraded_remaining = 0
        #: Total launches routed to the degraded path (observability).
        self.degraded_launches = 0
        #: Times the breaker opened.
        self.opened = 0

    def allow_fast_path(self) -> bool:
        """Consulted at launch: may this job use the fast path?

        While open, each call burns one cooldown slot; exhausting the
        cooldown arms the half-open probe.
        """
        if self.state == self.CLOSED or self.state == self.HALF_OPEN:
            return True
        self._degraded_remaining -= 1
        self.degraded_launches += 1
        if self._degraded_remaining <= 0:
            self.state = self.HALF_OPEN
        return False

    def record_success(self, fast_path: bool) -> None:
        if not fast_path:
            return
        self._consecutive = 0
        if self.state == self.HALF_OPEN:
            self.state = self.CLOSED

    def record_transient_failure(self, fast_path: bool) -> None:
        if not fast_path:
            return
        if self.state == self.HALF_OPEN:
            self._open()
            return
        self._consecutive += 1
        if self.state == self.CLOSED \
                and self._consecutive >= self.config.threshold:
            self._open()

    def _open(self) -> None:
        self.state = self.OPEN
        self.opened += 1
        self._consecutive = 0
        self._degraded_remaining = self.config.cooldown
