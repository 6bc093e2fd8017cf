"""Backoff determinism and the circuit breaker.

Which failures are retried is decided by the supervisor
(``tests/service/test_supervisor.py``).
"""

from repro.service.retry import CircuitBreaker, RetryPolicy
from repro.service.scenario import BreakerConfig, RetryConfig


class TestRetryPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(RetryConfig(
            base_delay=1.0, max_delay=4.0, jitter=0.0))
        delays = [policy.delay("j", a) for a in (1, 2, 3, 4, 5)]
        assert delays == [1.0, 2.0, 4.0, 4.0, 4.0]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(RetryConfig(
            base_delay=1.0, max_delay=8.0, jitter=0.5))
        d1 = policy.delay("job-a", 1)
        assert d1 == policy.delay("job-a", 1)  # same (job, attempt)
        assert d1 != policy.delay("job-b", 1)  # decorrelated across jobs
        assert 1.0 <= d1 <= 1.5


class TestCircuitBreaker:
    def _breaker(self, threshold=2, cooldown=2):
        return CircuitBreaker(BreakerConfig(
            threshold=threshold, cooldown=cooldown))

    def test_opens_after_consecutive_transient_failures(self):
        breaker = self._breaker(threshold=2)
        assert breaker.allow_fast_path()
        breaker.record_transient_failure(fast_path=True)
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_transient_failure(fast_path=True)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opened == 1

    def test_success_resets_the_streak(self):
        breaker = self._breaker(threshold=2)
        breaker.record_transient_failure(fast_path=True)
        breaker.record_success(fast_path=True)
        breaker.record_transient_failure(fast_path=True)
        assert breaker.state == CircuitBreaker.CLOSED

    def test_open_degrades_then_probes_half_open(self):
        breaker = self._breaker(threshold=1, cooldown=2)
        breaker.record_transient_failure(fast_path=True)
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow_fast_path()  # degraded launch 1
        assert not breaker.allow_fast_path()  # degraded launch 2
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow_fast_path()      # the probe
        assert breaker.degraded_launches == 2

    def test_half_open_probe_success_closes(self):
        breaker = self._breaker(threshold=1, cooldown=1)
        breaker.record_transient_failure(fast_path=True)
        breaker.allow_fast_path()  # burns the cooldown, arms half-open
        breaker.record_success(fast_path=True)
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_failure_reopens(self):
        breaker = self._breaker(threshold=1, cooldown=1)
        breaker.record_transient_failure(fast_path=True)
        breaker.allow_fast_path()
        breaker.record_transient_failure(fast_path=True)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opened == 2

    def test_degraded_outcomes_do_not_drive_the_breaker(self):
        breaker = self._breaker(threshold=1)
        breaker.record_transient_failure(fast_path=False)
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_transient_failure(fast_path=True)
        assert breaker.state == CircuitBreaker.OPEN
        breaker.record_success(fast_path=False)
        assert breaker.state == CircuitBreaker.OPEN
