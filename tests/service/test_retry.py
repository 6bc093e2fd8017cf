"""Backoff determinism.

Which failures are retried is decided by the supervisor
(``tests/service/test_supervisor.py``).
"""

from repro.service.scenario import RetryConfig


class TestRetryPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = RetryConfig(base_delay=1.0, max_delay=4.0, jitter=0.0)
        delays = [policy.delay("j", a) for a in (1, 2, 3, 4, 5)]
        assert delays == [1.0, 2.0, 4.0, 4.0, 4.0]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryConfig(base_delay=1.0, max_delay=8.0, jitter=0.5)
        d1 = policy.delay("job-a", 1)
        assert d1 == policy.delay("job-a", 1)  # same (job, attempt)
        assert d1 != policy.delay("job-b", 1)  # decorrelated across jobs
        assert 1.0 <= d1 <= 1.5
