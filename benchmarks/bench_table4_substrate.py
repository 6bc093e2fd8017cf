"""Substrate benchmarks over the Table IV cache configurations.

Times the two substrates the evaluation rests on — the LRU cache
simulator (references/second at each Table IV geometry) and the CGPMAC
analytical estimators — so regressions in either are visible.
"""

import numpy as np
import pytest

from repro.cachesim.configs import PAPER_CACHES
from repro.cachesim.simulator import CacheSimulator
from repro.patterns.random_access import RandomAccess
from repro.patterns.reuse import ReuseAccess
from repro.patterns.streaming import StreamingAccess
from repro.patterns.template import TemplateAccess
from repro.trace.recorder import TraceRecorder

_N_REFS = 200_000


def _random_trace(num_elements=65536, element_size=8, seed=0):
    rng = np.random.default_rng(seed)
    rec = TraceRecorder()
    rec.allocate("A", num_elements, element_size)
    rec.record_elements(
        "A", rng.integers(0, num_elements, size=_N_REFS), False
    )
    return rec.finish()


@pytest.fixture(scope="module")
def trace():
    return _random_trace()


@pytest.mark.parametrize("cache", sorted(PAPER_CACHES))
def test_simulator_throughput(benchmark, trace, cache):
    """References/second of the LRU simulator at each Table IV geometry."""
    geometry = PAPER_CACHES[cache]

    def run():
        return CacheSimulator(geometry).run(trace)

    stats = benchmark(run)
    assert stats.label("A").accesses == _N_REFS


def test_streaming_estimator_speed(benchmark):
    pattern = StreamingAccess(8, 10_000_000, 4)
    result = benchmark(pattern.estimate_accesses, PAPER_CACHES["8MB"])
    assert result > 0


def test_random_estimator_speed(benchmark):
    pattern = RandomAccess(1_000_000, 32, 5000, 100_000)
    result = benchmark(pattern.estimate_accesses, PAPER_CACHES["8MB"])
    assert result > 0


def test_reuse_estimator_speed(benchmark):
    pattern = ReuseAccess(1 << 20, 1 << 24, reuse_count=100)
    result = benchmark(pattern.estimate_accesses, PAPER_CACHES["8MB"])
    assert result > 0


def test_template_estimator_speed(benchmark):
    template = np.tile(np.arange(50_000, dtype=np.int64), 4)
    pattern = TemplateAccess(16, template)
    result = benchmark.pedantic(
        pattern.estimate_accesses, args=(PAPER_CACHES["8MB"],),
        rounds=3, iterations=1,
    )
    assert result > 0
