"""pytest-benchmark comparisons of the two cache-simulation engines.

Per-kernel timings of the array engine against the dict-based oracle on
the large verification cache and the paper's 8MB LLC, plus a guard that
both engines stay bit-identical on the workloads being timed.  The
machine-readable trajectory (``BENCH_cachesim.json``) comes from
``benchmarks/harness.py``; these benchmarks give the per-kernel
breakdown in pytest-benchmark's comparison output::

    PYTHONPATH=src python -m pytest benchmarks/bench_cachesim.py
"""

import pytest

from repro.cachesim.configs import PAPER_CACHES, VERIFICATION_CACHES
from repro.cachesim.simulator import CacheSimulator
from repro.experiments.configs import KERNEL_ORDER, WORKLOADS
from repro.kernels.registry import KERNELS

GEOMETRIES = {
    "large": VERIFICATION_CACHES["large"],
    "8MB": PAPER_CACHES["8MB"],
}


@pytest.fixture(scope="module")
def traces():
    workloads = WORKLOADS["verification"]
    return {
        name: KERNELS[name].trace(workloads[name]) for name in KERNEL_ORDER
    }


@pytest.mark.parametrize("kernel", KERNEL_ORDER)
@pytest.mark.parametrize("cache", sorted(GEOMETRIES))
@pytest.mark.parametrize("engine", ["array", "reference"])
def test_engine_throughput(benchmark, traces, kernel, cache, engine):
    trace = traces[kernel]
    geometry = GEOMETRIES[cache]

    def simulate():
        sim = CacheSimulator(geometry, engine=engine)
        sim.run(trace)
        return sim.stats

    stats = benchmark.pedantic(simulate, rounds=3, iterations=1)
    assert stats.total.accesses > 0


@pytest.mark.parametrize("kernel", KERNEL_ORDER)
def test_engines_identical_on_bench_workloads(traces, kernel):
    trace = traces[kernel]
    for geometry in GEOMETRIES.values():
        sims = {}
        for engine in ("array", "reference"):
            sim = CacheSimulator(geometry, engine=engine)
            sim.run(trace)
            sims[engine] = sim.stats.as_dict()
        assert sims["array"] == sims["reference"]
