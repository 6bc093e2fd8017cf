"""Golden-trace regression tests pinning Figure 4's simulator numbers.

The committed ``fixtures/*.npz`` traces and ``expected_stats.json``
freeze the exact per-label CacheStats for the VM and MC kernels on both
Table IV verification caches.  Any silent drift — in the kernels'
instrumentation, the trace recorder, ``_expand_lines``, or either
simulation engine — shows up here as an exact-count mismatch.

Regenerate deliberately with ``fixtures/make_golden.py`` after an
intentional change.
"""

import json
from pathlib import Path

import pytest

from repro.cachesim.configs import VERIFICATION_CACHES
from repro.cachesim.simulator import CacheSimulator
from repro.experiments.configs import WORKLOADS
from repro.kernels.registry import KERNELS
from repro.trace.io import load_trace

FIXTURE_DIR = Path(__file__).parent / "fixtures"
EXPECTED = json.loads((FIXTURE_DIR / "expected_stats.json").read_text())
GOLDEN_KERNELS = sorted(EXPECTED)


@pytest.mark.parametrize("kernel", GOLDEN_KERNELS)
@pytest.mark.parametrize("cache_name", sorted(VERIFICATION_CACHES))
@pytest.mark.parametrize("engine", ["array", "reference"])
def test_golden_trace_stats_exact(kernel, cache_name, engine):
    trace = load_trace(FIXTURE_DIR / f"{kernel.lower()}_test.npz")
    sim = CacheSimulator(VERIFICATION_CACHES[cache_name], engine=engine)
    sim.run(trace)
    assert sim.stats.as_dict() == EXPECTED[kernel][cache_name]


@pytest.mark.parametrize("kernel", GOLDEN_KERNELS)
def test_kernel_still_produces_golden_trace(kernel):
    """The live kernel's trace must equal the committed recording."""
    golden = load_trace(FIXTURE_DIR / f"{kernel.lower()}_test.npz")
    live = KERNELS[kernel].trace(WORKLOADS["test"][kernel])
    assert live.labels == golden.labels
    assert (live.element_sizes == golden.element_sizes).all()
    assert (live.addresses == golden.addresses).all()
    assert (live.is_write == golden.is_write).all()
    assert (live.label_ids == golden.label_ids).all()
