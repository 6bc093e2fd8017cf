"""Tests for the trace-driven cache simulator, including LRU properties."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim.cache import SetAssociativeCache
from repro.cachesim.configs import CacheGeometry
from repro.cachesim.simulator import CacheSimulator, simulate_trace
from repro.trace.recorder import TraceRecorder

from test_engine_differential import drain


def make_trace(indices, element_size=8, num_elements=4096, label="A",
               writes=False):
    rec = TraceRecorder()
    rec.allocate(label, num_elements, element_size)
    rec.record_elements(label, np.asarray(indices), writes)
    return rec.finish()


SMALL = CacheGeometry(4, 64, 32, "small")


class TestSimulatorBasics:
    def test_sequential_sweep_miss_count(self):
        # 1000 8-byte elements = 8000 bytes = 250 lines of 32B.
        trace = make_trace(np.arange(1000), num_elements=1000)
        stats = simulate_trace(trace, SMALL)
        assert stats.label("A").misses == 250
        assert stats.label("A").hits == 750

    def test_fits_in_cache_second_sweep_hits(self):
        rec = TraceRecorder()
        rec.allocate("A", 1000, 8)
        rec.record_stream("A", 0, 1000)
        rec.record_stream("A", 0, 1000)
        stats = simulate_trace(rec.finish(), SMALL)
        assert stats.label("A").misses == 250  # only compulsory

    def test_larger_than_cache_sweeps_thrash(self):
        rec = TraceRecorder()
        rec.allocate("A", 4096, 8)  # 32 KB >> 8 KB cache
        rec.record_stream("A", 0, 4096)
        rec.record_stream("A", 0, 4096)
        stats = simulate_trace(rec.finish(), SMALL)
        # Cyclic sweep through 4x-capacity data with LRU: every line misses.
        assert stats.label("A").misses == 2 * 4096 * 8 // 32

    def test_empty_trace(self):
        rec = TraceRecorder()
        rec.allocate("A", 10, 8)
        stats = simulate_trace(rec.finish(), SMALL)
        assert stats.by_label == {} or stats.total.accesses == 0

    def test_write_trace_generates_writebacks_on_drain(self):
        rec = TraceRecorder()
        rec.allocate("A", 8, 8)
        rec.record_stream("A", 0, 8, is_write=True)
        sim = CacheSimulator(SMALL)
        sim.run(rec.finish())
        assert sim.stats.label("A").writebacks == 0
        drain(sim)
        assert sim.stats.label("A").writebacks == 2  # 64 bytes = 2 lines

    def test_state_persists_across_runs(self):
        sim = CacheSimulator(SMALL)
        sim.run(make_trace(np.arange(100), num_elements=100))
        sim.run(make_trace(np.arange(100), num_elements=100))
        assert sim.stats.label("A").misses == 25  # warm second run

    def test_multi_label_attribution(self):
        rec = TraceRecorder()
        rec.allocate("A", 100, 8)
        rec.allocate("B", 100, 8)
        rec.record_stream("A", 0, 100)
        rec.record_stream("B", 0, 100)
        stats = simulate_trace(rec.finish(), SMALL)
        assert stats.label("A").misses == 25
        assert stats.label("B").misses == 25

    def test_straddling_accesses_expand(self):
        # 48-byte elements on 32-byte lines: each access spans 2 lines.
        rec = TraceRecorder()
        rec.allocate("A", 10, 48)
        rec.record_stream("A", 0, 10)
        stats = simulate_trace(rec.finish(), SMALL)
        assert stats.label("A").accesses == 20


class TestSimulatorMatchesScalarCache:
    """The vectorised simulator must agree exactly with scalar access()."""

    @given(
        indices=st.lists(st.integers(0, 511), min_size=1, max_size=300),
        writes=st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_equivalence_on_random_traces(self, indices, writes):
        trace = make_trace(indices, num_elements=512, writes=writes)
        fast = simulate_trace(trace, SMALL)
        slow_cache = SetAssociativeCache(SMALL)
        for address, is_write, lid in zip(
            trace.addresses.tolist(),
            trace.is_write.tolist(),
            trace.label_ids.tolist(),
        ):
            slow_cache.access(
                address,
                int(trace.element_sizes[lid]),
                is_write,
                trace.labels[lid],
            )
        assert fast.as_dict() == slow_cache.stats.as_dict()


class TestLRUInvariants:
    @given(indices=st.lists(st.integers(0, 2047), min_size=1, max_size=400))
    @settings(max_examples=50, deadline=None)
    def test_misses_bounded_by_accesses(self, indices):
        trace = make_trace(indices, num_elements=2048)
        stats = simulate_trace(trace, SMALL)
        label = stats.label("A")
        assert 0 < label.misses <= label.accesses
        assert label.accesses == len(indices)

    @given(indices=st.lists(st.integers(0, 255), min_size=1, max_size=400))
    @settings(max_examples=50, deadline=None)
    def test_misses_at_least_compulsory(self, indices):
        trace = make_trace(indices, num_elements=256)
        stats = simulate_trace(trace, SMALL)
        distinct_lines = len({(i * 8) // 32 for i in indices})
        assert stats.label("A").misses >= distinct_lines

    @given(indices=st.lists(st.integers(0, 255), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_larger_cache_never_misses_more(self, indices):
        """LRU inclusion property: more ways can only reduce misses."""
        trace = make_trace(indices, num_elements=256)
        small = simulate_trace(trace, CacheGeometry(2, 16, 32))
        large = simulate_trace(trace, CacheGeometry(8, 16, 32))
        assert large.label("A").misses <= small.label("A").misses

    @given(indices=st.lists(st.integers(0, 127), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_no_writes_no_writebacks(self, indices):
        trace = make_trace(indices, num_elements=128, writes=False)
        sim = CacheSimulator(SMALL)
        sim.run(trace)
        drain(sim)
        assert sim.stats.label("A").writebacks == 0
