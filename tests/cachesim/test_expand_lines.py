"""Property and edge-case tests for ``_expand_lines``.

The expansion from byte accesses to per-line touches feeds both
simulation engines, so its correctness is load-bearing: a wrong span
changes miss counts everywhere.  The properties are checked against a
brute-force per-access expansion, including the two-line-straddle fast
path and the non-power-of-two line-size division path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim.configs import CacheGeometry
from repro.cachesim.expand import _expand_lines
from repro.cachesim.simulator import CacheSimulator
from repro.trace.reference import ReferenceTrace

from test_engine_differential import counters, drain


def make_trace(addresses, sizes, label_ids=None, writes=None):
    """A trace whose label ``i`` has element size ``sizes[i]``."""
    n = len(addresses)
    return ReferenceTrace(
        addresses=np.asarray(addresses, dtype=np.int64),
        is_write=(
            np.zeros(n, dtype=bool) if writes is None else np.asarray(writes)
        ),
        label_ids=(
            np.zeros(n, dtype=np.int32)
            if label_ids is None
            else np.asarray(label_ids, dtype=np.int32)
        ),
        labels=["ABCDEFGH"[i] for i in range(len(sizes))],
        element_sizes=sizes,
    )


def brute_force_expand(trace, line_size):
    """Per-access loop the vectorised expansion must agree with."""
    lines, writes, lids = [], [], []
    for addr, w, lid in zip(trace.addresses, trace.is_write, trace.label_ids):
        size = trace.element_sizes[lid]
        first = int(addr) // line_size
        last = (int(addr) + int(size) - 1) // line_size
        for line in range(first, last + 1):
            lines.append(line)
            writes.append(bool(w))
            lids.append(int(lid))
    return lines, writes, lids


class TestExpandLinesEdgeCases:
    def test_empty_trace(self):
        trace = make_trace([], [8])
        line_ids, writes, lids = _expand_lines(trace, 64)
        assert len(line_ids) == len(writes) == len(lids) == 0

    def test_size_one_access_touches_one_line(self):
        trace = make_trace([63, 64], [1])
        line_ids, _, _ = _expand_lines(trace, 64)
        assert line_ids.tolist() == [0, 1]

    def test_line_aligned_access_exactly_covers(self):
        # A line-size access at a line boundary touches exactly 1 line.
        trace = make_trace([128], [64])
        line_ids, _, _ = _expand_lines(trace, 64)
        assert line_ids.tolist() == [2]

    def test_one_past_alignment_straddles(self):
        trace = make_trace([129], [64])
        line_ids, _, _ = _expand_lines(trace, 64)
        assert line_ids.tolist() == [2, 3]

    def test_access_spanning_three_lines(self):
        # 130 bytes starting mid-line cover lines 0-2.
        trace = make_trace([30], [130])
        line_ids, writes, lids = _expand_lines(trace, 64)
        assert line_ids.tolist() == [0, 1, 2]
        assert writes.tolist() == [False] * 3
        assert lids.tolist() == [0] * 3

    def test_access_spanning_many_lines_carries_flags(self):
        trace = make_trace([10], [8, 1000], label_ids=[1], writes=[True])
        line_ids, writes, lids = _expand_lines(trace, 32)
        assert line_ids.tolist() == list(range(0, 32))
        assert writes.all()
        assert (lids == 1).all()

    def test_mixed_spans_preserve_order(self):
        # Straddle fast path: spans 1 and 2 interleaved keep trace order.
        trace = make_trace([0, 60, 64, 126], [8])
        line_ids, _, _ = _expand_lines(trace, 64)
        assert line_ids.tolist() == [0, 0, 1, 1, 1, 2]

    def test_non_power_of_two_line_size(self):
        trace = make_trace([0, 95, 100], [10])
        line_ids, _, _ = _expand_lines(trace, 96)
        assert line_ids.tolist() == [0, 0, 1, 1]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4000),
                st.booleans(),
                st.integers(min_value=0, max_value=5),
            ),
            min_size=0,
            max_size=60,
        ),
        st.lists(
            st.integers(min_value=1, max_value=700), min_size=6, max_size=6
        ),
        st.sampled_from([32, 48, 64, 128]),
    )
    def test_matches_brute_force(self, accesses, sizes, line_size):
        trace = make_trace(
            [a[0] for a in accesses],
            sizes,
            label_ids=[a[2] for a in accesses],
            writes=[a[1] for a in accesses],
        )
        line_ids, writes, lids = _expand_lines(trace, line_size)
        exp_lines, exp_writes, exp_lids = brute_force_expand(trace, line_size)
        assert line_ids.tolist() == exp_lines
        assert writes.tolist() == exp_writes
        assert lids.tolist() == exp_lids


class TestWarmCachePersistence:
    """Cache state must persist across run() calls on both engines."""

    @pytest.mark.parametrize("engine", ["array", "reference"])
    def test_second_run_hits_warm_cache(self, engine):
        geometry = CacheGeometry(4, 64, 32)
        trace = make_trace(np.arange(100, dtype=np.int64) * 32, [8])
        sim = CacheSimulator(geometry, engine=engine)
        sim.run(trace)
        assert sim.stats.label("A").misses == 100
        sim.run(trace)  # everything fits: second pass is all hits
        assert sim.stats.label("A").misses == 100
        assert sim.stats.label("A").hits == 100

    @pytest.mark.parametrize("engine", ["array", "reference"])
    def test_drain_then_rerun_misses(self, engine):
        geometry = CacheGeometry(4, 64, 32)
        trace = make_trace(
            np.arange(50, dtype=np.int64) * 32,
            [8],
            writes=np.ones(50, dtype=bool),
        )
        sim = CacheSimulator(geometry, engine=engine)
        sim.run(trace)
        drain(sim)
        assert sim.stats.label("A").writebacks == 50
        sim.run(trace)
        assert sim.stats.label("A").misses == 100
        assert sim.stats.label("A").writebacks == 50

    def test_warm_state_identical_between_engines(self):
        geometry = CacheGeometry(2, 16, 64)
        rng = np.random.default_rng(21)
        sims = {
            engine: CacheSimulator(geometry, engine=engine)
            for engine in ("array", "reference")
        }
        for _ in range(3):
            trace = make_trace(
                rng.integers(0, 1 << 12, size=200),
                rng.integers(1, 100, size=8),
                label_ids=rng.integers(0, 8, size=200),
                writes=rng.random(200) < 0.5,
            )
            for sim in sims.values():
                sim.run(trace)
            assert counters(sims["array"].stats) == counters(
                sims["reference"].stats
            )
