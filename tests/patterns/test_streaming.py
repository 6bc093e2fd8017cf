"""Tests for the streaming access pattern (Eq. 3-4, three cases)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim.configs import CacheGeometry
from repro.cachesim.simulator import simulate_trace
from repro.patterns.base import (
    PatternError,
    alignment_probability,
    expected_accesses_per_element,
)
from repro.patterns.streaming import StreamingAccess
from repro.trace.recorder import TraceRecorder

SMALL = CacheGeometry(4, 64, 32, "small")
LARGE = CacheGeometry(16, 4096, 64, "large")


class TestEquationThree:
    def test_aligned_element_zero_extra(self):
        # E=32, CL=32: (32-1) % 32 = 31 -> p = 31/32.
        assert alignment_probability(32, 32) == pytest.approx(31 / 32)

    def test_small_element(self):
        assert alignment_probability(8, 32) == pytest.approx(7 / 32)

    def test_one_byte_element_never_straddles(self):
        assert alignment_probability(1, 32) == 0.0

    def test_expected_accesses_per_element(self):
        # E=64, CL=32: floor(64/32)=2, p=(63%32)/32=31/32.
        assert expected_accesses_per_element(64, 32) == pytest.approx(2 + 31 / 32)


class TestPaperExample:
    def test_paper_aspen_triple(self):
        """Paper: (8, 200, 4) = 200 8-byte elements, 32-byte stride."""
        pattern = StreamingAccess(8, 200, 4)
        assert pattern.data_size == 1600
        assert pattern.stride_bytes == 32
        assert pattern.elements_accessed == 50


class TestThreeCases:
    def test_case1_dense_equal_stride(self):
        # CL=32 <= E=32, S == E: ceil(D/CL) lines.
        pattern = StreamingAccess(32, 100, 1)
        assert pattern.estimate_accesses(SMALL) == 100

    def test_case1_sparse_stride(self):
        # CL=32 <= E=64, S=128 > E: ceil(D/S) * AE elements.
        pattern = StreamingAccess(64, 100, 2)
        expected = 50 * expected_accesses_per_element(64, 32)
        assert pattern.estimate_accesses(SMALL) == pytest.approx(expected)

    def test_case1_sparse_aligned(self):
        pattern = StreamingAccess(64, 100, 2, aligned=True)
        assert pattern.estimate_accesses(SMALL) == 50 * 2

    def test_case2_element_smaller_than_line(self):
        # E=8 < CL=32 <= S=32: ceil(D/S)*(1+p).
        pattern = StreamingAccess(8, 200, 4)
        p = alignment_probability(8, 32)
        assert pattern.estimate_accesses(SMALL) == pytest.approx(50 * (1 + p))

    def test_case2_aligned(self):
        pattern = StreamingAccess(8, 200, 4, aligned=True)
        assert pattern.estimate_accesses(SMALL) == 50

    def test_case3_line_larger_than_stride(self):
        # S=8 < CL=32: every line loaded once: ceil(1600/32) = 50.
        pattern = StreamingAccess(8, 200, 1)
        assert pattern.estimate_accesses(SMALL) == 50

    def test_zero_stride_rejected(self):
        with pytest.raises(PatternError):
            StreamingAccess(8, 200, 0)

    @pytest.mark.parametrize("bad", [0, -5])
    def test_bad_elements_rejected(self, bad):
        with pytest.raises(PatternError):
            StreamingAccess(8, bad)


class TestSweeps:
    def test_cache_resident_sweeps_do_not_multiply(self):
        pattern = StreamingAccess(8, 100, 1, sweeps=5)  # 800 B << 8 KB
        assert pattern.estimate_accesses(SMALL) == 25

    def test_thrashing_sweeps_multiply(self):
        pattern = StreamingAccess(8, 10000, 1, sweeps=3)  # 80 KB >> 8 KB
        single = StreamingAccess(8, 10000, 1)
        assert pattern.estimate_accesses(SMALL) == pytest.approx(
            3 * single.estimate_accesses(SMALL)
        )


class TestAgainstSimulator:
    """Analytical estimate vs the LRU simulator on the literal trace."""

    @pytest.mark.parametrize(
        "element_size,num,stride",
        [
            (8, 1000, 1),
            (8, 1000, 4),
            (8, 500, 2),
            (32, 300, 1),
            (64, 200, 1),
            (64, 200, 2),
            (4, 2000, 8),
        ],
    )
    @pytest.mark.parametrize("geometry", [SMALL, LARGE], ids=["small", "large"])
    def test_single_sweep_within_tolerance(self, element_size, num, stride, geometry):
        pattern = StreamingAccess(element_size, num, stride, aligned=True)
        rec = TraceRecorder()
        rec.allocate("A", num, element_size)
        rec.record_stream("A", 0, pattern.elements_accessed, stride_elements=stride)
        simulated = simulate_trace(rec.finish(), geometry).label("A").misses
        estimated = pattern.estimate_accesses(geometry)
        assert estimated == pytest.approx(simulated, rel=0.15), (
            f"model {estimated} vs simulator {simulated}"
        )

    @given(
        num=st.integers(10, 2000),
        stride=st.integers(1, 8),
        element_size=st.sampled_from([4, 8, 16, 32, 64]),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_model_matches_simulator(self, num, stride, element_size):
        pattern = StreamingAccess(element_size, num, stride, aligned=True)
        rec = TraceRecorder()
        rec.allocate("A", num, element_size)
        rec.record_stream("A", 0, pattern.elements_accessed, stride_elements=stride)
        simulated = simulate_trace(rec.finish(), SMALL).label("A").misses
        estimated = pattern.estimate_accesses(SMALL)
        assert simulated > 0
        # The paper's closed forms have O(1)-line boundary error (e.g. a
        # short strided traversal may never reach the structure's last
        # line, while case 3 charges ceil(D/CL)); allow 2 lines absolute
        # slack on top of the paper's 15% relative envelope.
        assert abs(estimated - simulated) <= max(2.0, 0.15 * simulated)
