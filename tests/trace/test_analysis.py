"""Tests for trace diagnostics (reuse histograms, MRC, suggestions)."""

import numpy as np
import pytest

from repro.cachesim.configs import CacheGeometry
from repro.cachesim.simulator import simulate_trace
from repro.kernels.registry import KERNELS
from repro.kernels.workloads import TEST_WORKLOADS
from repro.trace.analysis import (
    footprint_summary,
    miss_ratio_curve,
    reuse_distance_histogram,
    suggest_pattern,
)
from repro.trace.recorder import TraceRecorder


def stream_trace(n=256, label="A", repeats=1):
    rec = TraceRecorder()
    rec.allocate(label, n, 8)
    for _ in range(repeats):
        rec.record_stream(label, 0, n)
    return rec.finish()


class TestReuseHistogram:
    def test_single_sweep_all_cold(self):
        hist = reuse_distance_histogram(stream_trace(), line_size=64)
        # 256 * 8 B / 64 B = 32 blocks; 8 refs per block -> distance 0.
        assert hist[-1] == 32
        assert hist[0] == 256 - 32

    def test_double_sweep_reuse_at_footprint(self):
        hist = reuse_distance_histogram(stream_trace(repeats=2), line_size=64)
        assert hist[31] == 32  # second sweep revisits at distance 31

    def test_label_restriction(self):
        rec = TraceRecorder()
        rec.allocate("A", 64, 8)
        rec.allocate("B", 64, 8)
        rec.record_stream("A", 0, 64)
        rec.record_stream("B", 0, 64)
        hist = reuse_distance_histogram(rec.finish(), 64, label="B")
        assert sum(hist.values()) == 64


class TestMissRatioCurve:
    def test_monotone_nonincreasing(self):
        rng = np.random.default_rng(0)
        rec = TraceRecorder()
        rec.allocate("A", 1024, 8)
        rec.record_elements("A", rng.integers(0, 1024, 2000), False)
        curve = miss_ratio_curve(rec.finish(), line_size=64)
        sizes = sorted(curve)
        ratios = [curve[s] for s in sizes]
        assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))

    def test_matches_direct_lru_simulation(self):
        """MRC points must equal a fully-associative LRU simulation."""
        rng = np.random.default_rng(1)
        rec = TraceRecorder()
        rec.allocate("A", 512, 8)
        rec.record_elements("A", rng.integers(0, 512, 1500), False)
        trace = rec.finish()
        for blocks in (4, 16, 64):
            curve = miss_ratio_curve(trace, line_size=32, sizes=[blocks])
            # Single-set cache with `blocks` ways = fully-associative LRU.
            stats = simulate_trace(trace, CacheGeometry(blocks, 1, 32))
            expected = stats.label("A").misses / len(trace)
            assert curve[blocks] == pytest.approx(expected)

    def test_empty_trace(self):
        assert miss_ratio_curve(TraceRecorder().finish()) == {}


class TestFootprintSummary:
    def test_counts(self):
        rec = TraceRecorder()
        rec.allocate("A", 64, 8)
        rec.allocate("B", 64, 8)
        rec.record_stream("A", 0, 64)
        rec.record_stream("A", 0, 64)
        rec.record_stream("B", 0, 64, is_write=True)
        rows = {f.label: f for f in footprint_summary(rec.finish(), 64)}
        assert rows["A"].references == 128
        assert rows["A"].distinct_blocks == 8
        assert rows["A"].write_fraction == 0.0
        assert rows["B"].write_fraction == 1.0
        assert rows["B"].bytes_touched == 8 * 64

    def test_unreferenced_structure(self):
        rec = TraceRecorder()
        rec.allocate("A", 8, 8)
        rec.allocate("ghost", 8, 8)
        rec.record_stream("A", 0, 8)
        rows = {f.label: f for f in footprint_summary(rec.finish())}
        assert rows["ghost"].references == 0


class TestSuggestPattern:
    def test_stream_suggests_streaming(self):
        assert suggest_pattern(stream_trace(), "A") == "streaming"

    def test_regular_revisits_suggest_template(self):
        trace = stream_trace(repeats=4)
        assert suggest_pattern(trace, "A") == "template"

    def test_random_suggests_random(self):
        rng = np.random.default_rng(0)
        rec = TraceRecorder()
        rec.allocate("T", 4096, 64)
        rec.record_elements("T", rng.integers(0, 4096, 20000), False)
        assert suggest_pattern(rec.finish(), "T", line_size=64) == "random"

    def test_real_kernels_classified_sensibly(self):
        vm = KERNELS["VM"].trace(TEST_WORKLOADS["VM"])
        assert suggest_pattern(vm, "B", line_size=32) == "streaming"
        nb = KERNELS["NB"].trace(TEST_WORKLOADS["NB"])
        assert suggest_pattern(nb, "T", line_size=32) == "random"

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            suggest_pattern(stream_trace(), "missing")


class TestChunkedAnalysis:
    """Chunk-iterator inputs must reproduce monolithic results exactly."""

    def _trace(self):
        rng = np.random.default_rng(17)
        rec = TraceRecorder()
        rec.allocate("A", 512, 8)
        rec.allocate("B", 128, 16)
        rec.record_elements("A", rng.integers(0, 512, 900), False)
        rec.record_elements("B", rng.integers(0, 128, 400), True)
        rec.record_elements("A", rng.integers(0, 512, 300), True)
        return rec.finish()

    @pytest.mark.parametrize("chunk_refs", [1, 7, 100, 4096])
    def test_reuse_histogram_chunked(self, chunk_refs):
        from repro.trace.reference import iter_chunks

        trace = self._trace()
        whole = reuse_distance_histogram(trace, line_size=64)
        chunked = reuse_distance_histogram(
            iter_chunks(trace, chunk_refs), line_size=64
        )
        assert chunked == whole

    @pytest.mark.parametrize("chunk_refs", [1, 7, 100, 4096])
    def test_miss_ratio_curve_chunked(self, chunk_refs):
        from repro.trace.reference import iter_chunks

        trace = self._trace()
        whole = miss_ratio_curve(trace, line_size=64)
        chunked = miss_ratio_curve(
            iter_chunks(trace, chunk_refs), line_size=64
        )
        assert chunked == whole

    @pytest.mark.parametrize("chunk_refs", [1, 7, 100, 4096])
    def test_footprint_summary_chunked(self, chunk_refs):
        from repro.trace.reference import iter_chunks

        trace = self._trace()
        assert footprint_summary(
            iter_chunks(trace, chunk_refs)
        ) == footprint_summary(trace)

    def test_label_filter_across_growing_tables(self):
        # Chunked from a recorder, "B" is absent from early chunk label
        # tables; the filter must skip those chunks, not raise.
        from repro.trace.reference import iter_chunks

        trace = self._trace()
        whole = reuse_distance_histogram(trace, line_size=64, label="B")
        chunked = reuse_distance_histogram(
            iter_chunks(trace, 50), line_size=64, label="B"
        )
        assert chunked == whole

    def test_missing_label_still_raises(self):
        from repro.trace.reference import iter_chunks

        trace = self._trace()
        with pytest.raises(KeyError, match="missing"):
            reuse_distance_histogram(
                iter_chunks(trace, 100), label="missing"
            )

    def test_sink_recorder_feed(self):
        rng = np.random.default_rng(19)
        indices = rng.integers(0, 256, 700)
        chunks = []
        mono = TraceRecorder()
        streamed = TraceRecorder(chunk_refs=93, sink=chunks.append)
        for rec in (mono, streamed):
            rec.allocate("A", 256, 8)
            rec.record_elements("A", indices, False)
        streamed.flush_tail()
        assert len(chunks) == 8
        whole = miss_ratio_curve(mono.finish(), line_size=64)
        assert miss_ratio_curve(iter(chunks), line_size=64) == whole
