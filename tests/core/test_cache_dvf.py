"""Tests for the cache-hierarchy DVF extension and residency tracking."""

import numpy as np
import pytest

from repro.cachesim import CacheGeometry, CacheSimulator, PAPER_CACHES
from repro.core.cache_dvf import analyze_cache_dvf
from repro.kernels import KERNELS, TEST_WORKLOADS
from repro.trace import TraceRecorder
from repro.trace.reference import ReferenceTrace

SMALL = CacheGeometry(4, 64, 32, "small")


def run_tracked(build):
    sim = CacheSimulator(SMALL, track_residency=True)
    rec = TraceRecorder()
    build(rec)
    sim.run(rec.finish())
    return sim


class TestResidencyTracking:
    def test_requires_flag(self):
        sim = CacheSimulator(SMALL)
        with pytest.raises(RuntimeError, match="track_residency"):
            sim.average_resident_lines("A")

    def test_single_resident_structure(self):
        def build(rec):
            rec.allocate("A", 128, 8)      # 1 KB, fits easily
            rec.record_stream("A", 0, 128)
            rec.record_stream("A", 0, 128)

        sim = run_tracked(build)
        # 32 lines loaded during the first sweep, all resident after:
        # the time-average over 256 accesses is a bit over half of 32
        # (ramp up during the first sweep, flat at 32 afterwards).
        avg = sim.average_resident_lines("A")
        assert 16 < avg <= 32

    def test_never_exceeds_cache_lines(self):
        rng = np.random.default_rng(0)

        def build(rec):
            rec.allocate("A", 8192, 8)
            rec.record_elements("A", rng.integers(0, 8192, 5000), False)

        sim = run_tracked(build)
        assert sim.average_resident_lines("A") <= SMALL.num_blocks

    def test_competing_structures_partition_cache(self):
        def build(rec):
            rec.allocate("A", 2048, 8)
            rec.allocate("B", 2048, 8)
            for _ in range(4):
                rec.record_stream("A", 0, 2048)
                rec.record_stream("B", 0, 2048)

        sim = run_tracked(build)
        total = sim.average_resident_lines("A") + sim.average_resident_lines("B")
        assert total <= SMALL.num_blocks + 1e-9
        assert sim.average_resident_lines("A") > 0
        assert sim.average_resident_lines("B") > 0

    def test_unreferenced_label_zero(self):
        def build(rec):
            rec.allocate("A", 16, 8)
            rec.allocate("ghost", 16, 8)
            rec.record_stream("A", 0, 16)

        sim = run_tracked(build)
        assert sim.average_resident_lines("ghost") == 0.0

    @pytest.mark.parametrize("engine", ["array", "reference"])
    def test_flush_ends_residency(self, engine):
        # A is resident for no step after the flush: touched once at
        # step 1 and flushed, it averages 0 lines over the 10 steps,
        # while B holds its line from step 2 to step 10.
        def touches(label, n):
            return ReferenceTrace(
                addresses=np.zeros(n, dtype=np.int64),
                sizes=np.full(n, 8, dtype=np.int64),
                is_write=np.zeros(n, dtype=bool),
                label_ids=np.zeros(n, dtype=np.int32),
                labels=[label],
            )

        sim = CacheSimulator(SMALL, track_residency=True, engine=engine)
        sim.run(touches("A", 1))
        sim.flush()
        sim.run(touches("B", 9))
        assert sim.resident_lines_for("A") == 0
        assert sim.average_resident_lines("A") == 0.0
        assert sim.average_resident_lines("B") == 0.8


class TestCacheDVF:
    @pytest.fixture(scope="class")
    def report(self):
        return analyze_cache_dvf(
            KERNELS["VM"], TEST_WORKLOADS["VM"], PAPER_CACHES["small"]
        )

    def test_all_structures_reported(self, report):
        assert {s.name for s in report.structures} == {"A", "B", "C"}

    def test_dvf_nonnegative_and_summed(self, report):
        assert all(s.dvf >= 0 for s in report.structures)
        assert report.dvf_application == pytest.approx(
            sum(s.dvf for s in report.structures)
        )

    def test_resident_bytes_bounded_by_cache(self, report):
        capacity = PAPER_CACHES["small"].capacity
        for s in report.structures:
            assert 0 <= s.avg_resident_bytes <= capacity

    def test_structure_lookup(self, report):
        assert report.structure("A").cache_accesses > 0
        with pytest.raises(KeyError):
            report.structure("Z")

    def test_ranking_differs_from_memory_dvf(self):
        """Cache DVF weighs *residency*, not footprint: a structure that
        streams through without lingering ranks lower than one that
        stays resident, even with a bigger footprint."""
        report = analyze_cache_dvf(
            KERNELS["CG"], TEST_WORKLOADS["CG"], PAPER_CACHES["small"]
        )
        a = report.structure("A")
        # A's average residency is bounded by the cache, so its
        # resident footprint is a tiny slice of its 80 KB.
        assert a.avg_resident_bytes < 0.3 * KERNELS["CG"].data_sizes(
            TEST_WORKLOADS["CG"]
        )["A"]

    def test_fit_scales_linearly(self):
        low = analyze_cache_dvf(
            KERNELS["VM"], TEST_WORKLOADS["VM"], SMALL, fit=10
        )
        high = analyze_cache_dvf(
            KERNELS["VM"], TEST_WORKLOADS["VM"], SMALL, fit=20
        )
        assert high.dvf_application == pytest.approx(
            2 * low.dvf_application
        )

    def test_explicit_time(self):
        report = analyze_cache_dvf(
            KERNELS["VM"], TEST_WORKLOADS["VM"], SMALL, time_seconds=2.0
        )
        assert report.time_seconds == 2.0
