"""Tests for the cache-hierarchy DVF extension and residency tracking."""

import numpy as np
import pytest

from repro.cachesim.configs import PAPER_CACHES, CacheGeometry
from repro.cachesim.simulator import CacheSimulator
from repro.core.analyzer import DVFAnalyzer
from repro.core.cache_dvf import analyze_cache_dvf
from repro.core.dvf import DVFReport
from repro.core.machine import MachineModel
from repro.core.protection import greedy_ranking, plan_protection
from repro.core.report import render_dvf_report
from repro.kernels.registry import KERNELS
from repro.kernels.workloads import TEST_WORKLOADS
from repro.trace.recorder import TraceRecorder
from repro.trace.reference import PeriodicTrace, ReferenceTrace

SMALL = CacheGeometry(4, 64, 32, "small")


def run_tracked(build):
    sim = CacheSimulator(SMALL)
    rec = TraceRecorder()
    build(rec)
    sim.run(rec.finish())
    return sim


class TestResidencyTracking:
    def test_needs_no_flag(self):
        # Every single-engine simulator keeps residency: before any
        # replay it reads 0; a line inserted at step 1 of 2 reads 1/2.
        for engine in ("array", "reference"):
            sim = CacheSimulator(SMALL, engine=engine)
            assert sim.average_resident_lines("A") == 0.0
            sim.run(ReferenceTrace([0, 0], [False, True], [0, 0], ["A"], [8]))
            assert sim.average_resident_lines("A") == 0.5

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
    def test_eviction_ends_residency(self, engine):
        # A's line is inserted at step 1 and evicted at step 5 by B's
        # fourth line in set 0, so it holds 4 of the 10 steps; B's lines
        # go in at steps 2-5 and stay: (8 + 7 + 6 + 5) / 10.
        lines = [0, 64, 128, 192] + [256] * 6
        trace = ReferenceTrace(
            addresses=np.asarray(lines, dtype=np.int64) * SMALL.line_size,
            is_write=np.zeros(10, dtype=bool),
            label_ids=np.asarray([0] + [1] * 9, dtype=np.int32),
            labels=["A", "B"],
            element_sizes=[8, 8],
        )
        sim = CacheSimulator(SMALL, engine=engine)
        sim.run(trace)
        assert sim.stats.label("A").evictions == 1
        assert sim.average_resident_lines("A") == 0.4
        assert sim.average_resident_lines("B") == 2.6


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
            assert 0 <= s.size_bytes <= capacity

    def test_structure_lookup(self, report):
        assert report.structure("A").nha > 0
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
        assert a.size_bytes < 0.3 * KERNELS["CG"].data_sizes(
            TEST_WORKLOADS["CG"]
        )["A"]

    def test_replays_the_recorded_period(self, monkeypatch):
        # CG records one iteration and its count: the report comes from
        # that period, never the tiled trace, and equals the tiled one's.
        kernel, workload = KERNELS["CG"], TEST_WORKLOADS["CG"]
        tiled = PeriodicTrace(kernel.trace(workload))
        monkeypatch.setattr(kernel, "record", lambda w, cache=None: tiled)
        expected = analyze_cache_dvf(kernel, workload, PAPER_CACHES["small"])
        monkeypatch.undo()

        def whole(trace):
            raise AssertionError("the period was tiled")

        monkeypatch.setattr(PeriodicTrace, "whole", whole)
        report = analyze_cache_dvf(kernel, workload, PAPER_CACHES["small"])
        assert report == expected

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

    def test_is_a_dvf_report(self, report):
        # One report type: the renderer, the planner and the payload
        # take a cache report as they take a main-memory one.
        assert isinstance(report, DVFReport)
        assert report.machine == "small-verification"
        text = render_dvf_report(report)
        assert "DVF report: VM on small-verification" in text
        # Each structure's overhead fits one 4 KiB quantum.
        plan = plan_protection(report, budget_bytes=3 * 4096)
        assert set(plan.protected) == {"A", "B", "C"}
        assert plan.dvf_before == report.dvf_application
        assert {name for name, _ in greedy_ranking(report)} == {"A", "B", "C"}
        assert report.to_payload()["structures"][0]["name"] == "A"

    def test_default_time_is_the_analyzers(self):
        kernel, workload = KERNELS["VM"], TEST_WORKLOADS["VM"]
        report = analyze_cache_dvf(kernel, workload, SMALL)
        analyzer = DVFAnalyzer(MachineModel.from_geometry(SMALL))
        assert report.time_seconds == analyzer.runtime_provider(
            kernel, workload
        )

    def test_explicit_time(self):
        report = analyze_cache_dvf(
            KERNELS["VM"], TEST_WORKLOADS["VM"], SMALL, time_seconds=2.0
        )
        assert report.time_seconds == 2.0
