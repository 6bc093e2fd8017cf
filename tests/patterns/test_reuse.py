"""Tests for the data-reuse pattern (Eq. 8-15)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim.configs import CacheGeometry
from repro.cachesim.simulator import simulate_trace
from repro.patterns.base import PatternError
from repro.patterns.reuse import ReuseAccess, expected_set_occupancy, set_occupancy_pmf
from repro.trace.recorder import TraceRecorder

SMALL = CacheGeometry(4, 64, 32, "small")
LARGE = CacheGeometry(16, 4096, 64, "large")


class TestSetOccupancyPMF:
    def test_pmf_sums_to_one(self):
        pmf = set_occupancy_pmf(100, SMALL)
        assert pmf.sum() == pytest.approx(1.0)

    def test_zero_blocks_degenerate(self):
        pmf = set_occupancy_pmf(0, SMALL)
        assert pmf[0] == 1.0 and pmf[1:].sum() == 0.0

    def test_few_blocks_no_truncation(self):
        # 2 blocks < CA=4: plain binomial, no tail mass at CA.
        pmf = set_occupancy_pmf(2, SMALL)
        assert pmf[SMALL.associativity] == 0.0
        assert pmf.sum() == pytest.approx(1.0)

    def test_many_blocks_saturate_at_associativity(self):
        # 10000 blocks into 64 sets: each set essentially full.
        pmf = set_occupancy_pmf(10000, SMALL)
        assert pmf[SMALL.associativity] > 0.999

    def test_negative_blocks_rejected(self):
        with pytest.raises(PatternError):
            set_occupancy_pmf(-1, SMALL)

    @given(blocks=st.integers(0, 2000))
    @settings(max_examples=50, deadline=None)
    def test_pmf_always_normalised(self, blocks):
        pmf = set_occupancy_pmf(blocks, SMALL)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)
        assert (pmf >= 0).all()

    @given(blocks=st.integers(0, 500))
    @settings(max_examples=50, deadline=None)
    def test_expectation_bounded(self, blocks):
        e = expected_set_occupancy(blocks, SMALL)
        assert 0.0 <= e <= SMALL.associativity
        # Untruncated mean is blocks/NA; truncation only lowers it.
        assert e <= blocks / SMALL.num_sets + 1e-9

    def test_expectation_matches_untruncated_for_small_footprints(self):
        # Far below capacity the truncation mass is negligible.
        e = expected_set_occupancy(16, SMALL)
        assert e == pytest.approx(16 / 64, rel=1e-3)


class TestSurvivorExpectation:
    def test_no_interference_keeps_occupancy(self):
        pattern = ReuseAccess(target_bytes=64 * 32, interfering_bytes=0)
        assert pattern.expected_surviving_occupancy(SMALL) == pytest.approx(
            expected_set_occupancy(64, SMALL)
        )

    def test_exclusive_small_footprints_no_loss(self):
        # A=32 blocks, B=32 blocks in 64 sets: x+y rarely exceeds CA=4.
        a = ReuseAccess(32 * 32, 32 * 32, scenario="exclusive")
        survivors = a.expected_surviving_occupancy(SMALL)
        assert survivors == pytest.approx(expected_set_occupancy(32, SMALL), rel=0.05)

    def test_huge_interference_exclusive_evicts_all(self):
        # B floods every set: CA - y = 0 whenever y = CA.
        a = ReuseAccess(64 * 32, 10**6, scenario="exclusive")
        assert a.expected_surviving_occupancy(SMALL) == pytest.approx(0.0, abs=0.01)

    def test_huge_interference_concurrent_evicts_all(self):
        a = ReuseAccess(64 * 32, 10**6, scenario="concurrent")
        assert a.expected_surviving_occupancy(SMALL) == pytest.approx(0.0, abs=0.05)

    @pytest.mark.parametrize(
        "scenario", ["exclusive", "concurrent", "hypergeometric"]
    )
    def test_survivors_bounded_by_associativity(self, scenario):
        pattern = ReuseAccess(3000, 6000, scenario=scenario)
        survivors = pattern.expected_surviving_occupancy(SMALL)
        assert 0.0 <= survivors <= SMALL.associativity

    @pytest.mark.parametrize(
        "scenario", ["exclusive", "concurrent", "hypergeometric"]
    )
    def test_survivors_decrease_with_interference(self, scenario):
        light = ReuseAccess(3000, 2000, scenario=scenario)
        heavy = ReuseAccess(3000, 200000, scenario=scenario)
        assert (
            heavy.expected_surviving_occupancy(SMALL)
            <= light.expected_surviving_occupancy(SMALL) + 1e-9
        )


class TestEstimate:
    def test_resident_structure_reloads_nothing(self):
        pattern = ReuseAccess(target_bytes=512, interfering_bytes=512, reuse_count=5)
        fa = 512 // 32
        assert pattern.estimate_accesses(SMALL) == pytest.approx(fa, rel=0.05)

    def test_thrashing_reloads_everything(self):
        pattern = ReuseAccess(
            target_bytes=4096, interfering_bytes=10**6, reuse_count=3
        )
        fa = 4096 // 32
        assert pattern.estimate_accesses(SMALL) == pytest.approx(4 * fa, rel=0.05)

    def test_reuse_count_zero_is_cold_load_only(self):
        pattern = ReuseAccess(4096, 10**6, reuse_count=0)
        assert pattern.estimate_accesses(SMALL) == 4096 // 32

    def test_reload_never_exceeds_footprint(self):
        pattern = ReuseAccess(4096, 10**9, reuse_count=1)
        assert pattern.reload_blocks_per_reuse(SMALL) <= 4096 // 32

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(target_bytes=0, interfering_bytes=0),
            dict(target_bytes=8, interfering_bytes=-1),
            dict(target_bytes=8, interfering_bytes=0, reuse_count=-1),
            dict(target_bytes=8, interfering_bytes=0, scenario="magic"),
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(PatternError):
            ReuseAccess(**kwargs)

    @given(
        target=st.integers(32, 50000),
        interfering=st.integers(0, 200000),
        reuses=st.integers(0, 20),
        scenario=st.sampled_from(["exclusive", "concurrent"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_estimate_bounds(self, target, interfering, reuses, scenario):
        pattern = ReuseAccess(target, interfering, reuses, scenario)
        fa = -(-target // 32)
        estimate = pattern.estimate_accesses(SMALL)
        assert fa <= estimate <= fa * (reuses + 1) + 1e-6

    @given(interfering=st.integers(0, 100000))
    @settings(max_examples=40, deadline=None)
    def test_more_interference_never_fewer_misses(self, interfering):
        base = ReuseAccess(4096, interfering, 3).estimate_accesses(SMALL)
        more = ReuseAccess(4096, interfering + 50000, 3).estimate_accesses(SMALL)
        assert more >= base - 1e-6


class TestAgainstSimulator:
    """A load-B-load-A-reuse cycle vs the analytical reuse model."""

    def _simulate(self, target_bytes, interfering_bytes, reuses, geometry):
        rec = TraceRecorder()
        n_a = target_bytes // 8
        n_b = max(interfering_bytes // 8, 1)
        rec.allocate("A", n_a, 8)
        rec.allocate("B", n_b, 8)
        rec.record_stream("A", 0, n_a)
        for _ in range(reuses):
            rec.record_stream("B", 0, n_b)
            rec.record_stream("A", 0, n_a)
        return simulate_trace(rec.finish(), geometry).label("A").misses

    @pytest.mark.parametrize(
        "target,interfering",
        [(2048, 16384), (4096, 65536), (1024, 2048)],
        ids=["quarter-cache", "thrash", "light"],
    )
    def test_reuse_estimate_reasonable(self, target, interfering):
        # The synthetic trace loads B strictly *after* each use of A,
        # which is precisely the paper's exclusive scenario (Eq. 11).
        reuses = 4
        pattern = ReuseAccess(target, interfering, reuses, scenario="exclusive")
        estimated = pattern.estimate_accesses(SMALL)
        simulated = self._simulate(target, interfering, reuses, SMALL)
        assert abs(estimated - simulated) / simulated <= 0.20
