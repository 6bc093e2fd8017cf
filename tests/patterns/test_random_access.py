"""Tests for the random access pattern (Eq. 5-7)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim.configs import CacheGeometry
from repro.cachesim.simulator import simulate_trace
from repro.patterns.base import PatternError
from repro.patterns.random_access import RandomAccess, split_cache_ratio
from repro.trace.recorder import TraceRecorder

SMALL = CacheGeometry(4, 64, 32, "small")   # 8 KB
LARGE = CacheGeometry(16, 4096, 64, "large")  # 4 MB


class TestParameterValidation:
    def test_paper_example_constructs(self):
        """Paper Barnes-Hut quintuple (1000, 32, 200, 1000, 1.0)."""
        RandomAccess(1000, 32, 200, 1000, 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_elements=0, element_size=8, distinct_per_iteration=1, iterations=1),
            dict(num_elements=10, element_size=0, distinct_per_iteration=1, iterations=1),
            dict(num_elements=10, element_size=8, distinct_per_iteration=0, iterations=1),
            dict(num_elements=10, element_size=8, distinct_per_iteration=11, iterations=1),
            dict(num_elements=10, element_size=8, distinct_per_iteration=1, iterations=-1),
            dict(num_elements=10, element_size=8, distinct_per_iteration=1, iterations=1, cache_ratio=0.0),
            dict(num_elements=10, element_size=8, distinct_per_iteration=1, iterations=1, cache_ratio=1.5),
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(PatternError):
            RandomAccess(**kwargs)


class TestFitsInCache:
    def test_only_compulsory_misses(self):
        # 1000 * 32 B = 32 KB <= 4 MB: compulsory only.
        pattern = RandomAccess(1000, 32, 200, 1000, 1.0)
        assert pattern.estimate_accesses(LARGE) == 32 * 1000 / 64

    def test_iterations_do_not_matter_when_resident(self):
        a = RandomAccess(100, 8, 10, 10)
        b = RandomAccess(100, 8, 10, 100000)
        assert a.estimate_accesses(LARGE) == b.estimate_accesses(LARGE)


class TestLargerThanCache:
    def test_paper_barnes_hut_small_cache(self):
        """Hand-computed Eq. 5-7 for the paper's NB parameters."""
        pattern = RandomAccess(1000, 32, 200, 1000, 1.0)
        m = 8192 // 32  # 256 elements fit
        xe = 200 * (1 - m / 1000)
        b_out = 1000 * 32 / 32 - 4 * 64 * 1.0
        reload = min(xe, b_out)
        expected = 1000 + reload * 1000
        assert pattern.estimate_accesses(SMALL) == pytest.approx(expected)

    def test_expected_missing_closed_form(self):
        pattern = RandomAccess(1000, 32, 200, 10)
        m = pattern.elements_in_cache(SMALL)
        assert pattern.expected_missing_elements(SMALL) == pytest.approx(
            200 * (1 - m / 1000)
        )

    def test_explicit_pmf_matches_closed_form(self):
        """Eq. 5-6 term-by-term sum equals the hypergeometric mean."""
        exact = RandomAccess(500, 32, 100, 10, exact_expectation=True)
        pmf = RandomAccess(500, 32, 100, 10, exact_expectation=False)
        assert pmf.expected_missing_elements(SMALL) == pytest.approx(
            exact.expected_missing_elements(SMALL), rel=1e-9
        )

    def test_reload_bounded_by_out_of_cache_blocks(self):
        # E < CL with k/N > E/CL makes B_out (blocks not in cache) the
        # binding term of Eq. 7: many missing elements share few blocks.
        pattern = RandomAccess(2000, 8, 1000, 10)  # 16000 B vs 8192 B cache
        reload = pattern.reload_blocks_per_iteration(SMALL)
        b_out = 2000 * 8 / 32 - 4 * 64
        b_elm = pattern.expected_missing_elements(SMALL)
        assert b_out < b_elm  # precondition: B_out really binds
        assert reload == pytest.approx(b_out)

    def test_large_element_scales_blocks(self):
        # E=128 > CL=32: each missing element needs ceil(E/CL)=4 blocks.
        pattern = RandomAccess(200, 128, 50, 10)
        xe = pattern.expected_missing_elements(SMALL)
        reload = pattern.reload_blocks_per_iteration(SMALL)
        b_out = 200 * 128 / 32 - 256
        assert reload == pytest.approx(min(4 * xe, b_out))

    def test_accesses_grow_linearly_with_iterations(self):
        base = RandomAccess(1000, 32, 200, 0)
        one = RandomAccess(1000, 32, 200, 1)
        ten = RandomAccess(1000, 32, 200, 10)
        b0 = base.estimate_accesses(SMALL)
        b1 = one.estimate_accesses(SMALL)
        b10 = ten.estimate_accesses(SMALL)
        assert b10 - b0 == pytest.approx(10 * (b1 - b0))


class TestCacheRatio:
    def test_smaller_share_more_misses(self):
        full = RandomAccess(1000, 32, 200, 100, cache_ratio=1.0)
        half = RandomAccess(1000, 32, 200, 100, cache_ratio=0.5)
        assert half.estimate_accesses(SMALL) > full.estimate_accesses(SMALL)

    def test_split_cache_ratio_proportional(self):
        shares = split_cache_ratio({"G": 3000, "E": 1000})
        assert shares["G"] == pytest.approx(0.75)
        assert shares["E"] == pytest.approx(0.25)

    def test_split_cache_ratio_sums_to_one(self):
        shares = split_cache_ratio({"a": 10, "b": 20, "c": 30})
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_split_rejects_empty_total(self):
        with pytest.raises(PatternError):
            split_cache_ratio({"a": 0})


class TestMonotonicity:
    @given(
        n=st.integers(100, 3000),
        k=st.integers(1, 99),
        iters=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_estimate_nonnegative_and_at_least_compulsory(self, n, k, iters):
        pattern = RandomAccess(n, 32, min(k, n), iters)
        estimate = pattern.estimate_accesses(SMALL)
        assert estimate >= pattern.initial_accesses(SMALL)

    @given(n=st.integers(300, 3000))
    @settings(max_examples=30, deadline=None)
    def test_bigger_cache_never_worse(self, n):
        pattern = RandomAccess(n, 32, 100, 50)
        assert pattern.estimate_accesses(LARGE) <= pattern.estimate_accesses(SMALL)


class TestAgainstSimulator:
    """Monte-Carlo style random visits vs the analytical estimate."""

    def _simulate(self, n, e, k, iters, geometry, seed=0):
        rng = np.random.default_rng(seed)
        rec = TraceRecorder()
        rec.allocate("T", n, e)
        rec.record_elements("T", np.arange(n), False)  # construction pass
        for _ in range(iters):
            visits = rng.choice(n, size=k, replace=False)
            rec.record_elements("T", visits, False)
        return simulate_trace(rec.finish(), geometry).label("T").misses

    @pytest.mark.parametrize(
        "n,e,k,iters",
        [(1000, 32, 200, 30), (500, 32, 100, 50), (2000, 16, 50, 40)],
    )
    def test_small_cache_within_tolerance(self, n, e, k, iters):
        pattern = RandomAccess(n, e, k, iters)
        estimated = pattern.estimate_accesses(SMALL)
        simulated = self._simulate(n, e, k, iters, SMALL)
        assert abs(estimated - simulated) / simulated <= 0.20

    def test_large_cache_exact(self):
        pattern = RandomAccess(1000, 32, 200, 30)
        estimated = pattern.estimate_accesses(LARGE)
        simulated = self._simulate(1000, 32, 200, 30, LARGE)
        assert estimated == simulated
