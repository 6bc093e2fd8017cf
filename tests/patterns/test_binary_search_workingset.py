"""Tests for WorkingSetRandomAccess."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim.configs import CacheGeometry
from repro.patterns.base import PatternError
from repro.patterns.random_access import RandomAccess, WorkingSetRandomAccess

SMALL = CacheGeometry(4, 64, 32, "small")
LARGE = CacheGeometry(16, 4096, 64, "large")


class TestWorkingSetRandomAccess:
    def _uniform(self, n, k):
        return np.full(n, k / n)

    def test_frequencies_shape_checked(self):
        with pytest.raises(PatternError, match="shape"):
            WorkingSetRandomAccess(10, 8, np.zeros(5), 1)

    def test_frequencies_range_checked(self):
        with pytest.raises(PatternError, match="lie in"):
            WorkingSetRandomAccess(4, 8, np.array([0.5, 1.5, 0, 0]), 1)

    def test_all_zero_frequencies_rejected(self):
        with pytest.raises(PatternError, match="all be zero"):
            WorkingSetRandomAccess(4, 8, np.zeros(4), 1)

    def test_k_derived_from_frequencies(self):
        freqs = np.array([1.0, 0.5, 0.25, 0.25])
        pattern = WorkingSetRandomAccess(4, 8, freqs, 10)
        assert pattern.distinct_per_iteration == pytest.approx(2.0)

    def test_uniform_profile_reduces_to_paper_model(self):
        """With no skew (nothing passes the working-set criterion), the
        refinement matches Eq. 5-7 on the cold population."""
        n, k, iters = 2000, 50, 100
        freqs = self._uniform(n, k)
        refined = WorkingSetRandomAccess(n, 32, freqs, iters)
        uniform = RandomAccess(n, 32, k, iters)
        # Criterion threshold: k*E/Cc = 50*32/8192 = 0.195 >> 0.025 = f.
        assert refined._split_hot(SMALL)[0] == 0
        assert refined.estimate_accesses(SMALL) == pytest.approx(
            uniform.estimate_accesses(SMALL)
        )

    def test_fully_skewed_profile_all_resident(self):
        """A tiny always-hot subset that fits -> compulsory plus nothing."""
        n = 2000
        freqs = np.zeros(n)
        freqs[:10] = 1.0  # ten elements visited every iteration
        pattern = WorkingSetRandomAccess(n, 32, freqs, 10_000)
        estimate = pattern.estimate_accesses(SMALL)
        assert estimate == pattern.initial_accesses(SMALL)

    def test_resident_structure_compulsory_only(self):
        freqs = self._uniform(100, 10)
        pattern = WorkingSetRandomAccess(100, 8, freqs, 100)
        assert pattern.estimate_accesses(LARGE) == pattern.initial_accesses(
            LARGE
        )

    def test_skew_reduces_estimate(self):
        """More skew (same k) means fewer cold misses."""
        n, iters = 4000, 1000
        k = 40.0
        uniform = WorkingSetRandomAccess(
            n, 32, self._uniform(n, k), iters
        ).estimate_accesses(SMALL)
        skewed_freqs = np.zeros(n)
        skewed_freqs[:20] = 1.0       # 20 always-hot
        skewed_freqs[20:4000] = 20.0 / 3980.0  # remaining k spread thin
        skewed = WorkingSetRandomAccess(
            n, 32, skewed_freqs, iters
        ).estimate_accesses(SMALL)
        assert skewed < uniform

    @given(
        n=st.integers(100, 3000),
        hot=st.integers(1, 50),
        iters=st.integers(1, 500),
    )
    @settings(max_examples=30, deadline=None)
    def test_estimate_bounded(self, n, hot, iters):
        freqs = np.zeros(n)
        freqs[:hot] = 1.0
        freqs[hot:] = min(10.0 / n, 1.0)
        pattern = WorkingSetRandomAccess(n, 32, freqs, iters)
        estimate = pattern.estimate_accesses(SMALL)
        assert estimate >= pattern.initial_accesses(SMALL)
        # Can never exceed touching every visited element every iteration.
        k = float(freqs.sum())
        assert estimate <= pattern.initial_accesses(SMALL) + k * iters + 1
