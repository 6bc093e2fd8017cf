"""Random access pattern (§III-C, Eq. 5-7).

Models a loop of ``iter`` iterations, each randomly visiting ``k``
distinct elements of an ``N``-element structure (Barnes-Hut tree walks,
Monte Carlo table lookups).  The structure is assumed fully traversed
once up front (the construction phase), after which each iteration
reloads the expected number of blocks that have fallen out of the cache.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cachesim.configs import CacheGeometry
from repro.patterns.base import (
    AccessPattern,
    PatternError,
    ceil_div,
    max_lines_per_reference,
)


class RandomAccess(AccessPattern):
    """Random per-iteration visits to a data structure.

    Parameters (the paper's Aspen quintuple ``(N, E, k, iter, r)``):

    num_elements:
        Elements in the target data structure (``N``).
    element_size:
        Element size in bytes (``E``).
    distinct_per_iteration:
        Average number of distinct elements visited per iteration
        (``k``); obtained by profiling in the paper.
    iterations:
        Number of loop iterations (``iter``).
    cache_ratio:
        Fraction ``r`` of the cache available to this structure —
        concurrent random structures split the cache proportionally to
        their sizes (paper's Monte Carlo example).
    exact_expectation:
        If True (default) use the closed form ``E[X] = k * (1 - m/N)``
        of the hypergeometric mean; if False, sum the explicit pmf of
        Eq. 5-6 term by term (kept for fidelity checks and ablation —
        the two agree to floating-point precision).
    """

    code = "r"
    name = "random"

    def __init__(
        self,
        num_elements: int,
        element_size: int,
        distinct_per_iteration: float,
        iterations: int,
        cache_ratio: float = 1.0,
        exact_expectation: bool = True,
    ):
        if num_elements < 1:
            raise PatternError(f"num_elements must be >= 1, got {num_elements}")
        if element_size < 1:
            raise PatternError(f"element_size must be >= 1, got {element_size}")
        if not 0 < distinct_per_iteration <= num_elements:
            raise PatternError(
                f"distinct_per_iteration must be in (0, {num_elements}], "
                f"got {distinct_per_iteration}"
            )
        if iterations < 0:
            raise PatternError(f"iterations must be >= 0, got {iterations}")
        if not 0 < cache_ratio <= 1.0:
            raise PatternError(f"cache_ratio must be in (0, 1], got {cache_ratio}")
        self.num_elements = num_elements
        self.element_size = element_size
        self.distinct_per_iteration = distinct_per_iteration
        self.iterations = iterations
        self.cache_ratio = cache_ratio
        self.exact_expectation = exact_expectation

    # ------------------------------------------------------------------
    def footprint_bytes(self) -> int:
        return self.num_elements * self.element_size

    def _cache_bytes(self, geometry: CacheGeometry) -> float:
        return geometry.capacity * self.cache_ratio

    def elements_in_cache(self, geometry: CacheGeometry) -> int:
        """``m``: elements that fit in this structure's cache share."""
        return int(self._cache_bytes(geometry) // self.element_size)

    def initial_accesses(self, geometry: CacheGeometry) -> int:
        """Compulsory loads of the construction traversal: ``ceil(E*N/CL)``."""
        return ceil_div(self.footprint_bytes(), geometry.line_size)

    def max_accesses(self, geometry: CacheGeometry) -> float:
        """``T*AE``: construction plus every visit missing all its lines."""
        ae = max_lines_per_reference(self.element_size, geometry.line_size)
        return float(
            self.initial_accesses(geometry)
            + self.iterations * self.distinct_per_iteration * ae
        )

    # ------------------------------------------------------------------
    def expected_missing_elements(self, geometry: CacheGeometry) -> float:
        """``X_E`` of Eq. 6: expected visited elements absent from cache.

        With ``m`` of the ``N`` elements cached (uniformly at random) and
        ``k`` distinct elements visited, the in-cache overlap is
        hypergeometric; ``X = k - overlap``.
        """
        n_total = self.num_elements
        m = self.elements_in_cache(geometry)
        if m >= n_total:
            return 0.0
        k = self.distinct_per_iteration
        if self.exact_expectation:
            return k * (1.0 - m / n_total)
        # Explicit Eq. 5-6 sum (integer k only).  scipy.stats is
        # imported here, not at module level: importing it costs more
        # than a whole analytical run, and only this path needs it.
        from scipy import stats as sp_stats

        k_int = int(round(k))
        dist = sp_stats.hypergeom(M=n_total, n=k_int, N=m)  # overlap pmf
        lo = max(0, k_int - (n_total - m))
        hi = min(k_int, m)
        expected = 0.0
        for overlap in range(lo, hi + 1):
            x = k_int - overlap
            if x >= 1:
                expected += dist.pmf(overlap) * x
        return expected

    def reload_blocks_per_iteration(self, geometry: CacheGeometry) -> float:
        """``B_reload`` of Eq. 7."""
        xe = self.expected_missing_elements(geometry)
        if xe <= 0.0:
            return 0.0
        cl = geometry.line_size
        e = self.element_size
        if cl < e:
            b_elm = math.ceil(e / cl) * xe
        else:
            b_elm = xe  # upper bound: one block per missing element
        blocks_total = self.footprint_bytes() / cl
        blocks_cached = geometry.num_blocks * self.cache_ratio
        b_out = blocks_total - blocks_cached
        return min(b_elm, max(b_out, 0.0))

    def estimate_accesses(self, geometry: CacheGeometry) -> float:
        """Eq. 7 total: initial traversal + per-iteration reloads."""
        initial = self.initial_accesses(geometry)
        if self.footprint_bytes() <= self._cache_bytes(geometry):
            # Everything fits: only compulsory misses.
            return float(initial)
        return initial + self.reload_blocks_per_iteration(geometry) * self.iterations


class WorkingSetRandomAccess(RandomAccess):
    """Random access with a profiled hot working set (model refinement).

    The paper's Eq. 5-7 assume visits are uniform over the structure.
    Real "random" kernels are skewed: every Barnes-Hut walk revisits the
    top of the tree, every binary search revisits the same pivots.
    Under LRU, an element visited with per-iteration frequency ``f``
    stays resident when the traffic between its visits — roughly
    ``k * E / f`` bytes — fits in the structure's cache share, i.e. when

        ``f  >  k * E / (Cc * r)``.

    Elements meeting this working-set criterion are treated as resident;
    the paper's hypergeometric analysis is then applied to the remaining
    cold population with correspondingly reduced ``N``, ``k`` and cache
    share.  The required per-element visit frequencies come from the same
    profiling run the paper already uses to obtain ``k``.

    Parameters
    ----------
    visit_frequencies:
        Array of per-element visit probabilities per iteration (need not
        be sorted; zeros allowed for never-visited elements).  Its sum is
        ``k``, the expected distinct visits per iteration — a separately
        passed ``distinct_per_iteration`` is not needed.
    """

    name = "random-workingset"

    def __init__(
        self,
        num_elements: int,
        element_size: int,
        visit_frequencies,
        iterations: int,
        cache_ratio: float = 1.0,
    ):
        freqs = np.asarray(visit_frequencies, dtype=float)
        if freqs.shape != (num_elements,):
            raise PatternError(
                f"visit_frequencies must have shape ({num_elements},), "
                f"got {freqs.shape}"
            )
        if (freqs < 0).any() or (freqs > 1).any():
            raise PatternError("visit frequencies must lie in [0, 1]")
        k = float(freqs.sum())
        if k <= 0:
            raise PatternError("visit frequencies must not all be zero")
        super().__init__(
            num_elements=num_elements,
            element_size=element_size,
            distinct_per_iteration=min(k, num_elements),
            iterations=iterations,
            cache_ratio=cache_ratio,
        )
        self.visit_frequencies = freqs

    def _split_hot(self, geometry: CacheGeometry):
        """Partition elements into resident (hot) and cold populations."""
        cache_bytes = self._cache_bytes(geometry)
        k = self.distinct_per_iteration
        threshold = k * self.element_size / cache_bytes if cache_bytes else 1.0
        order = np.argsort(self.visit_frequencies)[::-1]
        sorted_f = self.visit_frequencies[order]
        hot_mask = sorted_f > threshold
        # The hot set cannot exceed the capacity share.
        capacity = int(cache_bytes // self.element_size)
        h = min(int(hot_mask.sum()), capacity)
        k_cold = float(sorted_f[h:].sum())
        return h, k_cold

    def estimate_accesses(self, geometry: CacheGeometry) -> float:
        if self.footprint_bytes() <= self._cache_bytes(geometry):
            return float(self.initial_accesses(geometry))
        h, k_cold = self._split_hot(geometry)
        if k_cold <= 0:
            return float(self.initial_accesses(geometry))
        cold = RandomAccess(
            num_elements=max(self.num_elements - h, 1),
            element_size=self.element_size,
            distinct_per_iteration=min(
                k_cold, max(self.num_elements - h, 1)
            ),
            iterations=self.iterations,
            cache_ratio=self.cache_ratio,
        )
        # The hot set consumes part of the share: shrink the cold pool's
        # effective cache by the resident bytes.
        hot_bytes = h * self.element_size
        remaining = max(self._cache_bytes(geometry) - hot_bytes, 0.0)
        total_cache = geometry.capacity
        cold.cache_ratio = max(remaining / total_cache, 1e-12)
        return float(self.initial_accesses(geometry)) + (
            cold.reload_blocks_per_iteration(geometry) * self.iterations
        )


def split_cache_ratio(sizes: dict[str, int]) -> dict[str, float]:
    """Cache shares for concurrently random-accessed structures.

    The paper divides the cache among concurrent structures
    proportionally to their sizes (the Grid/Energy example): structure
    ``i`` receives ``size_i / sum(sizes)``.
    """
    total = sum(sizes.values())
    if total <= 0:
        raise PatternError("total size of concurrent structures must be positive")
    return {name: size / total for name, size in sizes.items()}
