"""Streaming access pattern (§III-C, Eq. 3-4 and the three stride cases).

A streaming access is a single sequential traversal of a data structure
with fixed stride; every main-memory access is a compulsory miss, so the
estimate reduces to counting touched cache lines.
"""

from __future__ import annotations

import math

from repro.cachesim.configs import CacheGeometry
from repro.patterns.base import (
    AccessPattern,
    PatternError,
    alignment_probability,
    ceil_div,
    max_lines_per_reference,
)


class StreamingAccess(AccessPattern):
    """Sequential strided traversal of a data structure.

    Parameters mirror the paper's Aspen triple ``(E, N, stride)``:

    element_size:
        Size of one element in bytes (``E``).
    num_elements:
        Number of elements in the data structure (``N``); the data-
        structure size is ``D = N * E``.
    stride_elements:
        Access stride measured in elements (paper example: ``(8,200,4)``
        means 8-byte elements, stride ``8*4 = 32`` bytes).  Must be >= 1:
        the stride is "typically no smaller than the element size".
    sweeps:
        Number of full traversals.  The paper's definition covers one
        traversal; repeated cold sweeps of a structure larger than the
        cache multiply the compulsory/ capacity misses linearly, and
        ``sweeps`` expresses that without changing the per-sweep math.
    aligned:
        If True, elements are assumed line-aligned and the misalignment
        probability ``p`` of Eq. 3 is forced to zero.  Our trace layer
        lays segments out line-aligned, so validation against the cache
        simulator uses ``aligned=True``; the default (False) keeps the
        paper's probabilistic treatment.
    interfering_bytes:
        Footprint of other structures streamed between sweeps of this
        one; a later sweep only hits in cache when this structure *plus*
        the interferers fit (Barnes-Hut's particle array is re-swept
        with a whole tree walk in between, for example).
    """

    name = "streaming"

    def __init__(
        self,
        element_size: int,
        num_elements: int,
        stride_elements: int = 1,
        sweeps: int = 1,
        aligned: bool = False,
        interfering_bytes: int = 0,
    ):
        if element_size < 1:
            raise PatternError(f"element_size must be >= 1, got {element_size}")
        if num_elements < 1:
            raise PatternError(f"num_elements must be >= 1, got {num_elements}")
        if stride_elements < 1:
            raise PatternError(
                f"stride_elements must be >= 1, got {stride_elements} "
                "(stride is never smaller than the element size)"
            )
        if sweeps < 1:
            raise PatternError(f"sweeps must be >= 1, got {sweeps}")
        if interfering_bytes < 0:
            raise PatternError(
                f"interfering_bytes must be >= 0, got {interfering_bytes}"
            )
        self.element_size = element_size
        self.num_elements = num_elements
        self.stride_elements = stride_elements
        self.sweeps = sweeps
        self.aligned = aligned
        self.interfering_bytes = interfering_bytes

    # ------------------------------------------------------------------
    @property
    def data_size(self) -> int:
        """Data-structure size ``D = N * E`` in bytes."""
        return self.num_elements * self.element_size

    @property
    def stride_bytes(self) -> int:
        """Stride ``S`` in bytes."""
        return self.stride_elements * self.element_size

    @property
    def elements_accessed(self) -> int:
        """Elements touched per sweep: ``ceil(D / S)``."""
        return ceil_div(self.data_size, self.stride_bytes)

    def footprint_bytes(self) -> int:
        return self.data_size

    # -- physical bounds ------------------------------------------------
    def min_accesses(self, geometry: CacheGeometry) -> float:
        """Distinct lines one sweep must load (compulsory misses).

        Dense strides (``S <= CL``) touch every line of the structure; a
        sparse stride (``S > CL``) starts each touched element in its
        own line, so at least ``ceil(D/S)`` lines load.
        """
        if self.stride_bytes <= geometry.line_size:
            return float(ceil_div(self.data_size, geometry.line_size))
        return float(self.elements_accessed)

    def max_accesses(self, geometry: CacheGeometry) -> float:
        """``T*AE``: every touched element misses all its lines, every sweep."""
        ae = max_lines_per_reference(
            self.element_size, geometry.line_size, self.aligned
        )
        return float(self.sweeps * self.elements_accessed * ae)

    # ------------------------------------------------------------------
    def _misalignment(self, line_size: int) -> float:
        if self.aligned:
            return 0.0
        return alignment_probability(self.element_size, line_size)

    def accesses_per_sweep(self, geometry: CacheGeometry) -> float:
        """Expected main-memory accesses for one traversal (the 3 cases)."""
        cl = geometry.line_size
        e = self.element_size
        s = self.stride_bytes
        d = self.data_size
        p = self._misalignment(cl)
        if cl <= e:
            # Case 1: lines no larger than an element.
            if s > e:
                # Disjoint elements: AE loads per touched element.
                ae = math.floor(e / cl) + p if not self.aligned else ceil_div(e, cl)
                return self.elements_accessed * ae
            # s == e: dense traversal loads every line of the structure.
            return float(ceil_div(d, cl))
        if e < cl <= s:
            # Case 2: each touched element loads 1 (aligned) or 2 lines.
            return self.elements_accessed * (1.0 + p)
        # Case 3: cl > s — every line of the structure is loaded once.
        return float(ceil_div(d, cl))

    def _thrashing_lines(self, geometry: CacheGeometry) -> int | None:
        """Lines of this structure that miss again on every re-sweep.

        A sequentially laid-out traversal touches lines at a fixed
        spacing ``k`` (1 for dense sweeps, ``S/CL`` for line-multiple
        strides), so the touched lines land in ``NA / gcd(k, NA)``
        distinct sets, each holding a deterministic count.  Under LRU, a
        cyclic re-sweep hits in every set whose line count fits the
        associativity and misses *all* lines of an over-full set (the
        next-needed line is always the one just evicted).  This resolves
        the near-capacity boundary exactly instead of as a cliff.

        Returns None for irregular spacings (stride not a multiple of
        the line size), where the caller falls back to the capacity
        threshold.
        """
        import math

        cl = geometry.line_size
        na = geometry.num_sets
        ca = geometry.associativity
        s = self.stride_bytes
        if s <= cl:
            touched = ceil_div(self.data_size, cl)
            spacing = 1
        elif s % cl == 0 and self.element_size <= cl:
            touched = self.elements_accessed
            spacing = s // cl
        else:
            # Irregular spacing: enumerate the touched lines exactly
            # (cheap — one numpy pass over the element offsets) and
            # histogram them into sets.
            import numpy as np

            n = self.elements_accessed
            if n > 4_000_000:
                return None  # keep the estimator O(small) for huge sweeps
            offsets = np.arange(n, dtype=np.int64) * s
            first = offsets // cl
            last = (offsets + self.element_size - 1) // cl
            span = int((last - first).max(initial=0))
            if span == 0:
                lines = np.unique(first)
            else:
                parts = []
                for extra in range(span + 1):
                    candidate = first + extra
                    parts.append(candidate[candidate <= last])
                lines = np.unique(np.concatenate(parts))
            counts = np.bincount(lines % na, minlength=na)
            return int(counts[counts > ca].sum())
        sets_used = na // math.gcd(spacing, na)
        base, extra_sets = divmod(touched, sets_used)
        thrash = 0
        if base > ca:
            thrash += (sets_used - extra_sets) * base
        if base + 1 > ca:
            thrash += extra_sets * (base + 1)
        return thrash

    def estimate_accesses(self, geometry: CacheGeometry) -> float:
        """Expected main-memory accesses over all sweeps.

        A streaming structure has no temporal reuse within a sweep; the
        first sweep is compulsory, and each later sweep reloads exactly
        the lines in over-full cache sets (see :meth:`_thrashing_lines`).
        Interference from other structures swept in between falls back to
        the capacity-threshold treatment.
        """
        per_sweep = self.accesses_per_sweep(geometry)
        if self.sweeps == 1:
            return per_sweep
        if self.interfering_bytes:
            if self.data_size + self.interfering_bytes <= geometry.capacity:
                return per_sweep
            return per_sweep * self.sweeps
        thrash = self._thrashing_lines(geometry)
        if thrash is None:
            # Irregular line spacing: capacity-threshold treatment over
            # the *touched* footprint — a sparse stride references far
            # fewer lines than the structure holds.
            cl = geometry.line_size
            lines_per_element = max(ceil_div(self.element_size, cl), 1)
            touched_bytes = self.elements_accessed * lines_per_element * cl
            if touched_bytes <= geometry.capacity:
                return per_sweep
            return per_sweep * self.sweeps
        return per_sweep + (self.sweeps - 1) * thrash
