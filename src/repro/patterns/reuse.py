"""Data reuse access pattern (§III-C, Eq. 8-15).

Models a structure that is repeatedly accessed with interference from
other structures (CG's ``p`` vector interleaved with ``A``, ``x``,
``r``).  Block placement into associative sets is a Bernoulli trial
(Eq. 8, following Thiebaut & Stone's footprint model); interference is
evaluated per set and the expected surviving occupancy E(R_A) yields the
number of blocks that must be reloaded on each reuse.

Paper ambiguities resolved here (see DESIGN.md §5):

* Eq. 8 is written without the binomial coefficient; the pmf would not
  normalise, so we use the proper Binomial(F, 1/NA) law truncated at the
  associativity ``CA`` with the tail mass assigned to ``CA``.
* Eq. 10's fractional occupancy and Eq. 12's hypergeometric are folded
  into direct expectation computation instead of a pmf over
  non-integral support.
* The two post-load interference scenarios are explicit options:
  ``scenario="exclusive"`` (Eq. 11, LRU: B evicts non-A blocks first)
  and ``scenario="concurrent"`` (Eq. 12, uniform eviction over the
  combined footprint).
* Eq. 15 draws ``A``'s and ``B``'s set occupancies independently.  With
  ``placement="sequential"`` the exclusive and hypergeometric scenarios
  instead lay ``B`` out right after ``A``, as the address space's bump
  allocator does, and count both per set.
"""

from __future__ import annotations

import numpy as np

from repro.cachesim.configs import CacheGeometry
from repro.patterns.base import AccessPattern, PatternError, ceil_div

_SCENARIOS = ("exclusive", "concurrent", "hypergeometric")


_PLACEMENTS = ("sequential", "bernoulli")


def set_occupancy_pmf(
    blocks: int, geometry: CacheGeometry, placement: str = "sequential"
) -> np.ndarray:
    """Pmf of blocks left in one cache set by a structure (Eq. 8 family).

    ``placement="bernoulli"`` is the paper's Eq. 8 (after fixing its
    missing binomial coefficient): each block lands in a uniformly
    random set, giving ``Binomial(blocks, 1/NA)`` truncated at the
    associativity ``CA`` with the tail mass on ``CA``.

    ``placement="sequential"`` (default) models what real data
    structures do: contiguous lines fill the sets round-robin, so the
    occupancy is deterministic up to the remainder — ``blocks % NA``
    sets hold ``blocks//NA + 1`` lines and the rest ``blocks//NA``
    (capped at ``CA``).  The Bernoulli tails otherwise predict rare-set
    collisions that sequential layouts never incur, inflating reload
    estimates by a few percent of the footprint per reuse (quantified in
    ``benchmarks/bench_ablations.py``).

    Returns an array of length ``CA + 1``.
    """
    if blocks < 0:
        raise PatternError(f"blocks must be >= 0, got {blocks}")
    if placement not in _PLACEMENTS:
        raise PatternError(
            f"placement must be one of {_PLACEMENTS}, got {placement!r}"
        )
    ca = geometry.associativity
    pmf = np.zeros(ca + 1)
    if blocks == 0:
        pmf[0] = 1.0
        return pmf
    if placement == "sequential":
        base, extra = divmod(blocks, geometry.num_sets)
        pmf[min(base, ca)] += (geometry.num_sets - extra) / geometry.num_sets
        pmf[min(base + 1, ca)] += extra / geometry.num_sets
        return pmf
    from scipy import stats as sp_stats

    dist = sp_stats.binom(blocks, 1.0 / geometry.num_sets)
    if blocks < ca:
        # All mass already lies in 0..blocks; no truncation needed.
        pmf[: blocks + 1] = dist.pmf(np.arange(blocks + 1))
    else:
        pmf[:ca] = dist.pmf(np.arange(ca))
        pmf[ca] = max(1.0 - float(pmf[:ca].sum()), 0.0)
    return pmf


def expected_set_occupancy(
    blocks: int, geometry: CacheGeometry, placement: str = "sequential"
) -> float:
    """Eq. 9: ``E(X) = sum_x x * P(X = x)`` over one cache set."""
    pmf = set_occupancy_pmf(blocks, geometry, placement)
    return float(np.arange(len(pmf)) @ pmf)


class ReuseAccess(AccessPattern):
    """Repeated reuse of a target structure under cache interference.

    Parameters
    ----------
    target_bytes:
        Footprint of the target structure ``A``.
    interfering_bytes:
        Combined footprint of everything accessed between consecutive
        uses of ``A`` (the paper treats the interferers "as a whole",
        denoted ``B``).
    reuse_count:
        Number of reuse events after the initial load.
    scenario:
        ``"exclusive"`` — ``A`` loads alone and LRU makes ``B`` evict
        non-``A`` blocks first (Eq. 11); ``"concurrent"`` — ``A`` and
        ``B`` load together and evictions hit the combined footprint
        uniformly (Eq. 12).  Default ``"concurrent"``: consecutive
        reuse events in real kernels interleave with the interferers.
    """

    code = "u"
    name = "reuse"

    def __init__(
        self,
        target_bytes: int,
        interfering_bytes: int,
        reuse_count: int = 1,
        scenario: str = "concurrent",
        placement: str = "sequential",
    ):
        if target_bytes < 1:
            raise PatternError(f"target_bytes must be >= 1, got {target_bytes}")
        if interfering_bytes < 0:
            raise PatternError(
                f"interfering_bytes must be >= 0, got {interfering_bytes}"
            )
        if reuse_count < 0:
            raise PatternError(f"reuse_count must be >= 0, got {reuse_count}")
        if scenario not in _SCENARIOS:
            raise PatternError(f"scenario must be one of {_SCENARIOS}, got {scenario!r}")
        if placement not in _PLACEMENTS:
            raise PatternError(
                f"placement must be one of {_PLACEMENTS}, got {placement!r}"
            )
        self.target_bytes = target_bytes
        self.interfering_bytes = interfering_bytes
        self.reuse_count = reuse_count
        self.scenario = scenario
        self.placement = placement

    # ------------------------------------------------------------------
    def footprint_bytes(self) -> int:
        return self.target_bytes

    def max_accesses(self, geometry: CacheGeometry) -> float:
        """``T*AE``: the initial load plus a full reload on every reuse."""
        fa, _ = self._blocks(geometry)
        return float(fa * (1 + self.reuse_count))

    def _blocks(self, geometry: CacheGeometry) -> tuple[int, int]:
        fa = ceil_div(self.target_bytes, geometry.line_size)
        fb = ceil_div(self.interfering_bytes, geometry.line_size) if (
            self.interfering_bytes
        ) else 0
        return fa, fb

    # ------------------------------------------------------------------
    def expected_surviving_occupancy(self, geometry: CacheGeometry) -> float:
        """E(R_A) of Eq. 15: expected ``A`` blocks left per set after ``B``."""
        fa, fb = self._blocks(geometry)
        if fb == 0:
            # No interference: A keeps whatever it left (Eq. 9).
            return expected_set_occupancy(fa, geometry, self.placement)
        ca = geometry.associativity
        pa = set_occupancy_pmf(fa, geometry, self.placement)
        if self.scenario == "concurrent":
            # Proportional sharing against the *untruncated* per-set
            # insertion pressure lambda_B = F_B / NA: a streaming
            # interferer that passes many times the capacity through
            # each set must evict (nearly) everything, which the
            # occupancy pmf (capped at CA) cannot express.
            lam = fb / geometry.num_sets
            x = np.arange(ca + 1, dtype=float)
            survivors = np.where(x + lam <= ca, x, ca * x / (x + lam))
            return float(pa @ survivors)
        if self.scenario == "exclusive":
            conditional = self._exclusive_survivors(ca)
        else:
            conditional = self._hypergeometric_survivors(ca, fa, fb, geometry)
        if self.placement == "sequential":
            # B's lines continue where A's end, so the per-set counts are
            # joint, not independent: drawing them independently averages
            # over a random A-B set offset and charges reloads to sets
            # that the contiguous A+B footprint never over-fills.
            sets = np.arange(geometry.num_sets)
            x = fa // geometry.num_sets + (sets < fa % geometry.num_sets)
            y = (fa + fb) // geometry.num_sets + (
                sets < (fa + fb) % geometry.num_sets
            ) - x
            return float(conditional[np.minimum(x, ca), np.minimum(y, ca)].mean())
        pb = set_occupancy_pmf(fb, geometry, self.placement)
        # E(R_A) = sum_x sum_y E[r | x, y] P(X_A = x) P(X_B = y).
        return float(pa @ conditional @ pb)

    @staticmethod
    def _exclusive_survivors(ca: int) -> np.ndarray:
        """Eq. 11: E[r | x, y] for LRU eviction of non-A blocks first."""
        x = np.arange(ca + 1)[:, None]
        y = np.arange(ca + 1)[None, :]
        return np.where(x + y <= ca, x, np.maximum(ca - y, 0)).astype(float)

    @staticmethod
    def _hypergeometric_survivors(
        ca: int, fa: int, fb: int, geometry: CacheGeometry
    ) -> np.ndarray:
        """Eq. 12: uniform eviction across the combined footprint.

        Treating ``A`` and ``B`` as one structure gives the expected
        combined occupancy ``I`` (Eq. 8-9); of the ``x`` ``A``-blocks in
        a set, the ``y`` interfering insertions evict a hypergeometric
        share, so ``E[r | x, y] = x - x*y/I`` (clamped), with no
        replacement at all when ``x + y <= CA``.
        """
        combined = expected_set_occupancy(fa + fb, geometry)
        x = np.arange(ca + 1)[:, None].astype(float)
        y = np.arange(ca + 1)[None, :].astype(float)
        if combined <= 0.0:
            return np.where(x + y <= ca, x, 0.0)
        evicted = np.minimum(x * y / combined, x)
        return np.where(x + y <= ca, x, x - evicted)

    # ------------------------------------------------------------------
    def reload_blocks_per_reuse(self, geometry: CacheGeometry) -> float:
        """Blocks of ``A`` absent at reuse time: ``F_A - NA * E(R_A)``."""
        fa, _ = self._blocks(geometry)
        expected = self.expected_surviving_occupancy(geometry)
        return float(min(max(fa - geometry.num_sets * expected, 0.0), fa))

    def estimate_accesses(self, geometry: CacheGeometry) -> float:
        """Initial cold load plus expected reloads for each reuse."""
        fa, _ = self._blocks(geometry)
        return fa + self.reuse_count * self.reload_blocks_per_reuse(geometry)
