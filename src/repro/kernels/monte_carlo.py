"""Monte Carlo cross-section lookup (XSBench-like) — random access.

XSBench distils the hot loop of a Monte Carlo neutron transport code:
each *lookup* samples a random particle energy, binary-searches the
unionized energy grid ``G`` and then gathers the macroscopic cross
sections of every nuclide from the data table ``E``.  Both structures
are accessed randomly and *concurrently*, so the paper splits the cache
between them in proportion to their sizes (the Grid/Energy example of
§III-C).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import Kernel, ResourceCounts, Workload
from repro.patterns.random_access import (
    RandomAccess,
    WorkingSetRandomAccess,
    split_cache_ratio,
)
from repro.trace.recorder import TraceRecorder

_E = 8  # float64 grid points and cross-section values


def pivot_frequencies(grid: int) -> np.ndarray:
    """Visit probability per grid element under uniform binary search.

    The search over ``[0, grid)`` probes a fixed pivot hierarchy: the
    root midpoint on every lookup, each level-1 midpoint on half of
    them, and so on.  Computed exactly by propagating interval
    probabilities down the search tree (the profiling information the
    working-set model needs, obtained analytically here because the
    lookup keys are uniform).  The tree is walked one level at a time;
    each element is the midpoint of at most one interval, so every
    level writes distinct elements.
    """
    freqs = np.zeros(grid)
    # The current level's intervals [lo, hi] and the probability mass
    # of landing in each.
    lo = np.zeros(1, dtype=np.int64)
    hi = np.full(1, grid - 1, dtype=np.int64)
    prob = np.ones(1)
    while lo.size:
        split = lo < hi
        lo, hi, prob = lo[split], hi[split], prob[split]
        mid = (lo + hi) // 2
        freqs[mid] = prob
        left = prob * (mid - lo + 1) / (hi - lo + 1)
        lo = np.concatenate([lo, mid + 1])
        hi = np.concatenate([mid, hi])
        prob = np.concatenate([left, prob - left])
    return freqs


def search_grid(
    energies: np.ndarray, samples: np.ndarray
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Every sample's binary search on the energy grid, run at once.

    Each search narrows ``[0, grid - 1]`` by one probe level per numpy
    step and drops out once its interval closes; on a sorted grid it
    ends at the first point not below its sample (the last point if
    none is).  Returns each sample's row and, per level, the searching
    samples and the grid points they probe.  The traced run records
    the probes and the fault-injection adapter reads only the rows, so
    a flipped, unsorted grid sends both to the same rows.
    """
    lo = np.zeros(samples.size, dtype=np.int64)
    hi = np.full(samples.size, energies.size - 1, dtype=np.int64)
    levels: list[tuple[np.ndarray, np.ndarray]] = []
    searching = np.flatnonzero(lo < hi)
    while searching.size:
        mid = (lo[searching] + hi[searching]) // 2
        levels.append((searching, mid))
        above = energies[mid] < samples[searching]
        lo[searching[above]] = mid[above] + 1
        hi[searching[~above]] = mid[~above]
        searching = searching[lo[searching] < hi[searching]]
    return lo, levels


#: XSBench-style sizes: grid points and nuclides.  Even the "small"
#: XSBench configuration has a unionized grid far larger than any LLC,
#: which keeps the kernel in the regime the paper's random model (and
#: our working-set refinement) describes well.
PROBLEM_SIZES = {
    "small": {"grid_points": 32768, "nuclides": 32},
    "large": {"grid_points": 262144, "nuclides": 64},
}


def _config(workload: Workload) -> tuple[int, int, int]:
    size = workload.get("size")
    if size is not None:
        spec = PROBLEM_SIZES.get(str(size))
        if spec is None:
            raise KeyError(
                f"unknown MC size {size!r}; known: {sorted(PROBLEM_SIZES)}"
            )
        grid, nuclides = int(spec["grid_points"]), int(spec["nuclides"])
    else:
        grid = int(workload["grid_points"])
        nuclides = int(workload.get("nuclides", 16))
    lookups = int(workload["lookups"])
    return grid, nuclides, lookups


class MonteCarloKernel(Kernel):
    """Macroscopic cross-section lookup loop (XSBench-like).

    Workload parameters
    -------------------
    size:
        ``"small"`` or ``"large"`` preset, or explicit ``grid_points``
        and ``nuclides``.
    lookups:
        Number of lookup iterations.
    """

    name = "MC"
    method_class = "Monte Carlo"

    def data_structures(self, workload: Workload) -> dict[str, tuple[int, int]]:
        grid, nuclides, _ = _config(workload)
        return {
            "G": (grid, _E),
            "E": (grid * nuclides, _E),
        }

    def inputs(
        self, workload: Workload
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sorted energy grid, the cross-section table and the samples."""
        grid, nuclides, lookups = _config(workload)
        rng = np.random.default_rng(int(workload.get("seed", 0)))
        energies = np.sort(rng.random(grid))
        xs = rng.random((grid, nuclides))
        return energies, xs, rng.random(lookups)

    # ------------------------------------------------------------------
    def run_traced(self, workload: Workload, recorder: TraceRecorder) -> float:
        grid, nuclides, lookups = _config(workload)
        recorder.allocate("G", grid, _E)
        recorder.allocate("E", grid * nuclides, _E)
        energies, xs, samples = self.inputs(workload)
        # Construction traversal (the random model's assumed initial pass).
        recorder.record_elements("G", np.arange(grid, dtype=np.int64), True)
        recorder.record_elements(
            "E", np.arange(grid * nuclides, dtype=np.int64), True
        )
        # A lookup's probes are levels 0..depth-1 of its search.
        rows, levels = search_grid(energies, samples)
        depth = np.zeros(lookups, dtype=np.int64)
        for searched, _ in levels:
            depth[searched] += 1
        # References in the order the sequential loop makes them: each
        # lookup's G probes, then its E row (one cross section per
        # nuclide).
        refs = depth + nuclides
        start = np.cumsum(refs) - refs
        which = np.ones(int(refs.sum()), dtype=np.int8)  # 0: G, 1: E
        indices = np.empty(which.size, dtype=np.int64)
        for level, (searched, mid) in enumerate(levels):
            at = start[searched] + level
            which[at] = 0
            indices[at] = mid
        row_offsets = np.arange(nuclides, dtype=np.int64)
        indices[(start + depth)[:, None] + row_offsets] = (
            rows[:, None] * nuclides + row_offsets
        )
        recorder.record_labelled(("G", "E"), which, indices, False)
        # The running total adds each lookup's row sum in lookup order.
        row_sums = xs[rows].sum(axis=1)
        return float(np.cumsum(row_sums)[-1]) if lookups else 0.0

    # ------------------------------------------------------------------
    def access_model(self, workload: Workload):
        grid, nuclides, lookups = _config(workload)
        sizes = {"G": grid * _E, "E": grid * nuclides * _E}
        shares = split_cache_ratio(sizes)
        return {
            # The binary search revisits the same pivot hierarchy every
            # lookup; the skewed visit-frequency profile (computed
            # analytically by :func:`pivot_frequencies`) feeds the
            # working-set refinement so the hot upper levels are treated
            # as resident and the cold lower levels as random visits.
            "G": WorkingSetRandomAccess(
                num_elements=grid,
                element_size=_E,
                visit_frequencies=pivot_frequencies(grid),
                iterations=lookups,
                cache_ratio=shares["G"],
            ),
            # One cross-section *row* (all nuclides, contiguous) is read
            # per lookup; rows are the natural random-access granule —
            # the paper's MC uses k = 1 for the same reason.
            "E": RandomAccess(
                num_elements=grid,
                element_size=nuclides * _E,
                distinct_per_iteration=1.0,
                iterations=lookups,
                cache_ratio=shares["E"],
            ),
        }

    def resource_counts(self, workload: Workload) -> ResourceCounts:
        grid, nuclides, lookups = _config(workload)
        k_grid = float(np.log2(grid))
        return ResourceCounts(
            flops=nuclides * 1.0 * lookups,
            loads=_E * (k_grid + nuclides) * lookups,
            stores=8.0 * lookups,  # accumulator spills
        )

    def aspen_source(self, workload: Workload) -> str:
        grid, nuclides, lookups = _config(workload)
        sizes = {"G": grid * _E, "E": grid * nuclides * _E}
        shares = split_cache_ratio(sizes)
        k_grid = float(np.log2(grid))
        return f"""\
// Monte Carlo cross-section lookup (XSBench-like): concurrent random
// accesses to the grid G and the data table E, cache split by size.
model mc {{
  param grid = {grid}
  param nuclides = {nuclides}
  param lookups = {lookups}
  data G {{
    elements: grid, element_size: {_E}
    pattern random {{
      distinct: 1, iterations: lookups,
      cache_ratio: {shares['G']:.6f}
    }}
  }}
  data E {{
    elements: grid, element_size: nuclides * {_E}
    pattern random {{
      distinct: 1, iterations: lookups,
      cache_ratio: {shares['E']:.6f}
    }}
  }}
  kernel lookup {{
    flops: nuclides * lookups
    loads: {_E} * ({k_grid:.3f} + nuclides) * lookups
    stores: 8 * lookups
  }}
}}
"""
