"""Multigrid V-cycle — structured grids, template-based access (Algorithm 3).

The paper models the MG smoother: a 3-D stencil sweep over the grid
``R`` whose access order is a *template* — four neighbour references
advanced element-by-element until the grid boundary.  We implement the
V-cycle's smoother sweeps over a grid hierarchy and model the finest
grid ``R`` with a :class:`~repro.patterns.template.TemplateAccess`
generated from exactly the paper's sweep rule.

The grid is stored flat with row-major layout ``R(i,j,k) = i*n2*n1 +
j*n1 + k`` (the paper's indexing, 0-based here).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import Kernel, ResourceCounts, Workload
from repro.patterns.template import Repeat, TemplateAccess
from repro.trace.recorder import TraceRecorder

_E = 16  # the paper's MG example uses 16-byte elements

#: NPB-style problem classes mapped to grid edge and V-cycle sweeps.
PROBLEM_CLASSES = {
    "S": {"n": 16, "smooth_sweeps": 4},
    "W": {"n": 32, "smooth_sweeps": 4},
    "A": {"n": 64, "smooth_sweeps": 4},
}


def _grid_params(workload: Workload) -> tuple[int, int]:
    cls = workload.get("problem_class")
    if cls is not None:
        spec = PROBLEM_CLASSES.get(str(cls))
        if spec is None:
            raise KeyError(
                f"unknown MG problem class {cls!r}; known: "
                f"{sorted(PROBLEM_CLASSES)}"
            )
        return int(spec["n"]), int(spec["smooth_sweeps"])
    return int(workload["n"]), int(workload.get("smooth_sweeps", 4))


def smoother_indices(n3: int, n2: int, n1: int) -> np.ndarray:
    """Element-index template of one smoother sweep (paper Algorithm 3).

    For every interior point, the four neighbour loads
    ``R(i,j-1,k), R(i,j+1,k), R(i-1,j,k), R(i+1,j,k)`` followed by the
    write to ``R(i,j,k)`` — flattened row-major.
    """
    i = np.arange(1, n3 - 1)
    j = np.arange(1, n2 - 1)
    k = np.arange(0, n1)
    ii, jj, kk = np.meshgrid(i, j, k, indexing="ij")
    base = (ii * n2 + jj) * n1 + kk
    refs = np.stack(
        [
            base - n1,          # R(i, j-1, k)
            base + n1,          # R(i, j+1, k)
            base - n2 * n1,     # R(i-1, j, k)
            base + n2 * n1,     # R(i+1, j, k)
            base,               # write R(i, j, k)
        ],
        axis=-1,
    )
    return refs.reshape(-1).astype(np.int64)


class MultigridKernel(Kernel):
    """V-cycle on an ``n^3`` grid with the paper's smoother stencil.

    Workload parameters
    -------------------
    n:
        Finest-grid edge length (power of two), or use ``problem_class``
        ("S" = 16^3, "W" = 32^3) following the NPB-style classes.
    smooth_sweeps:
        Smoother sweeps per grid level per V-cycle (default 4).
    cycles:
        Number of V-cycles (default 1).
    """

    name = "MG"
    method_class = "Structured grids"

    def data_structures(self, workload: Workload) -> dict[str, tuple[int, int]]:
        n, _ = _grid_params(workload)
        # R is the whole grid hierarchy: n^3 + (n/2)^3 + ... ~= 8/7 n^3.
        total = 0
        edge = n
        while edge >= 4:
            total += edge**3
            edge //= 2
        return {"R": (total, _E)}

    def _levels(self, n: int) -> list[int]:
        levels = []
        edge = n
        while edge >= 4:
            levels.append(edge)
            edge //= 2
        return levels

    # ------------------------------------------------------------------
    def run_traced(self, workload: Workload, recorder: TraceRecorder) -> np.ndarray:
        n, sweeps = _grid_params(workload)
        cycles = int(workload.get("cycles", 1))
        levels = self._levels(n)
        total_elems = sum(e**3 for e in levels)
        recorder.allocate("R", total_elems, _E)
        offsets = np.cumsum([0] + [e**3 for e in levels[:-1]])
        grids = [np.random.default_rng(0).random(e**3) for e in levels]

        def smooth(level: int) -> None:
            edge = levels[level]
            idx = smoother_indices(edge, edge, edge)
            writes = np.zeros(len(idx), dtype=bool)
            writes[4::5] = True
            base = int(offsets[level])
            # One vectorised burst per sweep, in template order.
            recorder.record_elements_mixed("R", base + idx, writes)
            grid = grids[level].reshape(edge, edge, edge)
            interior = (
                grid[1:-1, :-2, :] + grid[1:-1, 2:, :]
                + grid[:-2, 1:-1, :] + grid[2:, 1:-1, :]
            )
            grid[1:-1, 1:-1, :] = 0.25 * interior[:, :, :]

        for _ in range(cycles):
            # Down-leg: smooth each level; up-leg: smooth again.
            for level in range(len(levels)):
                for _ in range(sweeps // 2 or 1):
                    smooth(level)
            for level in reversed(range(len(levels))):
                for _ in range(sweeps // 2 or 1):
                    smooth(level)
        return grids[0]

    # ------------------------------------------------------------------
    def access_model(self, workload: Workload):
        n, sweeps = _grid_params(workload)
        cycles = int(workload.get("cycles", 1))
        levels = self._levels(n)
        total_elems = sum(e**3 for e in levels)
        # Template: the paper's Algorithm 3 sweep on the finest level;
        # coarser levels append their own sweeps at their offsets.  Each
        # level's sweeps are one Repeat phase, so the walk replays a
        # level twice, not per_level_sweeps times, for the same misses.
        offsets = np.cumsum([0] + [e**3 for e in levels[:-1]])
        per_level_sweeps = 2 * (sweeps // 2 or 1)
        template = [
            Repeat(
                smoother_indices(edge, edge, edge) + int(offsets[level]),
                per_level_sweeps,
            )
            for level, edge in enumerate(levels)
        ]
        return {
            "R": TemplateAccess(
                element_size=_E,
                template=template,
                num_elements=total_elems,
                repeats=cycles,
            )
        }

    def resource_counts(self, workload: Workload) -> ResourceCounts:
        n, sweeps = _grid_params(workload)
        cycles = int(workload.get("cycles", 1))
        per_sweep_points = sum(
            (e - 2) * (e - 2) * e for e in self._levels(n)
        )
        per_level_sweeps = 2 * (sweeps // 2 or 1)
        points = cycles * per_level_sweeps * per_sweep_points
        return ResourceCounts(
            flops=4.0 * points,
            loads=4.0 * _E * points,
            stores=1.0 * _E * points,
        )

    def aspen_source(self, workload: Workload) -> str:
        n, sweeps = _grid_params(workload)
        return f"""\
// Multigrid smoother (paper Algorithm 3): template-based stencil sweep.
model mg {{
  param n = {n}
  data R {{
    elements: n*n*n
    element_size: {_E}
    dims: (n, n, n)
    pattern template {{
      repeats: {2 * (sweeps // 2 or 1)}
      sweep {{
        start: (R[1, 0, 0], R[1, 2, 0], R[0, 1, 0], R[2, 1, 0], R[1, 1, 0])
        step: 1
        end: (R[n-2, n-3, n-1], R[n-2, n-1, n-1], R[n-3, n-2, n-1], R[n-1, n-2, n-1], R[n-2, n-2, n-1])
      }}
    }}
  }}
  kernel vcycle {{
    flops: 4 * (n-2)*(n-2)*n
    loads: 4 * {_E} * (n-2)*(n-2)*n
    stores: {_E} * (n-2)*(n-2)*n
  }}
}}
"""
