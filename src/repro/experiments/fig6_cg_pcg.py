"""Figure 6: the impact of algorithm optimisation on vulnerability (§V-A).

Sweeps the problem size for CG vs preconditioned CG with *measured*
iteration counts (both solvers run to convergence on a heterogeneous-
coefficient 2-D Laplacian) and reports DVF for each variant.  Paper
shape: PCG is slightly more vulnerable at small sizes (larger working
set, similar iteration counts) and clearly less vulnerable at large
sizes (iteration savings dominate).
"""

from __future__ import annotations

from repro.core.machine import DEFAULT_FIT
from repro.core.report import format_table
from repro.core.tradeoff import (
    AlgorithmComparison,
    cg_vs_pcg_sweep,
    crossover_size,
)
from repro.experiments.configs import FIG6_CACHE, FIG6_SIZES


def run_fig6(
    sizes: tuple[int, ...] = FIG6_SIZES,
    cache=FIG6_CACHE,
    fit: float = DEFAULT_FIT,
    tol: float = 1e-10,
) -> list[AlgorithmComparison]:
    """Regenerate the Figure 6 data series."""
    return cg_vs_pcg_sweep(list(sizes), cache, fit=fit, tol=tol)


def render_fig6(rows: list[AlgorithmComparison]) -> str:
    """Figure 6 as a text table plus the crossover summary."""
    table = format_table(
        ["n", "CG iters", "PCG iters", "CG DVF", "PCG DVF", "winner"],
        [
            (
                r.problem_size,
                r.cg_iterations,
                r.pcg_iterations,
                f"{r.cg_dvf:.4e}",
                f"{r.pcg_dvf:.4e}",
                "PCG" if r.pcg_wins else "CG",
            )
            for r in rows
        ],
    )
    crossover = crossover_size(rows)
    tail = (
        f"\nPCG becomes (and stays) less vulnerable from n = {crossover}"
        if crossover is not None
        else "\nno stable crossover in the swept range"
    )
    return "Figure 6 — CG vs PCG DVF over problem size\n" + table + tail
