"""Use case 1 (§V-A): does an algorithm optimisation help resilience?

Preconditioning CG is a classic *performance* optimisation — fewer
iterations at a higher per-iteration cost and a larger working set.
DVF lets you ask whether it also helps *resilience*, and where the
answer flips.  Iteration counts are measured by actually running both
solvers, not assumed.

Run:  python examples/algorithm_tradeoff.py
"""

from repro.cachesim.configs import CacheGeometry
from repro.core.report import format_table
from repro.core.tradeoff import compare_cg_pcg, crossover_size


def main() -> None:
    # A large resident LLC, as the §V-A study assumes (see DESIGN.md on
    # the paper's Table IV "8MB" row).
    cache = CacheGeometry(8, 32768, 64, "llc-16MiB")
    sizes = (100, 200, 400, 600)

    print("CG vs preconditioned CG: resilience across problem sizes")
    print(f"(cache: {cache.describe()}; solvers run to 1e-8)\n")

    rows = []
    comparisons = []
    for n in sizes:
        row = compare_cg_pcg(n, cache, tol=1e-8)
        comparisons.append(row)
        rows.append(
            (
                n,
                row.cg_iterations,
                row.pcg_iterations,
                f"{row.cg_dvf:.3e}",
                f"{row.pcg_dvf:.3e}",
                "PCG" if row.pcg_wins else "CG",
            )
        )
    print(
        format_table(
            ["n", "CG iters", "PCG iters", "CG DVF", "PCG DVF",
             "less vulnerable"],
            rows,
        )
    )

    crossover = crossover_size(comparisons)
    print()
    if crossover is None:
        print("No stable crossover in this range.")
    else:
        print(
            f"From n = {crossover}, preconditioning improves resilience "
            "as well as performance:"
        )
        print(
            "  below it, PCG's larger working set (the factor matrix M) "
            "outweighs its\n  iteration savings; above it, the savings "
            "dominate — exactly the paper's\n  Figure 6 trade-off."
        )


if __name__ == "__main__":
    main()
