"""Use case 2 (§V-B): choose an ECC scheme under a DVF target.

Hardware ECC lowers the memory FIT rate but costs performance.  Given a
pre-defined DVF target and a performance budget, DVF analysis answers:

* which scheme reaches the target at all;
* what performance degradation each scheme should aim for (the Fig. 7
  minimum); and
* what margin remains at that optimum.

Run:  python examples/ecc_selection.py
"""

import numpy as np

from repro.cachesim.configs import PAPER_CACHES
from repro.core.fit import CHIPKILL, SECDED
from repro.core.report import format_table
from repro.core.tradeoff import ecc_tradeoff_sweep, optimal_degradation
from repro.kernels.registry import KERNELS
from repro.kernels.workloads import workload_for


def main() -> None:
    kernel = KERNELS["VM"]
    workload = workload_for("VM", "test")
    cache = PAPER_CACHES["8MB"]

    points = ecc_tradeoff_sweep(
        kernel,
        workload,
        cache,
        schemes=[SECDED, CHIPKILL],
        degradations=np.linspace(0.0, 0.30, 61),
    )
    unprotected = [p for p in points if p.degradation == 0.0][0].dvf

    # A policy: demand two orders of magnitude below unprotected DVF,
    # within a 10% performance budget.
    dvf_target = unprotected / 100
    performance_budget = 0.10

    print(f"Unprotected DVF: {unprotected:.3e}")
    print(f"Target:          {dvf_target:.3e} (100x better)")
    print(f"Budget:          {performance_budget:.0%} slowdown\n")

    rows = []
    for scheme in (SECDED, CHIPKILL):
        best = optimal_degradation(points, scheme.name)
        feasible = [
            p
            for p in points
            if p.scheme == scheme.name
            and p.dvf <= dvf_target
            and p.degradation <= performance_budget
        ]
        rows.append(
            (
                scheme.name,
                f"{best.degradation:.0%}",
                f"{best.dvf:.3e}",
                f"{unprotected / best.dvf:.0f}x",
                "yes" if feasible else "no",
            )
        )
    print(
        format_table(
            ["scheme", "optimal slowdown", "DVF at optimum",
             "improvement", "meets target in budget"],
            rows,
        )
    )

    print()
    print(
        "Reading: both schemes are best run at ~5% degradation — the "
        "coverage\nsaturation point; pushing further only lengthens the "
        "exposure window\n(N_error grows with T).  Chipkill reaches the "
        "target easily; SECDED's\nresidual 1300 FIT/Mbit may not, "
        "depending on the target."
    )


if __name__ == "__main__":
    main()
