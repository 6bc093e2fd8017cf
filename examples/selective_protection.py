"""Selective protection: spend a redundancy budget where DVF says.

The paper's motivating scenario (§I): uniform protection is too
expensive at exascale; DVF identifies the *critical* data structures so
protection can be selective.  This example plans protection for the CG
solver under a spare-memory budget and compares against naive policies.

Run:  python examples/selective_protection.py
"""

from repro.cachesim.configs import PAPER_CACHES
from repro.core.analyzer import DVFAnalyzer
from repro.core.machine import MachineModel
from repro.core.protection import greedy_ranking, plan_protection
from repro.core.report import format_table
from repro.kernels.registry import KERNELS
from repro.kernels.workloads import workload_for


def main() -> None:
    analyzer = DVFAnalyzer(MachineModel.from_geometry(PAPER_CACHES["8MB"]))
    kernel = KERNELS["CG"]
    workload = workload_for("CG", "test")
    report = analyzer.analyze(kernel, workload)

    print("CG vulnerability profile:")
    rows = [
        (s.name, f"{s.size_bytes:.0f}", f"{s.dvf:.3e}")
        for s in report.ranked()
    ]
    print(format_table(["structure", "bytes", "DVF"], rows))
    print()

    print("DVF per protection byte (greedy priority):")
    print(
        format_table(
            ["structure", "DVF/byte"],
            [(n, f"{v:.3e}") for n, v in greedy_ranking(report)],
        )
    )
    print()

    working_set = sum(s.size_bytes for s in report.structures)
    print(
        f"Working set: {working_set:.0f} B; protection overhead modeled "
        "at 12.5% of protected bytes.\n"
    )
    rows = []
    for budget_fraction in (0.02, 0.05, 0.15, 1.0):
        budget = working_set * budget_fraction
        plan = plan_protection(report, budget, granularity=256)
        rows.append(
            (
                f"{budget_fraction:.0%} of WS",
                f"{budget:.0f}",
                ", ".join(plan.protected) or "(nothing)",
                f"{plan.cost:.0f}",
                f"{plan.improvement:.1f}x",
            )
        )
    print(
        format_table(
            ["budget", "bytes", "protected", "cost", "DVF improvement"],
            rows,
        )
    )
    print()
    print(
        "Reading: the matrix A carries nearly all of CG's DVF, so even a "
        "small\nbudget that can cover A achieves most of the possible "
        "improvement —\nselective protection at a fraction of uniform-"
        "protection cost."
    )


if __name__ == "__main__":
    main()
