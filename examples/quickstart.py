"""Quickstart: compute DVF for a kernel and rank its data structures.

This walks the paper's basic workflow end to end:

1. pick a hardware configuration (a Table IV cache + Table VII FIT rate);
2. pick an application (one of the six Table II kernels + a workload);
3. run the analytical DVF analysis (CGPMAC N_ha + roofline T);
4. read the per-data-structure vulnerability ranking;
5. cross-check one kernel against the cache-simulator ground truth.

Run:  python examples/quickstart.py
"""

from repro.cachesim.configs import PAPER_CACHES
from repro.core.analyzer import DVFAnalyzer
from repro.core.fit import NO_ECC
from repro.core.machine import MachineModel
from repro.core.report import render_dvf_report
from repro.core.validation import validate_kernel
from repro.kernels.registry import KERNELS
from repro.kernels.workloads import workload_for


def main() -> None:
    # 1. Hardware: the paper's 8MB profiling cache, unprotected DRAM.
    geometry = PAPER_CACHES["8MB"]
    analyzer = DVFAnalyzer(MachineModel.from_geometry(geometry, fit=NO_ECC.fit))

    # 2-4. Analyze every kernel at the reduced "test" sizes (instant).
    print("Per-kernel DVF analysis on", geometry.describe())
    print()
    for name in ("VM", "CG", "NB", "MG", "FT", "MC"):
        kernel = KERNELS[name]
        workload = workload_for(name, "test")
        report = analyzer.analyze(kernel, workload)
        print(render_dvf_report(report))
        most = report.ranked()[0]
        print(
            f"-> most vulnerable structure of {name}: {most.name!r} "
            f"(DVF {most.dvf:.3e})\n"
        )

    # 5. Ground-truth check: the analytical N_ha vs the LRU simulator.
    print("Validating the VM model against the cache simulator...")
    result = validate_kernel(
        KERNELS["VM"], workload_for("VM", "test"), PAPER_CACHES["small"]
    )
    for s in result.structures:
        print(
            f"  {s.structure}: simulator={s.simulated:.0f} "
            f"model={s.estimated:.0f} error={s.relative_error * 100:.1f}%"
        )
    print(
        f"  (model {result.model_seconds * 1e3:.2f} ms vs simulation "
        f"{result.simulation_seconds * 1e3:.0f} ms — "
        f"{result.speedup:.0f}x faster)"
    )


if __name__ == "__main__":
    main()
