"""The paper's two use cases (§V): algorithm and hardware trade-offs.

* :func:`cg_vs_pcg_sweep` — §V-A / Figure 6: how preconditioning (an
  algorithm optimisation) shifts DVF across problem sizes.  Iteration
  counts are *measured* by running the actual solvers to convergence.
* :func:`ecc_tradeoff_sweep` — §V-B / Figure 7: how an ECC scheme's
  residual FIT rate and performance cost interact; DVF is minimised at
  a small positive performance degradation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cachesim.configs import CacheGeometry
from repro.core.analyzer import DVFAnalyzer
from repro.core.dvf import build_report
from repro.core.fit import ECCScheme, NO_ECC
from repro.core.machine import MachineModel
from repro.kernels.base import Kernel, Workload
from repro.kernels.conjugate_gradient import ConjugateGradientKernel


# ----------------------------------------------------------------------
# §V-A: CG vs PCG (Figure 6)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AlgorithmComparison:
    """DVF of CG and PCG at one problem size."""

    problem_size: int
    cg_iterations: int
    pcg_iterations: int
    cg_dvf: float
    pcg_dvf: float
    cg_time: float
    pcg_time: float

    @property
    def pcg_wins(self) -> bool:
        """Whether the preconditioned variant is less vulnerable."""
        return self.pcg_dvf < self.cg_dvf


def compare_cg_pcg(
    n: int,
    geometry: CacheGeometry,
    fit: float = NO_ECC.fit,
    tol: float = 1e-10,
    seed: int = 0,
) -> AlgorithmComparison:
    """Measure solver iterations at size ``n`` and evaluate both DVFs."""
    kernel = ConjugateGradientKernel()
    analyzer = DVFAnalyzer(MachineModel.from_geometry(geometry, fit=fit))
    results = {}
    for variant in ("cg", "pcg"):
        probe = Workload(
            "fig6", {"n": n, "variant": variant, "system": "laplacian2d",
                     "seed": seed}
        )
        solved = kernel.solve(probe, tol=tol)
        workload = Workload(
            "fig6",
            {
                "n": n,
                "variant": variant,
                "system": "laplacian2d",
                "iterations": max(solved.iterations, 1),
                "seed": seed,
            },
        )
        report = analyzer.analyze(kernel, workload)
        results[variant] = (solved.iterations, report)
    cg_iters, cg_report = results["cg"]
    pcg_iters, pcg_report = results["pcg"]
    return AlgorithmComparison(
        problem_size=n,
        cg_iterations=cg_iters,
        pcg_iterations=pcg_iters,
        cg_dvf=cg_report.dvf_application,
        pcg_dvf=pcg_report.dvf_application,
        cg_time=cg_report.time_seconds,
        pcg_time=pcg_report.time_seconds,
    )


def cg_vs_pcg_sweep(
    sizes: list[int],
    geometry: CacheGeometry,
    fit: float = NO_ECC.fit,
    tol: float = 1e-10,
) -> list[AlgorithmComparison]:
    """Figure 6: the CG/PCG DVF comparison across problem sizes."""
    return [compare_cg_pcg(n, geometry, fit=fit, tol=tol) for n in sizes]


def crossover_size(comparisons: list[AlgorithmComparison]) -> int | None:
    """Smallest size from which PCG stays less vulnerable, if any."""
    for i, row in enumerate(comparisons):
        if row.pcg_wins and all(r.pcg_wins for r in comparisons[i:]):
            return row.problem_size
    return None


# ----------------------------------------------------------------------
# §V-B: ECC protection (Figure 7)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ECCTradeoffPoint:
    """DVF of one scheme at one performance-degradation level."""

    scheme: str
    degradation: float
    effective_fit: float
    time_seconds: float
    dvf: float


def ecc_tradeoff_sweep(
    kernel: Kernel,
    workload: Workload,
    geometry: CacheGeometry,
    schemes: list[ECCScheme],
    degradations: list[float] | np.ndarray | None = None,
    baseline: ECCScheme = NO_ECC,
) -> list[ECCTradeoffPoint]:
    """Figure 7: DVF vs performance degradation for ECC schemes.

    For each scheme and degradation level ``d`` the execution time grows
    to ``T0 * (1 + d)`` while the effective FIT rate interpolates from
    the unprotected baseline toward the scheme's residual rate as its
    coverage ramps up (see :class:`~repro.core.fit.ECCScheme`).
    """
    if degradations is None:
        degradations = np.linspace(0.0, 0.30, 31)
    machine = MachineModel.from_geometry(geometry, fit=baseline.fit)
    base = DVFAnalyzer(machine).analyze(kernel, workload)
    sizes = {s.name: s.size_bytes for s in base.structures}
    nha = {s.name: s.nha for s in base.structures}
    points: list[ECCTradeoffPoint] = []
    for scheme in schemes:
        for degradation in np.asarray(degradations, dtype=float):
            fit = scheme.effective_fit(degradation, baseline.fit)
            time_s = base.time_seconds * (1.0 + degradation)
            report = build_report(
                kernel.name, machine.name, fit, time_s, sizes, nha
            )
            points.append(
                ECCTradeoffPoint(
                    scheme=scheme.name,
                    degradation=float(degradation),
                    effective_fit=fit,
                    time_seconds=time_s,
                    dvf=report.dvf_application,
                )
            )
    return points


def optimal_degradation(
    points: list[ECCTradeoffPoint], scheme: str
) -> ECCTradeoffPoint:
    """The degradation level minimising DVF for one scheme."""
    candidates = [p for p in points if p.scheme == scheme]
    if not candidates:
        raise KeyError(f"no points for scheme {scheme!r}")
    return min(candidates, key=lambda p: p.dvf)
