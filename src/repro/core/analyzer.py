"""DVFAnalyzer — kernel x machine -> per-data-structure DVF report.

This is the top of the paper's Fig. 3 workflow: application information
(a :class:`~repro.kernels.base.Kernel` + workload), hardware information
(cache geometry + FIT), the CGPMAC estimate of ``N_ha`` and an execution
time provider combine into Eq. 1-2 DVF values.

Two evaluation paths are available:

* :meth:`DVFAnalyzer.analyze` — the fast analytical path (seconds, per
  the paper's headline claim);
* :meth:`DVFAnalyzer.analyze_simulated` — the ground-truth path driving
  the instrumented kernel through the cache simulator (used for
  validation, Fig. 4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cachesim.configs import CacheGeometry
from repro.core.dvf import DVFReport, build_report
from repro.core.fit import NO_ECC
from repro.core.runtime import RooflineRuntime, RuntimeProvider
from repro.diagnostics import DiagnosticSink, check_mode
from repro.kernels.base import Kernel, Workload


@dataclass(frozen=True)
class AnalyzerConfig:
    """Hardware context for DVF analysis.

    Attributes
    ----------
    geometry:
        Last-level-cache geometry (paper Table IV entries).
    fit:
        Memory FIT rate (paper Table VII; default: unprotected memory).
    flops_rate / bandwidth:
        Roofline machine parameters for the modeled execution time.
    """

    geometry: CacheGeometry
    fit: float = NO_ECC.fit
    flops_rate: float = 2.0e9
    bandwidth: float = 12.8e9


class DVFAnalyzer:
    """Computes DVF reports for kernels on a machine configuration."""

    def __init__(self, config: AnalyzerConfig):
        self.config = config

    # ------------------------------------------------------------------
    def runtime_provider(
        self, kernel: Kernel, workload: Workload
    ) -> RuntimeProvider:
        """Default execution-time provider: the roofline model."""
        resources = kernel.resource_counts(workload)
        return RooflineRuntime(
            flops=resources.flops,
            bytes_moved=resources.bytes_moved,
            flops_rate=self.config.flops_rate,
            bandwidth=self.config.bandwidth,
        )

    # ------------------------------------------------------------------
    def analyze(
        self,
        kernel: Kernel,
        workload: Workload,
        runtime: RuntimeProvider | None = None,
        alpha: float = 1.0,
        beta: float = 1.0,
        mode: str = "strict",
        sink: DiagnosticSink | None = None,
    ) -> DVFReport:
        """Analytical DVF report (CGPMAC ``N_ha`` + roofline ``T``).

        In ``lenient`` mode estimator failures degrade to the worst-case
        bound instead of raising; the report carries the collected
        diagnostics and flags degraded structures.
        """
        check_mode(mode)
        if runtime is None:
            runtime = self.runtime_provider(kernel, workload)
        degraded: frozenset[str] = frozenset()
        if mode == "lenient":
            sink = sink if sink is not None else DiagnosticSink()
            nha, degraded = kernel.estimate_nha_checked(
                workload, self.config.geometry, sink
            )
        else:
            nha = kernel.estimate_nha(workload, self.config.geometry)
        return build_report(
            application=kernel.name,
            machine=self.config.geometry.name or "machine",
            fit=self.config.fit,
            time_seconds=runtime.seconds(),
            sizes={
                name: float(size)
                for name, size in kernel.data_sizes(workload).items()
            },
            nha=nha,
            alpha=alpha,
            beta=beta,
            degraded=degraded,
            mode=mode,
            sink=sink,
        )

    def analyze_simulated(
        self,
        kernel: Kernel,
        workload: Workload,
        runtime: RuntimeProvider | None = None,
        **replay,
    ) -> DVFReport:
        """Ground-truth DVF report: ``N_ha`` from the cache simulator.

        ``replay`` keyword arguments (engine, trace cache, chunk size)
        go to :func:`~repro.core.validation.ground_truth_stats`, which
        replays the kernel's trace exactly.
        """
        from repro.core.validation import ground_truth_stats

        if runtime is None:
            runtime = self.runtime_provider(kernel, workload)
        stats = ground_truth_stats(
            kernel, workload, self.config.geometry, **replay
        )
        nha = {
            name: float(stats.misses(name))
            for name in kernel.data_structures(workload)
        }
        return build_report(
            application=kernel.name,
            machine=self.config.geometry.name or "machine",
            fit=self.config.fit,
            time_seconds=runtime.seconds(),
            sizes={
                name: float(size)
                for name, size in kernel.data_sizes(workload).items()
            },
            nha=nha,
        )
