"""DVFAnalyzer — kernel x machine -> per-data-structure DVF report.

This is the top of the paper's Fig. 3 workflow: application information
(a :class:`~repro.kernels.base.Kernel` + workload), hardware information
(a :class:`~repro.core.machine.MachineModel`: cache geometry, FIT and
roofline rates), the CGPMAC estimate of ``N_ha`` and the execution time
``T`` combine into Eq. 1-2 DVF values.

Two evaluation paths are available:

* :meth:`DVFAnalyzer.analyze` — the fast analytical path (seconds, per
  the paper's headline claim);
* :meth:`DVFAnalyzer.analyze_simulated` — the ground-truth path driving
  the instrumented kernel through the cache simulator (used for
  validation, Fig. 4).
"""

from __future__ import annotations

from repro.core.dvf import DVFReport, build_report, check_time
from repro.core.machine import MachineModel
from repro.diagnostics import DiagnosticSink
from repro.kernels.base import Kernel, Workload


class DVFAnalyzer:
    """Computes DVF reports for kernels on one machine."""

    def __init__(self, machine: MachineModel):
        self.machine = machine

    # ------------------------------------------------------------------
    def runtime_provider(self, kernel: Kernel, workload: Workload) -> float:
        """Default ``T``: the machine's roofline time for the run's counts."""
        resources = kernel.resource_counts(workload)
        return self.machine.roofline_seconds(
            resources.flops, resources.bytes_moved
        )

    def _time(
        self, kernel: Kernel, workload: Workload, time_seconds: float | None
    ) -> float:
        if time_seconds is None:
            return self.runtime_provider(kernel, workload)
        return check_time(time_seconds)

    def _report(
        self,
        kernel: Kernel,
        workload: Workload,
        time_seconds: float,
        nha: dict[str, float],
        **options,
    ) -> DVFReport:
        """Eq. 1-2 on this machine; ``options`` go to ``build_report``."""
        return build_report(
            application=kernel.name,
            machine=self.machine.name,
            fit=self.machine.fit,
            time_seconds=time_seconds,
            sizes={
                name: float(size)
                for name, size in kernel.data_sizes(workload).items()
            },
            nha=nha,
            **options,
        )

    # ------------------------------------------------------------------
    def analyze(
        self,
        kernel: Kernel,
        workload: Workload,
        time_seconds: float | None = None,
        sink: DiagnosticSink | None = None,
    ) -> DVFReport:
        """Analytical DVF report (CGPMAC ``N_ha`` + roofline ``T``).

        ``time_seconds`` replaces the roofline ``T``; a negative or
        non-finite time raises ``ValueError`` with or without a sink.
        Without a ``sink`` the first estimator error raises.  With one,
        estimator failures degrade to the worst-case bound instead; the
        report carries the sink's diagnostics and flags degraded
        structures.
        """
        time_seconds = self._time(kernel, workload, time_seconds)
        nha, degraded = kernel.estimate_nha(workload, self.machine.cache, sink)
        return self._report(
            kernel, workload, time_seconds, nha, degraded=degraded, sink=sink
        )

    def analyze_simulated(
        self,
        kernel: Kernel,
        workload: Workload,
        time_seconds: float | None = None,
        **replay,
    ) -> DVFReport:
        """Ground-truth DVF report: ``N_ha`` from the cache simulator.

        ``replay`` keyword arguments (engine, trace cache, chunk size)
        go to :func:`~repro.core.validation.ground_truth_stats`, which
        replays the kernel's trace exactly.
        """
        from repro.core.validation import ground_truth_stats

        time_seconds = self._time(kernel, workload, time_seconds)
        stats = ground_truth_stats(
            kernel, workload, self.machine.cache, **replay
        )
        nha = {
            name: float(stats.misses(name))
            for name in kernel.data_structures(workload)
        }
        return self._report(kernel, workload, time_seconds, nha)
